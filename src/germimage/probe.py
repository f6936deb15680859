"""Monte Carlo corroboration: occupancy of the image inside a small polydisk.

Nothing here certifies anything.  The probes sample a ball in the source,
push the samples through the map, and report how much of a small target
polydisk the image hits.  They corroborate the exact classifier's verdicts
(open image: high occupancy; curve image: tiny residuals against the curve
equation; unstable image: bins occupied at a larger source radius but not
at a smaller one) and are labeled as evidence wherever they surface.

The probe contract: this module is the one place that knows a probe
kind.  :func:`check_probe` holds what a probe of each kind refuses before
it draws (stability radii that are not finite eps1 > eps2 > 0, a zero
residual curve, images that could overflow floating point); every probe
runs it first, and the corpus parser runs it on each entry at load.  A
probe returns a frozen report whose class attribute ``kind`` names the
probe and whose fields, the arrays aside, are its report section in
order (see :func:`germimage.report.probe_json`).

The source ball is sampled directly, not by rejection from a cube: a
normalized Gaussian direction scaled by a radius U^(1/2n) is uniform in
the unit ball of C^n = R^(2n) (Muller 1959; Marsaglia 1972), so the cost
per sample does not grow with n.

Determinism contract: every report is a pure function of the map and the
config: the k-th sample depends only on (seed, k), and the numpy kernels
evaluate bit for bit like :meth:`Polynomial.evaluate`.  The kernels walk
the samples in fixed row blocks; each value still goes through one fixed
sequence of IEEE operations and each hit count is an integer sum, so no
report depends on the blocking.

Threads: the sampler and the kernels use the machine's second core
inside the call.  The sampler owns two sets of chunk buffers; a helper
thread draws the next chunk into one set while the
calling thread scales, filters and copies the chunk in the other, and
the one generator is still consumed chunk by chunk in order, with
``out=`` fills that draw the numbers fresh arrays would hold.  The
kernels cut their rows at a block edge, and each thread writes only its
own rows or its own count array (see :mod:`germimage.kernels`); a probe
slice starts one kernel helper, which evaluates the cheaper component at
its rows, the other one only where the first lies in the target disk,
and bins the images.  So the (seed, k) contract and the bitwise parity
hold as on one thread.  Helper threads run private helpers and numpy
only, never a public function of this package, so whoever wraps the
public functions sees the calls a single thread makes; each helper is
joined, and its error re-raised, before the call that started it
returns.

Shared draws: every probe takes an optional ``draw``, a
:class:`SharedBallSamples` made for one run, in place of a fresh
:func:`unit_ball_samples` draw.  It keeps each (n, seed) stream as its
points so far, the generator state at the start of the last chunk drawn
and how many kept rows of that chunk are used.  A request within the
stream reads a prefix; a longer one restores that state, redraws that
chunk, skips its used rows and draws on, so only the new points are
added.  A producer thread draws them, with the draw-ahead helper of a
fresh draw, while the probe scales, evaluates and bins each slice of
``_PIECE`` rows as soon as it is written; the probe joins both before
it returns or raises.  Every chunk goes through the sampler of a fresh
draw, so the k-th sample still depends only on (seed, k), and a shared
draw returns exactly the points a fresh one would.

Resources are bounded: a probe holds its unit sample, walks it in slices
of ``_PIECE`` rows (scale, evaluate, bin, slice after slice), and keeps
one count per grid cell, so beyond the sample its scratch memory does
not grow with ``samples``; binning never holds the images f(points) and
g(points) at full length.  A fresh sample is freed once its last slice
is scaled.  A stream's producer writes only into buffers allocated on
the probe's thread before it starts, and every draw scales with
``out=`` operations.  The residual probe also keeps one float per sample, for
the mean.  A config asking for more than ``_MAX_CELLS`` cells (32 bins
per axis) is rejected before anything is allocated, and so is a probe
that :func:`check_probe` refuses.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError
from .kernels import bin_hits, centers_inside_polydisk, evaluate_batch

# Largest 4-D grid a probe may ask for: 32^4 cells, 8 MB of int64 counts
# per count array (a probe keeps one, and bin_hits one per thread).
_MAX_CELLS = 1 << 20


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs of the Monte Carlo probes; ``seed`` drives their sampling.

    ``target_radius=None`` resolves to ``epsilon**2 / 4``: a quadratic
    target scale with a factor-4 margin suits maps of degree <= 2 in each
    factor; corpus entries override it per map.
    """

    epsilon: float = 0.1
    target_radius: float | None = None
    samples: int = 200_000
    grid_bins_per_axis: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.grid_bins_per_axis < 1 or self.samples < 1:
            raise PreconditionError("samples and bins per axis must be at least 1")
        cells = self.grid_bins_per_axis**4
        if cells > _MAX_CELLS:
            raise PreconditionError(
                f"{self.grid_bins_per_axis} bins per axis make {cells} grid cells, "
                f"more than the {_MAX_CELLS} a probe allows"
            )
        # the radius epsilon**2 / 4 can overflow or underflow a finite epsilon
        if not all(r > 0 and math.isfinite(r) for r in (self.epsilon, self.radius)):
            raise PreconditionError(
                "epsilon and the target radius must be positive and finite, got "
                f"epsilon = {self.epsilon}, target radius = {self.radius}"
            )

    @property
    def radius(self):
        if self.target_radius is not None:
            return float(self.target_radius)
        return self.epsilon * self.epsilon / 4.0


# The reports: a class attribute ``kind`` names the probe, and the fields
# are in the order of the report section, arrays last and left out of it.
@dataclass(frozen=True)
class OccupancyReport:
    kind = "occupancy"
    epsilon: float
    target_radius: float
    samples: int
    grid_bins_per_axis: int
    seed: int
    total_bins: int
    occupied_bins: int
    occupied_fraction: float
    hit_histogram: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class StabilityReport:
    kind = "stability"
    eps1: float
    eps2: float
    target_radius: float
    samples: int
    grid_bins_per_axis: int
    seed: int
    occupied_eps1: int
    occupied_eps2: int
    divergence: float
    bitmap_eps1: np.ndarray = field(repr=False)
    bitmap_eps2: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class ResidualReport:
    kind = "residual"
    epsilon: float
    samples: int
    seed: int
    max_residual: float
    mean_residual: float


# Rows of the unit sample scaled, evaluated and binned at a time.  2^18
# rows keep the per-slice arrays a few MB; every probe of up to 2^18
# samples is a single slice, with the allocations of a whole-array probe.
_PIECE = 1 << 18


# Rows drawn per chunk.  Fixed, whatever the sample count, so that the
# k-th sample depends only on (seed, k).
_CHUNK = 1 << 16


def _draw_chunk(rng, gauss, uniform):
    """Fill one chunk's buffers in place: its Gaussians, then its uniforms."""
    rng.standard_normal(out=gauss)
    rng.random(out=uniform)


def _place_chunk(gauss, uniform, norms, inside, out, have, skip):
    """Scale a drawn chunk to ball points and copy its kept rows into ``out[have:]``.

    The first ``skip`` kept rows are passed over, and as many of the rest
    are copied as ``out`` has room for.  Returns how many kept rows of
    the chunk are used: ``skip`` plus those copied.  Every step writes
    into the chunk's buffers (``norms`` and the mask ``inside`` are
    ``_CHUNK`` long) with the operations that fresh arrays would take.
    """
    dim = gauss.shape[1]
    np.einsum("ij,ij->i", gauss, gauss, out=norms)
    np.sqrt(norms, out=norms)
    uniform **= 1.0 / dim  # the radius U^(1/2n), bit for bit as uniform ** (1.0 / dim)
    np.divide(uniform, norms, out=norms)
    gauss *= norms[:, None]
    np.einsum("ij,ij->i", gauss, gauss, out=norms)
    np.less(norms, 1.0, out=inside)
    rows = gauss if inside.all() else gauss[inside]  # rare: skip the copy when no row is dropped
    take = min(out.shape[0] - have, rows.shape[0] - skip)
    out[have : have + take] = rows[skip : skip + take]
    return skip + take


def _chunk_buffers(dim):
    """One chunk's Gaussians and uniforms."""
    return np.empty((_CHUNK, dim)), np.empty(_CHUNK)


def _scale_buffers():
    """The row norms and the kept-row mask of one chunk."""
    return np.empty(_CHUNK), np.empty(_CHUNK, dtype=bool)


def unit_ball_samples(nvars, count, seed):
    """``count`` points uniform in the open unit ball of C^nvars = R^(2*nvars).

    Each chunk of ``_CHUNK`` rows draws Gaussian vectors g, then uniforms
    U in [0, 1), and scales each row to U^(1/2n) * g / |g|: the direction
    is uniform on the sphere and the radius has the ball's law
    P(r < rho) = rho^(2n) (Muller 1959; Marsaglia 1972).  A row whose
    squared norm rounds to 1.0 or above is dropped, which keeps every
    point strictly inside and removes almost none.  Chunks are consumed in
    order, so the k-th point depends only on (seed, k), and a shorter draw
    is a prefix of a longer one.  Real and imaginary parts alternate in
    the float rows, which are returned as a complex128 view of shape
    (count, nvars).

    Two threads share the work (``_Sampler``, which also extends the
    streams of :class:`SharedBallSamples`).  Two sets of chunk buffers
    (Gaussians and uniforms) are allocated before any draw.  While the
    calling thread scales, filters and copies the chunk in one set, a
    helper thread fills the other set with the next chunk's draws, by
    ``standard_normal(out=...)`` and ``random(out=...)`` on the one
    generator; the calling thread waits for it before it reads that set
    or touches the generator.  So the generator is still consumed chunk
    by chunk in order, the fills draw the numbers that fresh arrays of the
    same shape would hold, and every point is the same bits as from a
    single thread.  The next chunk is drawn ahead only when the current
    one cannot finish the request; a chunk that comes up short (rows
    dropped) is followed by a draw on the calling thread.  The helper runs
    only the private fill, and it is joined before this returns or raises;
    an error it raised is raised here.
    """
    rng = np.random.default_rng(seed)
    out = np.empty((count, 2 * nvars), dtype=np.float64)
    with ThreadPoolExecutor(max_workers=1) as helper:
        _Sampler(rng, out, 0, 0).fill_to(count, helper)
    return out.view(np.complex128)


class _Sampler:
    """Draws the points of one stream into ``rows`` chunk by chunk, from row ``have`` on.

    ``rng`` stands at the start of a chunk of which the first ``skip``
    kept rows are in ``rows`` already.  The buffers are allocated here,
    on the thread that makes the sampler: two sets of chunk buffers and
    one set of scale buffers.  ``state`` and ``used`` follow the last
    chunk placed: the generator state at its start, and how many of its
    kept rows are in ``rows``.
    """

    def __init__(self, rng, rows, have, skip):
        dim = rows.shape[1]
        self.rng, self.rows, self.have, self.skip = rng, rows, have, skip
        self.current, self.following = _chunk_buffers(dim), _chunk_buffers(dim)
        self.scale = _scale_buffers()
        self.ahead = None  # (state, fill) of the next chunk, when the helper draws it
        self.state, self.used = None, 0

    def fill_to(self, target, helper):
        """Place chunks until the first ``target`` rows are written.

        ``helper`` draws the next chunk while this thread places the
        current one, whenever the current one cannot finish all the rows.
        """
        rng, count = self.rng, self.rows.shape[0]
        while self.have < target:
            if self.ahead is None:
                self.state = rng.bit_generator.state
                _draw_chunk(rng, *self.current)
            else:
                self.state, fill = self.ahead
                fill.result()
            self.ahead = None
            if count - self.have > _CHUNK:  # this chunk cannot finish the rows
                state = rng.bit_generator.state
                self.ahead = state, helper.submit(_draw_chunk, rng, *self.following)
            used = _place_chunk(*self.current, *self.scale, self.rows, self.have, self.skip)
            self.have += used - self.skip
            self.used, self.skip = used, 0
            self.current, self.following = self.following, self.current


@dataclass(frozen=True)
class _Stream:
    """One (nvars, seed) stream of a :class:`SharedBallSamples`.

    ``points`` holds the points drawn so far (read-only); ``state`` is the
    generator state at the start of the last chunk drawn, and ``used`` is
    how many kept rows of that chunk are in ``points``.
    """

    points: np.ndarray
    state: dict | None
    used: int


def _drawn(rows):
    """``ready`` of a sample whose rows are all drawn."""


class SharedBallSamples:
    """Unit-ball draws shared by the probes of one run.

    Each (nvars, seed) stream is drawn once, chunk by chunk, and resumed
    where it stopped when a request asks for more (see the module
    docstring), so a request gets exactly the first ``count`` points of a
    fresh :func:`unit_ball_samples` draw.  The points are read-only, so a
    probe that wrote into a shared sample would fail instead of changing
    the points of later probes.
    """

    def __init__(self):
        self._streams = {}

    def __call__(self, nvars, count, seed):
        """The first ``count`` points of the (nvars, seed) stream, once all are drawn."""
        with self.stream(nvars, count, seed) as (unit, ready):
            ready(count)
        return unit

    def release(self, nvars, seed):
        """Drop the (nvars, seed) stream; a later request draws it afresh."""
        self._streams.pop((nvars, seed), None)

    @contextmanager
    def stream(self, nvars, count, seed):
        """``(unit, ready)``: the first ``count`` points of the stream, and a wait for them.

        ``ready(rows)`` returns once the first ``rows`` points of ``unit``
        are written, and raises the producer's error if it failed.  Rows
        past the points kept so far are drawn by one producer thread, with
        the sampler's draw-ahead helper; it waits for no one and writes
        each slice of ``_PIECE`` rows in turn.  Both are joined before
        this context exits, and the stream takes the new points only if
        every row was drawn.
        """
        key = (nvars, seed)
        old = self._streams.get(key) or _Stream(np.empty((0, nvars), np.complex128), None, 0)
        have = old.points.shape[0]
        if count <= have:
            yield old.points[:count], _drawn
            return
        rows = np.empty((count, 2 * nvars))
        rng = np.random.default_rng(seed)
        if old.state is not None:
            rng.bit_generator.state = old.state
        sampler = _Sampler(rng, rows, have, old.used)
        unit = rows.view(np.complex128)
        shared = unit[:]
        shared.flags.writeable = False
        drawn = have

        def ready(upto):
            nonlocal drawn
            while drawn < upto:
                end, job = pending.popleft()
                job.result()
                drawn = end

        with (
            ThreadPoolExecutor(max_workers=1) as helper,
            ThreadPoolExecutor(max_workers=1) as producer,
        ):
            # one job per slice that holds new rows, in order
            first = have - have % _PIECE + _PIECE
            ends = [min(end, count) for end in range(first, count + _PIECE, _PIECE)]
            pending = deque((end, producer.submit(sampler.fill_to, end, helper)) for end in ends)
            unit[:have] = old.points  # while the producer draws the first new chunk
            # the copy stands for the old points from here on, which frees
            # them, and keeps the stream whole if the extension fails
            self._streams[key] = old = _Stream(shared[:have], old.state, old.used)
            try:
                yield shared, ready
                ready(count)
            except BaseException:
                producer.shutdown(wait=False, cancel_futures=True)
                raise
        rows.flags.writeable = False
        self._streams[key] = _Stream(shared, sampler.state, sampler.used)


def _slices(unit, eps, ready=_drawn):
    """(rows, eps * unit[rows]) for consecutive slices of ``_PIECE`` rows.

    Each slice waits for ``ready`` first.  The reference to ``unit`` goes
    once the last slice is scaled, so a sample the probe drew for itself
    is freed before that slice is evaluated, and a one-slice probe holds
    what a whole-array probe held.
    """
    count = unit.shape[0]
    for lo in range(0, count, _PIECE):
        rows = slice(lo, lo + _PIECE)
        ready(min(lo + _PIECE, count))
        pts = eps * unit[rows]
        if lo + _PIECE >= count:
            del unit
        yield rows, pts


@contextmanager
def _unit_sample(germ, cfg, draw):
    """``(unit, ready)`` of the probe's sample: a fresh draw, or ``draw``'s stream."""
    if draw is None:
        yield unit_ball_samples(germ.n, cfg.samples, cfg.seed), _drawn
    else:
        with draw.stream(germ.n, cfg.samples, cfg.seed) as sample:
            yield sample


@contextmanager
def _sample_slices(germ, cfg, draw, eps):
    """:func:`_slices` of the probe's sample at scale ``eps``.

    A fresh sample is held by the slices alone, so it is freed early.
    """
    if draw is None:
        yield _slices(unit_ball_samples(germ.n, cfg.samples, cfg.seed), eps)
    else:
        with draw.stream(germ.n, cfg.samples, cfg.seed) as (unit, ready):
            yield _slices(unit, eps, ready)


def check_probe(kind, germ, cfg, eps=None, phi=None):
    """Refuse, before any draw, a probe of ``kind`` that could not run.

    Every probe calls this first, and :func:`germimage.corpus.parse_corpus`
    calls it on each entry's germ.  A stability probe needs ``eps`` =
    (eps1, eps2) with finite eps1 > eps2 > 0 and samples the ball of
    radius eps1; the other probes sample the ball of radius
    ``cfg.epsilon``.  A residual probe's curve ``phi`` must be nonzero;
    ``phi=None`` (a corpus entry, whose curve comes from ``classify``)
    leaves the curve unchecked.  Both refusals are ValueErrors.

    The images must also stay within floating point (PreconditionError).
    On the polydisk of that radius every |f| is at most the sum of
    |c_m| * r^|m| over the terms of f, and likewise for g; ``phi`` is
    bounded the same way on the polydisk of those two bounds.  The kernels
    square such values, so each squared bound must be finite.
    """
    eps1, eps2 = eps or (None, None)
    if kind == "stability" and (
        None in (eps1, eps2) or not (eps1 > eps2 > 0 and math.isfinite(eps1))
    ):
        raise ValueError(f"need finite eps1 > eps2 > 0, got eps1 = {eps1}, eps2 = {eps2}")
    if phi is not None and phi.is_zero():
        raise ValueError("residual probe needs a nonzero curve equation")
    radius = eps1 if kind == "stability" else cfg.epsilon

    def bound(poly, radii):
        total = 0.0
        for m, c in poly.terms:
            term = abs(complex(c))
            for r, e in zip(radii, m):
                try:
                    term *= r**e
                except OverflowError:
                    return math.inf
            total += term
        return total

    radii = [bound(p, [radius] * germ.n) for p in (germ.f, germ.g)]
    named = [("f", radii[0]), ("g", radii[1])]
    if phi is not None:
        named.append(("phi(f, g)", bound(phi, radii)))
    for name, b in named:
        if not math.isfinite(b * b):
            raise PreconditionError(
                f"|{name}| may reach {b:.3g} on the source ball of radius {radius}, "
                "and its square overflows floating point"
            )


def _add_hits(counts, germ, pts, radius, bins):
    """``counts`` plus the grid hits of F(pts); ``None`` starts the count."""
    hits = bin_hits(pts, germ.f, germ.g, radius, bins)
    if counts is None:
        return hits
    counts += hits
    return counts


def _occupancy_bitmap(counts, inside_mask):
    return (counts > 0) & inside_mask


def ball_image_occupancy(germ, cfg, draw=None):
    """Occupancy of the image of the epsilon-ball inside the target polydisk.

    A grid cell counts as covered with a single hit; the denominator is the
    number of cells whose center lies inside the open polydisk.
    """
    check_probe("occupancy", germ, cfg)
    r = cfg.radius
    bins = cfg.grid_bins_per_axis
    counts = None
    with _sample_slices(germ, cfg, draw, cfg.epsilon) as slices:
        for _, pts in slices:
            counts = _add_hits(counts, germ, pts, r, bins)
    inside = centers_inside_polydisk(r, bins)
    total = int(inside.sum())
    occupied = int(_occupancy_bitmap(counts, inside).sum())
    return OccupancyReport(
        occupied_fraction=occupied / total if total else 0.0,
        total_bins=total,
        occupied_bins=occupied,
        hit_histogram=counts,
        epsilon=cfg.epsilon,
        target_radius=r,
        samples=cfg.samples,
        grid_bins_per_axis=bins,
        seed=cfg.seed,
    )


def germ_stability_probe(germ, eps1, eps2, cfg, draw=None):
    """One-sided occupancy divergence between two source radii.

    The same unit-ball sample is reused scaled by eps1 and by eps2, and the
    eps1 bitmap is built from the union of both scaled samples (every
    eps2-scaled point also lies in the eps1-ball).  Hence the eps2 bitmap
    is a subset of the eps1 bitmap exactly, not just statistically, and

        divergence = |occupied(eps1) - occupied(eps2)| / |occupied(eps1)|

    is zero for a map whose image germ is radius-independent up to
    sampling noise.
    """
    check_probe("stability", germ, cfg, (eps1, eps2))
    r = cfg.radius
    bins = cfg.grid_bins_per_axis
    counts1 = counts2 = None
    with _unit_sample(germ, cfg, draw) as (unit, ready):
        for rows, pts in _slices(unit, eps2, ready):
            counts2 = _add_hits(counts2, germ, pts, r, bins)
            np.multiply(eps1, unit[rows], out=pts)  # the same operation as eps1 * unit[rows]
            counts1 = _add_hits(counts1, germ, pts, r, bins)
    counts1 += counts2

    inside = centers_inside_polydisk(r, bins)
    bm1 = _occupancy_bitmap(counts1, inside)
    bm2 = _occupancy_bitmap(counts2, inside)
    n1 = int(bm1.sum())
    n2 = int(bm2.sum())
    extra = int((bm1 & ~bm2).sum())
    return StabilityReport(
        divergence=extra / n1 if n1 else 0.0,
        occupied_eps1=n1,
        occupied_eps2=n2,
        bitmap_eps1=bm1,
        bitmap_eps2=bm2,
        eps1=eps1,
        eps2=eps2,
        target_radius=r,
        samples=cfg.samples,
        grid_bins_per_axis=bins,
        seed=cfg.seed,
    )


def curve_residual_probe(germ, phi, cfg, draw=None):
    """|phi(f(x), g(x))| over sampled x.

    For a verified curve-image verdict this is zero up to floating
    round-off, because phi(f, g) vanishes identically in exact arithmetic.
    The residuals of all slices go into one array of ``samples`` floats:
    numpy's pairwise sum depends on the array's length, so the mean is the
    one a whole-array probe takes.
    """
    check_probe("residual", germ, cfg, phi=phi)
    res = np.empty(cfg.samples)
    with _sample_slices(germ, cfg, draw, cfg.epsilon) as slices:
        for rows, pts in slices:
            uv = np.column_stack([evaluate_batch(germ.f, pts), evaluate_batch(germ.g, pts)])
            np.abs(evaluate_batch(phi, uv), out=res[rows])
    return ResidualReport(
        max_residual=float(res.max()),
        mean_residual=float(res.mean()),
        epsilon=cfg.epsilon,
        samples=cfg.samples,
        seed=cfg.seed,
    )
