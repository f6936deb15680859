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

Threads: the sampler and the kernels use the machine's second core.
The sampler owns two sets of chunk buffers; a helper thread draws the
next chunk into one set while the calling thread scales, filters and
copies the chunk in the other, and the one generator is still consumed
chunk by chunk in order, with ``out=`` fills that draw the numbers
fresh arrays would hold.  The kernels cut their rows at a block edge,
and each thread writes only its own rows or its own count array (see
:mod:`germimage.kernels`); a probe slice starts one kernel helper, which
evaluates the cheaper component at its rows, the other one only where
the first lies in the target disk, and bins the images.  So the
(seed, k) contract and the bitwise parity hold as on one thread.  Helper threads run private helpers and
numpy only, never a public function of this package, so whoever wraps
the public functions sees the calls a single thread makes.  Each helper
is joined, and its error re-raised, before the call that started it
returns, and the producer of a :class:`SharedBallSamples` before its
draw is left.

Shared draws: every probe takes an optional ``draw``, a
:class:`SharedBallSamples` planned for one run, in place of a fresh
:func:`unit_ball_samples` draw.  The plan is the run's requests,
(nvars, count, seed) in the order the probes ask.  Each (nvars, seed)
stream is one array at its final length (its longest request), filled
front to back by one sampler, so a request gets exactly the points a
fresh draw would.  One producer thread, with the sampler's draw-ahead
helper, draws the streams ahead of need, segment by segment: segment i
holds the rows request i needs beyond those drawn for earlier requests.
A probe reads a prefix of its stream and waits, slice by slice of
``_PIECE`` rows, only for rows not yet written.

Resources are bounded: a probe holds its unit sample, walks it in slices
of ``_PIECE`` rows (scale, evaluate, bin, slice after slice), and keeps
one count per grid cell, so beyond the sample its scratch memory does
not grow with ``samples``; binning never holds the images f(points) and
g(points) at full length.  A fresh sample is freed once its last slice
is scaled.  A shared draw allocates its streams and their samplers'
buffers on the thread that plans it, with ``np.empty``, so a page of a
stream counts only once it is written.  Its memory rule: segment i
starts only once every other stream whose last request comes before
request i is released.  Then the streams written at any moment are a
subset of those a run drawing request by request holds at request i, at
no greater length but for the rest of the chunk a segment ends in: a
stream written and not released has a request at or before i (its
drawn segments) and its last one at or after i (the rule), and it is
drawn only as far as the requests up to i ask.  The residual probe also
keeps one float per sample, for the mean.  A config asking for more
than ``_MAX_CELLS`` cells (32 bins per axis) is rejected before anything
is allocated, and so is a probe that :func:`check_probe` refuses.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

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


def _place_chunk(gauss, uniform, norms, inside, out, have):
    """Scale a drawn chunk to ball points and copy its kept rows into ``out[have:]``.

    As many kept rows are copied as ``out`` has room for; returns how
    many.  Every step writes into the chunk's buffers (``norms`` and the
    mask ``inside`` are ``_CHUNK`` long) with the operations that fresh
    arrays would take.
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
    take = min(out.shape[0] - have, rows.shape[0])
    out[have : have + take] = rows[:take]
    return take


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

    Two threads share the work (``_Sampler``): while the calling thread
    places one chunk, a helper fills the other set of chunk buffers with
    the next chunk's draws, when the current chunk cannot finish the
    request.  A chunk that comes up short (rows dropped) is followed by a
    draw on the calling thread.  The helper is joined before this returns
    or raises, and an error it raised is raised here.
    """
    out = np.empty((count, 2 * nvars), dtype=np.float64)
    with ThreadPoolExecutor(max_workers=1) as helper:
        _Sampler(np.random.default_rng(seed), out).fill_to(count, helper)
    return out.view(np.complex128)


class _Sampler:
    """Draws the points of one stream into ``rows``, chunk by chunk, front to back.

    Its buffers are allocated on the thread that makes it; ``have`` counts
    the rows written.
    """

    def __init__(self, rng, rows):
        dim = rows.shape[1]
        self.rng, self.rows, self.have = rng, rows, 0
        self.current = np.empty((_CHUNK, dim)), np.empty(_CHUNK)  # Gaussians, uniforms
        self.following = np.empty((_CHUNK, dim)), np.empty(_CHUNK)
        self.scale = np.empty(_CHUNK), np.empty(_CHUNK, dtype=bool)  # row norms, kept rows
        self.ahead = None  # the helper's fill of the next chunk, while it draws it

    def fill_to(self, target, helper):
        """Place chunks until at least the first ``target`` rows are written.

        ``helper`` draws the next chunk while this thread places the
        current one, whenever the current one cannot fill all the rows.
        """
        rng, count = self.rng, self.rows.shape[0]
        while self.have < target:
            if self.ahead is None:
                _draw_chunk(rng, *self.current)
            else:
                self.ahead.result()
            self.ahead = None
            if count - self.have > _CHUNK:  # this chunk cannot fill the rows
                self.ahead = helper.submit(_draw_chunk, rng, *self.following)
            self.have += _place_chunk(*self.current, *self.scale, self.rows, self.have)
            self.current, self.following = self.following, self.current


def _drawn(rows):
    """``ready`` of a sample whose rows are all drawn."""


class SharedBallSamples:
    """Unit-ball draws shared by the probes of one run, drawn ahead of need.

    ``requests`` is the run's plan: (nvars, count, seed) per probe, in the
    order the probes ask.  Each stream and its sampler are allocated here,
    at the stream's final length.  Entering the draw starts the producer
    (see the module docstring); leaving it stops and joins the producer
    and its helper, and raises a producer error that no request raised.
    A request gets the first ``count`` points of a fresh
    :func:`unit_ball_samples` draw as a read-only view, so a probe that
    wrote into it would fail instead of changing later probes' points.
    A request past its stream's planned length or for a stream released
    is refused, and so is a wait for rows that only a release could let
    the producer draw (requests out of plan order).  One thread makes the
    requests and the releases.
    """

    def __init__(self, requests):
        last = {(nvars, seed): i for i, (nvars, _, seed) in enumerate(requests)}
        # per segment: its stream, its end and the streams released before it starts
        self._segments, ends = [], {}
        for i, (nvars, count, seed) in enumerate(requests):
            key = (nvars, seed)
            if count > ends.get(key, 0):
                ends[key] = count
                held = frozenset(k for k, j in last.items() if j < i and k != key)
                self._segments.append((key, count, held))
        # each stream's sampler, whose rows are the stream at its final length
        self._streams = {
            (nvars, seed): _Sampler(np.random.default_rng(seed), np.empty((count, 2 * nvars)))
            for (nvars, seed), count in ends.items()
        }
        self._changed = threading.Condition()
        self._running, self._held, self._error = False, frozenset(), None

    def __enter__(self):
        self._helper = ThreadPoolExecutor(max_workers=1)
        self._producer = ThreadPoolExecutor(max_workers=1)
        self._running = True
        self._job = self._producer.submit(self._produce)
        return self

    def __exit__(self, kind, exc, tb):
        with self._changed:
            self._running = False
            self._changed.notify_all()
        self._producer.shutdown()
        self._helper.shutdown()
        if kind is None:
            self._job.result()  # a producer error that no request raised

    def stream(self, nvars, count, seed):
        """``(unit, ready)``: the first ``count`` points of the stream, and a wait for them.

        ``ready(rows)`` returns once ``unit[:rows]`` is written, or raises.
        """
        sampler = self._streams.get((nvars, seed))
        planned = 0 if sampler is None else sampler.rows.shape[0]
        if count > planned:
            raise PreconditionError(
                f"{count} points asked of the n = {nvars}, seed = {seed} stream, "
                f"which holds {planned}"
            )
        unit = sampler.rows[:count].view(np.complex128)
        unit.flags.writeable = False
        return unit, partial(self._wait, sampler)

    def release(self, nvars, seed):
        """Drop the (nvars, seed) stream; it takes no more requests."""
        with self._changed:
            self._streams.pop((nvars, seed), None)
            self._changed.notify_all()

    def _wait(self, sampler, rows):
        with self._changed:
            while sampler.have < rows:
                if self._error is not None:
                    raise self._error
                if not self._running or self._held & self._streams.keys():
                    raise PreconditionError(
                        "no producer can draw these rows now: the draw is not entered, "
                        "or the requests do not follow the plan"
                    )
                self._changed.wait()

    def _produce(self):
        """Draw the segments in order, each once its memory rule holds."""
        try:
            for key, end, held in self._segments:
                with self._changed:
                    self._held = held  # a request that waits while these are held waits for ever
                    self._changed.notify_all()
                    self._changed.wait_for(
                        lambda: not (self._running and held & self._streams.keys())
                    )
                    if not self._running:
                        return
                self._draw(key, end)
        except BaseException as exc:
            with self._changed:
                self._error = exc
                self._changed.notify_all()
            raise

    def _draw(self, key, end):
        """Fill the ``key`` stream to ``end`` rows a slice at a time, while the draw runs."""
        with self._changed:
            sampler = self._streams.get(key)
        while sampler is not None and sampler.have < end:
            sampler.fill_to(min(sampler.have // _PIECE * _PIECE + _PIECE, end), self._helper)
            with self._changed:
                self._changed.notify_all()
                if not self._running or key not in self._streams:
                    return


def _slices(unit, ready, eps):
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


def _unit_sample(germ, cfg, draw):
    """``(unit, ready)`` of the probe's sample: a fresh draw, or ``draw``'s stream."""
    if draw is None:
        return unit_ball_samples(germ.n, cfg.samples, cfg.seed), _drawn
    return draw.stream(germ.n, cfg.samples, cfg.seed)


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
    return hits if counts is None else np.add(counts, hits, out=counts)


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
    for _, pts in _slices(*_unit_sample(germ, cfg, draw), cfg.epsilon):
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
    unit, ready = _unit_sample(germ, cfg, draw)
    for rows, pts in _slices(unit, ready, eps2):
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
    for rows, pts in _slices(*_unit_sample(germ, cfg, draw), cfg.epsilon):
        uv = np.column_stack([evaluate_batch(germ.f, pts), evaluate_batch(germ.g, pts)])
        np.abs(evaluate_batch(phi, uv), out=res[rows])
    return ResidualReport(
        max_residual=float(res.max()),
        mean_residual=float(res.mean()),
        epsilon=cfg.epsilon,
        samples=cfg.samples,
        seed=cfg.seed,
    )
