"""Monte Carlo corroboration: occupancy of the image inside a small polydisk.

Nothing here certifies anything.  The probes sample a ball in the source,
push the samples through the map, and report how much of a small target
polydisk the image hits.  They corroborate the exact classifier's verdicts
(open image: high occupancy; curve image: tiny residuals against the curve
equation; unstable image: bins occupied at a larger source radius but not
at a smaller one) and are labeled as evidence wherever they surface.

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

Two threads: the sampler and both kernels use the machine's second core
inside the call.  :func:`unit_ball_samples` owns two sets of chunk
buffers; a helper thread draws the next chunk into one set while the
calling thread scales, filters and copies the chunk in the other, and
the one generator is still consumed chunk by chunk in order, with
``out=`` fills that draw the numbers fresh arrays would hold.  The
kernels cut their rows at a block edge, and each thread writes only its
own rows or its own count array (see :mod:`germimage.kernels`).  So the
(seed, k) contract and the bitwise parity hold as on one thread.  The
helper threads run private helpers and numpy only, never a public
function of this package, so whoever wraps the public functions sees the
calls a single thread makes; each helper is joined, and its error
re-raised, before the call that started it returns.

Shared draws: every probe takes an optional ``draw``, called as
``draw(nvars, count, seed)`` in place of :func:`unit_ball_samples`.  A
:class:`SharedBallSamples` made for one corpus run keeps the longest
draw of each (n, seed) stream and hands shorter requests a prefix of it.
Since a shorter draw is a prefix of a longer one, the k-th sample still
depends only on (seed, k), and a shared draw returns exactly the points a
fresh one would.

Resources are bounded: a probe holds its unit sample, walks it in slices
of ``_PIECE`` rows (scale, evaluate, bin, slice after slice), and keeps
one count per grid cell, so beyond the sample its scratch memory does
not grow with ``samples``.  The residual probe also keeps one float per
sample, for the mean.  A config asking for more than ``_MAX_CELLS``
cells (32 bins per axis) is rejected before anything is allocated.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
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
        if not self.epsilon > 0 or not (self.target_radius is None or self.target_radius > 0):
            raise PreconditionError("epsilon and the target radius must be positive")

    @property
    def radius(self):
        if self.target_radius is not None:
            return float(self.target_radius)
        return self.epsilon * self.epsilon / 4.0


@dataclass(frozen=True)
class OccupancyReport:
    occupied_fraction: float
    total_bins: int
    occupied_bins: int
    hit_histogram: np.ndarray = field(repr=False)
    epsilon: float
    target_radius: float
    samples: int
    grid_bins_per_axis: int
    seed: int


@dataclass(frozen=True)
class StabilityReport:
    divergence: float
    occupied_eps1: int
    occupied_eps2: int
    bitmap_eps1: np.ndarray = field(repr=False)
    bitmap_eps2: np.ndarray = field(repr=False)
    eps1: float
    eps2: float
    target_radius: float
    samples: int
    grid_bins_per_axis: int
    seed: int


@dataclass(frozen=True)
class ResidualReport:
    max_residual: float
    mean_residual: float
    epsilon: float
    samples: int
    seed: int


# Rows drawn per chunk.  Fixed, whatever the sample count, so that the
# k-th sample depends only on (seed, k).
_CHUNK = 1 << 16


def _draw_chunk(rng, gauss, uniform):
    """Fill one chunk's buffers in place: its Gaussians, then its uniforms."""
    rng.standard_normal(out=gauss)
    rng.random(out=uniform)


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

    Two threads share the work.  This function allocates two sets of
    chunk buffers (Gaussians and uniforms) before any draw.  While the
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
    dim = 2 * nvars
    out = np.empty((count, dim), dtype=np.float64)
    current, following = [(np.empty((_CHUNK, dim)), np.empty(_CHUNK)) for _ in range(2)]
    ahead = None  # the helper's fill of the next chunk, when one was started
    have = 0
    with ThreadPoolExecutor(max_workers=1) as helper:
        while have < count:
            if ahead is None:
                _draw_chunk(rng, *current)
            else:
                ahead.result()
            ahead = None
            if count - have > _CHUNK:  # this chunk cannot finish the request
                ahead = helper.submit(_draw_chunk, rng, *following)
            rows, uniform = current
            radius = uniform ** (1.0 / dim)
            rows *= (radius / np.sqrt(np.einsum("ij,ij->i", rows, rows)))[:, None]
            inside = np.einsum("ij,ij->i", rows, rows) < 1.0
            if not inside.all():  # rare: skip the copy when no row is dropped
                rows = rows[inside]
            take = min(count - have, rows.shape[0])
            out[have : have + take] = rows[:take]
            have += take
            current, following = following, current
    return out.view(np.complex128)


class SharedBallSamples:
    """Unit-ball draws shared by the probes of one run.

    Called as ``(nvars, count, seed)``, like :func:`unit_ball_samples`.
    For each (nvars, seed) it keeps the longest array drawn so far: a
    shorter request gets a prefix view of it, and a longer one draws the
    stream again at the new length, which is exact because a shorter draw
    is a prefix of a longer one.  The arrays are read-only, so a probe
    that wrote into a shared sample would fail instead of changing the
    points of later probes.
    """

    def __init__(self):
        self._longest = {}

    def __call__(self, nvars, count, seed):
        key = (nvars, seed)
        have = self._longest.get(key)
        if have is None or have.shape[0] < count:
            have = unit_ball_samples(nvars, count, seed)
            have.flags.writeable = False
            self._longest[key] = have
        return have[:count]


# Rows of the unit sample scaled, evaluated and binned at a time.  2^18
# rows keep the per-slice arrays a few MB; every probe of up to 2^18
# samples is a single slice, with the allocations of a whole-array probe.
_PIECE = 1 << 18


def _unit_sample(germ, cfg, draw):
    if draw is None:
        draw = unit_ball_samples
    return draw(germ.n, cfg.samples, cfg.seed)


def _slices(unit, eps):
    """(rows, eps * unit[rows]) for consecutive slices of ``_PIECE`` rows.

    The reference to ``unit`` goes once the last slice is scaled, so a
    sample the probe drew for itself is freed before that slice is
    evaluated, and a one-slice probe holds what a whole-array probe held.
    """
    count = unit.shape[0]
    for lo in range(0, count, _PIECE):
        rows = slice(lo, lo + _PIECE)
        pts = eps * unit[rows]
        if lo + _PIECE >= count:
            del unit
        yield rows, pts


def _add_hits(counts, germ, pts, radius, bins):
    """``counts`` plus the grid hits of F(pts); ``None`` starts the count."""
    hits = bin_hits(evaluate_batch(germ.f, pts), evaluate_batch(germ.g, pts), radius, bins)
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
    r = cfg.radius
    bins = cfg.grid_bins_per_axis
    counts = None
    for _, pts in _slices(_unit_sample(germ, cfg, draw), cfg.epsilon):
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
    if not eps1 > eps2 > 0:
        raise ValueError("need eps1 > eps2 > 0")
    unit = _unit_sample(germ, cfg, draw)
    r = cfg.radius
    bins = cfg.grid_bins_per_axis
    counts1 = counts2 = None
    for rows, pts in _slices(unit, eps2):
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
    if phi.is_zero():
        raise ValueError("residual probe needs a nonzero curve equation")
    res = np.empty(cfg.samples)
    for rows, pts in _slices(_unit_sample(germ, cfg, draw), cfg.epsilon):
        uv = np.column_stack([evaluate_batch(germ.f, pts), evaluate_batch(germ.g, pts)])
        np.abs(evaluate_batch(phi, uv), out=res[rows])
    return ResidualReport(
        max_residual=float(res.max()),
        mean_residual=float(res.mean()),
        epsilon=cfg.epsilon,
        samples=cfg.samples,
        seed=cfg.seed,
    )
