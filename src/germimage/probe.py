"""Monte Carlo corroboration: occupancy of the image inside a small polydisk.

Nothing here certifies anything.  The probes sample a ball in the source,
push the samples through the map, and report how much of a small target
polydisk the image hits.  They corroborate the exact classifier's verdicts
(open image: high occupancy; curve image: tiny residuals against the curve
equation; unstable image: bins occupied at a larger source radius but not
at a smaller one) and are labeled as evidence wherever they surface.

Determinism contract: every report is a pure function of the map and the
config: the k-th sample depends only on (seed, k), and the numpy kernels
evaluate bit for bit like :meth:`Polynomial.evaluate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernels import bin_hits, centers_inside_polydisk, evaluate_batch


@dataclass(frozen=True)
class SamplerConfig:
    """Shared knobs for the probes and the gap-line sampler.

    ``target_radius=None`` resolves to ``epsilon**2 / 4``: a quadratic
    target scale with a factor-4 margin suits maps of degree <= 2 in each
    factor; corpus entries override it per map.
    """

    epsilon: float = 0.1
    target_radius: float | None = None
    samples: int = 200_000
    grid_bins_per_axis: int = 8
    seed: int = 0
    max_retries: int = 3
    # gap-line sampling
    lines: int = 16
    root_tol: float = 1e-8
    cluster_tol: float = 1e-6
    rational_bound: int = 10**6

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


def unit_ball_samples(nvars, count, seed):
    """``count`` points uniform in the unit ball of C^nvars = R^(2*nvars).

    Rejection sampling from the cube [-1, 1]^(2n), drawn in fixed-size
    chunks from a seeded generator, so the k-th accepted point depends only
    on (seed, k).
    """
    rng = np.random.default_rng(seed)
    dim = 2 * nvars
    out = np.empty((count, dim), dtype=np.float64)
    have = 0
    while have < count:
        draw = rng.uniform(-1.0, 1.0, size=(1 << 16, dim))
        keep = draw[np.einsum("ij,ij->i", draw, draw) < 1.0]
        take = min(count - have, keep.shape[0])
        out[have : have + take] = keep[:take]
        have += take
    return out[:, 0::2] + 1j * out[:, 1::2]


def _occupancy_bitmap(counts, inside_mask):
    return (counts > 0) & inside_mask


def ball_image_occupancy(germ, cfg):
    """Occupancy of the image of the epsilon-ball inside the target polydisk.

    A grid cell counts as covered with a single hit; the denominator is the
    number of cells whose center lies inside the open polydisk.
    """
    pts = cfg.epsilon * unit_ball_samples(germ.n, cfg.samples, cfg.seed)
    u = evaluate_batch(germ.f, pts)
    v = evaluate_batch(germ.g, pts)
    r = cfg.radius
    bins = cfg.grid_bins_per_axis
    counts = bin_hits(u, v, r, bins)
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


def germ_stability_probe(germ, eps1, eps2, cfg):
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
    unit = unit_ball_samples(germ.n, cfg.samples, cfg.seed)
    r = cfg.radius
    bins = cfg.grid_bins_per_axis
    inside = centers_inside_polydisk(r, bins)

    u2 = evaluate_batch(germ.f, eps2 * unit)
    v2 = evaluate_batch(germ.g, eps2 * unit)
    counts2 = bin_hits(u2, v2, r, bins)

    u1 = evaluate_batch(germ.f, eps1 * unit)
    v1 = evaluate_batch(germ.g, eps1 * unit)
    counts1 = bin_hits(u1, v1, r, bins) + counts2

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


def curve_residual_probe(germ, phi, cfg):
    """|phi(f(x), g(x))| over sampled x.

    For a verified curve-image verdict this is zero up to floating
    round-off, because phi(f, g) vanishes identically in exact arithmetic.
    """
    if phi.is_zero():
        raise ValueError("residual probe needs a nonzero curve equation")
    pts = cfg.epsilon * unit_ball_samples(germ.n, cfg.samples, cfg.seed)
    u = evaluate_batch(germ.f, pts)
    v = evaluate_batch(germ.g, pts)
    uv = np.column_stack([u, v])
    res = np.abs(evaluate_batch(phi, uv))
    return ResidualReport(
        max_residual=float(res.max()),
        mean_residual=float(res.mean()),
        epsilon=cfg.epsilon,
        samples=cfg.samples,
        seed=cfg.seed,
    )
