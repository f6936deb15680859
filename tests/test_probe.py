"""Monte Carlo probes: determinism, nesting, kernel exactness, corroboration.

``germimage.kernels`` has one numpy backend; its bitwise contract with
``Polynomial.evaluate`` is checked in ``test_batch_matches_scalar_evaluate``.
"""

import numpy as np
import pytest

from germimage import kernels
from germimage.poly import MapGerm, Polynomial
from germimage.probe import (
    SamplerConfig,
    ball_image_occupancy,
    curve_residual_probe,
    germ_stability_probe,
    unit_ball_samples,
)

from _helpers import variables

x, y = variables(2)
x3, y3, z3 = variables(3)
u, v = variables(2)

IDENTITY = MapGerm(x, y)
ANGLE = MapGerm(x, x * y)
OPENBALL = MapGerm(x3 * y3, x3 * z3)
CUSP = MapGerm((x + y) ** 2, (x + y) ** 3)


def test_config_default_radius():
    cfg = SamplerConfig(epsilon=0.2)
    assert cfg.radius == pytest.approx(0.01)
    assert SamplerConfig(epsilon=0.2, target_radius=0.5).radius == 0.5


def test_unit_ball_samples_deterministic_and_inside():
    a = unit_ball_samples(2, 5000, seed=9)
    b = unit_ball_samples(2, 5000, seed=9)
    assert np.array_equal(a, b)
    norms2 = (np.abs(a) ** 2).sum(axis=1)
    assert norms2.max() < 1.0
    assert a.shape == (5000, 2)
    # the k-th sample depends only on (seed, k)
    c = unit_ball_samples(2, 2000, seed=9)
    assert np.array_equal(a[:2000], c)


def test_identity_occupancy_high():
    cfg = SamplerConfig(epsilon=0.1, target_radius=0.05, samples=200_000, seed=1)
    rep = ball_image_occupancy(IDENTITY, cfg)
    assert rep.occupied_fraction >= 0.99
    assert rep.total_bins == int(kernels.centers_inside_polydisk(0.05, 8).sum())


def test_occupancy_deterministic():
    cfg = SamplerConfig(epsilon=0.3, samples=50_000, seed=5)
    r1 = ball_image_occupancy(OPENBALL, cfg)
    r2 = ball_image_occupancy(OPENBALL, cfg)
    assert np.array_equal(r1.hit_histogram, r2.hit_histogram)
    assert r1.occupied_fraction == r2.occupied_fraction


def test_batch_matches_scalar_evaluate():
    """Batch evaluation agrees exactly with ``Polynomial.evaluate``."""
    pts = 0.5 * unit_ball_samples(2, 64, seed=3)
    poly = x * x * y + y.scale(2) - x
    vals = kernels.evaluate_batch(poly, pts)
    for k in range(0, 64, 7):
        assert vals[k] == poly.evaluate(pts[k])


def test_stability_nesting_exact():
    cfg = SamplerConfig(samples=100_000, seed=4, target_radius=0.01, grid_bins_per_axis=16)
    rep = germ_stability_probe(ANGLE, 0.2, 0.05, cfg)
    assert not np.any(rep.bitmap_eps2 & ~rep.bitmap_eps1)
    assert rep.occupied_eps2 <= rep.occupied_eps1
    with pytest.raises(ValueError):
        germ_stability_probe(ANGLE, 0.05, 0.2, cfg)


def test_stability_identity_near_zero():
    cfg = SamplerConfig(samples=100_000, seed=4, target_radius=0.02, grid_bins_per_axis=8)
    rep = germ_stability_probe(IDENTITY, 0.2, 0.05, cfg)
    assert rep.divergence <= 0.01


def test_stability_angle_vs_stable_baseline():
    cfg = SamplerConfig(samples=200_000, seed=4, target_radius=0.01, grid_bins_per_axis=16)
    unstable = germ_stability_probe(ANGLE, 0.2, 0.05, cfg).divergence
    stable_cfg = SamplerConfig(
        samples=200_000, seed=4, target_radius=0.05**2 / 4, grid_bins_per_axis=16
    )
    stable = germ_stability_probe(OPENBALL, 0.2, 0.05, stable_cfg).divergence
    assert unstable >= 10 * stable
    assert unstable > 0.08


def test_angle_occupancy_shape():
    # bounded below 1/2 at the documented scale, growing with the radius on
    # a wedge-resolving grid
    base = SamplerConfig(
        epsilon=0.1, target_radius=1e-3, samples=100_000, grid_bins_per_axis=8, seed=0
    )
    assert ball_image_occupancy(ANGLE, base).occupied_fraction < 0.5
    fine = dict(target_radius=0.01, samples=400_000, grid_bins_per_axis=16, seed=0)
    occ_small = ball_image_occupancy(ANGLE, SamplerConfig(epsilon=0.1, **fine))
    occ_large = ball_image_occupancy(ANGLE, SamplerConfig(epsilon=0.2, **fine))
    assert occ_small.occupied_fraction < 0.5
    assert occ_large.occupied_fraction > occ_small.occupied_fraction


def test_curve_residual_examples():
    phi_cusp = u**3 - v * v
    rep = curve_residual_probe(CUSP, phi_cusp, SamplerConfig(epsilon=0.1, samples=50_000, seed=2))
    assert rep.max_residual <= 1e-10

    x1 = Polynomial.variable(1, 0)
    diag = MapGerm(x1, x1)
    rep2 = curve_residual_probe(diag, u - v, SamplerConfig(samples=10_000, seed=2))
    assert rep2.max_residual == 0.0

    rep3 = curve_residual_probe(
        OPENBALL, u - v, SamplerConfig(epsilon=0.3, samples=50_000, seed=2)
    )
    assert rep3.max_residual > 1e-6

    with pytest.raises(ValueError):
        curve_residual_probe(CUSP, Polynomial.zero(2), SamplerConfig())

