"""Monte Carlo probes: determinism, nesting, kernel exactness, corroboration.

``germimage.kernels`` has one numpy backend; its bitwise contract with
``Polynomial.evaluate`` is checked in ``test_batch_matches_scalar_evaluate``
and, across the kernels' row blocks and the cut between their two
threads, in ``test_evaluate_batch_blocks_bitwise``.
"""

import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from germimage import kernels, probe
from germimage.errors import PreconditionError
from germimage.poly import MapGerm, Polynomial
from germimage.rationals import GaussianRational
from germimage.probe import (
    SamplerConfig,
    SharedBallSamples,
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


def test_config_rejects_grids_past_the_cell_bound():
    # nothing is allocated: the config is refused before any probe runs
    for bins in (1, 4, 8, 16):
        SamplerConfig(grid_bins_per_axis=bins)
    with pytest.raises(PreconditionError, match=str(200**4)):
        SamplerConfig(grid_bins_per_axis=200)


def test_config_and_stability_probe_reject_non_finite_radii():
    for bad in (float("inf"), float("nan")):
        with pytest.raises(PreconditionError, match="positive and finite"):
            SamplerConfig(epsilon=bad)
        with pytest.raises(PreconditionError, match="positive and finite"):
            SamplerConfig(target_radius=bad)
        with pytest.raises(ValueError, match="finite eps1 > eps2 > 0"):
            germ_stability_probe(ANGLE, bad, 0.05, SamplerConfig(samples=10))
    # a finite epsilon whose default radius epsilon**2 / 4 is not
    for eps in (1e200, 1e-200):
        with pytest.raises(PreconditionError, match="target radius = (inf|0.0)"):
            SamplerConfig(epsilon=eps)
    assert SamplerConfig(epsilon=1e200, target_radius=0.5).radius == 0.5


def test_probes_refuse_images_that_overflow_before_drawing(monkeypatch):
    """|f|, |g| and phi(f, g) are bounded on the source ball; a squared bound past float is refused."""
    drawn = []
    real = probe.unit_ball_samples
    monkeypatch.setattr(probe, "unit_ball_samples", lambda *a: drawn.append(a) or real(*a))
    cfg = SamplerConfig(samples=10, epsilon=1e200, target_radius=0.05)
    with pytest.raises(PreconditionError, match=r"\|f\| may reach 1e\+200 .* overflows"):
        ball_image_occupancy(IDENTITY, cfg)
    # eps1 bounds the stability probe; 3*y^2 reaches 3e200 at eps1 = 1e100
    with pytest.raises(PreconditionError, match=r"\|g\| may reach 3e\+200"):
        germ_stability_probe(MapGerm(x, y * y.scale(3)), 1e100, 1e-3, SamplerConfig(samples=10))
    # |f|, |g| <= 1e60 square to 1e120, but u^3 reaches 1e180 and squares past float
    cfg = SamplerConfig(samples=10, epsilon=1e60, target_radius=0.05)
    with pytest.raises(PreconditionError, match=r"\|phi\(f, g\)\| may reach 1e\+180"):
        curve_residual_probe(IDENTITY, u**3 - v, cfg)
    assert drawn == []
    # bounds that square to finite numbers still run
    assert curve_residual_probe(IDENTITY, u - v, cfg).samples == 10
    cfg = SamplerConfig(samples=10, epsilon=1e100, target_radius=1.0)
    assert ball_image_occupancy(IDENTITY, cfg).occupied_bins == 0


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


@pytest.mark.parametrize("nvars", [2, 4])
def test_unit_ball_samples_uniform(nvars):
    """Radius law P(|z| < rho) = rho^(2n) and the second and fourth moments
    of each real coordinate, within 5 standard errors.

    The fourth moment catches a non-uniform direction (say, a normalized
    cube point), which the radius law and the second moment cannot see.
    """
    count = 200_000
    dim = 2 * nvars
    pts = unit_ball_samples(nvars, count, seed=11)
    radii = np.sqrt((np.abs(pts) ** 2).sum(axis=1))
    for rho in (0.5, 0.8, 0.95):
        p = rho**dim
        assert abs(np.mean(radii < rho) - p) <= 5 * np.sqrt(p * (1 - p) / count)
    # E[x_i^(2k)] of the uniform ball in R^d, d = dim, for k = 1, 2, 4
    second = 1 / (dim + 2)
    fourth = 3 / ((dim + 2) * (dim + 4))
    eighth = 105 / ((dim + 2) * (dim + 4) * (dim + 6) * (dim + 8))
    coords = pts.view(np.float64)
    assert coords.shape == (count, dim)
    sq = coords**2
    moments = ((sq, second, fourth - second**2), (sq**2, fourth, eighth - fourth**2))
    for power, mean, var in moments:
        assert np.all(np.abs(power.mean(axis=0) - mean) <= 5 * np.sqrt(var / count))


def test_unit_ball_samples_prefix_across_chunks():
    # 70 000 points end inside the second chunk of 2^16 draws
    a = unit_ball_samples(3, 100_000, seed=21)
    b = unit_ball_samples(3, 70_000, seed=21)
    assert np.array_equal(a[:70_000], b)


def _whole(draw, nvars, count, seed):
    """The first ``count`` points of a shared stream, once all are drawn."""
    unit, ready = draw.stream(nvars, count, seed)
    ready(count)
    return unit


@pytest.mark.parametrize("nvars", [2, 3])
def test_shared_ball_samples_are_fresh_prefixes(nvars):
    """Rising and falling requests, across chunk edges, give a fresh draw's bits."""
    counts = (1000, 70_000, 5, 70_000, 140_000, 3, 69_999)
    requests = [(nvars, count, seed) for count in counts for seed in (4, 5)]
    with SharedBallSamples(requests) as draw:
        for _, count, seed in requests:
            shared = _whole(draw, nvars, count, seed)
            fresh = unit_ball_samples(nvars, count, seed)
            assert shared.shape == (count, nvars)
            assert np.array_equal(shared.view(np.uint64), fresh.view(np.uint64))


def test_shared_ball_samples_refuse_writes():
    requests = [(2, 100, 1), (2, 100, 1), (2, 40, 1), (2, 300, 1)]
    with SharedBallSamples(requests) as draw:
        _whole(draw, 2, 100, seed=1)
        for count in (100, 40, 300):
            sample = _whole(draw, 2, count, seed=1)
            with pytest.raises(ValueError, match="read-only"):
                sample[0, 0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                sample *= 2.0


def _counting(monkeypatch, spoil=lambda gauss, uniform: None):
    """Spy on the chunk routines: (threads that drew each chunk, points placed per chunk)."""
    fill, place = probe._draw_chunk, probe._place_chunk
    chunks, placed = [], []

    def counted_fill(rng, gauss, uniform):
        fill(rng, gauss, uniform)
        spoil(gauss, uniform)
        chunks.append(threading.current_thread())

    def counted_place(gauss, uniform, norms, inside, out, have):
        placed.append(place(gauss, uniform, norms, inside, out, have))
        return placed[-1]

    monkeypatch.setattr(probe, "_draw_chunk", counted_fill)
    monkeypatch.setattr(probe, "_place_chunk", counted_place)
    return chunks, placed


@pytest.mark.parametrize("short", [False, True])
@pytest.mark.parametrize("nvars", [2, 3])
def test_planned_stream_draws_each_chunk_once(monkeypatch, nvars, short):
    """A stream is drawn once, in the chunks of a fresh draw of its final length.

    The requests end mid-chunk, on a chunk edge and several chunks and
    slices on, and each gets a fresh draw's bits.  With ``short`` every
    chunk drops rows, so a chunk's kept rows are fewer than its rows.
    """
    spoil = _drop_rows if short else (lambda gauss, uniform: None)
    chunks, placed = _counting(monkeypatch, spoil)
    counts = (1000, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7, PIECE + 5, 2 * PIECE + 9, 500)
    with SharedBallSamples([(nvars, count, 6) for count in counts]) as draw:
        for count in counts:
            got = _whole(draw, nvars, count, seed=6)
            want, _ = _reference_ball_samples(nvars, count, 6, spoil)
            assert got.shape == (count, nvars)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    _, want_chunks = _reference_ball_samples(nvars, max(counts), 6, spoil)
    assert len(chunks) == want_chunks
    assert sum(placed) == max(counts)
    assert threading.current_thread() not in chunks  # the producer and its helper draw


def test_segments_wait_for_the_release_of_streams_read_before_them(monkeypatch):
    """No segment starts while another stream whose last request precedes it is held.

    The n = 3 stream's last request is the second; the n = 2 stream grows
    at the third, so its producer waits for the release of the n = 3
    stream, however slowly the caller gets there.  Streams read later
    (the n = 4 stream) do not hold a segment back.
    """
    requests = [(2, 1000, 1), (3, 2000, 1), (4, 100, 1), (2, 3 * CHUNK, 1), (4, 100, 1)]
    events = []
    draw_segment, release = SharedBallSamples._draw, SharedBallSamples.release

    def segment_spy(self, key, end):
        events.append(("segment", key, end, frozenset(self._streams)))
        draw_segment(self, key, end)

    def release_spy(self, nvars, seed):
        events.append(("release", (nvars, seed)))
        release(self, nvars, seed)

    monkeypatch.setattr(SharedBallSamples, "_draw", segment_spy)
    monkeypatch.setattr(SharedBallSamples, "release", release_spy)
    last = {(n, seed): i for i, (n, _, seed) in enumerate(requests)}
    with SharedBallSamples(requests) as draw:
        for i, (n, count, seed) in enumerate(requests):
            _whole(draw, n, count, seed)
            if last[n, seed] == i:
                time.sleep(0.05)  # the producer would be long past the n = 3 stream
                draw.release(n, seed)
    starts = [e[1:] for e in events if e[0] == "segment"]
    assert [(key, end) for key, end, _ in starts] == [
        ((2, 1), 1000), ((3, 1), 2000), ((4, 1), 100), ((2, 1), 3 * CHUNK)
    ]
    assert events.index(("release", (3, 1))) < events.index(("segment", *starts[3]))
    for i, (key, _, held) in enumerate(starts):  # segment i is request i's
        assert not any(last[k] < i for k in held - {key})


def test_requests_beyond_the_plan_are_refused():
    """A request past its planned length, for an unplanned or released stream, or out of order."""
    grown = 3 * CHUNK  # past the chunk that the first n = 2 request ends in
    with SharedBallSamples([(2, 1000, 1), (3, 2000, 1), (2, grown, 1)]) as draw:
        assert _whole(draw, 2, 1000, 1).shape == (1000, 2)
        for n, count, seed in ((2, grown + 1, 1), (3, 2001, 1), (4, 10, 1), (2, 10, 2)):
            with pytest.raises(PreconditionError, match="asked of"):
                draw.stream(n, count, seed)
        # the n = 2 stream grows only after the n = 3 stream is released
        with pytest.raises(PreconditionError, match="do not follow the plan"):
            _whole(draw, 2, grown, 1)
        _whole(draw, 3, 2000, 1)
        draw.release(3, 1)
        with pytest.raises(PreconditionError, match="asked of"):
            draw.stream(3, 10, 1)
        assert np.array_equal(_whole(draw, 2, grown, 1), unit_ball_samples(2, grown, 1))
    unit, ready = SharedBallSamples([(2, 10, 1)]).stream(2, 10, 1)
    with pytest.raises(PreconditionError, match="not entered"):
        ready(10)


def test_shared_draw_bitwise_under_a_short_switch_interval():
    """The producer, its helper, a probe and its kernel helper at once, switching often.

    A row read before the producer wrote it would change a histogram; the
    n = 2 stream grows only after the n = 3 stream is released.
    """
    requests = [(2, PIECE + 5, 7), (3, 3 * CHUNK, 7), (2, 3 * PIECE + 1, 7), (2, 1000, 7)]
    germs = {2: ANGLE, 3: OPENBALL}
    cfgs = [SamplerConfig(epsilon=0.3, samples=count, seed=seed) for _, count, seed in requests]
    fresh = [
        ball_image_occupancy(germs[n], cfg).hit_histogram for (n, _, _), cfg in zip(requests, cfgs)
    ]
    shared = []

    def run():
        with SharedBallSamples(requests) as draw:
            for (n, _, seed), cfg in zip(requests, cfgs):
                shared.append(ball_image_occupancy(germs[n], cfg, draw=draw).hit_histogram)
                if n == 3:
                    draw.release(3, seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        caller = threading.Thread(target=run)
        caller.start()
        caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive()
    assert len(shared) == len(fresh)
    for got, want in zip(shared, fresh):
        assert np.array_equal(got, want)


def test_shared_probes_leave_no_thread_and_match_fresh_draws():
    """Each probe kind with a shared draw reports as a fresh draw; leaving joins the producer."""
    before = threading.active_count()
    base = dict(epsilon=0.2, target_radius=0.01, seed=3)
    runs = [
        (ball_image_occupancy, (ANGLE,), 1000, lambda rep: rep.hit_histogram),
        (germ_stability_probe, (ANGLE, 0.2, 0.05), PIECE + 5, lambda rep: rep.bitmap_eps1),
        (curve_residual_probe, (CUSP, u**3 - v * v), 2 * PIECE + 3, lambda rep: rep.max_residual),
        (ball_image_occupancy, (ANGLE,), 2000, lambda rep: rep.hit_histogram),
    ]
    with SharedBallSamples([(2, samples, 3) for _, _, samples, _ in runs]) as draw:
        for probe_fn, args, samples, key in runs:
            cfg = SamplerConfig(samples=samples, **base)
            shared = probe_fn(*args, cfg, draw=draw)
            assert np.array_equal(key(shared), key(probe_fn(*args, cfg)))
    assert threading.active_count() == before


def test_producer_and_probe_errors_reach_the_caller_after_the_join(monkeypatch):
    """An error on the producer or on the probe's side is raised once the producer is joined.

    A producer error is raised by the request that waits for its rows,
    or, when no request does, on leaving the draw.
    """

    class Planted(RuntimeError):
        pass

    caller = threading.current_thread()
    before = threading.active_count()
    producers = []
    fill, bin_rows = probe._draw_chunk, kernels._bin_rows

    failed = threading.Event()

    def failing_fill(rng, gauss, uniform):
        if threading.current_thread() is not caller:
            producers.append(threading.current_thread())
            failed.set()
            raise Planted("_draw_chunk")
        fill(rng, gauss, uniform)

    def failing_bin(*args):
        if threading.current_thread() is caller:
            raise Planted("_bin_rows")
        return bin_rows(*args)

    cfg = SamplerConfig(epsilon=0.2, target_radius=0.01, samples=3 * PIECE, seed=3)
    plan = [(2, 1000, 3), (2, 3 * PIECE, 3)]
    calls = [
        lambda draw: ball_image_occupancy(ANGLE, cfg, draw=draw),
        lambda draw: germ_stability_probe(ANGLE, 0.2, 0.05, cfg, draw=draw),
        lambda draw: curve_residual_probe(CUSP, u - v, cfg, draw=draw),
        lambda draw: _whole(draw, 2, 3 * PIECE, seed=3),
        lambda draw: failed.wait(60),  # no request: the error is raised on leaving
    ]
    for call in calls:
        monkeypatch.setattr(probe, "_draw_chunk", failing_fill)
        producers.clear()
        failed.clear()
        with pytest.raises(Planted, match="_draw_chunk"):
            with SharedBallSamples(plan) as draw:
                call(draw)
        assert producers and not any(thread.is_alive() for thread in producers)
        assert threading.active_count() == before
        monkeypatch.undo()
    monkeypatch.setattr(kernels, "_bin_rows", failing_bin)
    with pytest.raises(Planted, match="_bin_rows"):
        with SharedBallSamples(plan) as draw:
            _whole(draw, 2, 1000, seed=3)
            ball_image_occupancy(ANGLE, cfg, draw=draw)
    assert threading.active_count() == before
    monkeypatch.undo()
    with SharedBallSamples(plan) as draw:
        for count in (1000, 3 * PIECE):
            fresh = unit_ball_samples(2, count, seed=3)
            shared = _whole(draw, 2, count, seed=3)
            assert np.array_equal(shared.view(np.uint64), fresh.view(np.uint64))


def test_unit_ball_samples_inside_at_n6():
    pts = unit_ball_samples(6, 100_000, seed=5)
    assert pts.shape == (100_000, 6)
    assert pts.dtype == np.complex128
    assert (np.abs(pts) ** 2).sum(axis=1).max() < 1.0


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


def test_batch_matches_scalar_evaluate_on_every_term_path():
    """Bit for bit on each way a term starts, across blocks and the thread cut.

    Unit, real and complex coefficients, a term's first factor as its
    last multiply, a constant, and the zero polynomial; some coordinates
    are zero, so the sign of zero parts is compared too.
    """
    pts = 0.9 * unit_ball_samples(2, 2 * ROWS + 3, seed=8)
    pts[::5, 0] = 0.0
    half = GaussianRational(Fraction(1, 2), Fraction(-3))
    polys = [
        x,
        y + x * x,
        x.scale(-1) * y + y.scale(3),
        (x * y).scale(half) - x,
        x.scale(half) + y * y * y,
        Polynomial.constant(2, half),
        Polynomial.zero(2),
    ]
    for poly in polys:
        vals = kernels.evaluate_batch(poly, pts)
        for k in range(0, pts.shape[0], 97):
            scalar = np.array([poly.evaluate(pts[k])])
            assert vals[k : k + 1].view(np.uint64).tolist() == scalar.view(np.uint64).tolist()


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


# ---------------------------------------------------------------------------
# the blocked kernels against per-point and one-shot references
# ---------------------------------------------------------------------------

ROWS = kernels._ROWS
PIECE = probe._PIECE
CHUNK = probe._CHUNK
# Row counts at the block edges and at the cut between the kernels' two
# threads: 2 * ROWS +- 1 cut at ROWS, and 5 * ROWS + 3, an odd number of
# blocks, at 3 * ROWS.
BLOCK_COUNTS = (
    0, 1, ROWS - 1, ROWS, ROWS + 1,
    2 * ROWS - 1, 2 * ROWS, 2 * ROWS + 1, 3 * ROWS + 5, 5 * ROWS + 3,
)


def _random_poly(nvars, nterms, max_exp, seed):
    """Gaussian-rational coefficients from normal draws, exponents <= max_exp."""
    rng = np.random.default_rng(seed)
    terms = []
    for _ in range(nterms):
        exps = tuple(int(e) for e in rng.integers(0, max_exp + 1, nvars))
        re, im = rng.standard_normal(2)
        terms.append((exps, GaussianRational(Fraction(re), Fraction(im))))
    terms.append(((max_exp,) * nvars, GaussianRational(Fraction(rng.standard_normal()))))
    return Polynomial(nvars, terms)


def _unblocked_evaluate(poly, points):
    """The whole-array evaluation the blocked kernel replaced."""
    pre, pim = points.real, points.imag
    acc_re = np.zeros(points.shape[0])
    acc_im = np.zeros(points.shape[0])
    for m, c in poly.terms:
        c = complex(c)
        term_re = np.full(points.shape[0], c.real)
        term_im = np.full(points.shape[0], c.imag)
        for v, e in enumerate(m):
            for _ in range(e):
                term_re, term_im = (
                    term_re * pre[:, v] - term_im * pim[:, v],
                    term_re * pim[:, v] + term_im * pre[:, v],
                )
        acc_re = acc_re + term_re
        acc_im = acc_im + term_im
    return acc_re + 1j * acc_im


def _one_shot_bin_hits(u, v, radius, bins):
    """The whole-array binning of the images u, v that the fused kernel replaced."""
    r2 = radius * radius
    inside = (u.real**2 + u.imag**2 < r2) & (v.real**2 + v.imag**2 < r2)
    width = (2.0 * radius) / bins
    idx = np.zeros(int(inside.sum()), dtype=np.int64)
    for part in (u.real, u.imag, v.real, v.imag):
        cell = np.minimum(((part[inside] + radius) / width).astype(np.int64), bins - 1)
        idx = idx * bins + cell
    return np.bincount(idx, minlength=bins**4)


def _scalar_images(f, g, points):
    """f and g at each point by ``Polynomial.evaluate``."""
    return [np.array([poly.evaluate(p) for p in points], dtype=np.complex128) for poly in (f, g)]


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_evaluate_batch_blocks_bitwise(nvars):
    """Every point of every block, the tail included, equals ``Polynomial.evaluate``."""
    poly = _random_poly(nvars, 4, 9, seed=nvars)
    pts = 0.9 * unit_ball_samples(nvars, BLOCK_COUNTS[-1], seed=nvars)
    scalar = np.array([poly.evaluate(p) for p in pts], dtype=np.complex128)
    for count in BLOCK_COUNTS:
        batch = kernels.evaluate_batch(poly, pts[:count])
        assert batch.shape == (count,)
        assert np.array_equal(batch.view(np.uint64), scalar[:count].view(np.uint64))


def test_bin_hits_blocks_match_one_shot():
    """At the identity map, images on the clamp edges and the boundary land as one-shot."""
    radius, bins = 0.05, 7
    width = 2 * radius / bins
    edge = np.nextafter(radius, 0.0)
    assert (edge + radius) / width >= bins  # this point needs the bins - 1 clamp
    rng = np.random.default_rng(8)
    count = BLOCK_COUNTS[-1]
    pts = (rng.standard_normal((count, 2)) + 1j * rng.standard_normal((count, 2))) * radius
    special = [
        (edge, 0.0),  # inside, clamped in Re u
        (0.0, 1j * edge),  # inside, clamped in Im v
        (-edge, -1j * edge),  # inside, first cells
        (radius, 0.0),  # on the boundary |u| = radius: not counted
        (0.0, -1j * radius),  # on the boundary |v| = radius: not counted
    ]
    for k, at in enumerate((ROWS - 1, ROWS, 2 * ROWS + 3, 3 * ROWS, count - 1)):
        pts[at] = special[k]
    u, v = _scalar_images(IDENTITY.f, IDENTITY.g, pts)
    reference = _one_shot_bin_hits(u, v, radius, bins)
    assert reference.sum() > 0
    for n in BLOCK_COUNTS:
        assert np.array_equal(
            kernels.bin_hits(pts[:n], IDENTITY.f, IDENTITY.g, radius, bins),
            _one_shot_bin_hits(u[:n], v[:n], radius, bins),
        )
    assert np.array_equal(kernels.bin_hits(pts, IDENTITY.f, IDENTITY.g, radius, bins), reference)


@pytest.mark.parametrize("nvars", [2, 3, 4])
def test_fused_bin_hits_match_scalar_evaluate(nvars):
    """``bin_hits(points, f, g, r, bins)`` is the one-shot bincount of ``Polynomial.evaluate``.

    The counts run across the block edges and the cut between the two
    threads, and some of the images fall outside the polydisk.
    """
    f = _random_poly(nvars, 4, 3, seed=nvars)
    g = _random_poly(nvars, 3, 2, seed=10 + nvars)
    counts = (0, 1, ROWS - 1, ROWS, ROWS + 1, 3 * ROWS + 5)
    pts = 0.8 * unit_ball_samples(nvars, counts[-1], seed=nvars)
    u, v = _scalar_images(f, g, pts)
    radius, bins = float(np.median(np.maximum(abs(u), abs(v)))), 6  # about half inside
    for n in counts:
        reference = _one_shot_bin_hits(u[:n], v[:n], radius, bins)
        got = kernels.bin_hits(pts[:n], f, g, radius, bins)
        assert got.dtype == np.int64
        assert np.array_equal(got, reference)
    assert 0 < reference.sum() < counts[-1]


def _filter_case(case):
    """(f, g, points, radius) of one case of the first-component filter, at 3 * ROWS + 5 points.

    The radius sets how many rows of a block survive the first component's
    disk test: none in three blocks of four (the map of the corpus entry
    ``rouche`` at a smaller radius), a sparse few (at its radius), most or
    all of them.  A constant first component keeps every row or none.
    """
    count = 3 * ROWS + 5
    if case == "rouche-empty" or case == "rouche-sparse":
        x, y = variables(2)
        radius = 2e-4 if case == "rouche-empty" else 0.0009
        return x * (x**4 + y), y * (x**4 + y) ** 2, 0.5 * unit_ball_samples(2, count, 11), radius
    if case == "most":  # cheap components: evaluating the second everywhere is cheaper
        x, y = variables(2)
        pts = 0.6 * unit_ball_samples(2, count, 12)
        return x, y, pts, float(np.quantile(abs(pts[:, 0]), 0.7))
    if case == "all":
        f, g = _random_poly(3, 4, 3, seed=13), _random_poly(3, 3, 2, seed=14)
        return f, g, 0.3 * unit_ball_samples(3, count, 13), 1e3
    if case == "g-cheaper":
        x1, x2, x3, x4 = variables(4)
        f = _random_poly(4, 5, 3, seed=15)
        return f, x1 * x2 - x3 * x4, 0.8 * unit_ball_samples(4, count, 15), 0.05
    if case == "zero-f":
        (x,) = variables(1)
        return Polynomial(1, []), x**3 - x, 0.9 * unit_ball_samples(1, count, 16), 0.2
    if case == "constant-inside":
        x, y, z = variables(3)
        f = Polynomial.constant(3, GaussianRational(Fraction(1, 10), Fraction(1, 5)))
        return f, x * y - z**2 + z, 0.7 * unit_ball_samples(3, count, 17), 0.5
    if case == "constant-outside":
        (x,) = variables(1)
        g = Polynomial.constant(1, GaussianRational(Fraction(2)))
        return x**2, g, 0.9 * unit_ball_samples(1, count, 18), 0.5
    raise AssertionError(case)


_FILTER_CASES = {
    # case: (the component evaluated first, where the second is evaluated)
    "rouche-empty": ("f", "skips blocks"),
    "rouche-sparse": ("f", "packs"),
    "most": ("f", "everywhere"),
    "all": ("g", "everywhere"),
    "g-cheaper": ("g", "packs"),
    "zero-f": ("f", "everywhere"),
    "constant-inside": ("f", "everywhere"),
    "constant-outside": ("g", "skips blocks"),
}


@pytest.mark.parametrize("case", sorted(_FILTER_CASES))
def test_filtered_bin_hits_match_scalar_evaluate(monkeypatch, case):
    """The second component only where the first lies in the disk: the one-shot counts still.

    f and g are evaluated by ``Polynomial.evaluate`` at every point and
    binned at once; ``bin_hits`` evaluates first the component with fewer
    complex multiplies and the other one only where that can hit.  The
    counts run across the block edges and the cut between the two threads.
    """
    f, g, pts, radius = _filter_case(case)
    bins = 5
    u, v = _scalar_images(f, g, pts)
    calls = []
    evaluate = kernels._evaluate_block

    def spy(terms, coords, k, *rest):
        calls.append((terms, k))
        return evaluate(terms, coords, k, *rest)

    monkeypatch.setattr(kernels, "_evaluate_block", spy)
    for n in (0, 1, ROWS - 1, ROWS, ROWS + 1, 3 * ROWS + 5):
        calls.clear()
        got = kernels.bin_hits(pts[:n], f, g, radius, bins)
        assert got.dtype == np.int64 and got.shape == (bins**4,)
        assert np.array_equal(got, _one_shot_bin_hits(u[:n], v[:n], radius, bins))
    first, path = _FILTER_CASES[case]
    terms = {"f": kernels._terms(f), "g": kernels._terms(g)}
    first_rows = [k for t, k in calls if t == terms[first]]
    second_rows = [k for t, k in calls if t == terms["g" if first == "f" else "f"]]
    assert sorted(first_rows) == [5, ROWS, ROWS, ROWS]
    if path == "skips blocks":
        assert len(second_rows) < len(first_rows)
    elif path == "packs":
        assert len(second_rows) >= 3 and all(k < ROWS // 2 for k in second_rows)
    else:
        assert sorted(second_rows) == sorted(first_rows)
    assert (got.sum() > 0) == (case != "constant-outside")


def _reference_ball_samples(nvars, count, seed, spoil):
    """The sampler on one thread: fresh arrays per chunk, each drawn when needed.

    ``spoil(gauss, uniform)`` runs on every chunk's draws before they are
    scaled.
    """
    rng = np.random.default_rng(seed)
    dim = 2 * nvars
    kept, have, chunks = [], 0, 0
    while have < count:
        gauss = rng.standard_normal((CHUNK, dim))
        uniform = rng.random(CHUNK)
        chunks += 1
        spoil(gauss, uniform)
        gauss *= (uniform ** (1.0 / dim) / np.sqrt(np.einsum("ij,ij->i", gauss, gauss)))[:, None]
        gauss = gauss[np.einsum("ij,ij->i", gauss, gauss) < 1.0]
        kept.append(gauss[: count - have])
        have += kept[-1].shape[0]
    return np.concatenate(kept).view(np.complex128), chunks


def _drop_rows(gauss, uniform):
    """Turn every 1000th row into NaNs, which the sampler drops: each chunk comes up short."""
    gauss[::1000] = np.nan


@pytest.mark.parametrize("short", [False, True])
@pytest.mark.parametrize("nvars", [2, 3, 4])
def test_unit_ball_samples_match_a_one_thread_loop(monkeypatch, nvars, short):
    """The draw-ahead sampler gives the single-threaded loop's bits, chunk for chunk.

    With ``short``, every chunk loses rows, so a chunk that was to finish
    the request falls short and the next one is drawn on demand.  Either
    way the sampler draws exactly the chunks the loop draws: none ahead
    that the request does not need.
    """
    spoil = _drop_rows if short else (lambda gauss, uniform: None)
    fill = probe._draw_chunk
    calls = []

    def counted_fill(rng, gauss, uniform):
        fill(rng, gauss, uniform)
        spoil(gauss, uniform)
        calls.append(threading.current_thread())

    monkeypatch.setattr(probe, "_draw_chunk", counted_fill)
    for count in (1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7):
        calls.clear()
        got = unit_ball_samples(nvars, count, seed=count)
        want, chunks = _reference_ball_samples(nvars, count, count, spoil)
        assert got.shape == (count, nvars)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert len(calls) == chunks
    assert threading.current_thread() in calls  # the first and the short chunks
    assert set(calls) != {threading.current_thread()}  # the chunks drawn ahead


def test_helper_thread_errors_reach_the_caller(monkeypatch):
    """An error on either thread is raised by the call, which leaves no thread behind.

    Inputs below the split run on the calling thread alone and are not
    touched by an error planted on the helper.
    """

    class Planted(RuntimeError):
        pass

    caller = threading.current_thread()
    poly = _random_poly(2, 4, 5, seed=3)
    pts = 0.9 * unit_ball_samples(2, 2 * ROWS + 1, seed=3)
    uv = kernels.evaluate_batch(poly, pts)
    both = kernels.bin_hits(pts, poly, poly, 0.5, 4)
    before = threading.active_count()

    def fail_on(helper_side):
        def plant(fn):
            def failing(*args):
                if (threading.current_thread() is not caller) == helper_side:
                    raise Planted(fn.__name__)
                return fn(*args)

            return failing

        planted = ((kernels, "_evaluate_rows"), (kernels, "_bin_rows"), (probe, "_draw_chunk"))
        for module, name in planted:
            monkeypatch.setattr(module, name, plant(getattr(module, name)))

    for helper_side in (True, False):
        fail_on(helper_side)
        with pytest.raises(Planted, match="_evaluate_rows"):
            kernels.evaluate_batch(poly, pts)
        with pytest.raises(Planted, match="_bin_rows"):
            kernels.bin_hits(pts, poly, poly, 0.5, 4)
        with pytest.raises(Planted, match="_draw_chunk"):
            unit_ball_samples(2, 3 * CHUNK, seed=3)
        assert threading.active_count() == before
        monkeypatch.undo()

    fail_on(True)
    small = kernels.evaluate_batch(poly, pts[:ROWS])
    assert np.array_equal(small.view(np.uint64), uv[:ROWS].view(np.uint64))
    assert kernels.bin_hits(pts[:ROWS], poly, poly, 0.5, 4).sum() > 0
    assert np.array_equal(both, _one_shot_bin_hits(uv, uv, 0.5, 4))
    assert unit_ball_samples(2, CHUNK // 2, seed=3).shape == (CHUNK // 2, 2)
    assert threading.active_count() == before


def test_probe_kernels_bitwise_under_concurrent_callers():
    """Three callers at once, each with its helper, on two cores and a short switch interval.

    A buffer, row range or generator shared between calls or threads would
    show as a difference from the serial results.
    """
    poly = _random_poly(3, 4, 5, seed=4)
    other = _random_poly(3, 3, 4, seed=5)

    def run(seed):
        pts = 0.9 * unit_ball_samples(3, 2 * CHUNK + 11, seed=seed)
        vals = kernels.evaluate_batch(poly, pts)
        return pts, vals, kernels.bin_hits(pts, poly, other, 0.5, 6)

    serial = {seed: run(seed) for seed in (1, 2, 3)}
    results = {}

    def call(seed):
        results[seed] = run(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=call, args=(seed,)) for seed in serial]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert results.keys() == serial.keys()
    for seed, arrays in serial.items():
        for got, want in zip(results[seed], arrays):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_probes_match_unblocked_formulas():
    """One slice (3 blocks and a tail) and three slices (the last of 5 rows)."""
    for samples in (3 * ROWS + 5, 2 * PIECE + 5):
        _check_probes_match_unblocked_formulas(samples)


def _check_probes_match_unblocked_formulas(samples):
    cfg = SamplerConfig(
        epsilon=0.2, target_radius=0.01, samples=samples, grid_bins_per_axis=16, seed=6
    )
    unit = unit_ball_samples(2, samples, cfg.seed)
    inside = kernels.centers_inside_polydisk(cfg.radius, 16)

    def histogram(germ, eps):
        pts = eps * unit
        return _one_shot_bin_hits(
            _unblocked_evaluate(germ.f, pts), _unblocked_evaluate(germ.g, pts), cfg.radius, 16
        )

    occupancy = ball_image_occupancy(ANGLE, cfg)
    assert np.array_equal(occupancy.hit_histogram, histogram(ANGLE, cfg.epsilon))

    stability = germ_stability_probe(ANGLE, 0.2, 0.05, cfg)
    counts2 = histogram(ANGLE, 0.05)
    counts1 = histogram(ANGLE, 0.2) + counts2
    assert np.array_equal(stability.bitmap_eps1, (counts1 > 0) & inside)
    assert np.array_equal(stability.bitmap_eps2, (counts2 > 0) & inside)

    phi = u**3 - v * v
    residual = curve_residual_probe(CUSP, phi, cfg)
    pts = cfg.epsilon * unit
    uv = np.column_stack([_unblocked_evaluate(CUSP.f, pts), _unblocked_evaluate(CUSP.g, pts)])
    res = np.abs(_unblocked_evaluate(phi, uv))
    assert residual.max_residual == float(res.max())
    assert residual.mean_residual == float(res.mean())


def test_evaluate_batch_memory_is_bounded_by_blocks():
    """Scratch memory is a fixed number of block buffers, whatever N is.

    A whole-array kernel holds copies of the coordinates and several
    N-sized temporaries per complex multiply, far above this bound.
    """
    nvars, count = 3, 200_000
    poly = _random_poly(nvars, 4, 9, seed=12)
    pts = 0.9 * unit_ball_samples(nvars, count, seed=12)
    tracemalloc.start()
    try:
        out = kernels.evaluate_batch(poly, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block_buffers = (6 + 2 * nvars) * ROWS * 8
    assert peak < out.nbytes + 2 * block_buffers


def test_bin_hits_memory_is_bounded_by_blocks():
    """Scratch memory is a fixed number of block buffers, whatever N is.

    Each thread holds a block's coordinates and their packed copy (2 nvars
    rows each), the evaluation scratch and both components (4 rows each),
    the cell indices (4 int64 rows), the two disk masks, the row indices of
    one gather and a count array; and the last block's bincount.  Holding
    the images u and v at full length would take 32 bytes per point.
    """
    nvars, bins = 3, 6
    x, y, z = variables(3)
    f, g = x * y, (x + z) ** 4 * y + z**3
    per_thread = ((4 * nvars + 12) * 8 + 2 + 8) * ROWS + 8 * bins**4
    for count in (4 * ROWS, 40 * ROWS):
        pts = 0.9 * unit_ball_samples(nvars, count, seed=count)
        for radius in (0.05, 10.0):  # a tenth of the rows packed; every row kept
            tracemalloc.start()
            try:
                hits = kernels.bin_hits(pts, f, g, radius, bins)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert hits.sum() > 0
            assert peak < 2 * per_thread + 8 * bins**4 + (1 << 16)


def test_probe_memory_is_bounded_by_slices():
    """Beyond its unit sample, a probe holds a fixed number of slice arrays.

    A whole-array probe also holds the scaled points (the size of the
    sample) and both images (half of it each at n = 2) at full length.
    """
    nvars, samples = 2, 4 * PIECE
    cfg = SamplerConfig(epsilon=0.2, target_radius=0.01, samples=samples, seed=2)
    unit_bytes = samples * nvars * 16
    slice_bytes = PIECE * nvars * 16
    tracemalloc.start()
    try:
        ball_image_occupancy(ANGLE, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < unit_bytes + 3 * slice_bytes
