"""The corpus runner's shared unit-ball draws: fewer draws, the same reports."""

import threading

import pytest

from germimage import corpus, probe
from germimage.corpus import run_corpus, run_probe

# n = 2 at 3000 points and a prefix of it, n = 3 at 2000, n = 2 growing to
# 5000 (a residual probe), then a prefix of each: 7000 points drawn, each
# once, not the 18 000 of six fresh draws.
_SMALL = """
[open2]
vars = x y
f = x
g = y
expected_status = LocallyOpen
probe = occupancy
epsilon = 0.1
samples = 3000

[angle]
vars = x y
f = x
g = x*y
expected_status = NotAGerm
probe = stability
eps1 = 0.2
eps2 = 0.05
target_radius = 0.01
samples = 1000

[open3]
vars = x y z
f = x*y
g = x*z
expected_status = LocallyOpen
probe = occupancy
epsilon = 0.3
target_radius = 0.02
samples = 2000

[cusp]
vars = x y
f = (x+y)^2
g = (x+y)^3
expected_status = CurveImage
probe = residual
samples = 5000

[open3-short]
vars = x y z
f = x*y
g = x*z
expected_status = LocallyOpen
probe = occupancy
epsilon = 0.3
target_radius = 0.02
samples = 500

[open2-long]
vars = x y
f = x
g = y
expected_status = LocallyOpen
probe = occupancy
samples = 5000
"""


@pytest.fixture
def draws(monkeypatch):
    """Record every call of ``probe.unit_ball_samples`` as (nvars, count, seed)."""
    calls = []
    fresh = probe.unit_ball_samples

    def spy(nvars, count, seed):
        calls.append((nvars, count, seed))
        return fresh(nvars, count, seed)

    monkeypatch.setattr(probe, "unit_ball_samples", spy)
    return calls


@pytest.fixture
def placed(monkeypatch):
    """Points added per source dimension, as ``probe._place_chunk`` copies them."""
    added = {}
    place = probe._place_chunk

    def spy(gauss, uniform, norms, inside, out, have, skip):
        used = place(gauss, uniform, norms, inside, out, have, skip)
        nvars = out.shape[1] // 2
        added[nvars] = added.get(nvars, 0) + used - skip
        return used

    monkeypatch.setattr(probe, "_place_chunk", spy)
    return added


def _fresh_sections(results, seed):
    return {
        r.entry.name: run_probe(r.entry, r.entry.germ(), r.verdict, seed)[0] for r in results
    }


def test_run_corpus_draws_once_per_stream_and_growth(tmp_path, draws, placed):
    """Each stream draws each of its points once: growing to 5000 adds 2000."""
    path = tmp_path / "small.txt"
    path.write_text(_SMALL)
    before = threading.active_count()
    results, code = run_corpus(path=str(path), seed=9)
    assert code == 0
    assert threading.active_count() == before
    assert draws == []  # the streams draw through private routines only
    assert placed == {2: 5000, 3: 2000}
    # a second run draws again: nothing outlives the call
    results_again, _ = run_corpus(path=str(path), seed=9)
    assert placed == {2: 10_000, 3: 4000}
    assert [r.report for r in results_again] == [r.report for r in results]

    fresh = _fresh_sections(results, seed=9)
    assert len(draws) == len(results)
    assert {r.entry.name: r.report["probe"] for r in results} == fresh


def test_run_corpus_drops_each_stream_after_its_last_reader(tmp_path, monkeypatch):
    """A stream goes right after the last entry with a probe at its n; none is kept."""
    path = tmp_path / "small.txt"
    path.write_text(_SMALL)
    events, draws = [], []
    run_entry, release = corpus.run_entry, probe.SharedBallSamples.release

    def entry_spy(entry, *args, **kwargs):
        events.append(entry.name)
        return run_entry(entry, *args, **kwargs)

    def release_spy(self, nvars, seed):
        events.append((nvars, seed))
        draws.append(self)
        release(self, nvars, seed)

    monkeypatch.setattr(corpus, "run_entry", entry_spy)
    monkeypatch.setattr(probe.SharedBallSamples, "release", release_spy)
    before = threading.active_count()
    results, code = run_corpus(path=str(path), seed=9)
    assert code == 0
    assert threading.active_count() == before
    assert events == [
        "open2", "angle", "open3", "cusp", "open3-short", (3, 9), "open2-long", (2, 9)
    ]
    assert draws[0] is draws[1] and draws[0]._streams == {}


def test_shipped_corpus_probes_match_fresh_draws():
    """Every entry's probe section is the one a probe drawing its own sample gives."""
    results, code = run_corpus(seed=3)
    assert code == 0
    fresh = _fresh_sections(results, seed=3)
    assert None not in fresh.values()
    for r in results:
        assert r.report["probe"] == fresh[r.entry.name], r.entry.name

