"""The corpus runner's shared unit-ball draws: fewer draws, the same reports."""

import threading

import pytest

from germimage import corpus, probe
from germimage.cli import main
from germimage.corpus import run_corpus, run_probe
from germimage.errors import GermImageError

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

    def spy(gauss, uniform, norms, inside, out, have):
        taken = place(gauss, uniform, norms, inside, out, have)
        nvars = out.shape[1] // 2
        added[nvars] = added.get(nvars, 0) + taken
        return taken

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


# _SMALL, then n = 2 grows again after the last n = 3 entry: that
# segment waits for the n = 3 stream's release.
_GROWS_LATE = _SMALL + """
[open2-longer]
vars = x y
f = x
g = y
expected_status = LocallyOpen
probe = occupancy
samples = 200000
"""


def test_run_corpus_drops_each_stream_after_its_last_reader(tmp_path, monkeypatch):
    """A stream goes right after the last entry with a probe at its n; none is kept.

    The segment that grows the n = 2 stream past the last n = 3 entry
    starts only after the n = 3 stream is released.
    """
    path = tmp_path / "small.txt"
    path.write_text(_GROWS_LATE)
    events, draws = [], []
    run_entry, release = corpus.run_entry, probe.SharedBallSamples.release
    draw_segment = probe.SharedBallSamples._draw

    def entry_spy(entry, *args, **kwargs):
        events.append(entry.name)
        return run_entry(entry, *args, **kwargs)

    def release_spy(self, nvars, seed):
        events.append((nvars, seed))
        draws.append(self)
        release(self, nvars, seed)

    def segment_spy(self, key, end):
        if end == 200_000:
            events.append("segment")
        draw_segment(self, key, end)

    monkeypatch.setattr(corpus, "run_entry", entry_spy)
    monkeypatch.setattr(probe.SharedBallSamples, "release", release_spy)
    monkeypatch.setattr(probe.SharedBallSamples, "_draw", segment_spy)
    before = threading.active_count()
    results, code = run_corpus(path=str(path), seed=9)
    assert code == 0
    assert threading.active_count() == before
    names = [e for e in events if e != "segment"]
    assert names == [
        "open2", "angle", "open3", "cusp", "open3-short", (3, 9), "open2-long",
        "open2-longer", (2, 9),
    ]
    assert events.count("segment") == 1
    assert events.index((3, 9)) < events.index("segment")
    assert draws[0] is draws[1] and draws[0]._streams == {}


def test_mid_run_probe_refusal_names_the_entry(tmp_path, capsys):
    """A probe refused after its entry classified names the entry, and leaves no thread.

    The parser cannot bound phi(f, g) before ``classify`` finds the curve;
    the residual probe refuses it once the entry runs.
    """
    path = tmp_path / "overflow.txt"
    path.write_text(
        "[first]\nvars = x y\nf = x\ng = y\nexpected_status = LocallyOpen\n"
        "probe = occupancy\n\n"
        "[cusp]\nvars = x y\nf = (x+y)^2\ng = (x+y)^3\nexpected_status = CurveImage\n"
        "probe = residual\nepsilon = 1e26\nsamples = 1000\n"
    )
    before = threading.active_count()
    with pytest.raises(GermImageError, match=r"corpus entry \[cusp\]: \|phi\(f, g\)\| may reach"):
        run_corpus(path=str(path), seed=0)
    assert threading.active_count() == before
    assert main(["corpus", "--corpus-file", str(path)]) == 2
    assert "error: corpus entry [cusp]: |phi(f, g)| may reach" in capsys.readouterr().err
    assert threading.active_count() == before


def test_shipped_corpus_probes_match_fresh_draws():
    """Every entry's probe section is the one a probe drawing its own sample gives."""
    results, code = run_corpus(seed=3)
    assert code == 0
    fresh = _fresh_sections(results, seed=3)
    assert None not in fresh.values()
    for r in results:
        assert r.report["probe"] == fresh[r.entry.name], r.entry.name

