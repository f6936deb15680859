"""CLI surface: subcommands, JSON schema stability, exit codes, CSV grid."""

import inspect
import json
import sys

import numpy as np
import pytest

from germimage import algebra, classifier
from germimage.cli import main
from germimage.corpus import load_corpus, run_entry
from germimage.probe import OccupancyReport
from germimage.report import emit_occupancy_grid


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_text(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--vars", "x,y", "--f", "x", "--g", "x*y"
    )
    assert code == 0
    assert "NotAGerm" in out
    assert "ContainmentNonvanishingJacobian" in out


def test_classify_json_schema(capsys):
    code, out, _ = run_cli(
        capsys,
        "--json",
        "classify",
        "--vars",
        "x,y",
        "--f",
        "x*(x+y)",
        "--g",
        "x*y",
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"input", "verdict", "decomposition", "prop_crit"}
    assert doc["verdict"]["status"] == "NotAGerm"
    assert doc["verdict"]["witness"]["kind"] == "GapLine"
    assert doc["verdict"]["witness"]["ratio"] == {"alpha": "1/1", "beta": "-1/1"}
    assert doc["verdict"]["subflat_label"] == "NotSubflat"
    assert doc["decomposition"]["h"] == "x"
    assert doc["prop_crit"]["result"] == "GapLineFound"
    assert "timing" not in doc


def test_classify_json_nested_germ_has_no_criterion(capsys):
    code, out, _ = run_cli(
        capsys, "--json", "classify", "--vars", "x,y", "--f", "x", "--g", "x*y"
    )
    assert code == 0
    assert set(json.loads(out)) == {"input", "verdict", "decomposition"}


@pytest.fixture
def call_counts(monkeypatch):
    """Count calls of ``decompose``, its builder and ``prop_crit_check`` under every name.

    Each ``germimage`` module attribute bound to one of them is replaced by
    a counting wrapper, so calls count whichever module makes them.
    ``decompose`` builds through ``_decomposition``, so each of its calls
    counts under both names.
    """
    counts = {}
    targets = {
        algebra.decompose: "decompose",
        algebra._decomposition: "decomposition",
        classifier.prop_crit_check: "prop_crit_check",
    }
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("germimage"):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in targets:
                key = targets[obj]

                def counted(*args, _fn=obj, _key=key, **kwargs):
                    counts[_key] = counts.get(_key, 0) + 1
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(mod, attr, counted)
    return counts


def test_one_classification_pass_in_corpus_and_cli(call_counts, capsys):
    """A report reuses what ``classify`` computed: each step runs once."""
    (entry,) = [e for e in load_corpus() if e.name == "huckleberry"]
    run_entry(entry)
    assert call_counts == {"decomposition": 1, "prop_crit_check": 1}

    call_counts.clear()
    code, _, _ = run_cli(capsys, "--json", "classify", "--entry", "huckleberry")
    assert code == 0
    assert call_counts == {"decomposition": 1, "prop_crit_check": 1}

    # a nested verdict does not keep the decomposition its inclusion tests
    # started from; the report decomposes once more
    call_counts.clear()
    code, _, _ = run_cli(capsys, "--json", "classify", "--vars", "x,y", "--f", "x", "--g", "x*y")
    assert code == 0
    assert call_counts == {"decompose": 1, "decomposition": 2}


def test_classify_timing_flag(capsys):
    code, out, _ = run_cli(
        capsys,
        "--json",
        "classify",
        "--vars",
        "x,y",
        "--f",
        "x",
        "--g",
        "y",
        "--timing",
    )
    doc = json.loads(out)
    assert code == 0 and "timing" in doc and doc["timing"]["seconds"] >= 0


def test_gap_lines_command(capsys):
    # nested zero sets: the containment branch decides, the pencil does not apply
    code, out, err = run_cli(
        capsys, "--json", "gap-lines", "--vars", "x,y", "--f", "x^2", "--g", "x*y"
    )
    assert code == 2 and out == ""
    assert "containment" in err

    code, out, _ = run_cli(
        capsys, "--json", "gap-lines", "--vars", "x,y", "--f", "x*(x+y)", "--g", "x*y"
    )
    doc = json.loads(out)
    assert code == 0
    assert set(doc) == {"input", "c", "verified", "refuted", "curves"}
    assert doc["c"] == "x"
    assert doc["verified"] == [{"alpha": "1/1", "beta": "-1/1"}]
    assert doc["refuted"] == [] and doc["curves"] == []

    # the ratios +-1/sqrt(3) lie outside Q(i): no gap line, one verified gap curve
    code, out, _ = run_cli(
        capsys, "--json", "gap-lines", "--vars", "x,y",
        "--f", "x*(y^2-3*x^2)", "--g", "y*(y^2-3*x^2)",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["c"] == "x^2-(1/3)*y^2"
    assert doc["verified"] == [] and doc["refuted"] == []
    assert doc["curves"] == ["u^2-(1/3)*v^2"]
    code, out, _ = run_cli(
        capsys, "gap-lines", "--vars", "x,y",
        "--f", "x*(y^2-3*x^2)", "--g", "y*(y^2-3*x^2)",
    )
    assert "no verified gap lines" in out and "gap curve: u^2-(1/3)*v^2" in out


def test_gap_lines_and_classify_share_the_walk(capsys):
    """On every corpus entry in the pencil branch both commands report the same C and line."""
    shared = 0
    for entry in load_corpus():
        code, out, _ = run_cli(capsys, "--json", "classify", "--entry", entry.name)
        report = json.loads(out)
        code_g, out_g, _ = run_cli(capsys, "--json", "gap-lines", "--entry", entry.name)
        if "prop_crit" not in report:
            assert code_g == 2, entry.name
            continue
        doc = json.loads(out_g)
        assert (code, code_g) == (0, 0)
        assert doc["c"] == report["prop_crit"]["c"]
        assert doc["refuted"] == report["prop_crit"]["refuted"]
        witness = report["verdict"]["witness"]
        if witness["kind"] == "GapLine":
            assert doc["verified"][0] == witness["ratio"]
        else:
            assert doc["verified"] == []
        shared += 1
    assert shared >= 4


def test_gap_curve_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "gap-curve",
        "--vars", "x,y", "--f", "x*y", "--g", "x^2*y^2+y^3",
        "--phi", "v-u^2",
    )
    assert code == 0 and "gap curve" in out
    code2, out2, _ = run_cli(
        capsys,
        "gap-curve",
        "--vars", "x,y", "--f", "x*y", "--g", "x^2*y^2+y^3",
        "--phi", "u",
    )
    assert code2 == 0 and "not a gap curve" in out2


def test_image_curve_command(capsys):
    code, out, _ = run_cli(
        capsys, "image-curve", "--vars", "x,y", "--f", "(x+y)^2", "--g", "(x+y)^3"
    )
    assert code == 0 and out.strip() == "u^3-v^2"
    code2, _, err = run_cli(
        capsys, "image-curve", "--vars", "x,y", "--f", "x", "--g", "x*y"
    )
    assert code2 == 2 and "not a curve" in err


def test_probe_command_with_csv(tmp_path, capsys):
    grid_path = tmp_path / "grid.csv"
    code, out, _ = run_cli(
        capsys,
        "probe",
        "--vars", "x,y", "--f", "x", "--g", "y",
        "--epsilon", "0.1",
        "--target-radius", "0.05",
        "--samples", "20000",
        "--bins", "2",
        "--csv", str(grid_path),
    )
    assert code == 0 and "occupancy" in out
    lines = grid_path.read_text().splitlines()
    assert lines[0] == "re_u,im_u,re_v,im_v,count"
    assert len(lines) == 1 + 2**4


def test_probe_stability_and_residual(capsys):
    code, out, _ = run_cli(
        capsys,
        "probe",
        "--vars", "x,y", "--f", "x", "--g", "x*y",
        "--samples", "20000",
        "--target-radius", "0.01",
        "--bins", "16",
        "--stability", "0.2,0.05",
    )
    assert code == 0 and "divergence" in out
    code2, out2, _ = run_cli(
        capsys,
        "probe",
        "--vars", "x,y", "--f", "(x+y)^2", "--g", "(x+y)^3",
        "--samples", "20000",
        "--residual-phi", "u^3-v^2",
    )
    assert code2 == 0 and "max residual" in out2


def test_entry_lookup(capsys):
    code, out, _ = run_cli(capsys, "--json", "classify", "--entry", "cusp")
    doc = json.loads(out)
    assert code == 0
    assert doc["verdict"]["witness"]["phi"] == "u^3-v^2"
    code2, _, err = run_cli(capsys, "classify", "--entry", "nonexistent")
    assert code2 == 2 and "no corpus entry" in err


def test_input_errors_exit_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "classify", "--vars", "x,y", "--f", "x+1", "--g", "y")
    assert code == 2 and "germ" in err
    code2, _, err2 = run_cli(capsys, "classify", "--vars", "x,y", "--f", "x*", "--g", "y")
    assert code2 == 2
    code3, _, err3 = run_cli(capsys, "classify", "--vars", "x,y", "--f", "w", "--g", "y")
    assert code3 == 2 and "unknown variable" in err3
    germ = ("--vars", "x,y", "--f", "x", "--g", "y")
    for bad in (("--bins", "0"), ("--bins", "200"), ("--samples", "0"), ("--epsilon", "-1"),
                ("--target-radius", "0")):
        code4, _, err4 = run_cli(capsys, "probe", *germ, *bad)
        assert code4 == 2 and "error:" in err4
    bad = tmp_path / "bins.txt"
    bad.write_text(
        "[zero]\nvars = x y\nf = x\ng = y\nexpected_status = LocallyOpen\n"
        "probe = occupancy\nbins = 0\nsamples = 1000\nmin_occupancy = 0.5\n"
    )
    code5, _, err5 = run_cli(capsys, "corpus", "--corpus-file", str(bad))
    assert code5 == 2 and "at least 1" in err5
    # a bad probe in a later entry stops the run before the first entry is classified
    good = "[first]\nvars = x y\nf = x\ng = y\nexpected_status = LocallyOpen\n"
    for probe, message in (
        ("probe = stability\n", "eps1 > eps2 > 0"),
        ("probe = stability\neps1 = 0.05\neps2 = 0.2\n", "eps1 > eps2 > 0"),
        ("probe = volume\n", "unknown probe kind"),
        ("probe = occupancy\nbins = 200\n", "grid cells"),
    ):
        bad.write_text(good + good.replace("first", "second") + probe)
        code6, out6, err6 = run_cli(capsys, "corpus", "--corpus-file", str(bad))
        assert code6 == 2 and out6 == ""
        assert "corpus entry [second]" in err6 and message in err6
        assert "Traceback" not in err6


def test_corpus_exit_codes(tmp_path, capsys):
    wrong = tmp_path / "wrong.txt"
    wrong.write_text(
        "[bad]\nvars = x y\nf = x\ng = x*y\nexpected_status = LocallyOpen\n"
    )
    code, out, _ = run_cli(capsys, "corpus", "--corpus-file", str(wrong))
    assert code == 1
    assert "MISMATCH" in out

    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n")
    code2, _, _ = run_cli(capsys, "corpus", "--corpus-file", str(empty))
    assert code2 == 0

    missing = tmp_path / "broken.txt"
    missing.write_text("[bad]\nvars = x y\nf = x\n")
    code3, _, err3 = run_cli(capsys, "corpus", "--corpus-file", str(missing))
    assert code3 == 2 and "missing keys" in err3


def test_emit_grid_zero_hits(tmp_path):
    report = OccupancyReport(
        occupied_fraction=0.0,
        total_bins=16,
        occupied_bins=0,
        hit_histogram=np.zeros(16, dtype=np.int64),
        epsilon=0.1,
        target_radius=0.05,
        samples=0,
        grid_bins_per_axis=2,
        seed=0,
    )
    path = tmp_path / "zero.csv"
    emit_occupancy_grid(report, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 17
    assert all(line.endswith(",0") for line in lines[1:])
    # bit-exact re-emission
    path2 = tmp_path / "zero2.csv"
    emit_occupancy_grid(report, path2)
    assert path.read_bytes() == path2.read_bytes()
