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
    """Count calls of ``decompose`` and ``prop_crit_check`` under every name.

    Each ``germimage`` module attribute bound to one of them is replaced by
    a counting wrapper, so calls count whichever module makes them.
    """
    counts = {}
    targets = {algebra.decompose: "decompose", classifier.prop_crit_check: "prop_crit_check"}
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
    assert call_counts == {"decompose": 1, "prop_crit_check": 1}

    call_counts.clear()
    code, _, _ = run_cli(capsys, "--json", "classify", "--entry", "huckleberry")
    assert code == 0
    assert call_counts == {"decompose": 1, "prop_crit_check": 1}

    # a nested germ is decided without the decomposition; the report needs it once
    call_counts.clear()
    code, _, _ = run_cli(capsys, "--json", "classify", "--vars", "x,y", "--f", "x", "--g", "x*y")
    assert code == 0
    assert call_counts == {"decompose": 1}


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
    code, out, _ = run_cli(
        capsys, "--json", "gap-lines", "--vars", "x,y", "--f", "x^2", "--g", "x*y"
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["verified"] == [{"alpha": "0/1", "beta": "1/1"}]
    assert doc["unverified_numeric"] == []
    assert doc["coverage"]["lines"] >= 1


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


def test_input_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "classify", "--vars", "x,y", "--f", "x+1", "--g", "y")
    assert code == 2 and "germ" in err
    code2, _, err2 = run_cli(capsys, "classify", "--vars", "x,y", "--f", "x*", "--g", "y")
    assert code2 == 2
    code3, _, err3 = run_cli(capsys, "classify", "--vars", "x,y", "--f", "w", "--g", "y")
    assert code3 == 2 and "unknown variable" in err3


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
