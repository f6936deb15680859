"""CLI surface: subcommands, JSON schema stability, exit codes, CSV grid."""

import inspect
import json
import sys

import numpy as np
import pytest

from germimage import algebra, classifier, probe
from germimage.classifier import classify, witness_kind
from germimage.cli import main
from germimage.corpus import CorpusEntry, load_corpus, run_entry, run_probe
from germimage.parsing import format_polynomial
from germimage.probe import OccupancyReport
from germimage.report import build_classify_report, emit_occupancy_grid


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


def _count_calls(monkeypatch, targets):
    """Count calls of the ``targets`` functions under every name.

    Each ``germimage`` module attribute bound to one of them is replaced by
    a counting wrapper, so calls count whichever module makes them.
    """
    counts = {}
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


@pytest.fixture
def call_counts(monkeypatch):
    """Count calls of ``decompose``, ``_decomposition`` and ``prop_crit_check``.

    ``decompose`` takes gcd(f, g) and keeps the cofactors the gcd's
    certificate divided out; ``_decomposition`` divides by a known h.
    """
    targets = {
        algebra.decompose: "decompose",
        algebra._decomposition: "decomposition",
        classifier.prop_crit_check: "prop_crit_check",
    }
    return _count_calls(monkeypatch, targets)


def test_one_classification_pass_in_corpus_and_cli(call_counts, capsys):
    """A report reuses what ``classify`` computed: no step that takes gcd(f, g) runs twice.

    ``classify`` takes its one gcd in ``decompose``; the report rebuilds
    the cofactors from the verdict's h by two exact divisions.
    """
    (entry,) = [e for e in load_corpus() if e.name == "huckleberry"]
    run_entry(entry)
    assert call_counts == {"decompose": 1, "decomposition": 1, "prop_crit_check": 1}

    call_counts.clear()
    code, _, _ = run_cli(capsys, "--json", "classify", "--entry", "huckleberry")
    assert code == 0
    assert call_counts == {"decompose": 1, "decomposition": 1, "prop_crit_check": 1}

    # a nested verdict keeps h too, so its report takes no decompose either
    call_counts.clear()
    code, _, _ = run_cli(capsys, "--json", "classify", "--vars", "x,y", "--f", "x", "--g", "x*y")
    assert code == 0
    assert call_counts == {"decompose": 1, "decomposition": 1}


def test_the_report_takes_no_gcd(monkeypatch):
    """``build_classify_report`` reads h off the verdict, on every branch.

    The corpus entries cover both nested branches, CodimTwo and the pencil
    branch (a PropCritCertificate, a GapLine and no decision); the ad-hoc
    germ has f = 0, where h is g made monic.
    """
    names = ("angle", "cusp", "identity", "openball", "diagonal", "rouche")
    entries = [e for e in load_corpus() if e.name in names]
    entries.append(CorpusEntry("zero", ("x", "y"), "0", "x^2*y", "CurveImage", "", ""))
    kinds = []
    for e in entries:
        germ = e.germ()
        verdict = classify(germ)
        kinds.append(witness_kind(verdict.witness))
        with monkeypatch.context() as patch:
            counts = _count_calls(patch, {algebra.gcd: "gcd"})
            _, report = build_classify_report(
                e.name, e.varnames, e.f_text, e.g_text, germ, verdict
            )
        assert counts == {}, e.name
        assert report["decomposition"]["h"] == format_polynomial(verdict.h, e.varnames)
    assert sorted(kinds) == sorted(["ContainmentNonvanishingJacobian", "CurveEquation",
                                    "CodimTwo", "PropCritCertificate", "GapLine", "None",
                                    "CurveEquation"])
    assert report["decomposition"]["h"] == "x^2*y"


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


def _refused(capsys, *argv):
    """Exit code and stderr of a command line that argparse refuses."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code, capsys.readouterr().err


def test_probe_kinds_exclude_each_other(capsys):
    germ = ("--vars", "x,y", "--f", "x", "--g", "x*y")
    code, err = _refused(
        capsys, "probe", *germ, "--stability", "0.2,0.05", "--residual-phi", "u"
    )
    assert code == 2 and "--residual-phi" in err and "--stability" in err


def test_stability_needs_two_numbers(capsys):
    germ = ("--vars", "x,y", "--f", "x", "--g", "x*y")
    for value in ("0.2", "0.2,x", "0.2,0.1,0.05"):
        code, err = _refused(capsys, "probe", *germ, "--stability", value)
        assert code == 2 and "argument --stability" in err and value in err


def test_csv_with_another_probe_is_refused_before_sampling(monkeypatch, tmp_path, capsys):
    counts = _count_calls(monkeypatch, {
        probe.ball_image_occupancy: "occupancy",
        probe.germ_stability_probe: "stability",
        probe.curve_residual_probe: "residual",
    })
    germ = ("--vars", "x,y", "--f", "x", "--g", "x*y", "--samples", "2000")
    grid = tmp_path / "grid.csv"
    for flags in (("--stability", "0.2,0.05"), ("--residual-phi", "u")):
        code, err = _refused(capsys, "probe", *germ, *flags, "--csv", str(grid))
        assert code == 2 and "--csv" in err
    assert counts == {} and not grid.exists()
    # the spy sees a probe that does run
    code, _, _ = run_cli(capsys, "probe", *germ, "--csv", str(grid))
    assert code == 0 and counts == {"occupancy": 1} and grid.exists()


def test_cli_and_corpus_share_one_probe_dispatcher(capsys):
    """The CLI's probe sections are ``run_probe``'s, less its threshold and ``passed``.

    For each probe kind, ``germimage --json probe`` with the entry's knobs
    as flags; for the occupancy probe also ``classify --probe``, with the
    knobs given and with none (the ``SamplerConfig`` defaults on both sides).
    """
    knobs = {"samples": 20000, "target_radius": 0.01, "bins": 16}
    flags = ("--samples", "20000", "--target-radius", "0.01", "--bins", "16")
    angle = ("x", "x*y", "NotAGerm")
    cases = [
        (angle, "occupancy", {**knobs, "min_occupancy": 0.5}, flags),
        (angle, "occupancy", {}, ()),
        (angle, "stability", {**knobs, "eps1": 0.2, "eps2": 0.05, "min_divergence": 0.1},
         flags + ("--stability", "0.2,0.05")),
        (("(x+y)^2", "(x+y)^3", "CurveImage"), "residual", {**knobs, "max_residual": 1e-10},
         flags + ("--residual-phi", "u^3-v^2")),
    ]
    threshold_keys = {"min_occupancy", "min_divergence", "max_residual_bound", "passed"}
    for (f_text, g_text, status), kind, params, cli_flags in cases:
        entry = CorpusEntry("e", ("x", "y"), f_text, g_text, status, "", "", kind, params)
        germ = entry.germ()
        section, _, _ = run_probe(entry, germ, classify(germ), seed=5)
        assert "passed" in section
        expected = {k: v for k, v in section.items() if k not in threshold_keys}
        source = ("--vars", "x,y", "--f", f_text, "--g", g_text)
        code, out, _ = run_cli(capsys, "--seed", "5", "--json", "probe", *source, *cli_flags)
        assert code == 0 and json.loads(out)["probes"] == [expected], kind
        if kind == "occupancy":
            code, out, _ = run_cli(
                capsys, "--seed", "5", "--json", "classify", *source, "--probe", *cli_flags
            )
            assert code == 0 and json.loads(out)["probe"] == expected


def test_probe_entry_runs_the_entry_protocol(capsys):
    """``probe --entry`` runs the entry's probe as the corpus runner does; flags override it."""
    (entry,) = [e for e in load_corpus() if e.name == "angle"]
    germ = entry.germ()
    section, _, _ = run_probe(entry, germ, classify(germ), seed=3)
    assert section["kind"] == "stability" and section["samples"] == 400000
    code, out, _ = run_cli(capsys, "--seed", "3", "--json", "probe", "--entry", "angle")
    assert code == 0 and json.loads(out)["probes"] == [section]

    smaller = CorpusEntry(**{**vars(entry), "probe_params": {**entry.probe_params, "samples": 20000}})
    section, _, _ = run_probe(smaller, germ, classify(germ), seed=3)
    code, out, _ = run_cli(
        capsys, "--seed", "3", "--json", "probe", "--entry", "angle", "--samples", "20000"
    )
    assert code == 0 and json.loads(out)["probes"] == [section]


def test_entry_lookup(capsys):
    code, out, _ = run_cli(capsys, "--json", "classify", "--entry", "cusp")
    doc = json.loads(out)
    assert code == 0
    assert doc["verdict"]["witness"]["phi"] == "u^3-v^2"
    code2, _, err = run_cli(capsys, "classify", "--entry", "nonexistent")
    assert code2 == 2 and "no corpus entry" in err


def test_input_errors_exit_2(tmp_path, capsys, monkeypatch):
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
    # a bad probe or germ in a later entry stops the run before the first entry is classified
    classified = _count_calls(monkeypatch, {classifier.classify: "classify"})
    good = "[first]\nvars = x y\nf = x\ng = y\nexpected_status = LocallyOpen\n"
    for probe, message in (
        ("probe = stability\n", "eps1 > eps2 > 0"),
        ("probe = stability\neps1 = 0.05\neps2 = 0.2\n", "eps1 > eps2 > 0"),
        ("probe = volume\n", "unknown probe kind"),
        ("probe = occupancy\nbins = 200\n", "grid cells"),
        ("probe = occupancy\nepsilon = 1e200\ntarget_radius = 0.05\n", "|f| may reach 1e+200"),
        ("probe = stability\neps1 = 1e160\neps2 = 0.05\n", "|f| may reach 1e+160"),
        ("g = (y\n", "expected ')', found 'end of input'"),
    ):
        bad.write_text(good + good.replace("first", "second") + probe)
        code6, out6, err6 = run_cli(capsys, "corpus", "--corpus-file", str(bad))
        assert code6 == 2 and out6 == ""
        assert "corpus entry [second]" in err6 and message in err6
        assert "Traceback" not in err6
    assert classified == {}


def test_non_finite_probe_parameters_exit_2(monkeypatch, capsys):
    """An infinite radius is refused with a message before any sample is drawn."""
    counts = _count_calls(monkeypatch, {probe.unit_ball_samples: "sampled"})
    entry = ("--entry", "identity")
    for flags, message in (
        ((*entry, "--target-radius", "inf"), "positive and finite"),
        ((*entry, "--epsilon", "inf"), "positive and finite"),
        ((*entry, "--epsilon", "nan"), "positive and finite"),
        ((*entry, "--stability", "inf,0.05"), "finite eps1 > eps2 > 0"),
        # no entry radius: the default epsilon**2 / 4 overflows
        (("--vars", "x,y", "--f", "x", "--g", "y", "--epsilon", "1e200"), "target radius = inf"),
    ):
        code, out, err = run_cli(capsys, "--seed", "0", "probe", *flags)
        assert code == 2 and out == "", flags
        assert err.startswith("error: ") and message in err and "Traceback" not in err
    assert counts == {}


def test_probes_whose_images_overflow_exit_2(capsys, monkeypatch):
    """A finite epsilon whose images overflow floating point is refused before any draw."""
    counts = _count_calls(monkeypatch, {probe.unit_ball_samples: "sampled"})
    for flags, message in (
        (("--entry", "identity", "--epsilon", "1e200", "--samples", "1000"), "|f| may reach 1e+200"),
        (("--entry", "openball", "--epsilon", "1e100"), "|f| may reach 1e+200"),
        (("--entry", "angle", "--stability", "1e160,0.05"), "|f| may reach 1e+160"),
        (("--entry", "cusp", "--residual-phi", "u^3-v^2", "--epsilon", "1e60"), "may reach"),
    ):
        code, out, err = run_cli(capsys, "--seed", "0", "probe", *flags)
        assert code == 2 and out == "", flags
        assert err.startswith("error: ") and message in err and "overflows floating point" in err
        assert "Traceback" not in err and "Warning" not in err
    assert counts == {}


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
