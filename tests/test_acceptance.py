"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines live.
All tolerances and probe thresholds are frozen here and in the shipped
corpus file; the probe criteria are corroboration checks, not proofs.
"""

import filecmp
import random
import time
from contextlib import contextmanager

import pytest

from germimage.algebra import decompose, squarefree_part, zero_set_germ_included
from germimage.classifier import (
    ProjectiveRatio,
    Status,
    SubflatLabel,
    prop_crit_check,
    witness_kind,
)
from germimage.corpus import load_corpus, run_corpus
from germimage.parsing import parse_polynomial
from germimage.poly import MapGerm, Polynomial, compose_target
from germimage.probe import SamplerConfig, germ_stability_probe
from germimage.report import decomposition_json, prop_crit_json

from _helpers import compose_case, factor_pool


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL - {description}", flush=True)
        raise
    print(f"[criterion {number}] PASS - {description}", flush=True)


@pytest.fixture(scope="module")
def corpus_run():
    t0 = time.monotonic()
    results, code = run_corpus(seed=0)
    elapsed = time.monotonic() - t0
    return {r.entry.name: r for r in results}, code, elapsed


def _entry_germ(by_name, name):
    return by_name[name].entry.germ()


def test_criterion_1_corpus_classification(corpus_run):
    by_name, code, elapsed = corpus_run
    with criterion(1, "corpus classification, paper-anchored, within time budget"):
        assert code == 0, "corpus mismatch"
        expected = {
            "angle": "NotAGerm",
            "blowup": "NotAGerm",
            "diagonal": "NotAGerm",
            "openball": "LocallyOpen",
            "huckleberry": "LocallyOpen",
            "nogapline": "NotAGerm",
            "rouche": "Undetermined",
            "cusp": "CurveImage",
        }
        for name, status in expected.items():
            assert by_name[name].verdict.status.value == status, name

        # blowup: the gap line u = 0 nests the zero sets, so the containment branch decides
        blowup = by_name["blowup"]
        assert witness_kind(blowup.verdict.witness) == "ContainmentNonvanishingJacobian"
        assert "prop_crit" not in blowup.report

        # diagonal: gap-line witness (-1, 1)
        diag = by_name["diagonal"].verdict
        assert witness_kind(diag.witness) == "GapLine"
        assert diag.witness.ratio == ProjectiveRatio(-1, 1)

        # huckleberry: established by the sufficient openness test
        assert witness_kind(by_name["huckleberry"].verdict.witness) == "PropCritCertificate"

        # nogapline: gap curve v - u^2, with no gap line found
        ng = by_name["nogapline"].verdict
        u, v = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        assert witness_kind(ng.witness) == "GapCurve"
        assert ng.witness.curve.phi == v - u * u
        assert ng.prop_crit.search.lines == () and ng.prop_crit.search.refuted == ()

        # rouche: the openness test is inconclusive
        assert by_name["rouche"].report["prop_crit"]["result"] == "Inconclusive"

        # cusp: curve image with the cusp equation
        assert by_name["cusp"].verdict.witness.phi == u**3 - v * v

        # time budget: each entry under 10 s, whole corpus under 2 min
        for name, res in by_name.items():
            assert res.seconds < 10.0, f"{name} took {res.seconds:.1f}s"
        assert elapsed < 120.0, f"corpus took {elapsed:.1f}s"


def test_criterion_2_decomposition_exactness():
    with criterion(2, "gcd decomposition reproduces the printed triples bitwise"):
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        dec = decompose(MapGerm(x * y, x * x * y * y + y**3))
        assert dec.h == y
        assert dec.f_hat == x
        assert dec.g_hat == x * x * y + y * y

        w = x**4 + y
        dec2 = decompose(MapGerm(x * w, y * w * w))
        assert dec2.h == w
        assert dec2.f_hat == x
        assert dec2.g_hat == y * w


def test_criterion_3_germ_inclusion_oracle():
    with criterion(3, "germ inclusion matches the factor-list oracle on 500 cases"):
        rng = random.Random(123456)
        pool = factor_pool()
        mismatches = 0
        for _ in range(500):
            p, q, oracle = compose_case(rng, pool)
            if zero_set_germ_included(p, q) != oracle:
                mismatches += 1
        assert mismatches == 0


def test_criterion_4_groebner_certificates(corpus_run):
    by_name, _, _ = corpus_run
    with criterion(4, "exact elimination soundness"):
        curve_entries = [
            name for name, res in by_name.items()
            if res.verdict.status is Status.CURVE_IMAGE
        ]
        assert curve_entries, "corpus has no curve-image entry"
        for name in curve_entries:
            germ = _entry_germ(by_name, name)
            # the reported curve is reduced, passes through 0 and annihilates the map
            phi = by_name[name].verdict.witness.phi
            assert squarefree_part(phi) == phi
            assert compose_target(phi, germ).is_zero()
            assert phi.constant_term().is_zero()


def test_criterion_5_probe_corroboration(corpus_run):
    by_name, _, _ = corpus_run
    with criterion(5, "probe corroboration at the frozen thresholds (evidence only)"):
        # open map (xy, xz): occupancy >= 0.99 at eps=0.3, r=eps^2/4, N=10^6
        ob = by_name["openball"]
        assert ob.entry.probe_params["samples"] == 1_000_000
        assert ob.entry.probe_params["epsilon"] == 0.3
        assert ob.entry.probe_params["target_radius"] == pytest.approx(0.3**2 / 4)
        assert ob.report["probe"]["occupied_fraction"] >= 0.99

        # angle map: divergence at least 10x the stable baseline
        angle = by_name["angle"]
        assert angle.report["probe"]["divergence"] >= angle.entry.probe_params["min_divergence"]
        baseline_cfg = SamplerConfig(
            samples=400_000, seed=0, target_radius=0.05**2 / 4, grid_bins_per_axis=16
        )
        stable = germ_stability_probe(
            _entry_germ(by_name, "openball"), 0.2, 0.05, baseline_cfg
        ).divergence
        assert angle.report["probe"]["divergence"] >= 10 * stable

        # rouche-style map: occupancy supports openness at the tiny target
        # scale the root-counting argument uses (target radius < eps^10)
        rc = by_name["rouche"]
        eps = rc.entry.probe_params["epsilon"]
        r = rc.entry.probe_params["target_radius"]
        assert r < eps**10
        assert rc.report["probe"]["occupied_fraction"] >= rc.entry.probe_params["min_occupancy"]


def test_criterion_6_deterministic_reports(tmp_path):
    with criterion(6, "byte-identical corpus JSON reports for identical seeds"):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        _, code_a = run_corpus(seed=7, out_dir=str(dir_a))
        _, code_b = run_corpus(seed=7, out_dir=str(dir_b))
        assert code_a == code_b == 0
        names = sorted(p.name for p in dir_a.iterdir())
        assert names == sorted(p.name for p in dir_b.iterdir())
        assert names, "no reports were written"
        for name in names:
            fa, fb = dir_a / name, dir_b / name
            assert filecmp.cmp(fa, fb, shallow=False), f"{name} differs"
            assert fa.read_bytes() == fb.read_bytes()


def test_criterion_7_subflat_labeling(corpus_run):
    by_name, _, _ = corpus_run
    with criterion(7, "subflat labels consistent with the openness equivalence"):
        violations = []
        for name, res in by_name.items():
            verdict = res.verdict
            if verdict.status is Status.LOCALLY_OPEN:
                if verdict.subflat_label is not SubflatLabel.SUBFLAT:
                    violations.append(name)
            if verdict.status is Status.NOT_A_GERM and witness_kind(verdict.witness) in (
                "GapLine",
                "GapCurve",
            ):
                if verdict.subflat_label is not SubflatLabel.NOT_SUBFLAT:
                    violations.append(name)
        assert violations == []
        # both label directions are actually exercised by the corpus
        labels = {res.verdict.subflat_label for res in by_name.values()}
        assert SubflatLabel.SUBFLAT in labels and SubflatLabel.NOT_SUBFLAT in labels


def test_reports_match_a_fresh_recomputation(corpus_run):
    """The decomposition and criterion sections equal an independent rerun.

    The criterion applies when neither zero set contains the other, h(0) = 0
    and both cofactors vanish at 0; elsewhere the section is absent.
    """
    by_name, _, _ = corpus_run
    applied = set()
    for name, res in by_name.items():
        germ = res.entry.germ()
        f, g = germ.f, germ.g
        dec = decompose(germ)
        assert res.report["decomposition"] == decomposition_json(dec, res.entry.varnames), name
        nested = (
            f.is_zero()
            or g.is_zero()
            or zero_set_germ_included(g, f)
            or zero_set_germ_included(f, g)
        )
        if nested or dec.h.is_unit_germ() or dec.f_hat_is_unit or dec.g_hat_is_unit:
            assert "prop_crit" not in res.report, name
            continue
        expected = prop_crit_json(prop_crit_check(germ, dec), res.entry.varnames)
        assert res.report["prop_crit"] == expected, name
        applied.add(name)
    # both cases are exercised by the corpus
    assert applied and applied != set(by_name)
