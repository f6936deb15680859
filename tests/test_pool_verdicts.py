"""Every germ of the benchmark pool keeps the verdict recorded for it.

``perfbench/data/classify_pool.json`` lists 309 seeded random germs in
x, y, z with the status and witness kind ``classify`` gave when the pool
was made.  The file is read, never written.  The same germs pin the
default reports and the certificate C against its defining gcd formula.
"""

import hashlib
import json
import random
import re
from pathlib import Path

from germimage.algebra import _decomposition, _strip, gcd, zero_set_germ_included
from germimage.classifier import (
    Status,
    _pencil_applies,
    classify,
    pencil_constancy_locus,
    verify_witness,
    witness_kind,
)
from germimage.corpus import load_corpus
from germimage.parsing import parse_map_germ, parse_polynomial
from germimage.poly import MapGerm
from germimage.report import build_classify_report, dumps_report, verdict_json

from _helpers import four_variable_pool, reference_constancy_locus

POOL_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "classify_pool.json"

# sha256 of every pool germ's verdict_json, then every shipped corpus
# entry's, as ``dumps_report`` writes them, recorded when each verdict
# took three gcds of (f, g); it pins the one-gcd classify to that output.
VERDICTS_SHA256 = "14d327f96cada420fc7bb6112901d5acae418fa307f8008c4f10d086511dcc9e"

# sha256 of the default classify report (no probe) of every pool germ, then
# of every shipped corpus entry, as ``dumps_report`` writes them.  Unlike
# ``verdict_json`` it holds the decomposition, the certificate C and the
# refuted ratios of every germ that reaches the pencil criterion.
REPORTS_SHA256 = "ad97b9e20de882b0fe83655ae4227188072e1a4d2da4bc14c873ea0e4656989d"


# h = gcd(f, g) of pool germs 171 and 288 after the coordinate change of
# ``_transformed``, up to a constant (the parser reads no fractions).  Both
# were checked once against sympy's gcd over QQ<I>, which takes minutes on
# each germ, too long for this suite.
TRANSFORMED_H = {
    171: "4*x^2*y^2+8*x^2*y*z+4*x^2*z^2-4*x^2*y-4*x^2*z+4*x*y*z+4*x*z^2+x^2-2*x*z+z^2",
    288: "y^2+2*y*z+z^2+2*x",
}


def _pool():
    pool = json.loads(POOL_PATH.read_text(encoding="utf-8"))
    varnames = tuple(pool["vars"])
    return [(parse_map_germ(varnames, e["f"], e["g"]), varnames) for e in pool["germs"]]


def test_pool_verdicts_hold_and_witnesses_verify():
    pool = json.loads(POOL_PATH.read_text(encoding="utf-8"))
    varnames = tuple(pool["vars"])
    assert len(pool["germs"]) == 309
    wrong = []
    for entry in pool["germs"]:
        germ = parse_map_germ(varnames, entry["f"], entry["g"])
        verdict = classify(germ)
        got = (verdict.status.value, witness_kind(verdict.witness))
        # a germ the pool leaves undetermined may since have been decided
        if entry["status"] != Status.UNDETERMINED.value and got != (entry["status"], entry["witness"]):
            wrong.append((entry["f"], entry["g"], got))
        elif not verify_witness(germ, verdict):
            wrong.append((entry["f"], entry["g"], "witness fails"))
    assert wrong == []


def test_a_high_power_classifies_without_a_fallback():
    germ = parse_map_germ(("x", "y"), "x^100000*y", "x*y")
    verdict = classify(germ)
    assert (verdict.status, witness_kind(verdict.witness)) == (
        Status.NOT_A_GERM,
        "ContainmentNonvanishingJacobian",
    )


def _transformed(k):
    """Pool germ k after (x, y, z) -> (y+z, 2x, z-x) on the source, (u, v) -> (u+v, 3v+u^3) on the target.

    Returned as the texts of f and g, with the maps written out in
    parentheses, as a user would type them.
    """
    entry = json.loads(POOL_PATH.read_text(encoding="utf-8"))["germs"][k]
    source = {"x": "(y+z)", "y": "(2*x)", "z": "(z-x)"}
    f, g = (re.sub("[xyz]", lambda m: source[m.group()], text) for text in (entry["f"], entry["g"]))
    return f"({f})+({g})", f"3*({g})+({f})^3"


def test_pool_germs_after_a_degree_raising_coordinate_change():
    """Germs 171 and 288 took 4.5-5 s and more than 30 s in the content / PRS gcd.

    After the change f and g have 46 and 526 terms (germ 171) and 63 and
    908 terms (germ 288), of degrees 7 and 18; the certified gcd decides
    every gcd of both.
    """
    varnames = ("x", "y", "z")
    expected = {
        171: (Status.LOCALLY_OPEN, "PropCritCertificate"),
        288: (Status.UNDETERMINED, "None"),
    }
    for k, (status, witness) in expected.items():
        germ = parse_map_germ(varnames, *_transformed(k))
        verdict = classify(germ)
        assert (verdict.status, witness_kind(verdict.witness)) == (status, witness)
        assert verify_witness(germ, verdict) is True
        assert verdict.h == parse_polynomial(varnames, TRANSFORMED_H[k]).monic()


def test_germ_288_scaled_past_one_prime_classifies():
    """Germ 288 after the change above and x -> k*x, as at k = 1.

    h = y^2 + 2yz + z^2 + 2kx, and 2k passes one prime's reconstruction
    bound, sqrt(P/2) ~ 22341: these gcds combine two primes.  At k = 15013
    and 30011 the content / PRS gcd ran past 30 s and 120 s.
    """
    varnames = ("x", "y", "z")
    for k in (15013, 30011):
        f, g = (re.sub("x", f"({k}*x)", text) for text in _transformed(288))
        germ = parse_map_germ(varnames, f, g)
        verdict = classify(germ)
        assert (verdict.status, witness_kind(verdict.witness)) == (Status.UNDETERMINED, "None")
        assert verify_witness(germ, verdict) is True
        assert verdict.h == parse_polynomial(varnames, f"y^2+2*y*z+z^2+{2 * k}*x")


def test_strips_from_the_cofactors_match_the_inclusion_tests():
    """The cofactor strips ``classify`` makes answer as both germ inclusions do."""
    for germ, _ in _pool():
        dec = _decomposition(germ, gcd(germ.f, germ.g))
        assert _strip(dec.g_hat, dec.h) is zero_set_germ_included(germ.g, germ.f)
        assert _strip(dec.f_hat, dec.h) is zero_set_germ_included(germ.f, germ.g)


def test_verdict_json_matches_the_recorded_run():
    digest = hashlib.sha256()
    cases = _pool() + [(entry.germ(), entry.varnames) for entry in load_corpus()]
    for germ, varnames in cases:
        digest.update(dumps_report(verdict_json(classify(germ), varnames)).encode())
    assert digest.hexdigest() == VERDICTS_SHA256


def test_default_reports_match_the_recorded_run():
    pool = json.loads(POOL_PATH.read_text(encoding="utf-8"))
    varnames = tuple(pool["vars"])
    cases = [(f"pool-{k}", varnames, e["f"], e["g"]) for k, e in enumerate(pool["germs"])]
    cases += [(e.name, e.varnames, e.f_text, e.g_text) for e in load_corpus()]
    digest = hashlib.sha256()
    for name, names, f_text, g_text in cases:
        germ = parse_map_germ(names, f_text, g_text)
        _, report = build_classify_report(name, names, f_text, g_text, germ, classify(germ))
        digest.update(dumps_report(report).encode())
    assert digest.hexdigest() == REPORTS_SHA256


def _four_variable_germs(count):
    """(h*p, h*q) from the four-variable factors; p sometimes shares a factor with h."""
    rng = random.Random(17)
    pool = four_variable_pool()
    through = [fac for fac in pool if fac.constant_term().is_zero()]
    germs = []
    for _ in range(count):
        h = rng.choice(through) ** rng.randint(1, 2)
        p, q = rng.choice(pool) * rng.choice(through), rng.choice(through)
        if rng.random() < 0.4:
            p = p * h
        germs.append(MapGerm(h * p, h * q))
    return germs


def test_certificate_is_the_gcd_formula():
    """C read off the piece table is gcd(h_bar, minors of (omega, dh_bar)) term for term.

    On every germ of the pool and the corpus that reaches the pencil
    criterion, and on four-variable germs where the pencil applies.
    """
    pencil = 0
    for germ in [germ for germ, _ in _pool()] + [entry.germ() for entry in load_corpus()]:
        verdict = classify(germ)
        if verdict.prop_crit is not None:
            dec = _decomposition(germ, verdict.h)
            c = verdict.prop_crit.certificate.c
            assert c == pencil_constancy_locus(dec) == reference_constancy_locus(dec)
            pencil += 1
    assert pencil == 135
    four = 0
    for germ in _four_variable_germs(24):
        dec = _decomposition(germ, gcd(germ.f, germ.g))
        if _pencil_applies(dec):
            assert pencil_constancy_locus(dec) == reference_constancy_locus(dec)
            four += 1
    assert four >= 12
