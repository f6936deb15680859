"""Gap lines, gap curves, the openness test and the full pipeline."""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from germimage import algebra, classifier, groebner
from germimage.algebra import (
    decompose,
    gaussian_rational_roots,
    squarefree_part,
    zero_set_germ_included,
)
from germimage.classifier import (
    _line_resultant,
    GapLineWitness,
    GapCurveWitness,
    GapSearch,
    PlaneCurveCandidate,
    ProjectiveRatio,
    PropCritCertificate,
    PropCritKind,
    Status,
    SubflatLabel,
    Verdict,
    bounded_gap_curve_search,
    classify,
    is_gap_curve,
    pencil_constancy_locus,
    prop_crit_check,
    verify_witness,
    witness_kind,
)
from germimage.errors import ImageContainsCurveError, PreconditionError
from germimage.parsing import parse_map_germ
from germimage.poly import MapGerm, Polynomial
from germimage.rationals import I, GaussianRational
from germimage.report import verdict_json

from _helpers import factor_pool, random_unimodular, source_change, target_change, variables

x, y = variables(2)
x3, y3, z3 = variables(3)
u, v = variables(2)
ONE = Polynomial.one(2)
ONE3 = Polynomial.one(3)

ANGLE = MapGerm(x, x * y)
BLOWUP = MapGerm(x * x, x * y)
DIAGONAL = MapGerm(x * (x + y), x * y)
OPENBALL = MapGerm(x3 * y3, x3 * z3)
HUCKLEBERRY = MapGerm(x * (y + x * x), y * (y + x * x))
NOGAPLINE = MapGerm(x * y, x * x * y * y + y**3)
ROUCHE = MapGerm(x * (x**4 + y), y * (x**4 + y) ** 2)
CUSP = MapGerm((x + y) ** 2, (x + y) ** 3)
UNIT_BRANCH = MapGerm(x * y * (x + ONE), y * (x + ONE) ** 2 * (x + y))

POOL_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "classify_pool.json"


def test_projective_ratio_canonical():
    assert ProjectiveRatio(-1, 1) == ProjectiveRatio(1, -1)
    assert ProjectiveRatio(0, 5) == ProjectiveRatio(0, 1)
    assert ProjectiveRatio(2, 4) == ProjectiveRatio(1, 2)
    assert hash(ProjectiveRatio(-1, 1)) == hash(ProjectiveRatio(1, -1))
    with pytest.raises(ValueError):
        ProjectiveRatio(0, 0)


def _line(ratio):
    """The line beta*u + alpha*v = 0 of the ratio [alpha : beta]."""
    return PlaneCurveCandidate(u.scale(ratio.beta) + v.scale(ratio.alpha))


def test_gap_line_examples():
    assert is_gap_curve(BLOWUP, decompose(BLOWUP), _line(ProjectiveRatio(0, 1))) is True
    assert is_gap_curve(DIAGONAL, decompose(DIAGONAL), _line(ProjectiveRatio(-1, 1))) is True
    dec = decompose(NOGAPLINE)
    for ratio in [ProjectiveRatio(0, 1), ProjectiveRatio(1, 0), ProjectiveRatio(1, 1),
                  ProjectiveRatio(2, -3)]:
        assert is_gap_curve(NOGAPLINE, dec, _line(ratio)) is False


def _is_multiple(p, q):
    return p.monic() == q.monic()


def test_irrational_constant_ratio_gives_a_gap_curve():
    """On each line of h = 0 the ratio x : y is constant and irrational (y = +-sqrt(3)*x,
    y = (-3 +- sqrt(13))/2*x): no gap line, but h(u, v) pulls back to h^3, a gap curve.
    Neither curve lies on the default search grid."""
    for h in [y * y - (x * x).scale(3), y * y + (x * y).scale(3) - x * x]:
        germ = MapGerm(x * h, y * h)
        verdict = classify(germ)
        assert verdict.status is Status.NOT_A_GERM
        assert witness_kind(verdict.witness) == "GapCurve"
        assert _is_multiple(verdict.witness.curve.phi, Polynomial(2, h.terms))
        assert verify_witness(germ, verdict) is True
        assert verdict.prop_crit.search.refuted == ()


def test_irrational_ratios_are_not_refuted_as_rationals():
    h = y * y - (x * x).scale(2)
    germ = MapGerm(x * h, y * h)
    search = prop_crit_check(germ, decompose(germ)).search
    assert search.lines == () and search.refuted == ()
    (curve,) = search.curves
    assert _is_multiple(curve.phi, v * v - (u * u).scale(2))


def test_nomination_skips_a_degenerate_first_line(monkeypatch):
    """d = (1, 1) zeroes the top form of C = (x-y)*(x+2y): the next line is used."""
    h = (x - y) * (x + y.scale(2))
    dec = decompose(MapGerm(x * h, y * h))
    c = pencil_constancy_locus(dec)
    assert _is_multiple(c, h)
    lines = []

    def spy(first, second, locus, a, d):
        lines.append((a, d))
        return _line_resultant(first, second, locus, a, d)

    monkeypatch.setattr(classifier, "_line_resultant", spy)
    out = prop_crit_check(MapGerm(x * h, y * h), dec)
    expected = {ProjectiveRatio(1, -1), ProjectiveRatio(2, 1)}
    assert out.kind is PropCritKind.GAP_LINE_FOUND
    assert set(out.search.lines) == expected
    assert out.search.refuted == () and out.search.curves == ()
    (a0, d0), (a1, d1) = lines
    pencil = (dec.f_hat, dec.g_hat)
    assert d0 == (1, 1) and _line_resultant(*pencil, c, a0, d0) is None
    # other lines nominate the same ratios
    for a, d in [(a1, d1), (d1, a1), ((1, 0), (1, 2)), ((0, 1), (3, 1)), ((2, 1), (1, 3))]:
        roots, rest = gaussian_rational_roots(_line_resultant(*pencil, c, a, d))
        assert {ProjectiveRatio(r, 1) for r in roots} == expected and rest.degree() == 0


def _prop_crit(germ):
    return prop_crit_check(germ, decompose(germ))


def test_prop_crit_examples():
    # C(0) != 0 rules gap lines out before any nomination
    out = _prop_crit(HUCKLEBERRY)
    assert out.kind is PropCritKind.ESTABLISHED
    assert out.certificate.c == ONE and out.search == GapSearch()

    out = _prop_crit(DIAGONAL)
    assert out.kind is PropCritKind.GAP_LINE_FOUND
    assert out.certificate.c == x
    assert out.search == GapSearch(lines=(ProjectiveRatio(-1, 1),))

    # the axis [1 : 0] is never nominated, so nothing is refuted
    out = _prop_crit(NOGAPLINE)
    assert out.kind is PropCritKind.INCONCLUSIVE
    assert out.certificate.c == y
    assert out.search == GapSearch(curves=(PlaneCurveCandidate(v - u * u),))

    out = _prop_crit(ROUCHE)
    assert out.kind is PropCritKind.INCONCLUSIVE
    assert out.search == GapSearch() and not out.search


def test_pencil_constancy_locus_examples():
    assert pencil_constancy_locus(decompose(HUCKLEBERRY)) == ONE
    assert pencil_constancy_locus(decompose(ROUCHE)) == x**4 + y
    assert pencil_constancy_locus(decompose(DIAGONAL)) == x
    # h = y*(x+1): the ratio is constant on x = -1 only, away from 0
    dec = decompose(UNIT_BRANCH)
    assert dec.h == y * (x + ONE)
    assert pencil_constancy_locus(dec) == x + ONE
    with pytest.raises(PreconditionError):
        pencil_constancy_locus(decompose(ANGLE))


def test_prop_crit_exact_when_constant_ratio_lies_away_from_0():
    """x+1 is a unit at 0: only {y=0} passes through 0, where x : (x+1)x varies."""
    verdict = classify(UNIT_BRANCH)
    assert verdict.status is Status.LOCALLY_OPEN
    assert witness_kind(verdict.witness) == "PropCritCertificate"
    assert verdict.witness.c == x + ONE
    assert verify_witness(UNIT_BRANCH, verdict) is True


def _forged_open_verdict(c):
    return Verdict(
        status=Status.LOCALLY_OPEN,
        witness=PropCritCertificate(c=c),
        subflat_label=SubflatLabel.SUBFLAT,
        rationale="forged",
    )


def test_verify_witness_recomputes_the_pencil_certificate():
    # C(0) = 0: the ratio is constant on a component through 0
    for germ in [ROUCHE, NOGAPLINE]:
        c = pencil_constancy_locus(decompose(germ))
        assert c.constant_term().is_zero()
        assert verify_witness(germ, _forged_open_verdict(c)) is False
    # a stored C that differs from the recomputed one
    assert verify_witness(HUCKLEBERRY, _forged_open_verdict(ONE)) is True
    assert verify_witness(HUCKLEBERRY, _forged_open_verdict(x + ONE)) is False
    assert verify_witness(UNIT_BRANCH, _forged_open_verdict(ONE)) is False
    # outside the pencil branch (unit cofactor) no certificate holds
    assert verify_witness(ANGLE, _forged_open_verdict(ONE)) is False


def _forged_not_a_germ_verdict(witness):
    return Verdict(
        status=Status.NOT_A_GERM,
        witness=witness,
        subflat_label=SubflatLabel.NOT_SUBFLAT,
        rationale="forged",
    )


def test_verify_witness_rejects_forged_gap_witnesses():
    # a "gap curve" that contains the image
    cusp_curve = GapCurveWitness(PlaneCurveCandidate(u**3 - v * v))
    assert verify_witness(CUSP, _forged_not_a_germ_verdict(cusp_curve)) is False
    # a gap line where the pencil does not apply: h = 1, or a unit cofactor
    axis = GapLineWitness(ProjectiveRatio(0, 1))
    assert verify_witness(MapGerm(x, y), _forged_not_a_germ_verdict(axis)) is False
    assert verify_witness(ANGLE, _forged_not_a_germ_verdict(axis)) is False
    # the genuine witnesses still pass
    assert verify_witness(BLOWUP, _forged_not_a_germ_verdict(axis)) is True
    parabola = GapCurveWitness(PlaneCurveCandidate(v - u * u))
    assert verify_witness(NOGAPLINE, _forged_not_a_germ_verdict(parabola)) is True


def test_is_gap_curve_examples():
    dec = decompose(NOGAPLINE)
    parabola = PlaneCurveCandidate(v - u * u)
    assert is_gap_curve(NOGAPLINE, dec, parabola) is True

    dec_h = decompose(HUCKLEBERRY)
    assert is_gap_curve(HUCKLEBERRY, dec_h, parabola) is False

    axis = PlaneCurveCandidate(u)
    assert is_gap_curve(NOGAPLINE, dec, axis) is False


def test_is_gap_curve_image_container():
    x1 = Polynomial.variable(1, 0)
    diag_map = MapGerm(x1, x1)
    with pytest.raises(ImageContainsCurveError):
        is_gap_curve(diag_map, decompose(diag_map), PlaneCurveCandidate(u - v))


def test_is_gap_curve_codim_two():
    germ = MapGerm(x, y)
    assert is_gap_curve(germ, decompose(germ), PlaneCurveCandidate(u)) is False


def test_plane_curve_candidate_validation():
    with pytest.raises(PreconditionError):
        PlaneCurveCandidate(Polynomial.zero(2))
    with pytest.raises(PreconditionError):
        PlaneCurveCandidate(u + Polynomial.one(2))
    with pytest.raises(PreconditionError):
        PlaneCurveCandidate(x3)


def _table(germ, dec):
    """The piece table of ``germ``, built also outside the pencil branch."""
    return classifier._WeightedNominations(
        squarefree_part(dec.h), germ.f, germ.g, dec.f_hat, dec.g_hat
    )


def _search(germ):
    """The nomination walk of ``germ``, run whether or not C(0) = 0."""
    dec = decompose(germ)
    return bounded_gap_curve_search(germ, dec, _table(germ, dec))


def test_bounded_search_examples():
    # ord f = 1 and ord g = 2 along y = 0, where x^2 : (x^2 + y) = 1: v - u^2 = 0 is nominated
    search = _search(NOGAPLINE)
    assert search.curves == (PlaneCurveCandidate(v - u * u),) and search

    assert not _search(HUCKLEBERRY)
    assert _search(ROUCHE) == GapSearch()

    # a verified line ends the walk before any curve
    assert _search(DIAGONAL) == GapSearch(lines=(ProjectiveRatio(-1, 1),))

    # codimension-two case: h = 1 splits into no piece
    assert _search(MapGerm(x, y)) == GapSearch()


def test_weighted_nomination_decides_a_gap_curve_family():
    """(h*a, h^k*(a^k + h*b)) with b(0) != 0 has the gap curve v = u^k: g - f^k = h^(k+1)*b.

    Along Z(h), ord f = 1 and ord g = k, and f^k : g = 1 there.  After the
    target shear v -> v + 2u the curve is nominated only after one shear
    back along the refuted line.
    """
    rng = random.Random(2)
    through = [fac for fac, at_zero in factor_pool() if at_zero]
    away = [fac for fac, at_zero in factor_pool() if not at_zero]
    family = [(v - u**3, MapGerm(x * y, y**3 * (x**3 + y)))]
    for k in (2, 3):
        h, a = rng.sample(through, 2)
        family.append((v - u**k, MapGerm(h * a, h**k * (a**k + h * rng.choice(away)))))
    # v = u^2 + u^3: u^2 - v is refuted, and g - f^2 = h^3*(a^3 + h) nominates the rest
    family.append((v - u**2 - u**3, MapGerm(x * y, (x * y) ** 2 + (x * y) ** 3 + y**4)))
    for phi, germ in family:
        verdict = classify(germ)
        assert (verdict.status, witness_kind(verdict.witness)) == (Status.NOT_A_GERM, "GapCurve")
        assert verdict.witness.curve.phi == phi
        assert verify_witness(germ, verdict) is True
    sheared = target_change(family[1][1], ((1, 0), (2, 1)))
    verdict = classify(sheared)
    assert (verdict.status, witness_kind(verdict.witness)) == (Status.NOT_A_GERM, "GapCurve")
    assert verify_witness(sheared, verdict) is True


def test_gcds_of_large_germs_stay_within_a_resultant_bound(monkeypatch):
    """Germs whose gcds once ran 1169 and 272 subresultant PRSs (about 20 s and 1.3 s).

    The certified gcd settles every one of those gcds without a resultant.
    The first germ takes none at all: its pencil ratio is constant on a
    component of Z(h), and none of its nominations needs a line
    resultant.  The sheared germ takes the two of its gap-curve
    nomination.  The counts are exact, so a
    gcd or a nomination that falls back on resultants fails the test.
    """
    x4, y4, z4, w4 = variables(4)
    h = x4 + w4 * w4 * x4 + w4 * w4 * y4 + z4.scale(2)
    germ = MapGerm(
        h * (y4 + x4 * x4 * w4 + x4 * x4 * y4 * z4 + w4 * w4),
        h**3 * (w4 * w4 - x4**4 + w4 * w4 * x4 + y4.scale(I)),
    )
    calls, real = [], algebra.resultant

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    # every module that binds the name
    for mod in (algebra, classifier, groebner):
        monkeypatch.setattr(mod, "resultant", counted)
    assert classify(germ).status is Status.UNDETERMINED
    assert len(calls) == 0
    # the k = 3 member of the gap-curve family above, after the shear v -> v + 3u
    h, a, b = x3 + y3.scale(I), x3 * y3 + z3, x3 * x3 + y3 + ONE3
    sheared = target_change(MapGerm(h * a, h**3 * (a**3 + h * b)), ((1, 0), (3, 1)))
    calls.clear()
    verdict = classify(sheared)
    assert (verdict.status, witness_kind(verdict.witness)) == (Status.NOT_A_GERM, "GapCurve")
    assert verify_witness(sheared, verdict) is True
    assert len(calls) == 2


def test_weighted_nomination_decides_a_gap_line_family():
    """(h*a, h*(c*a + h*b)) with b(0) != 0 has the gap line v = c*u: g - c*f = h^2*b.

    The pencil ratio is 1 : c on every component of Z(h), so the (1, 1)
    piece nominates the line; sympy's factorization over Q(i) confirms that
    every factor of g - c*f through 0 divides h.
    """
    sympy = pytest.importorskip("sympy")
    from test_sympy_oracle import GENS, to_sympy

    rng = random.Random(3)
    through = [fac for fac, at_zero in factor_pool() if at_zero]
    away = [fac for fac, at_zero in factor_pool() if not at_zero]
    for c in (GaussianRational(2), GaussianRational(-1), I, GaussianRational(Fraction(1, 3), -2)):
        h, a = rng.sample(through, 2)
        germ = MapGerm(h * a, h * (a.scale(c) + h * rng.choice(away)))
        verdict = classify(germ)
        assert (verdict.status, witness_kind(verdict.witness)) == (Status.NOT_A_GERM, "GapLine")
        assert verdict.witness.ratio == ProjectiveRatio(1, -c)
        assert verify_witness(germ, verdict) is True
        member = to_sympy(germ.g - germ.f.scale(c))
        _, pairs = sympy.factor_list(member, *GENS, extension=sympy.I)
        origin = dict.fromkeys(GENS, 0)
        for fac, _ in pairs:
            if fac.subs(origin) == 0:
                assert sympy.rem(to_sympy(h), fac, *GENS, extension=sympy.I) == 0


def test_no_coordinate_axis_is_a_gap_line_in_the_pencil_branch():
    """If u = 0 were a gap line, Z(f) = Z(h) u Z(f_hat) would lie in Z(h), inside Z(g).

    So on germs (h*p, h*q) with h(0) = 0 whose zero sets are not nested,
    neither axis is a gap line, and the walk need not nominate them.
    """
    rng = random.Random(11)
    pool = [fac for fac, _ in factor_pool()]
    through = [fac for fac, at_zero in factor_pool() if at_zero]
    axes = [PlaneCurveCandidate(u), PlaneCurveCandidate(v)]
    tested = 0
    while tested < 30:
        h = rng.choice(through) * (rng.choice(through) if rng.random() < 0.4 else ONE3)
        p, q = (rng.choice(pool) * rng.choice(pool + [ONE3]) for _ in range(2))
        germ = MapGerm(h * p, h * q)
        if zero_set_germ_included(germ.f, germ.g) or zero_set_germ_included(germ.g, germ.f):
            continue
        dec = decompose(germ)
        assert [is_gap_curve(germ, dec, axis) for axis in axes] == [False, False]
        tested += 1


def test_classify_nominates_once_on_the_unsheared_pair(monkeypatch):
    pairs = []

    class Spy(classifier._WeightedNominations):
        def __init__(self, h_bar, f, g, f_hat, g_hat):
            pairs.append((f, g))
            super().__init__(h_bar, f, g, f_hat, g_hat)

    monkeypatch.setattr(classifier, "_WeightedNominations", Spy)
    for germ in [NOGAPLINE, DIAGONAL, ROUCHE]:
        pairs.clear()
        classify(germ)
        assert pairs.count((germ.f, germ.g)) == 1


def test_classify_takes_the_gcd_of_f_and_g_once(monkeypatch):
    """One gcd(f, g) feeds both germ inclusions and the decomposition.

    Every gcd, through ``gcd`` or ``decompose``, is taken by
    ``algebra._gcd_cofactors``, so an inclusion test or a decomposition
    that took its own gcd of (f, g) would be counted.
    """
    pool = json.loads(POOL_PATH.read_text(encoding="utf-8"))
    varnames = tuple(pool["vars"])
    first_of_kind = {}
    for entry in pool["germs"]:
        first_of_kind.setdefault(entry["witness"], entry)
    kinds = ("CodimTwo", "PropCritCertificate", "GapLine", "None")  # every non-nested kind
    germs = [parse_map_germ(varnames, first_of_kind[k]["f"], first_of_kind[k]["g"]) for k in kinds]
    inner = algebra._gcd_cofactors
    pairs = []

    def spy(p, q):
        pairs.append((p, q))
        return inner(p, q)

    monkeypatch.setattr(algebra, "_gcd_cofactors", spy)
    for germ in germs:
        pairs.clear()
        classify(germ)
        assert sum(pair in ((germ.f, germ.g), (germ.g, germ.f)) for pair in pairs) == 1


def test_a_verified_gap_line_builds_no_other_piece(monkeypatch):
    """(x^2*y*z, x*y*(x*z + y)): y has orders (1, 1), x has orders (2, 1).

    The (1, 1) piece nominates the gap line; the (2, 1) piece, whose
    candidates are curves, is never built.  Walking every candidate builds
    the other pieces only, in the order of (p, q).
    """
    germ = MapGerm(x3 * x3 * y3 * z3, x3 * y3 * (x3 * z3 + y3))
    build = classifier._WeightedNominations._build
    built = []

    def spy(table, p, q):
        built.append((p, q))
        return build(table, p, q)

    monkeypatch.setattr(classifier._WeightedNominations, "_build", spy)
    verdict = classify(germ)
    assert (verdict.status, witness_kind(verdict.witness)) == (Status.NOT_A_GERM, "GapLine")
    assert verify_witness(germ, verdict) is True
    assert built == [(1, 1)]

    built.clear()
    nominated = _table(germ, decompose(germ))
    (line,) = nominated.lines()
    assert built == [(1, 1)]
    assert list(nominated)[0] == line and built == [(1, 1), (2, 1)]


def test_one_table_takes_h_bar_once_and_no_locus_twice(monkeypatch):
    """The certificate and the walk of one ``classify`` share one piece table.

    squarefree_part(h) is taken once, and no constancy locus is computed
    twice for the same base and form: each (p, p) locus serves both.  The
    germs are GapLine (one (1, 1) piece; (1, 1) and (2, 1); (1, 1) and
    (2, 2)), GapCurve and Undetermined.
    """
    squarefree, loci = [], []
    constancy_locus = classifier._constancy_locus

    def squarefree_spy(p):
        squarefree.append(p)
        return squarefree_part(p)

    def locus_spy(base, omega):
        loci.append((base, tuple(omega)))
        return constancy_locus(base, omega)

    monkeypatch.setattr(classifier, "squarefree_part", squarefree_spy)
    monkeypatch.setattr(classifier, "_constancy_locus", locus_spy)
    two_diagonal = MapGerm(x * y * y * (x + y), x * y * y * (x - y))
    germs = [DIAGONAL, MapGerm(x3 * x3 * y3 * z3, x3 * y3 * (x3 * z3 + y3)), two_diagonal,
             NOGAPLINE, ROUCHE]
    for germ in germs:
        squarefree.clear()
        loci.clear()
        verdict = classify(germ)
        assert verdict.prop_crit is not None
        assert squarefree == [verdict.h]
        assert loci and len(set(loci)) == len(loci)


def test_germ_inclusion_strips_instead_of_taking_squarefree_parts(monkeypatch):
    """(h*a, h^3*(a^3 + h*b)), h = xy + z: the pullbacks of the nominated curves are large.

    Every inclusion test, of the zero sets and of the gap candidates alike,
    strips common factors by gcds and never takes a squarefree part.
    """
    h, a, b = x3 * y3 + z3, z3**3 + x3, x3 * x3 + y3 + Polynomial.one(3)
    germ = MapGerm(h * a, h**3 * (a**3 + h * b))
    callers, inclusions = [], []

    def squarefree_spy(p):
        callers.append(sys._getframe(1).f_code.co_name)
        return squarefree_part(p)

    def inclusion_spy(p, q):
        inclusions.append((p, q))
        return zero_set_germ_included(p, q)

    monkeypatch.setattr(algebra, "squarefree_part", squarefree_spy)
    monkeypatch.setattr(classifier, "zero_set_germ_included", inclusion_spy)
    assert prop_crit_check(germ, decompose(germ)).kind is PropCritKind.INCONCLUSIVE
    verdict = classify(germ)
    assert (verdict.status, witness_kind(verdict.witness)) == (Status.NOT_A_GERM, "GapCurve")
    assert verify_witness(germ, verdict) is True
    assert len(inclusions) >= 3  # the gap tests
    assert not {"zero_set_germ_included", "_strip", "_divide_out"} & set(callers)


def test_classify_pipeline_examples():
    va = classify(ANGLE)
    assert va.status is Status.NOT_A_GERM
    assert witness_kind(va.witness) == "ContainmentNonvanishingJacobian"
    assert va.witness.direction == "f_in_g"
    assert va.witness.minor == x

    vo = classify(OPENBALL)
    assert vo.status is Status.LOCALLY_OPEN
    assert witness_kind(vo.witness) == "PropCritCertificate"

    vc = classify(CUSP)
    assert vc.status is Status.CURVE_IMAGE
    assert vc.witness.phi == u**3 - v * v

    vn = classify(NOGAPLINE)
    assert vn.status is Status.NOT_A_GERM
    assert witness_kind(vn.witness) == "GapCurve"
    assert vn.witness.curve.phi == v - u * u

    vr = classify(ROUCHE)
    assert vr.status is Status.UNDETERMINED
    assert vr.witness is None
    assert vr.subflat_label is SubflatLabel.UNKNOWN


def test_classify_zero_component_maps():
    assert classify(MapGerm(x, Polynomial.zero(2))).witness.phi == v
    assert classify(MapGerm(Polynomial.zero(2), y)).witness.phi == u


def test_subflat_labels():
    assert classify(OPENBALL).subflat_label is SubflatLabel.SUBFLAT
    assert classify(MapGerm(x, y)).subflat_label is SubflatLabel.SUBFLAT
    assert classify(DIAGONAL).subflat_label is SubflatLabel.NOT_SUBFLAT
    assert classify(NOGAPLINE).subflat_label is SubflatLabel.NOT_SUBFLAT
    assert classify(ANGLE).subflat_label is SubflatLabel.UNKNOWN
    assert classify(CUSP).subflat_label is SubflatLabel.UNKNOWN


def test_witness_recheck():
    for germ in [ANGLE, BLOWUP, DIAGONAL, OPENBALL, HUCKLEBERRY, NOGAPLINE, ROUCHE, CUSP]:
        verdict = classify(germ)
        assert verify_witness(germ, verdict) is True


def test_mutual_exclusion_on_open_verdicts():
    for germ in [OPENBALL, HUCKLEBERRY]:
        assert classify(germ).status is Status.LOCALLY_OPEN
        dec = decompose(germ)
        assert prop_crit_check(germ, dec).search == GapSearch()
        assert not _search(germ)


def test_status_invariant_under_source_change():
    rng = random.Random(42)
    for germ in [ANGLE, DIAGONAL, HUCKLEBERRY, NOGAPLINE, CUSP]:
        expected = classify(germ).status
        for _ in range(2):
            mat = random_unimodular(rng, germ.n)
            changed = source_change(germ, mat)
            assert classify(changed).status is expected


def test_status_invariant_under_target_change():
    rng = random.Random(43)
    for germ in [ANGLE, DIAGONAL, OPENBALL, HUCKLEBERRY]:
        expected = classify(germ).status
        assert expected in (Status.NOT_A_GERM, Status.LOCALLY_OPEN)
        for _ in range(2):
            mat = random_unimodular(rng, 2)
            changed = target_change(germ, mat)
            assert classify(changed).status is expected
    for mat in [
        ((0, 1), (1, 0)),
        ((1, 1), (0, 1)),
        ((1, 0), (1, 1)),
        ((-1, 0), (0, 1)),
        ((1, 0), (3, 1)),
        ((1, 0), (-3, 1)),
    ]:
        changed = target_change(NOGAPLINE, mat)
        verdict = classify(changed)
        assert verdict.status is Status.NOT_A_GERM
        assert verify_witness(changed, verdict) is True


def test_classify_deterministic():
    for germ in [DIAGONAL, OPENBALL, NOGAPLINE, ROUCHE]:
        v1 = classify(germ)
        v2 = classify(germ)
        names = [f"x{k}" for k in range(germ.n)]
        assert verdict_json(v1, names) == verdict_json(v2, names)
