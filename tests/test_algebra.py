"""gcd, squarefree parts, germ inclusion, decomposition, Jacobian rank."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from germimage import algebra
from germimage.algebra import (
    IntersectionCase,
    _coeffs_in,
    _from_coeffs,
    _gcd_cofactors,
    decompose,
    first_nonzero_minor,
    gcd,
    intersection_dimension_case,
    jacobian_rank_deficient,
    squarefree_part,
    zero_set_germ_included,
)
from germimage.errors import DivisibilityError, GcdUndefinedError, PreconditionError
from germimage.poly import MapGerm, Polynomial
from germimage.rationals import GaussianRational, I

from _helpers import (
    compose_case,
    factor_pool,
    four_variable_pool,
    gcd_pair,
    random_unimodular,
    source_change,
    variables,
)

x, y = variables(2)
x3, y3, z3 = variables(3)
one = Polynomial.one(2)
zero = Polynomial.zero(2)


def test_gcd_printed_examples():
    assert gcd(x * y, x * x * y * y + y**3) == y
    w = x**4 + y
    assert gcd(x * w, y * w * w) == w
    assert gcd(x * y + y, one) == one


def test_gcd_zero_and_normalization():
    assert gcd(zero, (x + y).scale(3)) == x + y
    assert gcd((x * y).scale(GaussianRational(0, 2)), zero) == x * y
    with pytest.raises(GcdUndefinedError):
        gcd(zero, zero)


def test_gcd_gaussian_coefficients():
    # (x + i*y) and (x - i*y) are coprime over Q(i)
    p = x + y.scale(I)
    q = x - y.scale(I)
    assert gcd(p * q, p * p) == p
    assert gcd(p, q) == one


def test_squarefree_examples():
    assert squarefree_part(y**3) == y
    assert squarefree_part(x * x * y) == x * y
    assert squarefree_part(x**4 + y) == x**4 + y
    with pytest.raises(PreconditionError):
        squarefree_part(zero)


def test_germ_inclusion_examples():
    assert zero_set_germ_included(y**3, y) is True
    assert zero_set_germ_included(x * (x - one), x) is True
    assert zero_set_germ_included(x + y, x) is False
    with pytest.raises(PreconditionError):
        zero_set_germ_included(zero, x)


def test_germ_inclusion_gcds_do_not_grow_with_multiplicity(monkeypatch):
    """x^k * y against x * y takes as many gcds, recursive ones included, at k = 10 as at 1000."""
    calls = []
    inner = algebra.gcd

    def counted(p, q):
        calls.append(1)
        return inner(p, q)

    monkeypatch.setattr(algebra, "gcd", counted)
    counts = {}
    for k in (10, 1000):
        calls.clear()
        assert zero_set_germ_included(x**k * y, x * y) is True
        assert zero_set_germ_included(x**k * (y + one), x * y) is True  # y + 1 misses 0
        assert zero_set_germ_included(x**k * (x + y), x * y) is False
        counts[k] = len(calls)
    assert counts[10] == counts[1000]


def test_germ_inclusion_divisions_grow_with_the_log_of_multiplicity(monkeypatch):
    """x^k * y against x * y: each doubling of k adds at most a few exact divisions."""
    divisions = []
    real_divide = Polynomial.exact_divide

    def counted(self, divisor):
        divisions.append(1)
        return real_divide(self, divisor)

    monkeypatch.setattr(Polynomial, "exact_divide", counted)
    counts = {}
    for k in (2**5, 2**10):
        divisions.clear()
        assert zero_set_germ_included(x**k * y, x * y) is True
        counts[k] = len(divisions)
    assert counts[2**10] - counts[2**5] <= 3 * 5


def test_decompose_examples():
    dec = decompose(MapGerm(x * y, x * x * y * y + y**3))
    assert dec.h == y
    assert dec.f_hat == x
    assert dec.g_hat == x * x * y + y * y
    assert not dec.f_hat_is_unit and not dec.g_hat_is_unit

    w = x**4 + y
    dec2 = decompose(MapGerm(x * w, y * w * w))
    assert dec2.h == w
    assert dec2.f_hat == x
    assert dec2.g_hat == y * w

    dec3 = decompose(MapGerm(x * x, x * y))
    assert (dec3.h, dec3.f_hat, dec3.g_hat) == (x, x, y)


def test_decompose_remultiplies_bitwise():
    for f, g in [
        (x * y, x * x * y * y + y**3),
        ((x + y) ** 2, (x + y) ** 3),
        (x * (x**4 + y), y * (x**4 + y) ** 2),
    ]:
        dec = decompose(MapGerm(f, g))
        assert dec.h * dec.f_hat == f
        assert dec.h * dec.g_hat == g
        assert gcd(dec.f_hat, dec.g_hat).is_constant()


def test_intersection_dimension_case():
    germ = MapGerm(x3 * y3, x3 * z3)
    assert intersection_dimension_case(germ, decompose(germ)) is IntersectionCase.CODIM_ONE
    germ2 = MapGerm(x, y)
    assert intersection_dimension_case(germ2, decompose(germ2)) is IntersectionCase.CODIM_TWO
    germ3 = MapGerm(x * (y + x * x), y * (y + x * x))
    assert intersection_dimension_case(germ3, decompose(germ3)) is IntersectionCase.CODIM_ONE


def test_jacobian_examples():
    assert jacobian_rank_deficient(MapGerm(x, x * y)) is False
    ij, minor = first_nonzero_minor(MapGerm(x, x * y))
    assert ij == (0, 1) and minor == x

    assert jacobian_rank_deficient(MapGerm((x + y) ** 2, (x + y) ** 3)) is True

    assert jacobian_rank_deficient(MapGerm(x * (x + y), x * y)) is False
    _, minor2 = first_nonzero_minor(MapGerm(x * (x + y), x * y))
    assert minor2 == (x * x).scale(2)

    # n=1 is vacuously rank-deficient
    x1 = Polynomial.variable(1, 0)
    assert jacobian_rank_deficient(MapGerm(x1, x1 * x1)) is True


def test_jacobian_invariant_under_unimodular_source_change():
    rng = random.Random(11)
    germs = [
        MapGerm(x, x * y),
        MapGerm((x + y) ** 2, (x + y) ** 3),
        MapGerm(x * (x + y), x * y),
    ]
    for germ in germs:
        expected = jacobian_rank_deficient(germ)
        for _ in range(4):
            mat = random_unimodular(rng, 2)
            assert jacobian_rank_deficient(source_change(germ, mat)) == expected


# -- oracle family: tracked factor lists (builders in _helpers) ---------------


def test_germ_inclusion_matches_factor_oracle_sample():
    rng = random.Random(2024)
    pool = factor_pool()
    for _ in range(60):
        p, q, oracle = compose_case(rng, pool)
        assert zero_set_germ_included(p, q) == oracle


def test_germ_inclusion_reflexive_transitive():
    rng = random.Random(7)
    pool = [entry for entry in factor_pool() if entry[1]]
    for _ in range(20):
        fs = [rng.choice(pool)[0] for _ in range(rng.randint(1, 3))]
        p = Polynomial.one(3)
        for fac in fs:
            p = p * fac
        assert zero_set_germ_included(p, p) is True
    # transitivity on nested products
    a = pool[0][0]
    b = pool[3][0]
    c = pool[5][0]
    p1, p2, p3 = a, a * b, a * b * c
    assert zero_set_germ_included(p1, p2)
    assert zero_set_germ_included(p2, p3)
    assert zero_set_germ_included(p1, p3)


def test_gcd_divides_both_on_random_products():
    rng = random.Random(99)
    pool = factor_pool()
    for _ in range(25):
        p, q, _ = compose_case(rng, pool, max_factors=3)
        g = gcd(p, q)
        p.exact_divide(g)
        q.exact_divide(g)


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.dictionaries(
            st.tuples(*[st.integers(0, 3)] * n),
            st.sampled_from([GaussianRational(a, b) for a in range(-2, 3) for b in range(-1, 2)]),
            max_size=12,
        ).map(lambda acc: Polynomial(n, acc))
    )
)
def test_univariate_views_are_canonical(p):
    """``_coeffs_in`` keeps each bucket in p's order; that order must be canonical."""
    n = p.nvars
    for var in range(n):
        views = _coeffs_in(p, var)
        for e, view in enumerate(views):
            bucket = {m[:var] + (0,) + m[var + 1 :]: c for m, c in p.terms if m[var] == e}
            assert view.terms == Polynomial(n, bucket).terms
        assert _from_coeffs(views, var, n).terms == p.terms


# -- the certified modular gcd and its content / PRS fallback ---------------
# The test_screen_* tests feed the certified path the inputs built to defeat
# the modular screen it replaced, and keep their names.


def _candidates(monkeypatch):
    """Record every candidate Brown's interpolation lifts to Q(i)."""
    made = []
    real = algebra._modular_candidate

    def spy(*args):
        made.append(real(*args))
        return made[-1]

    monkeypatch.setattr(algebra, "_modular_candidate", spy)
    return made


def test_screen_prime_and_square_root_of_minus_one():
    p = algebra._PRIME
    assert p % 4 == 1
    assert all(p % d for d in range(2, int(p**0.5) + 1))
    assert algebra._IOTA**2 % p == p - 1


def test_screened_gcd_agrees_with_the_prs_path(monkeypatch, fallbacks):
    """The certified gcd and its cofactors against the content / PRS path alone."""
    rng = random.Random(15)
    pools = {3: [fac for fac, _ in factor_pool()], 4: four_variable_pool()}
    pairs = [gcd_pair(rng, pools[n], n) for n in (3, 4) for _ in range(30)]
    made = _candidates(monkeypatch)
    certified = [_gcd_cofactors(p, q) for p, q in pairs]
    assert not fallbacks
    for (p, q), (h, p_hat, q_hat) in zip(pairs, certified):
        assert h * p_hat == p and h * q_hat == q
    # the pairs reach all three candidates: 1, an argument made monic, Brown's
    hs = [h for h, _, _ in certified]
    assert any(h.is_constant() for h in hs)
    assert any(h in (p.monic(), q.monic()) and not h.is_constant() for h, (p, q) in zip(hs, pairs))
    assert made and all(h is not None for h in made)
    monkeypatch.setattr(algebra, "_certified", lambda p, q: None)
    assert hs == [gcd(p, q) for p, q in pairs]


def _step_aside_cases():
    """(p, q, exact gcd, fallback) for the point (2, 3): each pair defeats one step."""
    c = one.scale
    w = x - y + c(5)
    # both leading coefficients in x vanish at y = 3: no bound in x
    lost = ((y - c(3)) * x + c(1), (y - c(3)) * x + c(2))
    # at y = 3 both images are x + 3: the bound in x is 1, the gcd has degree 0
    above = (x + y, x + y.scale(2) - c(3))
    return [
        (*lost, one, "no bound"),
        (*above, one, "certificate"),
        (lost[0] * w, lost[1] * w, w, "no bound"),
        (above[0] * w, above[1] * w, w, "certificate"),
    ]


def test_screen_steps_aside_on_an_unlucky_point(monkeypatch, fallbacks):
    monkeypatch.setattr(algebra, "_POINT", (2, 3))
    for p, q, expected, reason in _step_aside_cases():
        fallbacks.clear()
        assert algebra._certified(p, q) is None
        assert fallbacks == {reason: 1}
        assert gcd(p, q) == expected
        assert gcd(q, p) == expected


def test_a_divisor_below_the_degree_bounds_is_refused(monkeypatch, fallbacks):
    """Brown's candidate w divides both arguments, yet deg_x w = 1 < e_x = 2.

    w is then the gcd, but the certificate cannot tell it from a proper
    divisor of the gcd, so it refuses w and the PRS path decides.
    """
    monkeypatch.setattr(algebra, "_POINT", (2, 3))
    p, q, w, _ = _step_aside_cases()[3]
    made = _candidates(monkeypatch)
    assert algebra._certified(p, q) is None
    assert made == [w]
    assert p.exact_divide(w) * w == p and q.exact_divide(w) * w == q
    assert fallbacks == {"certificate": 1}
    assert gcd(p, q) == w


def test_screen_steps_aside_on_a_denominator_multiple_of_the_prime(monkeypatch, fallbacks):
    monkeypatch.setattr(algebra, "_PRIME", 13)
    monkeypatch.setattr(algebra, "_IOTA", 5)  # 5^2 = 25 = -1 mod 13
    a = x + y.scale(GaussianRational(Fraction(1, 26)))
    p, q = a * (x - y), a * (x + one.scale(2))
    assert algebra._certified(p, q) is None
    assert fallbacks == {"prime": 1}
    assert gcd(p, q) == a
    # every coefficient of 13*x*(x + y) is 0 mod 13
    fallbacks.clear()
    assert algebra._certified((x * (x + y)).scale(13), x * (x - y)) is None
    assert fallbacks == {"prime": 1}
    assert gcd((x * (x + y)).scale(13), x * (x - y)) == x
    # x + 13*y and x map to the same image mod 13, yet are coprime: the
    # candidate x has the bounded degrees and fails its division
    b = x + y.scale(13)
    made = _candidates(monkeypatch)
    fallbacks.clear()
    assert algebra._certified(b, x * (x + y)) is None
    assert made == [x] and fallbacks == {"certificate": 1}
    assert gcd(b, x * (x + y)) == one
    # no n/d with |n|, d <= 2 is 3 mod 13: the gcd x + 3*y has no lift
    w = x + y.scale(3)
    fallbacks.clear()
    assert algebra._certified(w * (x - y), w * (x + one.scale(2))) is None
    assert fallbacks == {"no candidate": 1}
    assert gcd(w * (x - y), w * (x + one.scale(2))) == w


def test_screen_steps_aside_when_the_nominated_divisor_fails(monkeypatch, fallbacks):
    monkeypatch.setattr(algebra, "_POINT", (2, 3))
    s = x + y
    # b(x, 3) = (x + 3)(x + 1) and b(2, y) = 3(y + 2), but x + y does not divide b
    b = s * (x + one) + (x - one.scale(2)) * (y - one.scale(3))
    failed = []
    real_divide = Polynomial.exact_divide

    def spy(self, divisor):
        try:
            return real_divide(self, divisor)
        except DivisibilityError:
            failed.append((self, divisor))
            raise

    monkeypatch.setattr(Polynomial, "exact_divide", spy)
    assert algebra._certified(s, b) is None
    assert failed == [(b, s)]
    assert fallbacks == {"certificate": 1}
    assert gcd(s, b) == one
    assert gcd(s * (x - y), b * (x - y)) == x - y


def test_screen_settles_coprime_pairs_and_divisors(fallbacks):
    p, q = x * y + one, x - y
    assert algebra._certified(p, q) == (one, p, q)
    # a divisor: the cofactors come with it, the divisor's own a constant
    h, s_hat, b_hat = algebra._certified(q.scale(I), p * q)
    assert h == q.monic() and s_hat == one.scale(I) and b_hat == p
    assert algebra._certified(x, y) == (one, x, y)  # no shared variable
    # neither 1 nor an argument: Brown's candidate
    h, p_hat, q_hat = algebra._certified((x + y) ** 2 * (x - y), (x + y) * (x + one))
    assert (h, p_hat, q_hat) == (x + y, (x + y) * (x - y), x + one)
    assert not fallbacks
