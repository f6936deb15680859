"""gcd, squarefree parts, germ inclusion, decomposition, Jacobian rank."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from germimage import algebra
from germimage.algebra import (
    IntersectionCase,
    _coeffs_in,
    _gcd_cofactors,
    decompose,
    first_nonzero_minor,
    gcd,
    intersection_dimension_case,
    jacobian_rank_deficient,
    resultant,
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
        power = Polynomial.variable(n, var)
        rebuilt = Polynomial.zero(n)
        for e, view in enumerate(views):
            rebuilt = rebuilt + view * power**e
        assert rebuilt.terms == p.terms


def test_resultant_refuses_a_nonconstant_leading_coefficient():
    """Poisson's formula needs lc_var(p) constant: x*y + 1 has lc x in y and lc y in x."""
    for var in (0, 1):
        with pytest.raises(PreconditionError, match="nonconstant leading coefficient"):
            resultant(x * y + one, y, var)
    # a constant leading coefficient, or a first argument free of the variable, is accepted
    assert resultant(y * y + x, y + one, 1) == x + one
    assert resultant(x, y * y + one, 1) == x * x


# -- the certified modular gcd and its attempts ------------------------------
# The test_screen_* tests feed the certified gcd the inputs built to defeat
# the modular screen it replaced, and keep their names: each defeats the
# first attempt, and a later one settles it.


def _attempts(monkeypatch):
    """Record (attempt, point) of every attempt that gets past its residues."""
    seen = []
    real = algebra._point

    def spy(attempt, nvars):
        seen.append((attempt, real(attempt, nvars)))
        return seen[-1][1]

    monkeypatch.setattr(algebra, "_point", spy)
    return seen


def _lifts(monkeypatch):
    """Record (candidate, modulus) for every combination lifted to Q(i)."""
    made = []
    real = algebra._lift

    def spy(residues, modulus, nvars):
        made.append((real(residues, modulus, nvars), modulus))
        return made[-1][0]

    monkeypatch.setattr(algebra, "_lift", spy)
    return made


def _settles(p, q, h):
    """``_certified`` returns h with the exact cofactors, in either order."""
    assert algebra._certified(p, q) == (h, p.exact_divide(h), q.exact_divide(h))
    assert algebra._certified(q, p) == (h, q.exact_divide(h), p.exact_divide(h))


def test_screen_prime_and_square_root_of_minus_one():
    primes = [algebra._prime(t) for t in range(4)]
    assert primes[0][0] == 998_244_353
    assert [p for p, _ in primes] == sorted({p for p, _ in primes})
    for p, iota in primes:
        assert p % 4 == 1
        assert all(p % d for d in range(2, math.isqrt(p) + 1))
        assert iota**2 % p == p - 1


def test_attempt_points_cover_the_grid_and_recur():
    base = [algebra._POINT[w % len(algebra._POINT)] for w in range(7)]

    def offset(attempt, n):
        return tuple(a - b for a, b in zip(algebra._point(attempt, n), base))

    # grid point j first comes at attempt j(j+3)/2; j = 1, 2, ... meets each of 1 + N^n once
    for n, side in ((2, 4), (3, 4), (7, 2)):
        firsts = [offset(j * (j + 3) // 2, n) for j in range(1, side**n + 1)]
        assert sorted(firsts) == sorted(itertools.product(range(1, side + 1), repeat=n))
    assert offset(0, 2) == offset(1, 2) == (0, 0) and offset(2, 2) == (1, 1)
    recurring = Counter(offset(t, 2) for t in range(45))
    assert all(recurring[m] >= 2 for m in itertools.product(range(1, 3), repeat=2))


def _step_aside_cases():
    """(p, q, exact gcd) for the point (2, 3): each pair defeats one step there."""
    c = one.scale
    w = x - y + c(5)
    # both leading coefficients in x vanish at y = 3: no bound in x
    lost = ((y - c(3)) * x + c(1), (y - c(3)) * x + c(2))
    # at y = 3 both images are x + 3: the bound in x is 1, the gcd has degree 0
    above = (x + y, x + y.scale(2) - c(3))
    return [
        (*lost, one),
        (*above, one),
        (lost[0] * w, lost[1] * w, w),
        (above[0] * w, above[1] * w, w),
    ]


def test_screen_steps_aside_on_an_unlucky_point(monkeypatch):
    """No bound in x is exact at y = 3; an attempt at another y settles each pair."""
    monkeypatch.setattr(algebra, "_POINT", (2, 3))
    for p, q, expected in _step_aside_cases():
        seen = _attempts(monkeypatch)
        _settles(p, q, expected)
        assert seen[0] == (0, [2, 3]) and seen[-1][1][1] != 3


def test_a_divisor_below_the_degree_bounds_is_refused(monkeypatch):
    """Brown's candidate w divides both arguments, yet deg_x w = 1 < e_x = 2.

    w is then the gcd, but the certificate cannot tell it from a proper
    divisor of the gcd, so it refuses w until an attempt at another point
    brings e_x down to 1.
    """
    monkeypatch.setattr(algebra, "_POINT", (2, 3))
    p, q, w = _step_aside_cases()[3]
    made = _lifts(monkeypatch)
    assert algebra._certified(p, q) == (w, p.exact_divide(w), q.exact_divide(w))
    assert len(made) > 1 and {h for h, _ in made} == {w}
    assert made[0][1] == algebra._PRIMES[0][0]


def test_screen_steps_aside_on_a_denominator_multiple_of_the_prime(monkeypatch):
    monkeypatch.setattr(algebra, "_PRIMES", [(13, 5)])  # 5^2 = 25 = -1 mod 13; then 17, 29, ...
    a = x + y.scale(GaussianRational(Fraction(1, 26)))
    seen = _attempts(monkeypatch)
    _settles(a * (x - y), a * (x + one.scale(2)), a)
    assert seen[0][0] == 1  # 13 divides a denominator: the first attempt is skipped
    # every coefficient of 13*x*(x + y) is 0 mod 13
    seen.clear()
    _settles((x * (x + y)).scale(13), x * (x - y), x)
    assert seen[0][0] == 1
    # x + 13*y and x map to the same image mod 13, yet are coprime: the
    # candidate x has the bounded degrees and fails its division
    made = _lifts(monkeypatch)
    assert algebra._certified(x + y.scale(13), x * (x + y)) == (one, x + y.scale(13), x * (x + y))
    assert made == [(x, 13)]
    # no n/d with |n|, d <= 2 is 3 mod 13: the gcd x + 3*y takes a second prime
    w = x + y.scale(3)
    made.clear()
    p, q = w * (x - y), w * (x + one.scale(2))
    assert algebra._certified(p, q) == (w, x - y, x + one.scale(2))
    assert made == [(None, 13), (w, 13 * 17)]


def test_images_of_a_larger_key_are_skipped_and_new_bounds_restart(monkeypatch):
    """A bad prime's image never joins the combination; a fall of the bounds restarts it.

    a = b mod 17 and a(x, 3) = b(x, 3), yet gcd(a, b) = 1.  At y = 3 the
    bound in x is 2, not 1, so Brown mod 17 meets w*b within the bounds and
    returns an image of larger key than w's, which is skipped.  At the
    next point, (3, 4), the bound in x falls, so the image mod 29 starts
    the combination again, and the one mod 37 completes it.
    """
    monkeypatch.setattr(algebra, "_PRIMES", [(13, 5)])  # then 17, 29, 37, ...
    monkeypatch.setattr(algebra, "_POINT", (2, 3))
    c = one.scale
    w, a, b = x + y.scale(5), x + y.scale(18) - c(53), x + y - c(2)
    made = _lifts(monkeypatch)
    assert algebra._certified(w * a, w * b) == (w, a, b)
    assert [m for _, m in made] == [13, 29, 29 * 37]


def test_unlucky_brown_points_past_the_first_allowance(monkeypatch):
    """At y = 1, ..., 5 both cofactors of x + y + 1 become x: five unlucky points.

    Brown interpolates y from y = 1, 2, ...; the first attempt allows 4
    skipped images and gives up, the second allows 5 and settles the gcd.
    These points are unlucky over Q(i), so no prime alone would escape them.
    """
    c = one.scale
    h, a, b = x + y + one, x + (y - c(1)) * (y - c(2)) * (y - c(3)) * (y - c(4)) * (y - c(5)), x
    allowed = []
    real = algebra._modular_image

    def spy(*args):
        out = real(*args)
        allowed.append((args[-1], out is not None))
        return out

    monkeypatch.setattr(algebra, "_modular_image", spy)
    assert algebra._certified(h * a, h * b) == (h, a, b)
    assert allowed == [(4, False), (5, True)]


def test_screen_steps_aside_when_the_nominated_divisor_fails(monkeypatch):
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
    seen, made = _attempts(monkeypatch), _lifts(monkeypatch)
    assert algebra._certified(s, b) == (one, s, b)
    # tried once, and no Brown candidate either, until the bounds fall
    assert failed == [(b, s)] and made == [] and len(seen) > 2
    assert gcd(s * (x - y), b * (x - y)) == x - y


def test_screen_settles_coprime_pairs_and_divisors(monkeypatch):
    seen = _attempts(monkeypatch)
    p, q = x * y + one, x - y
    assert algebra._certified(p, q) == (one, p, q)
    # a divisor: the cofactors come with it, the divisor's own a constant
    h, s_hat, b_hat = algebra._certified(q.scale(I), p * q)
    assert h == q.monic() and s_hat == one.scale(I) and b_hat == p
    assert algebra._certified(x, y) == (one, x, y)  # no shared variable
    # neither 1 nor an argument: Brown's candidate
    h, p_hat, q_hat = algebra._certified((x + y) ** 2 * (x - y), (x + y) * (x + one))
    assert (h, p_hat, q_hat) == (x + y, (x + y) * (x - y), x + one)
    assert [attempt for attempt, _ in seen] == [0] * 4  # each in its first attempt


def _random_polynomial(rng, n, terms, height):
    acc = {}
    for _ in range(terms):
        m = tuple(rng.randint(0, 2) for _ in range(n))
        acc[m] = GaussianRational(rng.randint(-height, height), rng.choice([0, 0, rng.randint(-height, height)]))
    return Polynomial(n, acc)


def test_certified_gcd_ends_with_small_primes(monkeypatch):
    """From P = 13 up, the attempts meet every bad case, and the gcds still come out exact.

    Small primes divide coefficients, lose degrees, run out of points in
    F_P and need several primes per coefficient; the answers equal those
    of the default primes, cofactors included.
    """
    rng = random.Random(31)
    pairs = []
    while len(pairs) < 30:
        n = rng.randint(2, 4)
        w, a, b = (_random_polynomial(rng, n, 3, 20) for _ in range(3))
        if not any(t.is_constant() for t in (w, a, b)):
            pairs.append((w * a, w * b))
    expected = [_gcd_cofactors(p, q) for p, q in pairs]
    monkeypatch.setattr(algebra, "_PRIMES", [(13, 5)])
    monkeypatch.setattr(algebra, "_POINT", (1, 2, 3))
    seen = _attempts(monkeypatch)
    assert [_gcd_cofactors(p, q) for p, q in pairs] == expected
    assert max(attempt for attempt, _ in seen) > 1
