"""Exact polynomial arithmetic: contract examples and ring properties."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from germimage.errors import DimensionError, DivisibilityError, NotAGermError
from germimage.poly import MapGerm, Polynomial, _monomials, _pack, compose_target
from germimage.rationals import GaussianRational

from _helpers import variables

x, y = variables(2)
one = Polynomial.one(2)
zero = Polynomial.zero(2)


# -- operation examples -------------------------------------------------------


def test_add_cancellation():
    assert (x + y) + (x - y) == x.scale(2)


def test_add_identity():
    p = x * y + y
    assert p + zero == p


def test_add_like_terms():
    p = x * x * y
    assert p + p == (x * x * y).scale(2)


def test_mul_examples():
    assert x * y == Polynomial(2, {(1, 1): 1})
    assert (y + x * x) * x == x * y + x**3
    assert (x + y) * zero == zero


def test_exact_divide_examples():
    assert (x * y).exact_divide(x) == y
    assert (x * x * y * y + y**3).exact_divide(y) == x * x * y + y * y
    with pytest.raises(DivisibilityError):
        (x + y).exact_divide(x)


def test_partial_derivative_examples():
    assert (x * x * y).partial_derivative(0) == (x * y).scale(2)
    assert (x**4 + y).partial_derivative(1) == one
    assert Polynomial.constant(2, 7).partial_derivative(0) == zero
    with pytest.raises(IndexError):
        x.partial_derivative(2)


def test_evaluate_examples():
    assert (x * y).evaluate([2, 3]) == 6
    assert (x**4 + y).evaluate([1, -1]) == 0
    assert zero.evaluate([5, 5]) == 0
    with pytest.raises(DimensionError):
        x.evaluate([1])


def test_compose_target_examples():
    phi = Polynomial(2, {(0, 1): 1, (2, 0): -1})  # v - u^2
    germ = MapGerm(x * y, x * x * y * y + y**3)
    assert compose_target(phi, germ) == y**3

    phi2 = Polynomial(2, {(1, 0): 1, (0, 1): -1})  # u - v
    germ2 = MapGerm(x * (x + y), x * y)
    assert compose_target(phi2, germ2) == x * x

    proj = Polynomial(2, {(1, 0): 1})
    assert compose_target(proj, germ) == germ.f


def test_dimension_errors():
    p3 = Polynomial.variable(3, 0)
    with pytest.raises(DimensionError):
        x + p3
    with pytest.raises(DimensionError):
        x * p3


def test_degree_sentinel():
    assert zero.degree() is None
    assert one.degree() == 0
    assert (x * y + x).degree() == 2


def test_canonical_form_insertion_order():
    terms = [((2, 1), 3), ((0, 0), GaussianRational(1, 2)), ((1, 1), -1)]
    p = Polynomial(2, terms)
    q = Polynomial(2, list(reversed(terms)))
    assert p == q
    assert p.terms == q.terms
    assert repr(p) == repr(q)
    assert hash(p) == hash(q)


def test_map_germ_validation():
    with pytest.raises(NotAGermError):
        MapGerm(x + one, y)
    with pytest.raises(ValueError):
        MapGerm(zero, zero)
    with pytest.raises(DimensionError):
        MapGerm(x, Polynomial.variable(3, 0))
    germ = MapGerm(x, zero)  # one zero component is allowed
    assert germ.n == 2


# -- ring properties ----------------------------------------------------------

coeffs = st.sampled_from(
    [GaussianRational(a, b) for a in range(-2, 3) for b in range(-2, 3)]
)


@st.composite
def polynomials(draw, nvars=None, max_degree=4, max_terms=5):
    n = nvars if nvars is not None else draw(st.integers(1, 3))
    nterms = draw(st.integers(0, max_terms))
    terms = []
    for _ in range(nterms):
        exps = draw(
            st.lists(st.integers(0, max_degree), min_size=n, max_size=n).filter(
                lambda e: sum(e) <= max_degree
            )
        )
        terms.append((tuple(exps), draw(coeffs)))
    return Polynomial(n, terms)


@given(polynomials(nvars=2), polynomials(nvars=2), polynomials(nvars=2))
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@given(polynomials(nvars=3), polynomials(nvars=3))
def test_exact_divide_inverts_mul(p, q):
    if not q.is_zero():
        assert (p * q).exact_divide(q) == p


@settings(max_examples=60)
@given(
    polynomials(nvars=2, max_degree=4),
    polynomials(nvars=2, max_degree=4),
    st.lists(
        st.complex_numbers(max_magnitude=0.7, allow_nan=False, allow_infinity=False),
        min_size=2,
        max_size=2,
    ),
)
def test_evaluate_is_ring_hom_up_to_roundoff(p, q, z):
    scaled_p = p.scale(400)
    scaled_q = q.scale(400)
    lhs = (scaled_p * scaled_q).evaluate(z)
    rhs = scaled_p.evaluate(z) * scaled_q.evaluate(z)
    bound = 1e-10 * (1 + abs(scaled_p.evaluate(z))) * (1 + abs(scaled_q.evaluate(z)))
    assert abs(lhs - rhs) <= bound


@given(polynomials())
def test_evaluate_deterministic(p):
    point = [0.3 + 0.1j] * p.nvars
    assert p.evaluate(point) == p.evaluate(point)


# -- both constructors and the ring operations against grevlex ---------------


@st.composite
def term_dicts(draw):
    """(nvars, {exponents: coefficient}) with 1-4 variables, zero coefficients included."""
    n = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    zero_or_coeff = st.one_of(st.just(GaussianRational(0)), coeffs)
    return n, draw(st.dictionaries(exps, zero_or_coeff, max_size=12))


def grevlex_key(exps):
    """Graded reverse lexicographic order, ascending: degree first, then the
    smaller exponent of the last variable that differs is the larger monomial."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def grevlex_terms(items):
    """The canonical terms tuple, made without ``poly``'s own sort: merged, nonzero, descending."""
    acc = {}
    for m, c in items:
        acc[m] = acc.get(m, GaussianRational(0)) + c
    nonzero = [(m, c) for m, c in acc.items() if c]
    return tuple(sorted(nonzero, key=lambda t: grevlex_key(t[0]), reverse=True))


@given(term_dicts())
def test_packed_keys_order_as_grevlex(case):
    """Descending key order is descending grevlex, and a key unpacks to its exponents."""
    n, acc = case
    assert Polynomial(n, acc).terms == grevlex_terms(acc.items())
    monomials = sorted(acc, key=grevlex_key, reverse=True)
    assert sorted(monomials, key=_pack, reverse=True) == monomials
    assert _monomials([_pack(m) for m in monomials], n) == monomials


@given(term_dicts(), term_dicts())
def test_ring_operations_give_canonical_terms(first, second):
    (n, a), (_, b) = first, second
    b = {m[:n] + (0,) * (n - len(m)): c for m, c in b.items()}
    p, q = Polynomial(n, a), Polynomial(n, b)
    product = []
    for m1, c1 in p.terms:
        for m2, c2 in q.terms:
            product.append((tuple(e1 + e2 for e1, e2 in zip(m1, m2)), c1 * c2))
    assert (p * q).terms == grevlex_terms(product)
    assert (p + q).terms == grevlex_terms(list(a.items()) + list(b.items()))
    assert (-p).terms == grevlex_terms((m, -c) for m, c in a.items())
    k = GaussianRational(2, -1)
    assert p.scale(k).terms == grevlex_terms((m, c * k) for m, c in a.items())
    if p:
        lc = p.leading_coefficient()
        assert p.monic().terms == grevlex_terms((m, c / lc) for m, c in a.items())
        assert (p * q).exact_divide(p).terms == q.terms
    for var in range(n):
        d = []
        for m, c in a.items():
            if m[var]:
                d.append((m[:var] + (m[var] - 1,) + m[var + 1 :], c * m[var]))
        assert p.partial_derivative(var).terms == grevlex_terms(d)


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_constants_match_the_public_constructor(nvars):
    origin = (0,) * nvars
    values = [0, 1, GaussianRational(0, 1), Fraction(1, 2), GaussianRational(Fraction(1, 2))]
    for c in values:
        built = Polynomial.constant(nvars, c)
        public = Polynomial(nvars, [(origin, c)])
        assert built == public
        assert built.terms == public.terms
        assert built.is_constant()
    assert Polynomial.constant(nvars, 0).is_zero()
    assert Polynomial.one(nvars).terms == Polynomial(nvars, [(origin, 1)]).terms
    with pytest.raises(DimensionError):
        Polynomial.constant(0, 1)
