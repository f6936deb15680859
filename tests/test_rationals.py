"""Gaussian-rational scalar arithmetic."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from germimage.rationals import I, ONE, ZERO, GaussianRational


def G(re, im=0):
    return GaussianRational(re, im)


small = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)
scalars = st.builds(GaussianRational, small, small)


def test_construction_canonical():
    assert G(Fraction(2, 4)).re == Fraction(1, 2)
    assert G(2, -4) == G(Fraction(4, 2), Fraction(-8, 2))
    assert hash(G(1, 2)) == hash(G(Fraction(2, 2), Fraction(4, 2)))


def test_basic_arithmetic():
    assert G(1, 2) + G(3, -1) == G(4, 1)
    assert G(1, 2) - G(1, 2) == ZERO
    assert G(0, 1) * G(0, 1) == G(-1)
    assert I * I == G(-1)
    assert (G(1, 1) * G(1, -1)) == G(2)
    assert -G(1, -2) == G(-1, 2)


def test_division():
    assert G(1) / G(0, 1) == G(0, -1)
    assert (G(3, 4) / G(3, 4)).is_one()
    with pytest.raises(ZeroDivisionError):
        G(1) / ZERO


def test_powers():
    assert I**2 == G(-1)
    assert I**3 == G(0, -1)
    assert G(1, 1) ** 0 == ONE
    with pytest.raises(ValueError):
        G(2) ** -1


def test_conjugate_and_norm():
    z = G(Fraction(1, 2), Fraction(-3, 2))
    assert z.conjugate() == G(Fraction(1, 2), Fraction(3, 2))
    assert z.norm() == Fraction(1, 4) + Fraction(9, 4)
    assert z * z.conjugate() == G(z.norm())


def test_complex_conversion():
    assert complex(G(Fraction(1, 2), 3)) == 0.5 + 3j


def test_immutability():
    z = G(1)
    with pytest.raises(AttributeError):
        z.re = Fraction(2)


def test_str_forms():
    assert str(G(2)) == "2"
    assert str(G(0, 1)) == "1i"
    assert str(G(1, -2)) == "1-2i"


@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(scalars)
def test_multiplicative_inverse(a):
    if not a.is_zero():
        assert (a / a).is_one()
        assert (ONE / a) * a == ONE


# -- differential tests against a Fraction-pair reference ---------------------


class Ref:
    """a + b*i with Fraction parts: the textbook arithmetic GaussianRational must match."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o):
        return Ref(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return Ref(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return Ref(-self.re, -self.im)

    def __mul__(self, o):
        return Ref(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        n = o.norm()
        return Ref((self.re * o.re + self.im * o.im) / n, (self.im * o.re - self.re * o.im) / n)

    def __pow__(self, k):
        out = Ref(1)
        for _ in range(k):
            out = out * self
        return out

    def conjugate(self):
        return Ref(self.re, -self.im)

    def norm(self):
        return self.re * self.re + self.im * self.im

    def text(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


wide = st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
    st.integers(-(10**30), 10**30).map(Fraction),
    st.fractions(max_denominator=10**12),
    st.just(Fraction(0)),
)
pairs = st.tuples(wide, wide)


def _same(z, r):
    """z equals r, and z is stored in the canonical form (a + b*i)/d."""
    a, b, d = z.triple()
    assert d > 0 and math.gcd(a, b, d) == 1
    assert (z.re, z.im) == (r.re, r.im)
    assert (Fraction(a, d), Fraction(b, d)) == (r.re, r.im)


@given(pairs, pairs)
def test_arithmetic_matches_fraction_pairs(p, q):
    (z, r), (w, s) = (G(*p), Ref(*p)), (G(*q), Ref(*q))
    _same(z, r)
    _same(z + w, r + s)
    _same(z - w, r - s)
    _same(z * w, r * s)
    _same(-z, -r)
    _same(z.conjugate(), r.conjugate())
    assert z.norm() == r.norm()
    if w:
        _same(z / w, r / s)
    for k in range(4):
        _same(z**k, r**k)
    assert (z == w) == ((r.re, r.im) == (s.re, s.im))


@given(pairs, wide, st.integers(-(10**20), 10**20))
def test_mixed_operands_match_fraction_pairs(p, q, n):
    z, r = G(*p), Ref(*p)
    for other in (q, n):
        s = Ref(other)
        _same(z + other, r + s)
        _same(other + z, s + r)
        _same(z - other, r - s)
        _same(other - z, s - r)
        _same(z * other, r * s)
        _same(other * z, s * r)
        if other:
            _same(z / other, r / s)
        if z:
            _same(other / z, s / r)
        assert (z == other) == (r.im == 0 and r.re == other)
        assert (other == z) == (z == other)


@given(pairs, pairs)
def test_hash_agrees_with_equality(p, q):
    z, w = G(*p), G(*q)
    if z == w:
        assert hash(z) == hash(w)
    # a value built along another path hashes the same
    assert hash((z + w) - w) == hash(z)
    if z.is_real():
        assert hash(z) == hash(z.re)


@given(pairs, pairs)
def test_text_and_complex_match_the_reference(p, q):
    (z, r), (w, s) = (G(*p), Ref(*p)), (G(*q), Ref(*q))
    for value, ref in ((z, r), (z * w, r * s), (z + w, r + s)):
        _same(value, ref)
        assert str(value) == ref.text()
        assert repr(value) == f"GaussianRational({ref.re!r}, {ref.im!r})"
        c, expect = complex(value), complex(float(ref.re), float(ref.im))
        assert (c.real.hex(), c.imag.hex()) == (expect.real.hex(), expect.imag.hex())
