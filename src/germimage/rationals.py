"""Exact Gaussian-rational scalars: (a + b*i)/d over Python ints.

Q(i) is the coefficient field of every polynomial in this package, and
``GaussianRational`` is its scalar wherever one value stands alone: the
constants of the parser, the ratios and roots of witnesses, and the
coefficients that ``Polynomial.terms`` builds.  A polynomial itself keeps
no scalars: it stores Gaussian-integer numerators over one denominator
(see :mod:`germimage.poly`), and turns a term into a ``GaussianRational``
only when ``terms`` or a coefficient is read.

A value is stored as three ints ``(a, b, d)`` with ``d > 0`` and
``gcd(a, b, d) = 1``.  That form is canonical (d is the least common
denominator of the real and imaginary parts), so structural equality is
exact equality.  A result is reduced by one ``math.gcd(a, b, d)``, or not
at all where its form is canonical already (denominator 1, a sum over
coprime denominators).  A `Fraction` is made only when ``re`` or ``im`` is
read.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_new = object.__new__


def _canonical(a, b, d):
    """The value (a + b*i)/d, already in canonical form."""
    z = _new(GaussianRational)
    z._a = a
    z._b = b
    z._d = d
    return z


def _reduced(a, b, d):
    """The value (a + b*i)/d for any d > 0, reduced by one gcd."""
    g = gcd(a, b, d)
    if g != 1:
        return _canonical(a // g, b // g, d // g)
    return _canonical(a, b, d)


def _sum(a1, b1, d1, a2, b2, d2):
    """(a1 + b1*i)/d1 + (a2 + b2*i)/d2 from two canonical triples."""
    if d1 == d2:
        if d1 == 1:
            return _canonical(a1 + a2, b1 + b2, 1)
        return _reduced(a1 + a2, b1 + b2, d1)
    g = gcd(d1, d2)
    if g == 1:
        # coprime denominators: no prime of d1*d2 divides both new parts
        return _canonical(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)
    e1, e2 = d2 // g, d1 // g
    return _reduced(a1 * e1 + a2 * e2, b1 * e1 + b2 * e2, d1 * e1)


class GaussianRational:
    """Immutable complex number with exact rational real and imaginary parts.

    ``re`` and ``im`` are read-only `Fraction` views; ``triple()`` gives the
    stored integers.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        # over the lcm of the lowest-terms denominators the triple is canonical
        d = lcm(re.denominator, im.denominator)
        self._a = re.numerator * (d // re.denominator)
        self._b = im.numerator * (d // im.denominator)
        self._d = d

    @property
    def re(self):
        return Fraction(self._a, self._d)

    @property
    def im(self):
        return Fraction(self._b, self._d)

    def triple(self):
        """The canonical ints (a, b, d): the value is (a + b*i)/d."""
        return self._a, self._b, self._d

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return not self._a and not self._b

    def is_one(self):
        return self._a == 1 and self._d == 1 and not self._b

    def is_real(self):
        return not self._b

    def __bool__(self):
        return bool(self._a or self._b)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _sum(self._a, self._b, self._d, other._a, other._b, other._d)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _sum(self._a, self._b, self._d, -other._a, -other._b, other._d)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _canonical(-self._a, -self._b, self._d)

    def __mul__(self, other):
        if type(other) is GaussianRational:
            a2, b2, d2 = other._a, other._b, other._d
        elif isinstance(other, int):
            a2, b2, d2 = other, 0, 1
        else:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
            a2, b2, d2 = other._a, other._b, other._d
        a1, b1, d1 = self._a, self._b, self._d
        if not b2:
            a, b = a1 * a2, b1 * a2
        elif not b1:
            a, b = a1 * a2, a1 * b2
        else:
            a, b = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
        d = d1 * d2
        if d == 1:
            return _canonical(a, b, 1)
        return _reduced(a, b, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a1, b1, d1 = self._a, self._b, self._d
        a2, b2, d2 = other._a, other._b, other._d
        if not b2:
            if not a2:
                raise ZeroDivisionError("division by zero Gaussian rational")
            a, b, d = a1 * d2, b1 * d2, d1 * a2
        else:
            # times the conjugate over the norm a2^2 + b2^2
            a = (a1 * a2 + b1 * b2) * d2
            b = (b1 * a2 - a1 * b2) * d2
            d = d1 * (a2 * a2 + b2 * b2)
        if d < 0:
            a, b, d = -a, -b, -d
        return _reduced(a, b, d)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self):
        return _canonical(self._a, -self._b, self._d)

    def norm(self):
        """|z|^2 as an exact Fraction."""
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    # -- conversions and canonical text --------------------------------------

    def __complex__(self):
        # int / int is correctly rounded, as float(Fraction) is
        return complex(self._a / self._d, self._b / self._d)

    def __eq__(self, other):
        if type(other) is GaussianRational:
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, int):
            return not self._b and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return not self._b and self._a == other.numerator and self._d == other.denominator
        return NotImplemented

    def __hash__(self):
        # a real value hashes like the equal int or Fraction
        if not self._b:
            return hash(self._a) if self._d == 1 else hash(Fraction(self._a, self._d))
        return hash((self._a, self._b, self._d))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return f"{im}i"
        sign = "+" if im >= 0 else "-"
        return f"{re}{sign}{abs(im)}i"


def _coerce(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, int):
        return _canonical(x, 0, 1)
    if isinstance(x, Fraction):
        return _canonical(x.numerator, 0, x.denominator)
    return NotImplemented


ZERO = _canonical(0, 0, 1)
ONE = _canonical(1, 0, 1)
I = _canonical(0, 1, 1)
