"""Exact multivariate polynomials over Gaussian rationals.

Monomials are exponent tuples of fixed length ``nvars``.  A polynomial
stores its nonzero terms as a tuple of ``(exponents, coefficient)`` pairs
sorted in descending graded-reverse-lexicographic order, so two equal
polynomials have identical representations regardless of how they were
assembled.

The public constructor ``Polynomial(nvars, terms)`` validates its input:
exponent count and sign, and coefficient type.  Results of ring
operations (and the univariate views of :mod:`germimage.algebra`) are
built by the private ``Polynomial._trusted``, which trusts its dict of
exponent tuples to ``GaussianRational``.  Both end in ``_canonical_terms``,
the one place that drops zeros and orders the terms.  Operations that keep
the order of the terms (``neg``, ``scale``, ``monic``) skip it, and so do
the constants, which have at most one term.
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import add

from .errors import DimensionError, DivisibilityError, NotAGermError
from .rationals import GaussianRational, ONE, ZERO


def _descending_key(exps):
    """The canonical term order: ascending in this key is descending grevlex."""
    return (-sum(exps), exps[::-1])


def monomial_mul(a, b):
    return tuple(map(add, a, b))


def monomial_divides(a, b):
    """True when x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a, b):
    """Exponents of x^a / x^b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def _coerce_coeff(c):
    if isinstance(c, GaussianRational):
        return c
    return GaussianRational(c)


_new = object.__new__
_setattr = object.__setattr__

# One tuple per exponent vector for the terms of every polynomial, so that
# equal monomials of different polynomials share memory.  Sharing is only
# an economy: the table is emptied when it outgrows the cap.
_MONOMIALS = {}
_MONOMIAL_TABLE_CAP = 1 << 16


def _canonical_terms(acc):
    """The canonical terms tuple of ``acc`` ({exponents: GaussianRational}).

    Zero coefficients are dropped and the terms sorted by ``_descending_key``.
    """
    if len(_MONOMIALS) > _MONOMIAL_TABLE_CAP:
        _MONOMIALS.clear()
    share = _MONOMIALS.setdefault
    # the keys are distinct, so m and c are never compared
    keyed = [(_descending_key(m), share(m, m), c) for m, c in acc.items() if c]
    keyed.sort()
    return tuple([(m, c) for _, m, c in keyed])


class Polynomial:
    """Immutable sparse polynomial in ``nvars`` variables over Q(i)."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms):
        """``terms``: mapping or iterable of (exponent tuple, coefficient).

        Zero coefficients are dropped; like terms are merged; the result is
        stored in canonical (descending grevlex) order.
        """
        if nvars < 1:
            raise DimensionError("nvars must be positive")
        items = terms.items() if isinstance(terms, dict) else terms
        acc = {}
        for exps, c in items:
            exps = tuple(exps)
            if len(exps) != nvars:
                raise DimensionError(
                    f"monomial has {len(exps)} exponents, expected {nvars}"
                )
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            c = _coerce_coeff(c)
            if exps in acc:
                acc[exps] = acc[exps] + c
            else:
                acc[exps] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", _canonical_terms(acc))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def _ordered(cls, nvars, terms):
        """The last step of ``_trusted``: ``terms`` is already a canonical tuple."""
        p = _new(cls)
        _setattr(p, "nvars", nvars)
        _setattr(p, "terms", terms)
        return p

    @classmethod
    def _trusted(cls, nvars, acc):
        """Trusted: ``acc`` maps exponent tuples of length ``nvars`` to GaussianRationals.

        No validation or coercion; the terms are made canonical as the
        public constructor makes them.
        """
        return cls._ordered(nvars, _canonical_terms(acc))

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, ())

    @classmethod
    def constant(cls, nvars, c):
        """The constant ``c``, built as one term (none when ``c`` is 0) without validation."""
        if nvars < 1:
            raise DimensionError("nvars must be positive")
        c = _coerce_coeff(c)
        return cls._ordered(nvars, (((0,) * nvars, c),) if c else ())

    @classmethod
    def one(cls, nvars):
        return cls.constant(nvars, ONE)

    @classmethod
    def variable(cls, nvars, index):
        if not 0 <= index < nvars:
            raise IndexError(f"variable index {index} out of range for {nvars} vars")
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, [(exps, 1)])

    # -- structure ------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def degree(self):
        """Total degree; ``None`` is the sentinel degree of the zero polynomial."""
        if not self.terms:
            return None
        return sum(self.terms[0][0])

    def constant_term(self):
        if self.terms and not any(self.terms[-1][0]):
            return self.terms[-1][1]
        return ZERO

    def is_constant(self):
        return not self.terms or (len(self.terms) == 1 and not any(self.terms[0][0]))

    def is_unit_germ(self):
        """Invertible in the local ring at 0, i.e. nonzero constant term."""
        return not self.constant_term().is_zero()

    def leading_coefficient(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.terms[0][1]

    def coefficient(self, exps):
        exps = tuple(exps)
        for m, c in self.terms:
            if m == exps:
                return c
        return ZERO

    def monic(self):
        """Divide by the leading coefficient (canonical-order normalization)."""
        if not self.terms:
            return self
        lc = self.terms[0][1]
        if lc.is_one():
            return self
        return Polynomial._ordered(self.nvars, tuple([(m, c / lc) for m, c in self.terms]))

    def max_degree_in(self, var):
        return max((m[var] for m, _ in self.terms), default=0)

    # -- ring operations --------------------------------------------------------

    def _check_same_ring(self, other):
        if not isinstance(other, Polynomial):
            raise TypeError(f"expected Polynomial, got {type(other).__name__}")
        if self.nvars != other.nvars:
            raise DimensionError(
                f"operands have {self.nvars} and {other.nvars} variables"
            )

    def __add__(self, other):
        self._check_same_ring(other)
        acc = {m: c for m, c in self.terms}
        for m, c in other.terms:
            if m in acc:
                acc[m] = acc[m] + c
            else:
                acc[m] = c
        return Polynomial._trusted(self.nvars, acc)

    def __sub__(self, other):
        self._check_same_ring(other)
        acc = {m: c for m, c in self.terms}
        for m, c in other.terms:
            if m in acc:
                acc[m] = acc[m] - c
            else:
                acc[m] = -c
        return Polynomial._trusted(self.nvars, acc)

    def __neg__(self):
        return Polynomial._ordered(self.nvars, tuple([(m, -c) for m, c in self.terms]))

    def __mul__(self, other):
        self._check_same_ring(other)
        acc = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = monomial_mul(m1, m2)
                c = c1 * c2
                if m in acc:
                    acc[m] = acc[m] + c
                else:
                    acc[m] = c
        return Polynomial._trusted(self.nvars, acc)

    def scale(self, c):
        c = _coerce_coeff(c)
        if c.is_zero():
            return Polynomial.zero(self.nvars)
        return Polynomial._ordered(self.nvars, tuple([(m, k * c) for m, k in self.terms]))

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = Polynomial.one(self.nvars)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def exact_divide(self, divisor):
        """Return ``q`` with ``divisor * q == self``; raise if no such q exists.

        Single-divisor multivariate division under grevlex, demanding a zero
        remainder; no coefficient field extension is involved because Q(i)
        is a field.  A constant divisor only scales.  Otherwise the
        remainder's leading term comes off a heap keyed by
        ``_descending_key``; an entry whose term has cancelled is stale and
        skipped.  A term, once taken, never comes back: every term it adds
        is smaller, because grevlex is a monomial order.
        """
        self._check_same_ring(divisor)
        if divisor.is_zero():
            raise DivisibilityError("division by the zero polynomial")
        if self.is_zero():
            return self
        lead_m, lead_c = divisor.terms[0]
        if divisor.is_constant():
            return self if lead_c.is_one() else self.scale(ONE / lead_c)
        rem = {m: c for m, c in self.terms}
        heap = [(_descending_key(m), m) for m in rem]  # self.terms is sorted: a heap already
        quot = {}
        while rem:
            m = heappop(heap)[1]
            if m not in rem:
                continue
            c = rem.pop(m)
            if not monomial_divides(lead_m, m):
                raise DivisibilityError("not an exact factor")
            qm = monomial_div(m, lead_m)
            qc = c / lead_c
            quot[qm] = qc
            for dm, dc in divisor.terms[1:]:
                t = monomial_mul(qm, dm)
                old = rem.get(t)
                if old is None:
                    rem[t] = -(qc * dc)
                    heappush(heap, (_descending_key(t), t))
                elif (nc := old - qc * dc).is_zero():
                    del rem[t]
                else:
                    rem[t] = nc
        return Polynomial._trusted(self.nvars, quot)

    def partial_derivative(self, var_index):
        """Formal partial derivative with exact coefficients."""
        if not 0 <= var_index < self.nvars:
            raise IndexError(
                f"variable index {var_index} out of range for {self.nvars} vars"
            )
        acc = {}
        for m, c in self.terms:
            e = m[var_index]
            if e == 0:
                continue
            dm = tuple(x - 1 if i == var_index else x for i, x in enumerate(m))
            acc[dm] = c * e
        return Polynomial._trusted(self.nvars, acc)

    def evaluate(self, point):
        """Evaluate at a point of C^n in double precision.

        Terms are summed in canonical order from the first term on, powers
        are expanded by repeated multiplication, and a real coefficient c
        takes its first factor z as (c Re z, c Im z), or as z if c = 1.0.
        So the result is reproducible bit for bit, as the batch kernels of
        :mod:`germimage.kernels` compute it, and equals the sum from 0j of
        complex(c) * z * ... up to the sign of a zero part, which no probe
        report reads (a binned part is shifted, a residual is an abs).
        """
        if len(point) != self.nvars:
            raise DimensionError(
                f"point has {len(point)} coordinates, expected {self.nvars}"
            )
        zs = [complex(z) for z in point]
        acc = None
        for m, c in self.terms:
            t = complex(c)
            real = t.imag == 0.0
            for z, e in zip(zs, m):
                for _ in range(e):
                    if real:
                        t = z if t.real == 1.0 else complex(t.real * z.real, t.real * z.imag)
                        real = False
                    else:
                        t = t * z
            acc = t if acc is None else acc + t
        return 0j if acc is None else acc

    # -- comparison -------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, self.terms))

    def __repr__(self):
        return f"Polynomial(nvars={self.nvars}, terms={self.terms!r})"


def substitute(poly, args):
    """Exact substitution poly(args[0], ..., args[n-1]) of polynomials in one ring."""
    nvars = args[0].nvars
    powers = [[Polynomial.one(nvars)] for _ in args]
    out = Polynomial.zero(nvars)
    for m, c in poly.terms:
        term = Polynomial.constant(nvars, c)
        for arg, pw, e in zip(args, powers, m):
            while len(pw) <= e:
                pw.append(pw[-1] * arg)
            term = term * pw[e]
        out = out + term
    return out


def compose_target(phi, germ):
    """Exact substitution phi(f, g) for a two-variable polynomial phi."""
    if phi.nvars != 2:
        raise DimensionError("target polynomial must have exactly 2 variables")
    return substitute(phi, [germ.f, germ.g])


class MapGerm:
    """A pair (f, g) of polynomials in n variables, both vanishing at 0."""

    __slots__ = ("n", "f", "g")

    def __init__(self, f, g):
        if not isinstance(f, Polynomial) or not isinstance(g, Polynomial):
            raise TypeError("MapGerm components must be Polynomial")
        if f.nvars != g.nvars:
            raise DimensionError("f and g must share the same variable count")
        if not f.constant_term().is_zero():
            raise NotAGermError("f has a nonzero constant term: f(0) != 0")
        if not g.constant_term().is_zero():
            raise NotAGermError("g has a nonzero constant term: g(0) != 0")
        if f.is_zero() and g.is_zero():
            raise ValueError("constant map germ: f and g are both zero")
        object.__setattr__(self, "n", f.nvars)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)

    def __setattr__(self, name, value):
        raise AttributeError("MapGerm is immutable")

    def __eq__(self, other):
        if not isinstance(other, MapGerm):
            return NotImplemented
        return self.f == other.f and self.g == other.g

    def __hash__(self):
        return hash((self.f, self.g))

    def __repr__(self):
        return f"MapGerm(n={self.n}, f={self.f!r}, g={self.g!r})"
