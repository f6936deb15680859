"""Exact multivariate polynomials over Gaussian rationals, in packed form.

A polynomial in n = ``nvars`` variables stores one denominator D > 0 and,
for each nonzero term in canonical order, one int key for its monomial
and the two ints (a, b) of its numerator: the term is (a + b*i)/D * x^e.

Keys.  With fields of W = ``_WIDTH`` bits and B = 2^W, the monomial x^e of
total degree d = e_0 + ... + e_(n-1) has the key

    key(e) = d * B^n - (e_0 + e_1 * B + ... + e_(n-1) * B^(n-1)),

the total degree in the top field and the exponents, negated, in the n
fixed-width fields below it (x_(n-1) highest, x_0 lowest).  As every
exponent is below B, the sum subtracted is below B^n.

- Integer order is grevlex.  A larger total degree gives a larger key
  whatever the lower fields hold.  At equal degree the key is larger when
  e_(n-1) is smaller, then e_(n-2), and so on: of two monomials of one
  degree, the one with the smaller exponent in the last variable where
  they differ is the larger, which is graded reverse lexicographic order.
  Terms are stored by descending key, so the first term leads.
- A product is an addition.  The degree and the weighted sum of the
  exponents are both additive, so key(e + f) = key(e) + key(f), and
  key(e) - key(f) is the key of x^e / x^f when x^f divides x^e.
- The field check.  A key is right only while no field carries into the
  next, and every exponent is at most the total degree.  So a polynomial
  of total degree ``_DEGREE_LIMIT`` = B/2 or more is refused with
  ``PreconditionError`` (by the constructor, and by a product before it
  is formed): every exponent then stays below B/2, and the top bit of
  each field is free.  ``exact_divide`` uses those bits as guards to test
  whether x^f divides x^e without unpacking either key.

Canonical form.  D > 0 and gcd(D, every a, every b) = 1, so D is the least
common denominator of the coefficients, and two equal polynomials store
equal ints; ``==`` and ``hash`` compare them.  An operation reduces its
result by one gcd over D and the numerators, and skips it where D = 1.
The imaginary parts are stored as None when every b is 0.

``terms``, the canonical tuple of (exponent tuple, ``GaussianRational``)
pairs, is built on each read for code that wants the terms one by one
(parsing, reports, the probes); the ring operations never build it.  The
public constructor ``Polynomial(nvars, terms)`` validates its input:
exponent count, sign and degree, and coefficient type.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import repeat
from math import gcd, lcm
from struct import iter_unpack

from .errors import DimensionError, DivisibilityError, NotAGermError, PreconditionError
from .rationals import GaussianRational, ONE, ZERO, _reduced

_WIDTH = 32  # one 32-bit word per field: see _monomials
_FIELD = (1 << _WIDTH) - 1
_DEGREE_LIMIT = 1 << (_WIDTH - 1)


def _pack(exps):
    """The key of the monomial with exponent tuple ``exps``."""
    low = 0
    for e in reversed(exps):
        low = low << _WIDTH | e
    return (sum(exps) << _WIDTH * len(exps)) - low


def _monomials(keys, nvars):
    """The exponent tuples of ``keys``, in order.

    Field v of the low part -key mod B^n is bits 32v to 32v + 31, so the
    low parts, written out as little-endian bytes, are rows of n unsigned
    32-bit words.
    """
    size, low = 4 * nvars, (1 << _WIDTH * nvars) - 1
    words = b"".join([(-k & low).to_bytes(size, "little") for k in keys])
    return list(iter_unpack(f"<{nvars}I", words))


def _exponent(key, var):
    """The exponent of x_var in ``key``."""
    return -key >> _WIDTH * var & _FIELD


def _coerce_coeff(c):
    if isinstance(c, GaussianRational):
        return c
    return GaussianRational(c)


def _check_degree(degree):
    if degree >= _DEGREE_LIMIT:
        raise PreconditionError(
            f"total degree {degree} exceeds the packed monomial limit {_DEGREE_LIMIT - 1}"
        )


_new = object.__new__


def _build(nvars, keys, re, im, den):
    """The polynomial of these parts, taken as canonical already."""
    p = _new(Polynomial)
    p._n = nvars
    p._keys = keys
    p._re = re
    p._im = im
    p._den = den
    return p


def _make(nvars, keys, re, im, den):
    """The polynomial of descending ``keys`` and nonzero numerators over ``den`` > 0.

    Reduced to canonical form: one gcd unless den = 1, and None for
    imaginary parts that are all 0.
    """
    if im is not None and not any(im):
        im = None
    if den != 1:
        g = gcd(den, *re, *im) if im else gcd(den, *re)
        if g != 1:
            re = tuple([a // g for a in re])
            if im:
                im = tuple([b // g for b in im])
            den //= g
    return _build(nvars, keys, re, im, den)


def _collect(nvars, re, im, den):
    """The polynomial of {key: a} and {key: b} (None: all b are 0) over ``den``.

    Zero terms are dropped and the keys sorted; ``im`` holds every key of
    ``re`` when it is not None.
    """
    if im is None:
        keys = sorted([k for k, a in re.items() if a], reverse=True)
        return _make(nvars, tuple(keys), tuple([re[k] for k in keys]), None, den)
    keys = sorted([k for k, a in re.items() if a or im[k]], reverse=True)
    return _make(
        nvars, tuple(keys), tuple([re[k] for k in keys]), tuple([im[k] for k in keys]), den
    )


def _from_triples(nvars, triples):
    """The polynomial of {exponent tuple: (a, b, d)}, each (a + b*i)/d canonical."""
    # over the lcm of the lowest-terms denominators the form is canonical
    den = lcm(*(d for _, _, d in triples.values()))
    re, im = {}, {}
    for m, (a, b, d) in triples.items():
        k = _pack(m)
        re[k], im[k] = a * (den // d), b * (den // d)
    return _collect(nvars, re, im, den)


def _scaled(nvars, keys, re, im, den, a, b, d):
    """The polynomial of these parts (as ``_build`` takes them) times (a + b*i)/d.

    (a + b*i)/d is nonzero and d > 0.
    """
    if not b:
        new_re = tuple([x * a for x in re])
        new_im = None if im is None else tuple([y * a for y in im])
    elif im is None:
        new_re, new_im = tuple([x * a for x in re]), tuple([x * b for x in re])
    else:
        new_re = tuple([x * a - y * b for x, y in zip(re, im)])
        new_im = tuple([x * b + y * a for x, y in zip(re, im)])
    return _make(nvars, keys, new_re, new_im, den * d)


def _divided(nvars, keys, re, im, den, a, b, d):
    """The polynomial of these parts divided by (a + b*i)/d, nonzero, d > 0.

    Times d * conj over the norm: d/|a| with the sign of a when b = 0.
    """
    if not b:
        return _scaled(nvars, keys, re, im, den, d if a > 0 else -d, 0, abs(a))
    return _scaled(nvars, keys, re, im, den, d * a, -d * b, a * a + b * b)


class Polynomial:
    """Immutable sparse polynomial in ``nvars`` variables over Q(i).

    Every slot is private; ``nvars`` and ``terms`` are read-only views.
    """

    __slots__ = ("_n", "_keys", "_re", "_im", "_den")

    def __init__(self, nvars, terms):
        """``terms``: mapping or iterable of (exponent tuple, coefficient).

        Zero coefficients are dropped and like terms merged.
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
            _check_degree(sum(exps))
            c = _coerce_coeff(c)
            acc[exps] = acc[exps] + c if exps in acc else c
        p = _from_triples(nvars, {m: c.triple() for m, c in acc.items() if c})
        self._n, self._keys, self._re, self._im, self._den = p._n, p._keys, p._re, p._im, p._den

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        if nvars < 1:
            raise DimensionError("nvars must be positive")
        return _build(nvars, (), (), None, 1)

    @classmethod
    def constant(cls, nvars, c):
        """The constant ``c``: one term, or none when ``c`` is 0."""
        if nvars < 1:
            raise DimensionError("nvars must be positive")
        a, b, d = _coerce_coeff(c).triple()
        if not (a or b):
            return _build(nvars, (), (), None, 1)
        return _build(nvars, (0,), (a,), (b,) if b else None, d)

    @classmethod
    def one(cls, nvars):
        return cls.constant(nvars, ONE)

    @classmethod
    def variable(cls, nvars, index):
        if not 0 <= index < nvars:
            raise IndexError(f"variable index {index} out of range for {nvars} vars")
        key = (1 << _WIDTH * nvars) - (1 << _WIDTH * index)
        return _build(nvars, (key,), (1,), None, 1)

    # -- structure ------------------------------------------------------------

    @property
    def nvars(self):
        return self._n

    @property
    def terms(self):
        """The canonical tuple of (exponent tuple, GaussianRational) pairs, built on each read."""
        den = self._den
        im = repeat(0) if self._im is None else self._im
        monomials = _monomials(self._keys, self._n)
        return tuple([(m, _reduced(a, b, den)) for m, a, b in zip(monomials, self._re, im)])

    def _coefficient_at(self, j):
        return _reduced(self._re[j], 0 if self._im is None else self._im[j], self._den)

    def is_zero(self):
        return not self._keys

    def __bool__(self):
        return bool(self._keys)

    def degree(self):
        """Total degree; ``None`` is the sentinel degree of the zero polynomial."""
        if not self._keys:
            return None
        return -(-self._keys[0] >> _WIDTH * self._n)

    def constant_term(self):
        if self._keys and not self._keys[-1]:
            return self._coefficient_at(-1)
        return ZERO

    def is_constant(self):
        return not self._keys or not self._keys[0]

    def is_unit_germ(self):
        """Invertible in the local ring at 0, i.e. nonzero constant term."""
        return bool(self._keys) and not self._keys[-1]

    def leading_coefficient(self):
        if not self._keys:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._coefficient_at(0)

    def coefficient(self, exps):
        exps = tuple(exps)
        if len(exps) == self._n and min(exps, default=0) >= 0:
            try:
                return self._coefficient_at(self._keys.index(_pack(exps)))
            except ValueError:
                pass
        return ZERO

    def monic(self):
        """Divide by the leading coefficient (canonical-order normalization)."""
        if not self._keys:
            return self
        a0, b0 = self._re[0], 0 if self._im is None else self._im[0]
        if a0 == self._den and not b0:
            return self
        # c_j / lc = (a_j + b_j*i) / (a0 + b0*i): D cancels
        return _divided(self._n, self._keys, self._re, self._im, 1, a0, b0, 1)

    def max_degree_in(self, var):
        return max((_exponent(k, var) for k in self._keys), default=0)

    # -- ring operations --------------------------------------------------------

    def _check_same_ring(self, other):
        if not isinstance(other, Polynomial):
            raise TypeError(f"expected Polynomial, got {type(other).__name__}")
        if self._n != other._n:
            raise DimensionError(
                f"operands have {self._n} and {other._n} variables"
            )

    def __add__(self, other):
        self._check_same_ring(other)
        return _combine(self, other, 1)

    def __sub__(self, other):
        self._check_same_ring(other)
        return _combine(self, other, -1)

    def __neg__(self):
        return _scaled(self._n, self._keys, self._re, self._im, self._den, -1, 0, 1)

    def __mul__(self, other):
        if other.__class__ is not Polynomial or other._n != self._n:
            self._check_same_ring(other)
        p, q, n = self, other, self._n
        if not p._keys or not q._keys:
            return Polynomial.zero(n)
        shift = _WIDTH * n
        _check_degree(-(-p._keys[0] >> shift) - (-q._keys[0] >> shift))
        if len(p._keys) > len(q._keys):
            p, q = q, p
        if len(p._keys) == 1:
            # a monomial shifts every key of q by the same amount: the order stays
            k1, a1, b1 = p._keys[0], p._re[0], 0 if p._im is None else p._im[0]
            keys = tuple([k1 + k for k in q._keys]) if k1 else q._keys
            if a1 == 1 and not b1 and p._den == 1:
                return _build(n, keys, q._re, q._im, q._den)
            return _scaled(n, keys, q._re, q._im, q._den, a1, b1, p._den)
        den = p._den * q._den
        if p._im is None and q._im is None:
            acc = {}
            get = acc.get
            right = list(zip(q._keys, q._re))
            for k1, a1 in zip(p._keys, p._re):
                for k2, a2 in right:
                    k = k1 + k2
                    acc[k] = get(k, 0) + a1 * a2
            return _collect(n, acc, None, den)
        re, im = {}, {}
        rget, iget = re.get, im.get
        right = list(zip(q._keys, q._re, repeat(0) if q._im is None else q._im))
        for k1, a1, b1 in zip(p._keys, p._re, repeat(0) if p._im is None else p._im):
            if b1:
                for k2, a2, b2 in right:
                    k = k1 + k2
                    re[k] = rget(k, 0) + a1 * a2 - b1 * b2
                    im[k] = iget(k, 0) + a1 * b2 + b1 * a2
            else:
                for k2, a2, b2 in right:
                    k = k1 + k2
                    re[k] = rget(k, 0) + a1 * a2
                    im[k] = iget(k, 0) + a1 * b2
        return _collect(n, re, im, den)

    def scale(self, c):
        a, b, d = _coerce_coeff(c).triple()
        if not (a or b):
            return Polynomial.zero(self._n)
        if a == d and not b:
            return self
        return _scaled(self._n, self._keys, self._re, self._im, self._den, a, b, d)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        out, base = None, self
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return Polynomial.one(self._n) if out is None else out

    def exact_divide(self, divisor):
        """Return ``q`` with ``divisor * q == self``; raise if no such q exists.

        Single-divisor division under grevlex, demanding a zero remainder.
        Let N and M be the numerators of ``self`` and ``divisor``,
        Gaussian-integer polynomials, and c the leading numerator of M.  If
        M divides N over Q(i), then c*N/M has coefficients in Z[i] (Gauss's
        lemma over the UFD Z[i]: N/M is an integral polynomial times
        content(N)/content(M), and content(M) divides c).  So in dividing
        c*N by M every leading coefficient of the remainder is a multiple
        of c in Z[i], and a step where it is not proves that M does not
        divide N.  The remainder's leading key comes off a heap; an entry
        whose term has cancelled is stale and skipped.  A term, once taken,
        never comes back: every term it adds is smaller.  The quotient is
        (c*N/M) * D_M / (c * D_N); a constant divisor only scales.

        The leading monomial x^f of M divides x^e when no field of
        low(e) - low(f) borrows, low(e) being the exponent fields of
        key(e): with the guard bit of every field set in low(e), which the
        field check keeps free, the guards all survive the subtraction.
        """
        self._check_same_ring(divisor)
        if divisor.is_zero():
            raise DivisibilityError("division by the zero polynomial")
        if self.is_zero():
            return self
        n = self._n
        ca, cb = divisor._re[0], 0 if divisor._im is None else divisor._im[0]
        if divisor.is_constant():
            # c*N/M is N
            return _divided(n, self._keys, self._re, self._im, self._den, ca, cb, divisor._den)
        low = (1 << _WIDTH * n) - 1
        guard = low // _FIELD << (_WIDTH - 1)
        lead = divisor._keys[0]
        lead_low = -lead & low
        heap = [-k for k in self._keys]  # ascending: a heap already
        quot_keys, quot_re, quot_im = [], [], []
        if self._im is None and divisor._im is None:
            rem = dict(zip(self._keys, self._re if ca == 1 else [a * ca for a in self._re]))
            tail = list(zip(divisor._keys[1:], divisor._re[1:]))
            while rem:
                m = -heappop(heap)
                r = rem.pop(m, None)
                if r is None:
                    continue
                q, s = divmod(r, ca)
                if s or (((-m & low) | guard) - lead_low) & guard != guard:
                    raise DivisibilityError("not an exact factor")
                qm = m - lead
                quot_keys.append(qm)
                quot_re.append(q)
                for dk, da in tail:
                    t = qm + dk
                    old = rem.get(t)
                    if old is None:
                        rem[t] = -q * da
                        heappush(heap, -t)
                    elif old := old - q * da:
                        rem[t] = old
                    else:
                        del rem[t]
        else:
            norm = ca * ca + cb * cb
            im = repeat(0) if self._im is None else self._im
            rem = {
                k: (a * ca - b * cb, a * cb + b * ca) for k, a, b in zip(self._keys, self._re, im)
            }
            im = repeat(0) if divisor._im is None else divisor._im[1:]
            tail = list(zip(divisor._keys[1:], divisor._re[1:], im))
            while rem:
                m = -heappop(heap)
                r = rem.pop(m, None)
                if r is None:
                    continue
                # r / c = r * conj(c) / |c|^2
                qa, sa = divmod(r[0] * ca + r[1] * cb, norm)
                qb, sb = divmod(r[1] * ca - r[0] * cb, norm)
                if sa or sb or (((-m & low) | guard) - lead_low) & guard != guard:
                    raise DivisibilityError("not an exact factor")
                qm = m - lead
                quot_keys.append(qm)
                quot_re.append(qa)
                quot_im.append(qb)
                for dk, da, db in tail:
                    t = qm + dk
                    pa, pb = qa * da - qb * db, qa * db + qb * da
                    old = rem.get(t)
                    if old is None:
                        rem[t] = (-pa, -pb)
                        heappush(heap, -t)
                    elif old[0] == pa and old[1] == pb:
                        del rem[t]
                    else:
                        rem[t] = (old[0] - pa, old[1] - pb)
        quot_im = tuple(quot_im) if quot_im else None
        return _divided(
            n, tuple(quot_keys), tuple(quot_re), quot_im, self._den, ca, cb, divisor._den
        )

    def partial_derivative(self, var_index):
        """Formal partial derivative with exact coefficients.

        Lowering e_var by one subtracts the same B^n - B^var from every key
        it applies to, so the order of the surviving terms stays.
        """
        n = self._n
        if not 0 <= var_index < n:
            raise IndexError(
                f"variable index {var_index} out of range for {n} vars"
            )
        step = (1 << _WIDTH * n) - (1 << _WIDTH * var_index)
        keys, re, im = [], [], []
        for k, a, b in zip(self._keys, self._re, repeat(0) if self._im is None else self._im):
            e = _exponent(k, var_index)
            if e:
                keys.append(k - step)
                re.append(a * e)
                im.append(b * e)
        return _make(n, tuple(keys), tuple(re), tuple(im), self._den)

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
        if len(point) != self._n:
            raise DimensionError(
                f"point has {len(point)} coordinates, expected {self._n}"
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
        return (
            self._n == other._n
            and self._keys == other._keys
            and self._re == other._re
            and self._im == other._im
            and self._den == other._den
        )

    def __hash__(self):
        return hash((self._n, self._keys, self._re, self._im, self._den))

    def __repr__(self):
        return f"Polynomial(nvars={self._n}, terms={self.terms!r})"


def _combine(p, q, sign):
    """p + sign * q, for sign = 1 or -1."""
    if not q._keys:
        return p
    if not p._keys:
        return q if sign > 0 else -q
    dp, dq = p._den, q._den
    den = dp if dp == dq else lcm(dp, dq)
    sp, sq = den // dp, sign * (den // dq)
    re = dict(zip(p._keys, p._re if sp == 1 else [a * sp for a in p._re]))
    get = re.get
    for k, a in zip(q._keys, q._re):
        re[k] = get(k, 0) + a * sq
    im = None
    if p._im is not None or q._im is not None:
        im = dict.fromkeys(re, 0)
        if p._im is not None:
            for k, b in zip(p._keys, p._im):
                im[k] = b * sp
        if q._im is not None:
            for k, b in zip(q._keys, q._im):
                im[k] += b * sq
    return _collect(p._n, re, im, den)


def _coeffs_in(p, var):
    """Coefficients of ``p`` as a univariate polynomial in ``var``.

    Index = power of ``var``; entries are polynomials (same ring) with zero
    exponent on ``var``.  Zeroing an exponent e of ``var`` subtracts
    e * (B^n - B^var) from the key, the same amount for every monomial of
    a bucket, so each bucket keeps p's order.
    """
    n = p._n
    step = (1 << _WIDTH * n) - (1 << _WIDTH * var)
    buckets = [([], [], []) for _ in range(p.max_degree_in(var) + 1)]
    for k, a, b in zip(p._keys, p._re, repeat(0) if p._im is None else p._im):
        e = _exponent(k, var)
        keys, re, im = buckets[e]
        keys.append(k - e * step)
        re.append(a)
        im.append(b)
    return [_make(n, tuple(k), tuple(r), tuple(i), p._den) for k, r, i in buckets]


def substitute(poly, args):
    """Exact substitution poly(args[0], ..., args[n-1]) of polynomials in one ring.

    The powers of each argument that poly needs are made in ascending
    order, each from the one below it by a power of the difference, so
    consecutive exponents cost one product each and x^(10^9) about 30.
    """
    nvars = args[0]._n
    monomials = _monomials(poly._keys, poly._n)
    powers = []
    for arg, needed in zip(args, zip(*monomials)):
        made = {0: Polynomial.one(nvars)}
        below = 0
        for e in sorted(set(needed) - {0}):
            made[e] = made[below] * arg ** (e - below)
            below = e
        powers.append(made)
    out = Polynomial.zero(nvars)
    im = repeat(0) if poly._im is None else poly._im
    for m, a, b in zip(monomials, poly._re, im):
        term = Polynomial.constant(nvars, _reduced(a, b, poly._den))
        for made, e in zip(powers, m):
            term = term * made[e]
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
        if f.is_unit_germ():
            raise NotAGermError("f has a nonzero constant term: f(0) != 0")
        if g.is_unit_germ():
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
