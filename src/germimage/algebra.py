"""Exact predicates on zero sets at the origin.

Multivariate gcd (recursive content / primitive-part reduction with a
subresultant polynomial remainder sequence in a chosen main variable,
behind a modular screen that settles coprime pairs and divisors from one
image per variable in F_P[x_v]), squarefree parts, the germ-inclusion test for zero sets at 0, the gcd
decomposition f = h*fhat, g = h*ghat, and the Jacobian rank test.

No irreducible factorization anywhere: germ inclusion of zero sets is
decided by the gcd-stripping/constant-term trick.  Dividing ``p`` by its
common factors with ``q`` until none is left leaves exactly the factors
of ``p`` that do not divide ``q``; the rest is a unit at 0 exactly when
none of them passes through the origin.

Dimension convention: two hypersurface germs through 0 in C^n intersect in
dimension n-2 exactly when their equations share no factor vanishing at 0
(Krull height: the intersection has codimension at most 2 everywhere, and
codimension exactly 2 at 0 unless a common component passes through 0).
That reduces the dimension dichotomy to the constant term of gcd(f, g).

The modular screen (Brown, "On Euclid's algorithm and the computation of
polynomial greatest common divisors", JACM 1971; Geddes, Czapor & Labahn,
*Algorithms for Computer Algebra*, 1992, ch. 7) only ever returns a gcd it
has proved: 1 from a coprimality certificate, or a divisor confirmed by
exact division.  Otherwise the PRS path runs, so every gcd, and every
verdict built on one, is the same with or without it.  The proof is in
the docstring of ``gcd``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DivisibilityError, GcdUndefinedError, PreconditionError
from .poly import MapGerm, Polynomial
from .rationals import ONE, ZERO, GaussianRational

# ---------------------------------------------------------------------------
# univariate views: coefficient lists in a chosen main variable
# ---------------------------------------------------------------------------


def _coeffs_in(p, var):
    """Coefficients of ``p`` as a univariate polynomial in ``var``.

    Index = power of ``var``; entries are polynomials (same ring) with zero
    exponent on ``var``.  Zeroing the exponent of ``var`` in monomials that
    share it keeps their grevlex order, so each bucket is already canonical.
    """
    d = p.max_degree_in(var)
    buckets = [[] for _ in range(d + 1)]
    for m, c in p.terms:
        buckets[m[var]].append((m[:var] + (0,) + m[var + 1 :], c))
    return [Polynomial._ordered(p.nvars, tuple(b)) for b in buckets]


def _from_coeffs(coeffs, var, nvars):
    acc = {}
    for e, poly in enumerate(coeffs):
        for m, c in poly.terms:
            acc[m[:var] + (e,) + m[var + 1 :]] = c
    return Polynomial._trusted(nvars, acc)


def _trim(coeffs):
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


def _prem(a, b):
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a mod b, on coefficient lists."""
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    steps_left = len(a) - len(b) + 1
    while r and len(r) - 1 >= db:
        lr = r[-1]
        k = len(r) - 1 - db
        nxt = [lb * c if c else c for c in r]
        for i in range(db + 1):
            nxt[i + k] = nxt[i + k] - lr * b[i]
        nxt.pop()  # the top coefficient cancels exactly
        r = _trim(nxt)
        steps_left -= 1
    if steps_left > 0 and r:
        f = lb**steps_left
        r = [f * c for c in r]
    return r


def _subresultant_prs(a, b, nvars, to_end=False):
    """Run the subresultant PRS of lists a, b with deg a >= deg b.

    Returns ``(a, b, h, sign)`` for the last pair: ``b`` is constant when
    a, b are coprime, else the last nonzero member, whose primitive part is
    the gcd; ``h`` is the scale of the last step and ``sign`` the product
    of (-1)^(deg a_k * deg b_k) over the steps.  A constant last member is
    scaled exactly only ``to_end``, as the resultant needs.  All interior
    divisions are exact (Collins 1967; Brown & Traub 1971).
    """
    g = h = Polynomial.one(nvars)
    sign = 1
    while len(b) > 1:
        delta = len(a) - len(b)
        if (len(a) - 1) % 2 and (len(b) - 1) % 2:
            sign = -sign
        r = _prem(a, b)
        if not r:
            break
        if len(r) == 1 and not to_end:
            return b, r, h, sign
        divisor = g * h**delta
        a, b = b, [c.exact_divide(divisor) for c in r]
        g = a[-1]
        if delta > 0:
            h = (g**delta).exact_divide(h ** (delta - 1))
    return a, b, h, sign


def resultant(p, q, var):
    """Res_var(p, q), the Sylvester determinant, as a polynomial free of ``var``."""
    p._check_same_ring(q)
    if p.is_zero() or q.is_zero():
        return Polynomial.zero(p.nvars)
    a, b = _coeffs_in(p, var), _coeffs_in(q, var)
    sign = -1 if (len(a) - 1) % 2 and (len(b) - 1) % 2 and len(a) < len(b) else 1
    a, b = sorted((a, b), key=len, reverse=True)
    a, b, h, s = _subresultant_prs(a, b, p.nvars, to_end=True)
    if len(b) > 1:
        return Polynomial.zero(p.nvars)
    da = len(a) - 1
    res = (b[0] ** da).exact_divide(h ** max(da - 1, 0))
    return res if sign * s > 0 else -res


# ---------------------------------------------------------------------------
# gcd
# ---------------------------------------------------------------------------


def gcd_many(polys):
    """Iterated pairwise gcd of a sequence; zero entries are ignored."""
    nz = [p for p in polys if not p.is_zero()]
    if not nz:
        raise GcdUndefinedError("gcd of all-zero inputs is undefined")
    g = nz[0].monic()
    for p in nz[1:]:
        if g.is_constant():
            break
        g = gcd(g, p)
    return g


# The modular screen works in F_P with P = 119 * 2^23 + 1 = 1 mod 4, so that
# -1 has the square root IOTA (3 generates the units of F_P); i maps to IOTA.
_PRIME = 998_244_353
_IOTA = pow(3, (_PRIME - 1) // 4, _PRIME)
# The point at which every variable but one is put: x_k goes to _POINT[k],
# taken cyclically (digits of pi, e and the square roots of 2, 3, 5, 7).
_POINT = (314159265, 271828182, 141421356, 173205080, 223606797, 264575131)


def _residues(p):
    """The terms of ``p`` with coefficients mapped to F_P, or None if P divides a denominator."""
    out = []
    for m, c in p.terms:
        a, b, d = c.triple()
        r = a + b * _IOTA
        if d != 1:
            if d % _PRIME == 0:
                return None
            r *= pow(d, -1, _PRIME)
        out.append((m, r % _PRIME))
    return out


def _image(residues, var, degree):
    """Coefficients by power of the image in F_P[x_var], trailing zeros dropped.

    Every variable but ``var`` is put at ``_POINT``.
    """
    coeffs = [0] * (degree + 1)
    for m, r in residues:
        for w, e in enumerate(m):
            if e and w != var:
                r = r * pow(_POINT[w % len(_POINT)], e, _PRIME) % _PRIME
        coeffs[m[var]] += r
    coeffs = [c % _PRIME for c in coeffs]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _gcd_degree(a, b):
    """Degree of gcd(a, b) in F_P[x] for coefficient lists with nonzero tops (-1 if both are 0)."""
    while b:
        inv, db = pow(b[-1], -1, _PRIME), len(b) - 1
        a = list(a)
        while len(a) > db:
            t, k = a[-1] * inv % _PRIME, len(a) - 1 - db
            for i in range(db):
                a[k + i] = (a[k + i] - t * b[i]) % _PRIME
            a.pop()
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) - 1


def _modular_screen(p, q):
    """gcd(p, q) of nonconstant ``p``, ``q`` when one image per variable settles it, else None.

    For each variable v shared by p and q the screen maps both to F_P[x_v]
    (i to IOTA, the other variables to ``_POINT``).  If each pair of images
    is coprime and one of them keeps its x_v-degree, the gcd is 1.  If s,
    the argument with fewer terms, uses only variables of the other, b,
    keeps every x_v-degree and each image gcd has the x_v-degree of s, then
    s is nominated and returned exactly when it divides b.  Proof in the
    docstring of ``gcd``.
    """
    shared = [v for v in p.variables_used() if q.max_degree_in(v)]
    s_is_p = len(p.terms) <= len(q.terms)
    s, b = (p, q) if s_is_p else (q, p)
    nominate = len(shared) == len(s.variables_used())
    rp, rq = _residues(p), _residues(q)
    if rp is None or rq is None:
        return None
    coprime = True
    for v in shared:
        dp, dq = p.max_degree_in(v), q.max_degree_in(v)
        ip, iq = _image(rp, v, dp), _image(rq, v, dq)
        common = _gcd_degree(ip, iq)
        coprime = coprime and common == 0 and (len(ip) - 1 == dp or len(iq) - 1 == dq)
        ds, image_s = (dp, ip) if s_is_p else (dq, iq)
        nominate = nominate and common == ds == len(image_s) - 1
        if not (coprime or nominate):
            return None
    if coprime:
        return Polynomial.one(p.nvars)
    try:
        b.exact_divide(s)
    except DivisibilityError:
        return None
    return s.monic()


def _content_and_pp(p, var):
    cont = gcd_many(_coeffs_in(p, var))
    return cont, p.exact_divide(cont)


def _pick_main_var(p, q):
    shared = set(p.variables_used()) & set(q.variables_used())
    pool = shared or (set(p.variables_used()) | set(q.variables_used()))
    return min(
        pool,
        key=lambda v: (
            min(p.max_degree_in(v), q.max_degree_in(v)),
            p.max_degree_in(v) + q.max_degree_in(v),
            v,
        ),
    )


def gcd(p, q):
    """The greatest common divisor of leading coefficient 1.

    ``gcd(p, 0)`` is the normalization of ``p``; both arguments zero is an
    error.  Over the field Q(i) a gcd is unique up to a nonzero constant,
    so the normalization makes it unique: gcd(q, p) is gcd(p, q) term for
    term, whichever path below computes either.

    Every call, the recursive content gcds included, first goes through
    ``_modular_screen``.  For a variable v let phi_v: Z[i][x] -> F_P[x_v]
    send i to IOTA (IOTA^2 = -1 in F_P, as P = 1 mod 4) and every other
    variable to its coordinate of ``_POINT``; it is a ring map.  A
    coefficient (a + bi)/d maps to (a + b*IOTA)/d, which needs P not to
    divide d; scaling p by its denominators changes its images by a unit
    only.  Coprime certificate: let d = gcd(p, q), which by Gauss's lemma
    over the UFD Z[i] may be taken primitive in Z[i][x], with p = d*a and
    q = d*b in Z[i][x].  Suppose d is not constant; it then has positive
    degree in a variable v that p and q share.  Then phi_v(d) divides
    phi_v(p) and phi_v(q), which are coprime, so phi_v(d) is a constant;
    and if phi_v(p) keeps the degree of p in x_v, then
    deg_v p = deg phi_v(d) + deg phi_v(a) <= deg phi_v(d) + deg_v a, so
    deg_v d <= deg phi_v(d) = 0, a contradiction (likewise for q).  So if
    the images in every shared variable are coprime and one of each pair
    keeps its degree, the gcd is 1.  Divisor nomination: when s, the
    argument with fewer terms, looks like a divisor of the other, b, the
    screen returns s made monic exactly when ``b.exact_divide(s)``
    succeeds, for then gcd(s, b) = s.  In every other case, and whenever P
    divides a denominator, the screen steps aside and the content / PRS
    path below runs unchanged.  Either way the result is the same monic
    gcd.
    """
    if not isinstance(q, Polynomial) or not isinstance(p, Polynomial):
        raise TypeError("gcd expects Polynomial arguments")
    if p.is_zero() and q.is_zero():
        raise GcdUndefinedError("gcd(0, 0) is undefined")
    if p.is_zero():
        return q.monic()
    if q.is_zero():
        return p.monic()
    p._check_same_ring(q)
    if p.is_constant() or q.is_constant():
        return Polynomial.one(p.nvars)
    screened = _modular_screen(p, q)
    if screened is not None:
        return screened

    var = _pick_main_var(p, q)
    ca, pa = _content_and_pp(p, var)
    cb, pb = _content_and_pp(q, var)
    c = gcd(ca, cb)

    la = _coeffs_in(pa, var)
    lb = _coeffs_in(pb, var)
    if len(la) < len(lb):
        la, lb = lb, la
    if len(lb) == 1:
        # a primitive polynomial of degree 0 in the main variable is constant
        return c.monic()
    _, res, _, _ = _subresultant_prs(la, lb, p.nvars)
    if len(res) == 1:
        return c.monic()
    r = _from_coeffs(res, var, p.nvars)
    _, rp = _content_and_pp(r, var)
    return (rp * c).monic()


def squarefree_part(p):
    """``p`` divided by gcd(p, dp/dx_1, ..., dp/dx_n).

    Same zero set as ``p``, no repeated irreducible factors.
    """
    if p.is_zero():
        raise PreconditionError("squarefree part of the zero polynomial")
    g = gcd_many([p] + [p.partial_derivative(i) for i in range(p.nvars)])
    return p.exact_divide(g)


def _divide_out(p, c):
    """``p`` divided by the highest power of ``c`` that divides it.

    Galloping: divide by c, c^2, c^4, ... while the division is exact.
    When c^(2^j) fails, c^(2^j - 1) has come off and c divides what is
    left fewer than 2^j times, so one pass back down through the powers
    that divided takes the rest, as the binary digits of that count.
    Exact divisions number about 2 log2 of the multiplicity, not the
    multiplicity; a power of higher degree than what is left cannot
    divide it and is not tried.
    """
    powers = []
    power = c
    while power.degree() <= p.degree():
        try:
            p = p.exact_divide(power)
        except DivisibilityError:
            break
        powers.append(power)
        power = power * power
    for power in reversed(powers):
        if power.degree() <= p.degree():
            try:
                p = p.exact_divide(power)
            except DivisibilityError:
                pass
    return p


def _strip(p, common):
    """Is ``p``, freed of the factors of ``common``, a unit at 0?

    With common = gcd(p, q) the answer says whether the germ of Z(p) lies
    in that of Z(q), and so it does with p / common in place of p.  Divide
    the factors of ``common`` out of ``p`` as often as they divide
    (:func:`_divide_out`); every irreducible factor of what is left that
    divides ``q`` divides ``common``, so the next common factor is
    gcd(p, common), a proper divisor of ``common``.  The gcds therefore
    shrink, and their number is bounded by the degree of ``common``, not
    by the multiplicities in ``p``.  What is left keeps exactly the
    factors of ``p`` that do not divide ``q``, and passes through 0
    exactly when one of them does.  Factors away from the origin are
    irrelevant to the germ and may survive.

    Started at p / common instead of p, the loop runs as it does from p
    after its first division, which is always exact, so both starts give
    the same answer: ``classify`` starts from the cofactors of
    :func:`decompose`.
    """
    while not common.is_constant():
        p = _divide_out(p, common)
        common = gcd(p, common)
    return not p.constant_term().is_zero()


def zero_set_germ_included(p, q):
    """Is the germ at 0 of Z(p) included in the germ at 0 of Z(q)?

    True iff every irreducible factor of ``p`` vanishing at the origin
    divides ``q``.  The factors ``p`` shares with ``q`` are stripped off
    by :func:`_strip` from c = gcd(p, q), without building the squarefree
    part of ``p`` (n + 1 gcds of large arguments).  The top-level gcds
    number at most deg c + 1 whatever the multiplicities in ``p``, and the
    exact divisions grow with their logarithm: x^k·y against x·y makes as
    many gcds, recursive ones included, at k = 10 as at k = 1000.
    """
    if p.is_zero() or q.is_zero():
        raise PreconditionError("germ inclusion needs nonzero polynomials")
    p._check_same_ring(q)
    return _strip(p, gcd(p, q))


# ---------------------------------------------------------------------------
# roots in Q(i) of a univariate polynomial
# ---------------------------------------------------------------------------

_TRIAL_DIVISION_CAP = 10**5  # largest trial divisor of a norm or content
_QUOTIENT_CAP = 20_000  # most divisor pairs r | a_0, q | a_n tried


def _factor_into(primes, n, times):
    """Add the primes of n >= 1, ``times`` each, by trial division; False past the cap."""
    d = 2
    while d * d <= n:
        if d > _TRIAL_DIVISION_CAP:
            return False
        while n % d == 0:
            primes[d], n = primes.get(d, 0) + times, n // d
        d += 1
    if n > 1:
        primes[n] = primes.get(n, 0) + times
    return True


def _gaussian_divisors(z):
    """Divisors of a Gaussian integer z as int pairs, one per associate class, or None.

    From the primes p of N(z) = g^2 * N(z/g), g the integer content of z:
    p = 3 mod 4 stays prime in Z[i], else p = (a+bi)(a-bi), associates iff p = 2.
    """
    zr, zi, _ = z.triple()
    g, primes = math.gcd(zr, zi), {}
    if not (_factor_into(primes, g, 2) and _factor_into(primes, (zr // g) ** 2 + (zi // g) ** 2, 1)):
        return None
    out = [ONE]
    for p, e in primes.items():
        if p % 4 == 3:
            powers = [(GaussianRational(p), e // 2)]
        else:
            a = next(a for a in range(1, p) if math.isqrt(p - a * a) ** 2 == p - a * a)
            pi, k = GaussianRational(a, math.isqrt(p - a * a)), 0
            while (z / pi ** (k + 1)).triple()[2] == 1:
                k += 1
            powers = [(pi, k), (pi.conjugate(), e - k)] if p > 2 else [(pi, e)]
        for pi, k in powers:
            out = [d * pi**j for d in out for j in range(k + 1)]
    return [d.triple()[:2] for d in out]


def _vanishes_at(coeffs, r, q):
    """sum a_k r^k q^(n-k) == 0 by Horner, for Gaussian integers as int pairs, a_n first."""
    (xr, xi), (rr, ri), (qr, qi) = coeffs[0], r, q
    pr, pi = 1, 0
    for ar, ai in coeffs[1:]:
        pr, pi = pr * qr - pi * qi, pr * qi + pi * qr
        xr, xi = xr * rr - xi * ri + ar * pr - ai * pi, xr * ri + xi * rr + ar * pi + ai * pr
    return xr == xi == 0


def gaussian_rational_roots(p):
    """Split a nonzero univariate ``p`` into its roots in Q(i) and the rest.

    s = a_n*c^n + ... + a_0 is the squarefree part of p scaled to Gaussian
    integers without integer content.  Z[i] is a UFD, so a root r/q in
    lowest terms has r | a_0 and q | a_n (the rational-root theorem); each
    such quotient times a unit is tried exactly.  Returns ``(roots, rest)``
    with rest = s / prod(c - root), or None past either cap.
    """
    s = squarefree_part(p)
    triples = [c.triple() for _, c in s.terms]
    den = math.lcm(*(d for _, _, d in triples))
    content = math.gcd(*(x * (den // d) for a, b, d in triples for x in (a, b)))
    s = s.scale(GaussianRational(den) / content)
    roots = []
    if s.constant_term().is_zero():
        roots.append(ZERO)
        s = s.exact_divide(Polynomial.variable(1, 0))
    tops = _gaussian_divisors(s.leading_coefficient())
    bottoms = _gaussian_divisors(s.constant_term())
    if tops is None or bottoms is None or len(tops) * len(bottoms) > _QUOTIENT_CAP:
        return None
    coeffs = [s.coefficient((k,)) for k in range(s.degree(), -1, -1)]
    coeffs = [c.triple()[:2] for c in coeffs]
    for x, y in bottoms:
        for r in ((x, y), (-y, x), (-x, -y), (y, -x)):  # times each unit
            for q in tops:
                if _vanishes_at(coeffs, r, q):
                    root = GaussianRational(*r) / GaussianRational(*q)
                    if root not in roots:
                        roots.append(root)
                        s = s.exact_divide(Polynomial(1, {(1,): ONE, (0,): -root}))
    return tuple(roots), s


# ---------------------------------------------------------------------------
# gcd decomposition and the dimension dichotomy
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class GcdDecomposition:
    """f = h*f_hat, g = h*g_hat with h = gcd(f, g) monic and coprime cofactors."""

    h: Polynomial
    f_hat: Polynomial
    g_hat: Polynomial
    f_hat_is_unit: bool
    g_hat_is_unit: bool


def decompose(germ):
    """The :class:`GcdDecomposition` of ``germ``, with h = gcd(f, g) computed afresh."""
    return _decomposition(germ, gcd(germ.f, germ.g))


def _decomposition(germ, h):
    """The :class:`GcdDecomposition` of ``germ`` from h = gcd(f, g), already known.

    ``gcd`` returns the unique gcd of leading coefficient 1, so an h
    computed elsewhere, in either argument order, is the h of
    :func:`decompose` term for term.
    """
    f_hat = germ.f.exact_divide(h)
    g_hat = germ.g.exact_divide(h)
    return GcdDecomposition(
        h=h,
        f_hat=f_hat,
        g_hat=g_hat,
        f_hat_is_unit=f_hat.is_unit_germ(),
        g_hat_is_unit=g_hat.is_unit_germ(),
    )


class IntersectionCase(enum.Enum):
    CODIM_TWO = "CodimTwo"
    CODIM_ONE = "CodimOne"


def intersection_dimension_case(germ, dec):
    """Dimension of the germ of Z(f) n Z(g) at 0: n-2 iff h(0) != 0."""
    if dec.h.is_unit_germ():
        return IntersectionCase.CODIM_TWO
    return IntersectionCase.CODIM_ONE


# ---------------------------------------------------------------------------
# Jacobian rank
# ---------------------------------------------------------------------------


def jacobian_minor(germ, i, j):
    """The 2x2 minor df/dx_i * dg/dx_j - df/dx_j * dg/dx_i."""
    fi = germ.f.partial_derivative(i)
    fj = germ.f.partial_derivative(j)
    gi = germ.g.partial_derivative(i)
    gj = germ.g.partial_derivative(j)
    return fi * gj - fj * gi


def first_nonzero_minor(germ):
    """First (i, j) with a nonzero minor, with that minor, else None.

    Deterministic scan order: (0,1), (0,2), ..., (1,2), ...
    """
    fp = [germ.f.partial_derivative(i) for i in range(germ.n)]
    gp = [germ.g.partial_derivative(i) for i in range(germ.n)]
    for i in range(germ.n):
        for j in range(i + 1, germ.n):
            m = fp[i] * gp[j] - fp[j] * gp[i]
            if not m.is_zero():
                return (i, j), m
    return None


def jacobian_rank_deficient(germ):
    """All 2x2 Jacobian minors vanish identically (vacuously true for n = 1)."""
    return first_nonzero_minor(germ) is None
