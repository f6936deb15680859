"""Exact predicates on zero sets at the origin.

Multivariate gcd (one certified modular path), squarefree parts, the
germ-inclusion test for zero sets at 0, the gcd decomposition
f = h*fhat, g = h*ghat, the resultant (Poisson's formula, for a first
argument with a constant leading coefficient), and the Jacobian rank test.

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

The gcd only ever returns a gcd it has proved, and it has one path.  It
runs attempts, each in F_P for its own prime P = 1 mod 4 and at its own
point.  Univariate images in F_P bound the gcd's degree in each
variable; a candidate, found as 1, as an argument, or by Brown's dense
evaluation / interpolation scheme in F_P (Brown, "On Euclid's algorithm
and the computation of polynomial greatest common divisors", JACM 1971;
Geddes, Czapor & Labahn, *Algorithms for Computer Algebra*, 1992, ch. 7),
combined over the primes of the attempts by the Chinese remainder theorem
and lifted to Q(i) by rational reconstruction (Wang, Guy & Davenport,
"p-adic reconstruction of rational numbers", SIGSAM Bulletin 1982), is
accepted only when it meets those bounds and divides both arguments
exactly.  The docstring of ``gcd`` proves that the accepted candidate is
the gcd and that the attempts end.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

from .errors import DivisibilityError, GcdUndefinedError, PreconditionError
from .poly import MapGerm, Polynomial, _coeffs_in, _from_triples, _monomials, _pack
from .rationals import ONE, ZERO, GaussianRational

# ---------------------------------------------------------------------------
# the resultant
# ---------------------------------------------------------------------------


def _bareiss_det(m):
    """det of a square matrix of polynomials, by fraction-free elimination.

    After step k each entry right of and below the pivot is a (k+1)-minor
    of ``m`` (Bareiss, Math. Comp. 22, 1968), so the division by the
    previous pivot is exact.  ``m`` is overwritten.
    """
    sign, prev = 1, Polynomial.one(m[0][0].nvars)
    for k in range(len(m) - 1):
        pivot = next((i for i in range(k, len(m)) if m[i][k]), None)
        if pivot is None:
            return Polynomial.zero(prev.nvars)
        if pivot != k:
            m[k], m[pivot], sign = m[pivot], m[k], -sign
        top, pk = m[k][k + 1 :], m[k][k]
        for row in m[k + 1 :]:
            row[k + 1 :] = [
                (c * pk - row[k] * t if row[k] else c * pk).exact_divide(prev)
                for c, t in zip(row[k + 1 :], top)
            ]
        prev = pk
    return m[-1][-1] if sign > 0 else -m[-1][-1]


def resultant(p, q, var):
    """Res_var(p, q), the Sylvester determinant, as a polynomial free of ``var``.

    ``p`` must be free of ``var``, giving p^n (n = deg q in ``var``), or
    have a nonzero constant leading coefficient lc in ``var``; any other
    ``p`` is refused.  Then Res(p, q) = lc^n * det(m_q) (Poisson's
    formula): row k of the d x d matrix m_q, d = deg p, holds x^k * q mod p
    with x = ``var``, so det(m_q) is the product of q over the roots of p.
    As lc is constant, the reduction divides by no polynomial.
    """
    p._check_same_ring(q)
    if p.is_zero() or q.is_zero():
        return Polynomial.zero(p.nvars)
    a, r = _coeffs_in(p, var), _coeffs_in(q, var)
    d, n = len(a) - 1, len(r) - 1
    if not d:
        return p**n
    if not a[-1].is_constant():
        raise PreconditionError("resultant: p has a nonconstant leading coefficient")
    lc, zero = a[-1].leading_coefficient(), Polynomial.zero(p.nvars)
    # p / lc = x^d + sum c_j x^j: x^d = -sum c_j x^j mod p, over the nonzero c_j
    monic, rows = [(j, c.scale(ONE / lc)) for j, c in enumerate(a[:-1]) if c], []
    for _ in range(d):
        for k in reversed(range(len(r) - d)):
            top = r.pop()
            for j, c in monic if top else ():
                r[k + j] = r[k + j] - top * c
        rows.append(r + [zero] * (d - len(r)))
        r = [zero] + rows[-1]
    return _bareiss_det(rows).scale(lc**n)


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


# The modular path works in F_P for primes P = 1 mod 4, where -1 has a
# square root iota, to which i maps.  ``_PRIMES`` holds (P, iota) for the
# primes P = 1 mod 4 from 119 * 2^23 + 1 up, whose iota is 3^((P-1)/4) (3
# generates its units); ``_prime`` finds the others by trial division when
# an attempt first needs them.
_PRIMES = [(998_244_353, 911_660_635)]
# The base point at which every variable but one is put for a degree bound:
# x_k goes to _POINT[k], taken cyclically (digits of pi, e and the square
# roots of 2, 3, 5, 7); later attempts add points of the grid 1 + N^n to it.
_POINT = (314159265, 271828182, 141421356, 173205080, 223606797, 264575131)
# Images that one interpolation skips before it gives up, in the first
# attempt; each later attempt allows one more (see ``gcd``).
_UNLUCKY_POINTS = 4
# The largest degree in one variable that a dense image in F_P may have:
# ``_image`` and ``_brown`` hold lists of degree + 1 residues.
_DENSE_DEGREE = 1 << 20


def _check_dense(degree, var):
    """Refuse a dense image of ``degree`` in x_var before it is allocated."""
    if degree > _DENSE_DEGREE:
        raise PreconditionError(
            f"gcd: degree {degree} in variable {var + 1} exceeds {_DENSE_DEGREE}, "
            "the largest degree of a dense image in F_P"
        )


def _prime(attempt):
    """``(P, iota)`` of an attempt: its prime P = 1 mod 4 and iota^2 = -1 in F_P."""
    while len(_PRIMES) <= attempt:
        prime = _PRIMES[-1][0] + 4
        while any(prime % d == 0 for d in range(3, math.isqrt(prime) + 1, 2)):
            prime += 4
        # a non-residue c has c^((P-1)/2) = -1, so iota = c^((P-1)/4)
        c = next(c for c in range(2, prime) if pow(c, prime // 2, prime) == prime - 1)
        _PRIMES.append((prime, pow(c, prime // 4, prime)))
    return _PRIMES[attempt]


def _point(attempt, nvars):
    """The point of an attempt: ``_POINT`` plus the j-th point of the grid 0, 1 + N^nvars.

    j runs 0; 0, 1; 0, 1, 2; ... over the attempts, so every grid point
    recurs, each time with a new prime.  Point j > 0 is 1 plus the
    (j-1)-th point of N^nvars, whose bits are dealt round the coordinates:
    j = 1, 2, 3, ... meets every point of 1 + N^nvars once, and the first
    of them already moves every coordinate.
    """
    k = (math.isqrt(8 * attempt + 1) - 1) // 2 if attempt else 0
    j = attempt - k * (k + 1) // 2
    point = [_POINT[w % len(_POINT)] + (j > 0) for w in range(nvars)]
    j = max(j - 1, 0)
    for bit in range(j.bit_length()):
        point[bit % nvars] += (j >> bit & 1) << bit // nvars
    return point


def _residues(p, monomials, iota, prime):
    """{exponent tuple: residue} of ``p`` in F_P under i -> iota, zeros dropped.

    ``monomials`` lists the exponent tuples of p's terms.  The numerators
    share one denominator D, inverted once.  None if P divides D (so a
    denominator), or every residue is 0.
    """
    if p._den % prime == 0:
        return None
    inv, out = pow(p._den, -1, prime), {}
    im = itertools.repeat(0) if p._im is None else p._im
    for m, a, b in zip(monomials, p._re, im):
        r = (a + b * iota) * inv % prime
        if r:
            out[m] = r
    return out or None


def _image(residues, var, degree, point, prime):
    """Coefficients by power of the image in F_P[x_var], trailing zeros dropped.

    Every variable but ``var`` is put at its coordinate of ``point``.
    """
    coeffs = [0] * (degree + 1)
    for m, r in residues.items():
        for w, e in enumerate(m):
            if e and w != var:
                r = r * pow(point[w], e, prime) % prime
        coeffs[m[var]] += r
    return _u_trim([c % prime for c in coeffs])


# -- dense univariate arithmetic in F_P: lists by power, no trailing zeros --


def _u_trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _u_eval(a, x, prime):
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % prime
    return acc


def _u_mul(a, b, prime):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return [c % prime for c in out]


def _u_gcd(a, b, prime):
    """The monic gcd of two lists, [] when both are zero."""
    while b:
        if len(b) == 1:
            return [1]
        inv, db = pow(b[-1], -1, prime), len(b) - 1
        a = list(a)
        while len(a) > db:
            t, k = a[-1] * inv % prime, len(a) - 1 - db
            a[k : k + db] = [(c - t * d) % prime for c, d in zip(a[k : k + db], b)]
            a.pop()
            _u_trim(a)
        a, b = b, a
    if a and a[-1] != 1:
        inv = pow(a[-1], -1, prime)
        a = [c * inv % prime for c in a]
    return a


def _u_gcd_many(lists, prime):
    g = []
    for a in lists:
        g = _u_gcd(g, a, prime)
        if len(g) == 1:
            break
    return g


def _u_quotient(a, b, prime):
    """a / b for a list b that divides a."""
    if len(b) == 1:
        inv = pow(b[0], -1, prime)
        return [c * inv % prime for c in a]
    inv, db = pow(b[-1], -1, prime), len(b) - 1
    a, quot = list(a), [0] * (len(a) - db)
    for k in range(len(a) - 1 - db, -1, -1):
        t = quot[k] = a[k + db] * inv % prime
        if t:
            a[k : k + db] = [(c - t * d) % prime for c, d in zip(a[k : k + db], b)]
    return quot


# -- the candidate: Brown's dense evaluation / interpolation gcd in F_P -----


def _brown(a, b, bounds, prime, allowance):
    """A gcd in F_P[x_0, ..., x_k] of nonzero residue dicts, up to a unit; None if it gives up.

    Monomials are (k+1)-tuples.  Brown's scheme (JACM 1971) in the last
    variable: split off the contents in F_P[x_k], take gamma = gcd of the
    leading coefficients in lex order on x_0, ..., x_(k-1), and for
    x_k = 1, 2, 3, ... with gamma(x_k) != 0 take the gcd of the images in
    k variables, scaled to leading coefficient gamma(x_k), and interpolate
    it in x_k (Newton).  ``bounds[j]`` bounds deg_j of the wanted gcd, so
    deg gamma + bounds[k] + 1 points fix the interpolant, whose primitive
    part times the content gcd is returned.

    An image of a lucky point is the image of the wanted gcd.  An unlucky
    one is a proper multiple of it: it lies above ``bounds`` in some
    variable, or has a larger leading monomial and is skipped, unless it
    came first and a smaller one restarts the interpolation.  After
    ``allowance`` skipped images (above the bounds, above the lead, or
    given up one level down) it gives up, as it does when it runs out of
    F_P.  ``gcd`` proves what the answer can be, and certifies it over Q(i).
    """
    k = len(bounds) - 1
    if k == 0:
        lists = []
        for r in (a, b):
            dense = [0] * (max(m[0] for m in r) + 1)
            for m, c in r.items():
                dense[m[0]] = c
            lists.append(dense)
        return {(e,): c for e, c in enumerate(_u_gcd(*lists, prime)) if c}
    split = []
    for r in (a, b):
        by_rest = {}
        for m, c in r.items():
            dense = by_rest.setdefault(m[:k], [])
            if len(dense) <= m[k]:
                dense.extend([0] * (m[k] + 1 - len(dense)))
            dense[m[k]] = c
        content = _u_gcd_many(by_rest.values(), prime)
        if len(content) > 1:
            by_rest = {m: _u_quotient(dense, content, prime) for m, dense in by_rest.items()}
        split.append((by_rest, content))
    (sa, ca), (sb, cb) = split
    content = _u_gcd(ca, cb, prime)
    gamma = _u_gcd(sa[max(sa)], sb[max(sb)], prime)
    need = len(gamma) + bounds[k]
    interp, lead, modulus, points, x, skipped = None, None, [1], 0, 0, 0
    while points < need:
        x += 1
        if x == prime:
            return None
        scale = _u_eval(gamma, x, prime)
        if not scale:
            continue
        images = [{m: v for m, dense in s.items() if (v := _u_eval(dense, x, prime))} for s in (sa, sb)]
        image = _brown(*images, bounds[:k], prime, allowance)
        top = image and max(image)
        if (
            image is None
            or any(max(m[j] for m in image) > bounds[j] for j in range(k))
            or interp is not None and top > lead
        ):
            skipped += 1
            if skipped > allowance:
                return None
            continue
        if not any(top):  # the primitive parts are coprime
            return {(0,) * k + (e,): c for e, c in enumerate(content) if c}
        scale = scale * pow(image[top], -1, prime) % prime
        if interp is None or top < lead:
            interp = {m: [v * scale % prime] for m, v in image.items()}
            lead, modulus, points = top, [prime - x, 1], 1
            continue
        at_x = pow(_u_eval(modulus, x, prime), -1, prime)
        for m in interp.keys() | image.keys():
            old = interp.get(m, [])
            step = (image.get(m, 0) * scale - _u_eval(old, x, prime)) * at_x % prime
            if step:
                old = old + [0] * (len(modulus) - len(old))
                interp[m] = [(c + step * d) % prime for c, d in zip(old, modulus)]
        modulus = _u_mul(modulus, [prime - x, 1], prime)
        points += 1
    primitive = _u_gcd_many(interp.values(), prime)
    out = {}
    for m, dense in interp.items():
        for e, c in enumerate(_u_mul(_u_quotient(dense, primitive, prime), content, prime)):
            if c:
                out[m + (e,)] = c
    return out


def _rational(r, modulus):
    """(n, d) in lowest terms, n/d = r mod ``modulus``, |n| and d <= sqrt(modulus/2), or None.

    Half of the extended Euclidean algorithm on (modulus, r) (Wang, Guy &
    Davenport 1982); such an n/d is unique when it exists.
    """
    bound = math.isqrt(modulus // 2)
    r0, r1, t0, t1 = modulus, r, 0, 1
    while r1 > bound:
        quot = r0 // r1
        r0, r1, t0, t1 = r1, r0 - quot * r1, t1, t0 - quot * t1
    if abs(t1) > bound or math.gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _modular_image(p, q, monomials, residues, degrees, bounds, prime, iota, allowance):
    """``(key, image)`` of the grevlex-monic gcd of p, q in F_P, or None.

    ``monomials`` holds the exponent tuples of p and q, ``residues`` their
    residue dicts under i -> iota, and ``degrees`` their degrees in each
    variable.  When a coefficient is not real, the images under
    i -> -iota are taken too: a + b*i maps to a + b*iota and a - b*iota,
    so ``image`` maps each monomial to the residues (a, b).  Variables are
    ordered by falling bound, so the univariate gcds run in the variable
    of highest degree and the fewest points are interpolated; ``key`` is
    the larger leading monomial of the two gcds in lex order on that
    order.  None when p and q each lose a term mod P under i -> -iota or
    i -> iota, or an interpolation gives up.
    """
    n = p.nvars
    used = [v for v, ds in enumerate(zip(*degrees)) if any(ds)]
    for v in used:
        _check_dense(max(degrees[0][v], degrees[1][v]), v)
    order = sorted(used, key=lambda v: (-bounds[v], v))
    images = [residues]
    if p._im is not None or q._im is not None:
        conjugate = prime - iota
        images.append(tuple(_residues(r, m, conjugate, prime) for r, m in zip((p, q), monomials)))
    key, lifted = (), []
    for rp, rq in images:
        # an argument that keeps every term keeps the leading coefficients of the gcd
        if rp is None or rq is None or len(rp) < len(p._keys) and len(rq) < len(q._keys):
            return None
        g = _brown(
            {tuple(m[v] for v in order): c for m, c in rp.items()},
            {tuple(m[v] for v in order): c for m, c in rq.items()},
            tuple(bounds[v] for v in order),
            prime,
            allowance,
        )
        if g is None:
            return None
        key = max(key, max(g))
        full = {}
        for m, c in g.items():
            exps = [0] * n
            for v, e in zip(order, m):
                exps[v] = e
            full[tuple(exps)] = c
        inv = pow(full[max(full, key=_pack)], -1, prime)
        lifted.append({m: c * inv % prime for m, c in full.items()})
    plus, minus = lifted[0], lifted[-1]
    half, half_iota = pow(2, -1, prime), pow(2 * iota, -1, prime)
    image = {}
    for m in plus.keys() | minus.keys():
        cp, cm = plus.get(m, 0), minus.get(m, 0)
        image[m] = ((cp + cm) * half % prime, (cp - cm) * half_iota % prime)
    return key, image


def _lift(residues, modulus, nvars):
    """The polynomial whose coefficients a + b*i have the residues (a, b) mod ``modulus``.

    Each of a, b is the small rational of its residue; None when one has none.
    """
    triples = {}
    for m, (a, b) in residues.items():
        re, im = _rational(a, modulus), _rational(b, modulus)
        if re is None or im is None:
            return None
        # over the lcm of the lowest-terms denominators the triple is canonical
        d = math.lcm(re[1], im[1])
        triples[m] = re[0] * (d // re[1]), im[0] * (d // im[1]), d
    return _from_triples(nvars, triples)


def _degrees(monomials):
    """[the largest exponent of x_v in ``monomials`` for every variable v]."""
    return [max(exps) for exps in zip(*monomials)]


def _quotient(a, b):
    """a / b, or None when b does not divide a."""
    try:
        return a.exact_divide(b)
    except DivisibilityError:
        return None


def _certified(p, q):
    """``(h, p/h, q/h)`` with h = gcd(p, q), for nonconstant p, q; the proof is in ``gcd``."""
    n = p.nvars
    monomials = _monomials(p._keys, n), _monomials(q._keys, n)
    degrees = tuple(map(_degrees, monomials))
    bounds = [dp if dp < dq else dq for dp, dq in zip(*degrees)]
    seen = group = None
    for attempt in itertools.count():
        prime, iota = _prime(attempt)
        rp, rq = (_residues(r, m, iota, prime) for r, m in zip((p, q), monomials))
        if rp is None or rq is None:
            continue
        point = _point(attempt, n)
        for v, (dp, dq) in enumerate(zip(*degrees)):
            if bounds[v]:
                _check_dense(max(dp, dq), v)
                ip, iq = _image(rp, v, dp, point, prime), _image(rq, v, dq, point, prime)
                if len(ip) - 1 == dp or len(iq) - 1 == dq:
                    e = len(_u_gcd(ip, iq, prime)) - 1
                    if e < bounds[v]:
                        bounds[v] = e
        if not any(bounds):
            return Polynomial.one(n), p, q
        if bounds != seen:
            # new bounds order Brown's variables anew, and may nominate an argument
            seen, group = list(bounds), None
            nominated = [pair for pair, ds in zip(((p, q), (q, p)), degrees) if ds == bounds]
            if nominated:
                # a gcd divides s and has the degrees of s only when it is s
                s, b = min(nominated, key=lambda pair: len(pair[0]._keys))
                quotient = _quotient(b, s)
                if quotient is not None:
                    lc = s.leading_coefficient()
                    cofactors = Polynomial.constant(n, lc), quotient.scale(lc)
                    return (s.monic(), *(cofactors if s is p else cofactors[::-1]))
        if nominated:
            continue  # until the bounds fall below the degrees of s
        image = _modular_image(
            p, q, monomials, (rp, rq), degrees, bounds, prime, iota, _UNLUCKY_POINTS + attempt
        )
        if image is None:
            continue
        key, residues = image
        modulus = prime
        if group is not None and key > group[0]:
            continue
        if group is not None and key == group[0]:
            _, old, acc = group
            inv = pow(old, -1, prime)
            for m in acc.keys() | residues.keys():
                (a, b), (c, d) = acc.get(m, (0, 0)), residues.get(m, (0, 0))
                acc[m] = a + old * ((c - a) * inv % prime), b + old * ((d - b) * inv % prime)
            residues, modulus = acc, old * prime
        group = key, modulus, residues
        h = _lift(residues, modulus, n)
        if (
            h is not None
            and _degrees(_monomials(h._keys, n)) == bounds
            and (p_hat := _quotient(p, h)) is not None
            and (q_hat := _quotient(q, h)) is not None
        ):
            return h, p_hat, q_hat


def _gcd_cofactors(p, q):
    """``(h, p/h, q/h)`` with h = gcd(p, q); see :func:`gcd`.

    The certificate divides both arguments by h, so the cofactors come
    with h.
    """
    if not isinstance(q, Polynomial) or not isinstance(p, Polynomial):
        raise TypeError("gcd expects Polynomial arguments")
    p._check_same_ring(q)
    if p.is_zero() and q.is_zero():
        raise GcdUndefinedError("gcd(0, 0) is undefined")
    if p.is_zero() or q.is_zero():
        h = (p or q).monic()
        return h, p.exact_divide(h), q.exact_divide(h)
    if p.is_constant() or q.is_constant():
        return Polynomial.one(p.nvars), p, q
    return _certified(p, q)


def gcd(p, q):
    """The greatest common divisor of leading coefficient 1.

    ``gcd(p, 0)`` is the normalization of ``p``; both arguments zero is an
    error.  Over the field Q(i) a gcd is unique up to a nonzero constant,
    so the normalization makes it unique: gcd(q, p) is gcd(p, q) term for
    term.

    One path, in attempts t = 0, 1, 2, ...  Attempt t works in F_P for the
    t-th prime P = 1 mod 4 from 998244353 up (``_prime``), with i mapped
    to a square root iota of -1 in F_P, and at the point X_t = ``_POINT``
    plus 0 or a point of the grid 1 + N^n (``_point``).  For a variable v let
    phi_v: Z[i][x] -> F_P[x_v] send i to iota and every other variable to
    its coordinate of X_t; it is a ring map.  A coefficient (a + bi)/d
    maps to (a + b*iota)/d, which needs P not to divide d; an attempt
    whose P divides a denominator, or all of p or of q, is skipped.
    Let G = gcd(p, q), and p', q', G' primitive polynomials of Z[i][x]
    that are scalar multiples of p, q, G.  By Gauss's lemma over the UFD
    Z[i], p' = G'A and q' = G'B with coprime A, B in Z[i][x].

    1. Degree bounds.  e_v starts at min(deg_v p, deg_v q), so e_v = 0
       for a variable that only one argument uses.  If phi_v(p) keeps the
       degree of p in x_v, then deg_v G + deg_v A = deg_v p =
       deg phi_v(G) + deg phi_v(A) <= deg phi_v(G) + deg_v A, so
       deg_v G <= deg phi_v(G) <= deg gcd(phi_v(p), phi_v(q)), as phi_v(G)
       divides both images; likewise when phi_v(q) keeps its degree.
       Each attempt lowers e_v to that degree when it is smaller, so
       deg_v G <= e_v at every attempt.
    2. Candidate H.  1 when every e_v is 0; else an argument whose
       degrees are the e_v, made monic (the one with fewer terms if both
       are; G divides it, so if it fails no H can pass until an e_v
       falls); else Brown's dense evaluation / interpolation gcd in F_P
       (``_brown``) of the images under i -> iota and, when a coefficient
       is not real, i -> -iota, made grevlex-monic, with its key, the
       lex-leading monomial in Brown's variable order.  Brown's rule,
       which ``_brown`` applies to points, applies to attempts: an image
       of a smaller key, or new bounds, restart the combination, one of a
       larger key is skipped, and one of equal key is combined with it by
       the Chinese remainder theorem.  H is read off the combination
       modulo the product M of its primes by rational reconstruction
       (Wang, Guy & Davenport 1982).
    3. Certificate.  H is returned only when deg_v H = e_v for every v and
       H divides p and q exactly over Q(i).

    Lemma: then H = G.  H is a common divisor, so H divides G, and
    deg_v G <= e_v = deg_v H for every v; so G/H is a constant, and both
    have leading coefficient 1.  How H was found plays no part in the
    proof, so the primes and points cost attempts, never a wrong gcd.

    Brown's answer never undercuts.  Let g = gcd(a, b) in F_P[x_0..x_k]
    and w a divisor of g with deg_j w <= bounds[j] for every j; then
    ``_brown(a, b, bounds)`` gives up, returns w up to a unit, or returns
    a polynomial of larger lex-leading monomial than w.  By induction on
    k: at k = 0 it returns g.  Else let h_w be the primitive part of w in
    x_k and T its leading monomial; at a point y with gamma(y) != 0 the
    leading coefficient of h_w, which divides gamma, survives, and h_w(y)
    divides the gcd of the images, so by induction each image is skipped,
    is h_w(y) up to a unit, or has a leading monomial above T.  So the
    lead is never below T (an image led by 1 ends the level, with T = 1).
    Above T, the answer leads with the lead, since the coefficient there
    interpolates gamma, of degree below the number of points.  At T, every
    kept image is that of gamma*h_w/lc(h_w), of degree below the number
    of points in x_k, so the interpolation gives h_w, and the answer, h_w
    times the content of g, is w up to a unit or leads above it.  Take
    w = G' mod P, which divides both images and has deg_j w <= deg_j G <=
    e_j.  An attempt that is not skipped has p or q keep all its terms
    mod P, so the lex- and grevlex-leading coefficients of G', which
    divide theirs, survive: every image has a key at least K, that of G,
    and an image of key K is G mod P.  No other image is ever combined
    with one of key K, and once one arrives only new bounds restart it.

    Termination: the loop ends for every pair of nonconstant p, q over
    Q(i) (``_gcd_cofactors`` settles zero and constant arguments).  Each
    attempt ends, since a level of Brown tries fewer than P points.  Call
    an attempt good if it is not skipped, gcd(p' mod P, q' mod P) is
    G' mod P, and Brown returns it.  Four kinds of bad attempt are finite:
    (a) Bad primes.  P divides a denominator of p or q, or both p and q
        lose a term mod P under i -> iota or i -> -iota, or P divides a
        resultant of A and B in some variable, a nonzero element of Z[i]
        (so the gcd mod P is larger), or P is not larger than the number
        of points a level of Brown may try: finitely many primes, each
        used once.
    (b) Bad points.  e_v falls to deg_v G unless X_t is a root mod P of
        R_v = lc_v(p') lc_v(q') Res_v(A, B) (Res_v read as 1 when A or B
        is free of x_v), a nonzero polynomial over Z[i] in the other
        variables.  It does not vanish on all of _POINT + 1 + N^n, so at
        some grid point X it is a nonzero element of Z[i]; X recurs with
        infinitely many primes, of which finitely many divide R_v(X).  So
        after finitely many attempts e_v = deg_v G for every v, and the
        bounds never change again.  The point varies with the attempt, so
        a point where R_v vanishes over Q(i) costs attempts, not primes.
    (c) Unlucky Brown points.  At a good P, a level of Brown skips an
        image only at an unlucky point: a root of gamma is passed over,
        and at any other point the image of a lucky one is exact by
        induction.  Unlucky points are roots of a leading coefficient or
        of a resultant of the level's coprime cofactors in one variable,
        at most D of them, where D depends on the degrees of p and q and
        not on P (Brown 1971).  So no fixed count of skips is justified:
        attempt t allows _UNLUCKY_POINTS + t, which no good P exhausts
        from t = D on, and a give-up before counts as a bad attempt.
    (d) A modulus too small.  After the last bad attempt of (a)-(c) and
        the last change of the bounds, every attempt adds G mod P to the
        combination of key K.  Once M > 2N^2, N the largest numerator or
        denominator of a real or imaginary part of a coefficient of G,
        reconstruction returns G, which meets the certificate.
    """
    return _gcd_cofactors(p, q)[0]


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
    # the numerators over the common denominator, freed of their content
    content = math.gcd(*s._re, *(s._im or ()))
    s = s.scale(GaussianRational(s._den) / content)
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
    """The :class:`GcdDecomposition` of ``germ``, with h = gcd(f, g) computed afresh.

    The cofactors are those of :func:`_gcd_cofactors`: the certified gcd
    has divided f and g by h already, so they are not divided again.
    """
    return _from_cofactors(*_gcd_cofactors(germ.f, germ.g))


def _decomposition(germ, h):
    """The :class:`GcdDecomposition` of ``germ`` from h = gcd(f, g), already known.

    ``gcd`` returns the unique gcd of leading coefficient 1, so an h
    computed elsewhere, in either argument order, is the h of
    :func:`decompose` term for term.
    """
    return _from_cofactors(h, germ.f.exact_divide(h), germ.g.exact_divide(h))


def _from_cofactors(h, f_hat, g_hat):
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
