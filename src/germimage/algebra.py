"""Exact predicates on zero sets at the origin.

Multivariate gcd (a certified modular candidate, with recursive content /
primitive-part reduction and a subresultant polynomial remainder sequence
as the fallback), squarefree parts, the germ-inclusion test for zero sets
at 0, the gcd decomposition f = h*fhat, g = h*ghat, and the Jacobian rank
test.

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

The gcd only ever returns a gcd it has proved.  Univariate images in
F_P bound its degree in each variable; a candidate, found as 1, as an
argument, or by Brown's dense evaluation / interpolation scheme in F_P
(Brown, "On Euclid's algorithm and the computation of polynomial greatest
common divisors", JACM 1971; Geddes, Czapor & Labahn, *Algorithms for
Computer Algebra*, 1992, ch. 7) lifted to Q(i) by rational reconstruction
(Wang, Guy & Davenport, "p-adic reconstruction of rational numbers",
SIGSAM Bulletin 1982), is accepted only when it meets those bounds and
divides both arguments exactly.  Otherwise the content / PRS path runs,
so every gcd, and every verdict built on one, is the same either way.
The proof is in the docstring of ``gcd``.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass

from .errors import DivisibilityError, GcdUndefinedError, PreconditionError
from .poly import MapGerm, Polynomial, _descending_key
from .rationals import ONE, ZERO, GaussianRational, _canonical

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


# The modular path works in F_P with P = 119 * 2^23 + 1 = 1 mod 4, so that
# -1 has the square root IOTA (3 generates the units of F_P); i maps to IOTA.
_PRIME = 998_244_353
_IOTA = pow(3, (_PRIME - 1) // 4, _PRIME)
# The point at which every variable but one is put for a degree bound: x_k
# goes to _POINT[k], taken cyclically (digits of pi, e and the square roots
# of 2, 3, 5, 7).
_POINT = (314159265, 271828182, 141421356, 173205080, 223606797, 264575131)

# How often ``gcd`` ran the content / PRS path, by reason: "prime" (P
# divides a denominator, or an argument is 0 mod P), "no bound" (a shared
# variable whose images both lose degree), "no candidate" (the
# interpolation gave up, or no small rational fits a residue) and
# "certificate" (the candidate failed its degrees or its divisions).
_fallbacks = Counter()
# Images above the degree bounds that one interpolation skips before it
# gives up: past it the problem itself, an image of an unlucky point one
# level up, is taken to be unlucky.
_UNLUCKY_POINTS = 4


def _residues(p, iota):
    """{monomial: residue} of ``p`` in F_P under i -> iota, zeros dropped.

    None if P divides a denominator, or every residue is 0.
    """
    prime = _PRIME
    out = {}
    for m, c in p.terms:
        a, b, d = c.triple()
        r = a + b * iota
        if d != 1:
            if d % prime == 0:
                return None
            r *= pow(d, -1, prime)
        r %= prime
        if r:
            out[m] = r
    return out or None


def _image(residues, var, degree):
    """Coefficients by power of the image in F_P[x_var], trailing zeros dropped.

    Every variable but ``var`` is put at ``_POINT``.
    """
    coeffs = [0] * (degree + 1)
    for m, r in residues.items():
        for w, e in enumerate(m):
            if e and w != var:
                r = r * pow(_POINT[w % len(_POINT)], e, _PRIME) % _PRIME
        coeffs[m[var]] += r
    return _u_trim([c % _PRIME for c in coeffs])


# -- dense univariate arithmetic in F_P: lists by power, no trailing zeros --


def _u_trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _u_eval(a, x):
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % _PRIME
    return acc


def _u_mul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return [c % _PRIME for c in out]


def _u_gcd(a, b):
    """The monic gcd of two lists, [] when both are zero."""
    prime = _PRIME
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


def _u_gcd_many(lists):
    g = []
    for a in lists:
        g = _u_gcd(g, a)
        if len(g) == 1:
            break
    return g


def _u_quotient(a, b):
    """a / b for a list b that divides a."""
    prime = _PRIME
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


def _brown(a, b, bounds):
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
    variable, and is skipped, or has a larger leading monomial, and is
    skipped, unless it came first and a smaller one restarts the
    interpolation.  After ``_UNLUCKY_POINTS`` images above the bounds the
    problem itself is taken to be the image of an unlucky point one level
    up, and None is returned.  The answer is not proved here: ``gcd``
    certifies it over Q(i).
    """
    prime, k = _PRIME, len(bounds) - 1
    if k == 0:
        lists = []
        for r in (a, b):
            dense = [0] * (max(m[0] for m in r) + 1)
            for m, c in r.items():
                dense[m[0]] = c
            lists.append(dense)
        return {(e,): c for e, c in enumerate(_u_gcd(*lists)) if c}
    split = []
    for r in (a, b):
        by_rest = {}
        for m, c in r.items():
            dense = by_rest.setdefault(m[:k], [])
            if len(dense) <= m[k]:
                dense.extend([0] * (m[k] + 1 - len(dense)))
            dense[m[k]] = c
        content = _u_gcd_many(by_rest.values())
        if len(content) > 1:
            by_rest = {m: _u_quotient(dense, content) for m, dense in by_rest.items()}
        split.append((by_rest, content))
    (sa, ca), (sb, cb) = split
    content = _u_gcd(ca, cb)
    gamma = _u_gcd(sa[max(sa)], sb[max(sb)])
    need = len(gamma) + bounds[k]
    interp, lead, modulus, points, x, skipped = None, None, [1], 0, 0, 0
    while points < need:
        x += 1
        scale = _u_eval(gamma, x)
        if not scale:
            continue
        images = [{m: v for m, dense in s.items() if (v := _u_eval(dense, x))} for s in (sa, sb)]
        image = _brown(*images, bounds[:k])
        if image is None or any(max(m[j] for m in image) > bounds[j] for j in range(k)):
            skipped += 1
            if skipped > _UNLUCKY_POINTS:
                return None
            continue
        top = max(image)
        if not any(top):  # the primitive parts are coprime
            return {(0,) * k + (e,): c for e, c in enumerate(content) if c}
        if interp is not None and top > lead:
            continue
        scale = scale * pow(image[top], -1, prime) % prime
        if interp is None or top < lead:
            interp = {m: [v * scale % prime] for m, v in image.items()}
            lead, modulus, points = top, [prime - x, 1], 1
            continue
        at_x = pow(_u_eval(modulus, x), -1, prime)
        for m in interp.keys() | image.keys():
            old = interp.get(m, [])
            step = (image.get(m, 0) * scale - _u_eval(old, x)) * at_x % prime
            if step:
                old = old + [0] * (len(modulus) - len(old))
                interp[m] = [(c + step * d) % prime for c, d in zip(old, modulus)]
        modulus = _u_mul(modulus, [prime - x, 1])
        points += 1
    primitive = _u_gcd_many(interp.values())
    out = {}
    for m, dense in interp.items():
        for e, c in enumerate(_u_mul(_u_quotient(dense, primitive), content)):
            if c:
                out[m + (e,)] = c
    return out


def _rational(r):
    """(n, d) in lowest terms, n/d = r mod P, |n| and d <= sqrt(P/2), or None.

    Half of the extended Euclidean algorithm on (P, r) (Wang, Guy &
    Davenport 1982); such an n/d is unique when it exists.
    """
    bound = math.isqrt(_PRIME // 2)
    r0, r1, t0, t1 = _PRIME, r, 0, 1
    while r1 > bound:
        quot = r0 // r1
        r0, r1, t0, t1 = r1, r0 - quot * r1, t1, t0 - quot * t1
    if abs(t1) > bound or math.gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _modular_candidate(p, q, residues, degrees, bounds):
    """The grevlex-monic gcd of p, q in F_P, lifted to Q(i), or None.

    ``residues`` holds the residue dicts of p and q under i -> IOTA, and
    ``degrees`` their degrees in each variable.  When a coefficient is not
    real, the images under i -> -IOTA are taken too: a + b*i maps to
    a + b*IOTA and a - b*IOTA, which give a and b.  Variables are ordered
    by falling bound, so the univariate gcds run in the variable of
    highest degree and the fewest points are interpolated.  None when an
    argument is 0 mod P under i -> -IOTA, when the interpolation gives up,
    or when a residue has no small rational.
    """
    prime, n = _PRIME, p.nvars
    used = [v for v, ds in enumerate(zip(*degrees)) if any(ds)]
    order = sorted(used, key=lambda v: (-bounds[v], v))
    images = [residues]
    if not all(c.is_real() for r in (p, q) for _, c in r.terms):
        images.append((_residues(p, prime - _IOTA), _residues(q, prime - _IOTA)))
    lifted = []
    for rp, rq in images:
        if rp is None or rq is None:
            return None
        g = _brown(
            {tuple(m[v] for v in order): c for m, c in rp.items()},
            {tuple(m[v] for v in order): c for m, c in rq.items()},
            tuple(bounds[v] for v in order),
        )
        if g is None:
            return None
        full = {}
        for m, c in g.items():
            exps = [0] * n
            for v, e in zip(order, m):
                exps[v] = e
            full[tuple(exps)] = c
        inv = pow(full[min(full, key=_descending_key)], -1, prime)
        lifted.append({m: c * inv % prime for m, c in full.items()})
    plus = lifted[0]
    minus = lifted[-1]
    half, half_iota = pow(2, -1, prime), pow(2 * _IOTA, -1, prime)
    acc = {}
    for m in plus.keys() | minus.keys():
        cp, cm = plus.get(m, 0), minus.get(m, 0)
        re, im = _rational((cp + cm) * half % prime), _rational((cp - cm) * half_iota % prime)
        if re is None or im is None:
            return None
        # over the lcm of the lowest-terms denominators the triple is canonical
        d = math.lcm(re[1], im[1])
        acc[m] = _canonical(re[0] * (d // re[1]), im[0] * (d // im[1]), d)
    return Polynomial._trusted(n, acc)


def _degrees(p):
    """[deg_v p for every variable v] of a nonzero ``p``."""
    return [max(exps) for exps in zip(*(m for m, _ in p.terms))]


def _quotient(a, b):
    """a / b, or None when b does not divide a."""
    try:
        return a.exact_divide(b)
    except DivisibilityError:
        return None


def _certified(p, q):
    """``(h, p/h, q/h)`` with h = gcd(p, q) proved, for nonconstant p, q; else None.

    None counts its reason in ``_fallbacks``; the proof is in ``gcd``.
    """
    rp, rq = _residues(p, _IOTA), _residues(q, _IOTA)
    if rp is None or rq is None:
        _fallbacks["prime"] += 1
        return None
    degrees = _degrees(p), _degrees(q)
    bounds = []
    for v, (dp, dq) in enumerate(zip(*degrees)):
        if not (dp and dq):
            bounds.append(0)
            continue
        ip, iq = _image(rp, v, dp), _image(rq, v, dq)
        if len(ip) - 1 != dp and len(iq) - 1 != dq:
            _fallbacks["no bound"] += 1
            return None
        bounds.append(len(_u_gcd(ip, iq)) - 1)
    if not any(bounds):
        return Polynomial.one(p.nvars), p, q
    nominated = [pair for pair, ds in zip(((p, q), (q, p)), degrees) if ds == bounds]
    if nominated:
        # a gcd divides s and has the degrees of s only when it is s
        s, b = min(nominated, key=lambda pair: len(pair[0].terms))
        quotient = _quotient(b, s)
        if quotient is not None:
            lc = s.leading_coefficient()
            cofactors = Polynomial.constant(p.nvars, lc), quotient.scale(lc)
            return (s.monic(), *(cofactors if s is p else cofactors[::-1]))
    else:
        h = _modular_candidate(p, q, (rp, rq), degrees, bounds)
        if h is None:
            _fallbacks["no candidate"] += 1
            return None
        if (
            _degrees(h) == bounds
            and (p_hat := _quotient(p, h)) is not None
            and (q_hat := _quotient(q, h)) is not None
        ):
            return h, p_hat, q_hat
    _fallbacks["certificate"] += 1
    return None


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


def _prs_gcd(p, q):
    """gcd(p, q) of nonconstant p, q by recursive contents and a subresultant PRS."""
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


def _gcd_cofactors(p, q):
    """``(h, p/h, q/h)`` with h = gcd(p, q); see :func:`gcd`.

    The certified path divides both arguments by h as its proof, so the
    cofactors come with h; after a fallback they take two divisions.
    """
    if not isinstance(q, Polynomial) or not isinstance(p, Polynomial):
        raise TypeError("gcd expects Polynomial arguments")
    p._check_same_ring(q)
    if p.is_zero() and q.is_zero():
        raise GcdUndefinedError("gcd(0, 0) is undefined")
    if p.is_zero() or q.is_zero():
        h = (p or q).monic()
    elif p.is_constant() or q.is_constant():
        return Polynomial.one(p.nvars), p, q
    else:
        certified = _certified(p, q)
        if certified is not None:
            return certified
        h = _prs_gcd(p, q)
    return h, p.exact_divide(h), q.exact_divide(h)


def gcd(p, q):
    """The greatest common divisor of leading coefficient 1.

    ``gcd(p, 0)`` is the normalization of ``p``; both arguments zero is an
    error.  Over the field Q(i) a gcd is unique up to a nonzero constant,
    so the normalization makes it unique: gcd(q, p) is gcd(p, q) term for
    term, whichever path below computes either.

    Certified path.  For a variable v let phi_v: Z[i][x] -> F_P[x_v] send
    i to IOTA (IOTA^2 = -1 in F_P, as P = 1 mod 4) and every other
    variable to its coordinate of ``_POINT``; it is a ring map.  A
    coefficient (a + bi)/d maps to (a + b*IOTA)/d, which needs P not to
    divide d.  Let G = gcd(p, q).

    1. Degree bounds.  Scale p by the lcm of its denominators, a unit
       mod P, and G to a primitive polynomial of Z[i][x]; by Gauss's lemma
       over the UFD Z[i], p = G*A with A in Z[i][x].  If phi_v(p) keeps
       the degree of p in x_v, then deg_v G + deg_v A = deg_v p =
       deg phi_v(G) + deg phi_v(A) <= deg phi_v(G) + deg_v A, so
       deg_v G <= deg phi_v(G) <= e_v = deg gcd(phi_v(p), phi_v(q)), as
       phi_v(G) divides both images; likewise when phi_v(q) keeps its
       degree.  A variable that only one argument uses has e_v = 0, since
       G divides the other.
    2. Candidate H.  1 when every e_v is 0; else an argument whose
       degrees are the e_v, made monic (the one with fewer terms if both
       are; G divides it, so if it fails no H can pass); else Brown's dense
       evaluation / interpolation gcd in F_P[x] at the points 1, 2, 3, ...
       (Brown, JACM 1971), made grevlex-monic and lifted to Q(i) by
       rational reconstruction (Wang, Guy & Davenport 1982), from the
       images under i -> IOTA and, when a coefficient is not real,
       i -> -IOTA.
    3. Certificate.  H is returned only when deg_v H = e_v for every v and
       H divides p and q exactly over Q(i).

    Lemma: then H = G.  H is a common divisor, so H divides G, and
    deg_v G <= e_v = deg_v H for every v; so G/H is a constant, and both
    have leading coefficient 1.  How H was found plays no part in the
    proof, so the fixed points and the single prime cost at most a
    fallback, never a wrong gcd.

    Fallback.  When P divides a denominator or an argument, a shared
    variable has no bound (both images lose degree), no candidate is
    found (the interpolation gives up or reconstruction fails) or the
    certificate fails, the content / PRS path runs (recursive contents
    and a subresultant PRS in a main variable, whose content gcds call
    ``gcd``), and ``_fallbacks`` counts the reason.  Whether the fixed
    points always avoid the bad sets is not argued; the fallback is
    explicit instead, and its count is 0 on the benchmark pool, the
    corpus and the stress germs of the tests.
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
