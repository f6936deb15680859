"""Differential tests against sympy (test-only; sympy is optional).

Factors are taken over the coefficient field of the input, Q or Q(i).
gcds, squarefree parts and the constancy locus C of the cofactor pencil do
not change under a field extension, so the factors over that field are a
sound oracle for all three.  Resultants are checked against
``sympy.resultant``, roots in Q(i) against ``Poly.ground_roots`` over
QQ<I>, and image curves against a lex Groebner basis of the graph ideal.
"""

import random
from fractions import Fraction

import pytest

from germimage import algebra
from germimage.algebra import (
    _gcd_cofactors,
    decompose,
    gaussian_rational_roots,
    gcd,
    resultant,
    squarefree_part,
)
from germimage.classifier import _order_layers, pencil_constancy_locus
from germimage.errors import DivisibilityError, PreconditionError
from germimage.groebner import image_curve_equation
from germimage.poly import MapGerm, Polynomial, substitute
from germimage.rationals import GaussianRational

from _helpers import compose_case, factor_pool, four_variable_pool, gcd_pair, poly_subs

sympy = pytest.importorskip("sympy")
from sympy.polys.orderings import grevlex  # noqa: E402
from sympy.polys.polyutils import dict_from_expr  # noqa: E402

GENS = sympy.symbols("x y z")
TARGET = sympy.symbols("u v")


def to_sympy(p, gens=GENS):
    expr = sympy.Integer(0)
    for m, c in p.terms:
        coeff = sympy.Rational(c.re.numerator, c.re.denominator) + sympy.I * sympy.Rational(
            c.im.numerator, c.im.denominator
        )
        expr += coeff * sympy.Mul(*(g**e for g, e in zip(gens, m)))
    return expr


def monic(expr):
    """Canonical associate: sympy's monic polynomial over Q(i)."""
    return sympy.Poly(expr, *GENS, domain="QQ_I").monic()


def factors(expr):
    """{monic irreducible factor: multiplicity} from ``sympy.factor_list``."""
    _, pairs = sympy.factor_list(sympy.expand(expr), *GENS)
    out = {}
    for fac, mult in pairs:
        key = monic(fac)
        out[key] = out.get(key, 0) + mult
    return out


def product(facs):
    return sympy.Mul(*(fac.as_expr() ** mult for fac, mult in facs.items()))


def test_gcd_and_squarefree_part_match_factor_list():
    rng = random.Random(2024)
    pool = factor_pool()
    for _ in range(25):
        p, q, _ = compose_case(rng, pool, max_factors=3)
        fp, fq = factors(to_sympy(p)), factors(to_sympy(q))
        common = {fac: min(m, fq[fac]) for fac, m in fp.items() if fac in fq}
        assert monic(to_sympy(gcd(p, q))) == monic(product(common))
        assert monic(to_sympy(squarefree_part(p))) == monic(product(dict.fromkeys(fp, 1)))


def test_screened_gcd_matches_sympy_gcd():
    """gcd over Q(i) in 3 and 4 variables, in both argument orders."""
    rng = random.Random(21)
    gens = sympy.symbols("x y z w")
    pools = {3: [fac for fac, _ in factor_pool()], 4: four_variable_pool()}
    pairs = [gcd_pair(rng, pools[n], n) for n in (3, 4) for _ in range(15)]
    expected = [
        sympy.Poly(sympy.gcd(to_sympy(p, gens), to_sympy(q, gens)), *gens, domain="QQ_I").monic()
        for p, q in pairs
    ]

    def ours(swap):
        return [
            sympy.Poly(to_sympy(gcd(*((q, p) if swap else (p, q))), gens), *gens, domain="QQ_I").monic()
            for p, q in pairs
        ]

    assert ours(False) == expected
    assert ours(True) == expected


def test_certified_gcd_and_cofactors_match_sympy(monkeypatch):
    """The certified gcd and its cofactors against sympy's gcd over QQ_I."""
    rng = random.Random(15)
    gens = sympy.symbols("x y z w")
    pools = {3: [fac for fac, _ in factor_pool()], 4: four_variable_pool()}
    pairs = [gcd_pair(rng, pools[n], n) for n in (3, 4) for _ in range(30)]
    made = []
    real = algebra._lift

    def spy(*args):
        made.append(real(*args))
        return made[-1]

    monkeypatch.setattr(algebra, "_lift", spy)
    certified = [_gcd_cofactors(p, q) for p, q in pairs]
    for (p, q), (h, p_hat, q_hat) in zip(pairs, certified):
        assert h * p_hat == p and h * q_hat == q
        expected = sympy.gcd(to_sympy(p, gens), to_sympy(q, gens))
        assert sympy.Poly(to_sympy(h, gens), *gens, domain="QQ_I").monic() == sympy.Poly(
            expected, *gens, domain="QQ_I"
        ).monic()
    # the pairs reach all three candidates: 1, an argument made monic, Brown's
    hs = [h for h, _, _ in certified]
    assert any(h.is_constant() for h in hs)
    assert any(h in (p.monic(), q.monic()) and not h.is_constant() for h, (p, q) in zip(hs, pairs))
    assert made and all(h is not None for h in made)


def _random_polynomial(rng, n, terms, height, gaussian):
    acc = {}
    while len(acc) < terms:
        m = tuple(rng.randint(0, 2) for _ in range(n))
        acc[m] = GaussianRational(rng.randint(-height, height), rng.randint(-height, height) if gaussian else 0)
    return Polynomial(n, acc)


def test_gcds_beyond_one_prime_match_sympy(monkeypatch):
    """Monic gcds whose coefficients pass one prime's reconstruction bound, sqrt(P/2) ~ 22341.

    h times coprime cofactors, with coefficients of h up to 2^15 ... 2^100
    in 2 to 4 variables, real and Gaussian, and w = x + 30026*y: each gcd
    combines the images of several primes.  It matches sympy, does not
    depend on the argument order, and comes with the exact cofactors.
    """
    rng = random.Random(22)
    gens = sympy.symbols("x y z w")
    x, y = (Polynomial.variable(2, k) for k in range(2))
    w = x + y.scale(30026)
    cases = [(w, x * x + y + Polynomial.one(2), x - y.scale(3))]
    for bits in (15, 31, 64, 100):
        for n in (2, 3, 4):
            for gaussian in (False, True):
                h = _random_polynomial(rng, n, 3, 2**bits, gaussian)
                while True:
                    a = _random_polynomial(rng, n, 3, 3, False)
                    b = _random_polynomial(rng, n, 2, 3, gaussian)
                    if sympy.gcd(to_sympy(a, gens), to_sympy(b, gens)) == 1:
                        break
                cases.append((h, a, b))
    moduli = []
    real = algebra._lift

    def spy(residues, modulus, nvars):
        moduli.append(modulus)
        return real(residues, modulus, nvars)

    monkeypatch.setattr(algebra, "_lift", spy)
    for h, a, b in cases:
        p, q = h * a, h * b
        moduli.clear()
        g = gcd(p, q)
        assert max(moduli) > algebra._PRIMES[0][0]
        assert g.terms == gcd(q, p).terms
        assert _gcd_cofactors(p, q) == (g, p.exact_divide(g), q.exact_divide(g))
        expected = sympy.gcd(to_sympy(p, gens), to_sympy(q, gens))
        assert sympy.Poly(to_sympy(g, gens), *gens, domain="QQ_I").monic() == sympy.Poly(
            expected, *gens, domain="QQ_I"
        ).monic()
        assert g == h.monic()


def _pencil_case(rng, pool):
    """Factor lists of h, p, q for f = h*p, g = h*q, or None if p, q share one.

    Each list has a factor through 0 and maybe one more pool factor; h may
    repeat a factor, so that h_bar differs from h.
    """
    through = [fac for fac, at_zero in pool if at_zero]
    parts = []
    for _ in range(3):
        facs = [rng.choice(through)]
        if rng.random() < 0.6:
            facs.append(rng.choice(pool)[0])
        parts.append(facs)
    h_facs, p_facs, q_facs = parts
    if set(p_facs) & set(q_facs):
        return None
    if rng.random() < 0.3:
        h_facs.append(h_facs[0])
    return h_facs, p_facs, q_facs


def _prod(facs):
    out = Polynomial.one(3)
    for fac in facs:
        out = out * fac
    return out


def test_constancy_locus_matches_factor_list():
    """C is the product of the factors of h_bar that divide every minor."""
    rng = random.Random(7)
    pool = factor_pool()
    seen_open = seen_closed = seen_away = seen_unequal = 0
    checked = 0
    while checked < 20:
        case = _pencil_case(rng, pool)
        if case is None:
            continue
        h, p, q = (_prod(facs) for facs in case)
        checked += 1
        # a factor of h in a cofactor has ord f != ord g: a piece with p != q
        seen_unequal += bool(set(case[0]) & set(case[1] + case[2]))
        sh, sp, sq = to_sympy(h), to_sympy(p), to_sympy(q)
        h_bar = product(dict.fromkeys(factors(sh), 1))
        omega = [sq * sympy.diff(sp, v) - sp * sympy.diff(sq, v) for v in GENS]
        dh = [sympy.diff(h_bar, v) for v in GENS]
        minors = [
            sympy.Poly(sympy.expand(omega[i] * dh[j] - omega[j] * dh[i]), *GENS, domain="QQ_I")
            for i in range(3)
            for j in range(i + 1, 3)
        ]
        expected = {
            fac: 1
            for fac in factors(h_bar)
            if all(minor.rem(fac).is_zero for minor in minors)
        }
        c = pencil_constancy_locus(decompose(MapGerm(h * p, h * q)))
        assert monic(to_sympy(c)) == monic(product(expected))
        if c.constant_term().is_zero():
            seen_closed += 1
        else:
            seen_open += 1
            seen_away += not c.is_constant()
    # both outcomes occur, C(0) != 0 also with a component away from 0, and
    # some h_bar has a piece with p != q
    assert seen_open and seen_closed and seen_away and seen_unequal


def test_order_layers_match_factor_list():
    """Layer k of the gcd ladder is the product of the factors of multiplicity k."""
    rng = random.Random(11)
    pool = factor_pool()
    for _ in range(10):
        f, _, _ = compose_case(rng, pool, max_factors=3)
        f = f * rng.choice(pool)[0] ** rng.randint(2, 3)
        h_bar = squarefree_part(f)
        by_order = {}
        for fac, mult in factors(to_sympy(f)).items():
            by_order.setdefault(mult, {})[fac] = 1
        layers = _order_layers(h_bar, f)
        assert len(layers) == max(by_order)
        for k, layer in enumerate(layers, 1):
            assert monic(to_sympy(layer)) == monic(product(by_order.get(k, {})))


def _random_poly(rng, nvars, degree, terms):
    acc = {}
    for _ in range(terms):
        m = [0] * nvars
        for _ in range(rng.randint(0, degree)):
            m[rng.randrange(nvars)] += 1
        acc[tuple(m)] = GaussianRational(rng.randint(-3, 3), rng.choice([0, 0, rng.randint(-2, 2)]))
    return Polynomial(nvars, acc)


def _in_var_below(rng, nvars, var, below):
    """A random polynomial whose degree in ``var`` is below ``below``."""
    p = _random_poly(rng, nvars, rng.randint(1, 4), rng.randint(1, 5))
    return Polynomial(nvars, [(m, c) for m, c in p.terms if m[var] < below])


def _constant_lead(rng, nvars, var):
    """A random polynomial with a nonzero constant leading coefficient in ``var``."""
    d = rng.randint(1, 3)
    lc = rng.choice([1, -2, GaussianRational(1, 1), GaussianRational(0, 3)])
    return (Polynomial.variable(nvars, var) ** d).scale(lc) + _in_var_below(rng, nvars, var, d)


def test_resultant_matches_sympy():
    """Res_var(p, q) equals sympy's, zero exactly when p and q share a factor in var.

    ``p`` is in the domain ``resultant`` accepts: a constant leading
    coefficient in ``var``, or free of ``var``.  The cases cycle through
    both arguments in that domain (so the swap sign is checked too), a
    general ``q``, a common factor (a zero resultant) and a ``p`` free of
    ``var``.  ``sympy.resultant`` is called with the operand of higher
    degree first; with the lower one first it returns the same value, not
    (-1)^(m*n) times it, so the swap sign is checked on our side.
    """
    rng = random.Random(11)
    seen = {"cases": 0, "zero": 0, "free": 0, "swapped": 0}
    for case in range(60):
        nvars = rng.choice([1, 2, 3])
        var = rng.randrange(nvars)
        p = _constant_lead(rng, nvars, var)
        q = _random_poly(rng, nvars, rng.randint(1, 4), rng.randint(1, 5))
        if case % 4 == 0:
            q = _constant_lead(rng, nvars, var)
        elif case % 4 == 2:
            common = _constant_lead(rng, nvars, var)
            p, q = p * common, q * common
        elif case % 4 == 3:
            p = _in_var_below(rng, nvars, var, 1)
        if p.is_zero() or q.is_zero():
            continue
        m, n = p.max_degree_in(var), q.max_degree_in(var)
        res = resultant(p, q, var)
        if m >= n:
            expected = sympy.resultant(to_sympy(p), to_sympy(q), GENS[var])
        else:
            expected = (-1) ** (m * n) * sympy.resultant(to_sympy(q), to_sympy(p), GENS[var])
        assert sympy.expand(to_sympy(res) - expected) == 0
        if not m:
            assert res == p**n
            seen["free"] += 1
        if case % 4 == 0:
            swapped = resultant(q, p, var)
            assert swapped == (res if (m * n) % 2 == 0 else -res)
            seen["swapped"] += 1
        seen["zero"] += res.is_zero()
        seen["cases"] += 1
    assert seen["cases"] >= 40 and min(seen.values()) >= 5, seen


def _linear(root):
    return Polynomial(1, {(1,): 1, (0,): -root})


def test_gaussian_rational_roots_match_sympy():
    """Roots in Q(i) equal ``ground_roots`` over QQ<I>; the rest has none left."""
    G = GaussianRational
    quadratics = [  # irreducible over Q(i)
        Polynomial(1, {(2,): 1, (0,): -2}),
        Polynomial(1, {(2,): 1, (0,): -3}),
        Polynomial(1, {(2,): 1, (0,): G(0, -1)}),
        Polynomial(1, {(2,): 1, (1,): 1, (0,): 1}),
        Polynomial(1, {(2,): 2, (0,): -3}),
    ]
    rng = random.Random(5)
    for _ in range(20):
        p = Polynomial.constant(1, G(rng.randint(1, 4), rng.randint(-2, 2)))
        for _ in range(rng.randint(1, 3)):
            # norms such as 5 = (2+i)(2-i) and 10 need products of split primes
            root = G(rng.randint(-6, 6), rng.randint(-6, 6)) / G(rng.randint(1, 4), rng.randint(-2, 2))
            p = p * _linear(root) ** rng.choice([1, 1, 2])
        for _ in range(rng.randint(0, 2)):
            p = p * rng.choice(quadratics)
        split = gaussian_rational_roots(p)
        assert split is not None
        roots, rest = split
        expected = sympy.Poly(to_sympy(p), GENS[0], domain="QQ_I").ground_roots()
        assert {to_sympy(Polynomial.constant(1, r)) for r in roots} == set(expected)
        assert len(roots) == len(set(roots))
        assert not sympy.Poly(to_sympy(rest), GENS[0], domain="QQ_I").ground_roots()
        assert rest.degree() + len(roots) == squarefree_part(p).degree()


def test_image_curve_matches_lex_elimination():
    """phi is the generator of <f - u, g - v> intersected with Q(i)[u, v].

    The germs are f = a(q), g = b(q) with a, b univariate and q vanishing at
    0, so the Jacobian has rank at most 1.  A lex basis with the source
    variables first has exactly one element free of them.
    """
    rng = random.Random(19)
    u, v = TARGET
    checked = 0
    while checked < 20:
        n = rng.choice([1, 2, 3])
        q = Polynomial.zero(n)
        while q.is_zero():
            q = _random_poly(rng, n, 2, rng.randint(1, 3))
            q = q - Polynomial.constant(n, q.constant_term())
        a, b = (
            Polynomial(1, {(k,): GaussianRational(rng.randint(-3, 3), rng.randint(-1, 1))
                           for k in range(1, rng.randint(2, 4))})
            for _ in range(2)
        )
        if a.is_zero() and b.is_zero():
            continue
        germ = MapGerm(poly_subs(a, [q]), poly_subs(b, [q]))
        checked += 1
        phi = image_curve_equation(germ)
        xs = GENS[:n]
        basis = sympy.groebner(
            [to_sympy(germ.f) - u, to_sympy(germ.g) - v], *xs, u, v, order="lex"
        )
        eliminated = [p for p in basis.exprs if not p.free_symbols & set(xs)]
        assert len(eliminated) == 1
        expected = sympy.Poly(eliminated[0], u, v, domain="QQ_I").monic()
        assert sympy.Poly(to_sympy(phi, TARGET), u, v, domain="QQ_I").monic() == expected


# -- the packed polynomial core against sympy's sparse expressions ------------

FIVE = sympy.symbols("x y z w s")
# the packed core refuses total degree 2^31; terms of degree about 2^29 leave
# room for a product of two and a cube
_NEAR_LIMIT = 2**29


def _sparse_terms(expr, gens):
    """{exponent tuple: coefficient} of ``expr`` expanded, sparse at any degree."""
    rep, _ = dict_from_expr(sympy.expand(expr), gens=gens)
    return {m: c for m, c in rep.items() if c != 0}


def _assert_matches(p, expr, gens):
    """``p.terms`` is sympy's expansion of ``expr``, term for term, in sympy's grevlex order."""
    expected = _sparse_terms(expr, gens)
    assert [m for m, _ in p.terms] == sorted(expected, key=grevlex, reverse=True)
    for m, c in p.terms:
        assert sympy.expand(to_sympy(Polynomial.constant(1, c), gens[:1]) - expected[m]) == 0


def _gaussian_rational(rng):
    def part():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    return GaussianRational(part(), part())


def _near_limit_poly(rng, nvars, large):
    """1-4 terms with Gaussian-rational coefficients; with ``large``, some exponents near 2^29."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = [rng.randint(0, 3) for _ in range(nvars)]
        if large and rng.random() < 0.6:
            exps[rng.randrange(nvars)] = _NEAR_LIMIT - rng.randrange(8) - 3 * nvars
        terms[tuple(exps)] = _gaussian_rational(rng)
    return Polynomial(nvars, terms)


def test_packed_ring_operations_match_sympy():
    """Sums, products, cubes, exact quotients, derivatives and substitutions in 1-5 variables.

    Half the cases put exponents near 2^29 into the terms, where the key of
    a product holds fields of about 2^30; sympy's expressions stay sparse
    there.  ``terms`` is compared with sympy's expansion in its grevlex
    order, and each result round-trips through the public constructor.
    """
    rng = random.Random(26)
    for case in range(30):
        n = rng.randint(1, 5)
        gens, large = FIVE[:n], case % 2 == 1
        p, q = _near_limit_poly(rng, n, large), _near_limit_poly(rng, n, large)
        sp, sq = to_sympy(p, gens), to_sympy(q, gens)
        results = [
            (p + q, sp + sq),
            (p - q, sp - sq),
            (p * q, sp * sq),
            (p**3, sp**3),
            ((p * q).exact_divide(q), sp),
        ]
        results += [(p.partial_derivative(v), sympy.diff(sp, g)) for v, g in enumerate(gens)]
        # small arguments keep sympy's expansion quick: at large degrees a
        # variable times a unit, else c*x_j + c'
        units = (1, -1, GaussianRational(0, 1), GaussianRational(0, -1))
        args = [
            Polynomial.variable(n, rng.randrange(n)).scale(
                rng.choice(units) if large else _gaussian_rational(rng)
            )
            + Polynomial.constant(n, 0 if large else _gaussian_rational(rng))
            for _ in gens
        ]
        images = dict(zip(gens, (to_sympy(a, gens) for a in args)))
        results.append((substitute(p, args), sp.subs(images, simultaneous=True)))
        for ours, theirs in results:
            _assert_matches(ours, theirs, gens)
            assert Polynomial(n, ours.terms) == ours
            assert Polynomial(n, ours.terms).terms == ours.terms
        if not q.is_constant():
            # q divides p*q + c only if it divides the constant c
            with pytest.raises(DivisibilityError):
                (p * q + Polynomial.one(n)).exact_divide(q)


def test_packed_exact_division_refuses_what_sympy_does_not_divide():
    """exact_divide raises exactly when sympy's remainder over QQ<I> is nonzero."""
    rng = random.Random(27)
    refused = 0
    for _ in range(40):
        n = rng.randint(1, 3)
        gens = FIVE[:n]
        p, q = _near_limit_poly(rng, n, False), _near_limit_poly(rng, n, False)
        dividend = p * q + (_near_limit_poly(rng, n, False) if rng.random() < 0.5 else p.scale(0))
        _, rem = sympy.div(
            sympy.Poly(to_sympy(dividend, gens), *gens, domain="QQ_I"),
            sympy.Poly(to_sympy(q, gens), *gens, domain="QQ_I"),
        )
        if rem.is_zero:
            expected = sympy.quo(to_sympy(dividend, gens), to_sympy(q, gens), *gens)
            _assert_matches(dividend.exact_divide(q), expected, gens)
        else:
            refused += 1
            with pytest.raises(DivisibilityError):
                dividend.exact_divide(q)
    assert refused >= 10


def test_a_monomial_of_degree_ten_to_the_nine_packs():
    """x^(10^9)*y builds, multiplies and divides exactly; a product past 2^31 - 1 is refused."""
    x, y = (Polynomial.variable(2, k) for k in range(2))
    big = Polynomial(2, {(10**9, 1): GaussianRational(2, -1)})
    assert big == (x**10**9 * y).scale(GaussianRational(2, -1))
    assert big.terms == (((10**9, 1), GaussianRational(2, -1)),)
    assert big.degree() == 10**9 + 1
    gx, gy = FIVE[:2]
    mixed = big + x * y.scale(3) - Polynomial.one(2)
    _assert_matches(mixed * mixed, sympy.expand(to_sympy(mixed, (gx, gy)) ** 2), (gx, gy))
    derivative = sympy.diff(to_sympy(mixed, (gx, gy)), gx)
    _assert_matches(mixed.partial_derivative(0), derivative, (gx, gy))
    assert (mixed * big).exact_divide(big) == mixed
    with pytest.raises(DivisibilityError):
        big.exact_divide(x * y * y)
    assert (x**(2**31 - 2) * y).degree() == 2**31 - 1
    with pytest.raises(PreconditionError, match="packed monomial limit"):
        big * big * big
    with pytest.raises(PreconditionError, match="packed monomial limit"):
        Polynomial(2, {(2**31, 0): 1})
