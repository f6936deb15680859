"""Differential tests against sympy (test-only; sympy is optional).

Factors are taken over the coefficient field of the input, Q or Q(i).
gcds, squarefree parts and the constancy locus C of the cofactor pencil do
not change under a field extension, so the factors over that field are a
sound oracle for all three.  Resultants are checked against
``sympy.resultant``, roots in Q(i) against ``Poly.ground_roots`` over
QQ<I>, and image curves against a lex Groebner basis of the graph ideal.
"""

import random

import pytest

from germimage.algebra import (
    decompose,
    gaussian_rational_roots,
    gcd,
    resultant,
    squarefree_part,
)
from germimage.classifier import _order_layers, pencil_constancy_locus
from germimage.groebner import image_curve_equation
from germimage.poly import MapGerm, Polynomial
from germimage.rationals import GaussianRational

from _helpers import compose_case, factor_pool, poly_subs

sympy = pytest.importorskip("sympy")

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
    seen_open = seen_closed = seen_away = 0
    checked = 0
    while checked < 20:
        case = _pencil_case(rng, pool)
        if case is None:
            continue
        h, p, q = (_prod(facs) for facs in case)
        checked += 1
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
    # both outcomes occur, and C(0) != 0 also with a component away from 0
    assert seen_open and seen_closed and seen_away


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


def test_resultant_matches_sympy():
    """Res_var(p, q) equals sympy's, zero exactly when p and q share a factor in var.

    ``sympy.resultant`` is called with the operand of higher degree first;
    with the lower one first it returns the same value, not (-1)^(m*n)
    times it, so the swap sign is checked on our side.
    """
    rng = random.Random(11)
    zeros = 0
    for _ in range(40):
        nvars = rng.choice([1, 2, 3])
        p = _random_poly(rng, nvars, rng.randint(1, 4), rng.randint(1, 5))
        q = _random_poly(rng, nvars, rng.randint(1, 4), rng.randint(1, 5))
        if rng.random() < 0.25:
            common = _random_poly(rng, nvars, 2, 3)
            p, q = p * common, q * common
        if p.is_zero() or q.is_zero():
            continue
        var = rng.randrange(nvars)
        m, n = p.max_degree_in(var), q.max_degree_in(var)
        if m < n:
            p, q, m, n = q, p, n, m
        res = resultant(p, q, var)
        expected = sympy.resultant(to_sympy(p), to_sympy(q), GENS[var])
        assert sympy.expand(to_sympy(res) - expected) == 0
        swapped = resultant(q, p, var)
        assert swapped == (res if (m * n) % 2 == 0 else -res)
        zeros += res.is_zero()
    assert zeros


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
