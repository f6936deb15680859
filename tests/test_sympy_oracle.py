"""Differential tests against sympy's factorization (test-only; sympy is optional).

Factors are taken over the coefficient field of the input, Q or Q(i).
gcds, squarefree parts and the constancy locus C of the cofactor pencil do
not change under a field extension, so the factors over that field are a
sound oracle for all three.
"""

import random

import pytest

from germimage.algebra import decompose, gcd, squarefree_part
from germimage.classifier import pencil_constancy_locus
from germimage.poly import MapGerm, Polynomial

from _helpers import compose_case, factor_pool

sympy = pytest.importorskip("sympy")

GENS = sympy.symbols("x y z")


def to_sympy(p):
    expr = sympy.Integer(0)
    for m, c in p.terms:
        coeff = sympy.Rational(c.re.numerator, c.re.denominator) + sympy.I * sympy.Rational(
            c.im.numerator, c.im.denominator
        )
        expr += coeff * sympy.Mul(*(g**e for g, e in zip(GENS, m)))
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
