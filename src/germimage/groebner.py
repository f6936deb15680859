"""Buchberger's algorithm with elimination orders, and image-curve extraction.

Sized for tiny ideals (a handful of generators, few variables, low degree):
the classical algorithm with the product and chain pair-elimination
criteria and the normal selection strategy, followed by full
inter-reduction, is simple and auditable and more than fast enough here.

The image-curve equation of a rank-deficient map germ is the generator of
the elimination ideal of the graph ideal <f - u, g - v>: eliminating the
source variables leaves a principal prime ideal in (u, v) whose zero set
is the closure of the image.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import gcd, jacobian_rank_deficient, squarefree_part
from .errors import InternalConsistencyError, PreconditionError
from .poly import (
    Polynomial,
    compose_target,
    grevlex_key,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)
from .rationals import ZERO


@dataclass(frozen=True)
class TermOrder:
    """A monomial order: degrevlex, lex, or a block elimination order.

    ``block(k)`` compares the first ``k`` exponents by degrevlex first and
    the remaining ones by degrevlex as a tie-break, which eliminates the
    first ``k`` variables.
    """

    kind: str
    nvars: int
    elim_count: int = 0

    def __post_init__(self):
        if self.kind not in ("degrevlex", "lex", "block"):
            raise ValueError(f"unknown term order kind {self.kind!r}")
        if self.kind == "block" and not 0 < self.elim_count < self.nvars:
            raise ValueError("block order needs 0 < elim_count < nvars")

    def key(self, exps):
        if self.kind == "degrevlex":
            return grevlex_key(exps)
        if self.kind == "lex":
            return tuple(exps)
        k = self.elim_count
        return (grevlex_key(exps[:k]), grevlex_key(exps[k:]))


@dataclass(frozen=True)
class GroebnerBasis:
    generators: tuple
    order: TermOrder
    reduced: bool


def _leading(p, order):
    m, c = max(((m, c) for m, c in p.terms), key=lambda mc: order.key(mc[0]))
    return m, c


def _reduce_full(p, basis_leads, order):
    """Unique remainder of ``p`` under full multivariate division.

    ``basis_leads``: list of (lead monomial, lead coeff, polynomial).
    Every term of the remainder is reducible by no basis lead.
    """
    if p.is_zero():
        return p
    key = order.key
    work = {m: c for m, c in p.terms}
    rem = {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for lm, lc, g in basis_leads:
            if monomial_divides(lm, m):
                qm = monomial_div(m, lm)
                qc = c / lc
                for gm, gc in g.terms:
                    if gm == lm:
                        continue
                    t = monomial_mul(qm, gm)
                    nc = work.get(t, ZERO) - qc * gc
                    if nc.is_zero():
                        work.pop(t, None)
                    else:
                        work[t] = nc
                break
        else:
            rem[m] = c
    return Polynomial(p.nvars, rem)


def s_polynomial(f, g, order):
    lf, cf = _leading(f, order)
    lg, cg = _leading(g, order)
    lcm = monomial_lcm(lf, lg)
    mf = Polynomial(f.nvars, [(monomial_div(lcm, lf), 1 / cf)])
    mg = Polynomial(g.nvars, [(monomial_div(lcm, lg), 1 / cg)])
    return mf * f - mg * g


def normal_form(p, gb):
    """Remainder of ``p`` modulo ``gb``; zero iff ``p`` lies in the ideal."""
    if p.nvars != gb.order.nvars:
        raise PreconditionError("polynomial and basis live in different rings")
    leads = [(*_leading(g, gb.order), g) for g in gb.generators]
    return _reduce_full(p, leads, gb.order)


def _certify(gens, order):
    leads = [(*_leading(g, order), g) for g in gens]
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            s = s_polynomial(gens[i], gens[j], order)
            if not _reduce_full(s, leads, order).is_zero():
                return False
    return True


def buchberger(gens, order, verify=True):
    """Reduced Groebner basis of the ideal generated by ``gens``.

    Pair selection is the normal strategy (smallest lcm in the order).
    Pairs are skipped by the product criterion (coprime lead monomials) and
    the chain criterion.  With ``verify`` the Buchberger certificate (every
    S-polynomial reduces to zero) is checked on the finished basis.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise PreconditionError("buchberger needs at least one nonzero generator")
    nvars = gens[0].nvars
    for g in gens:
        if g.nvars != nvars:
            raise PreconditionError("generators live in different rings")
    if order.nvars != nvars:
        raise PreconditionError("order arity does not match the generators")

    G = []
    leads = []
    for g in gens:
        lm, lc = _leading(g, order)
        G.append(g.scale(1 / lc))
        leads.append(lm)

    pairs = {(i, j) for i in range(len(G)) for j in range(i + 1, len(G))}
    done = set()

    def lcm_of(i, j):
        return monomial_lcm(leads[i], leads[j])

    while pairs:
        i, j = min(pairs, key=lambda ij: (order.key(lcm_of(*ij)), ij))
        pairs.discard((i, j))
        done.add((i, j))
        lcm = lcm_of(i, j)
        if lcm == monomial_mul(leads[i], leads[j]):
            continue  # product criterion: coprime leads
        chained = False
        for k in range(len(G)):
            if k in (i, j) or not monomial_divides(leads[k], lcm):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a in done and b in done:
                chained = True
                break
        if chained:
            continue
        s = s_polynomial(G[i], G[j], order)
        r = _reduce_full(s, [(lm, g.coefficient(lm), g) for lm, g in zip(leads, G)], order)
        if r.is_zero():
            continue
        lm, lc = _leading(r, order)
        G.append(r.scale(1 / lc))
        leads.append(lm)
        new = len(G) - 1
        pairs.update((k, new) for k in range(new))

    # minimalize: drop generators whose lead is divisible by another lead
    keep = []
    for i in range(len(G)):
        if any(
            k != i and monomial_divides(leads[k], leads[i]) and (leads[k] != leads[i] or k < i)
            for k in range(len(G))
        ):
            continue
        keep.append(i)
    minimal = [(leads[i], G[i]) for i in keep]

    # inter-reduce: fully reduce each generator modulo the others
    reduced = []
    for idx, (lm, g) in enumerate(minimal):
        others = [
            (olm, og.coefficient(olm), og)
            for oidx, (olm, og) in enumerate(minimal)
            if oidx != idx
        ]
        r = _reduce_full(g, others, order)
        if r.is_zero():
            continue
        rlm, rlc = _leading(r, order)
        reduced.append((rlm, r.scale(1 / rlc)))
    reduced.sort(key=lambda lg: order.key(lg[0]))
    final = tuple(g for _, g in reduced)

    if verify and not _certify(final, order):
        raise InternalConsistencyError("Groebner certificate failed")
    return GroebnerBasis(generators=final, order=order, reduced=True)


# ---------------------------------------------------------------------------
# curve-image extraction
# ---------------------------------------------------------------------------


def _embed_source(p, total):
    pad = total - p.nvars
    return Polynomial(total, [(m + (0,) * pad, c) for m, c in p.terms])


def _restrict_target(p, n):
    return Polynomial(2, [(m[n:], c) for m, c in p.terms])


def image_curve_equation(germ, verify=True):
    """Squarefree monic generator phi(u, v) of the image curve of ``germ``.

    Requires a rank-deficient Jacobian (the image closure is a curve).
    Eliminates the source variables from <f - u, g - v> with a block
    order; the result satisfies phi(0,0) = 0 and phi(f, g) = 0 exactly.
    """
    if not jacobian_rank_deficient(germ):
        raise PreconditionError(
            "image_curve_equation needs a rank-deficient Jacobian"
        )
    n = germ.n
    total = n + 2
    u = Polynomial.variable(total, n)
    v = Polynomial.variable(total, n + 1)
    gens = [_embed_source(germ.f, total) - u, _embed_source(germ.g, total) - v]
    order = TermOrder(kind="block", nvars=total, elim_count=n)
    gb = buchberger(gens, order, verify=verify)
    elim = [
        _restrict_target(g, n)
        for g in gb.generators
        if all(all(e == 0 for e in m[:n]) for m, _ in g.terms)
    ]
    if not elim:
        raise InternalConsistencyError("elimination ideal is zero")
    phi = elim[0]
    for extra in elim[1:]:
        phi = gcd(phi, extra)
    phi = squarefree_part(phi).monic()

    if not phi.constant_term().is_zero():
        raise InternalConsistencyError("image curve misses the origin")
    if not compose_target(phi, germ).is_zero():
        raise InternalConsistencyError("image curve equation does not annihilate the map")
    return phi
