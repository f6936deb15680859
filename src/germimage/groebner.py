"""Image-curve equation of a rank-deficient map germ, by one resultant.

The module keeps its historical name, which the benchmark's layer trace
counts (``groebner.image_curve_equation``); it holds no Groebner engine.

When the Jacobian of F = (f, g) is rank deficient, the closure of F(C^n)
is one irreducible plane curve Gamma, and its equation phi is found on a
single line through the origin (the elimination and closure theorems of
Cox, Little and O'Shea, *Ideals, Varieties, and Algorithms*, ch. 3; the
resultant is Poisson's formula with a fraction-free determinant, see
:func:`germimage.algebra.resultant`, whose first argument f(t*d) - u
meets its condition as shown below).
"""

from __future__ import annotations

from itertools import product

from .algebra import jacobian_rank_deficient, resultant, squarefree_part
from .errors import InternalConsistencyError, PreconditionError
from .poly import Polynomial, compose_target, substitute


def image_curve_equation(germ):
    """Squarefree monic generator phi(u, v) of the image curve of ``germ``.

    Requires a rank-deficient Jacobian (the image closure is a curve).
    Take the first d in {1, ..., top + 1}^n, top = max(deg f, deg g), on
    which F is not constant, and set phi to the monic squarefree part of
    R(u, v) = Res_t(f(t*d) - u, g(t*d) - v).  This is exact:

    - Each of f(t*d) - u and g(t*d) - v is -u (or -v) or has a nonzero
      constant leading coefficient in t, and one has positive degree.  So
      R vanishes at (u0, v0) exactly when (u0, v0) = F(t0*d) for some t0:
      Z(R) is the image F(L) of the line L = {t*d}.
    - F(L) is an irreducible curve inside the irreducible curve Gamma, so
      F(L) = Gamma, R = c * phi^k, and the monic squarefree part of R is
      the generator of the elimination ideal of <f - u, g - v>.
    - A suitable d exists: a nonzero form of degree <= top cannot vanish on
      all of {1, ..., top + 1}^n (Schwartz-Zippel).  Were none found, phi
      would be 1 and fail the origin check below.

    The result satisfies phi(0,0) = 0 and phi(f, g) = 0, both checked.
    """
    if not jacobian_rank_deficient(germ):
        raise PreconditionError("the Jacobian has a nonzero minor: the image is not a curve")
    t, u, v = (Polynomial.variable(3, i) for i in range(3))
    top = max(germ.f.degree() or 0, germ.g.degree() or 0)
    for d in product(range(1, top + 2), repeat=germ.n):
        line = [t.scale(di) for di in d]
        ft, gt = substitute(germ.f, line), substitute(germ.g, line)
        if ft.max_degree_in(0) or gt.max_degree_in(0):
            break
    r = resultant(ft - u, gt - v, 0)
    phi = squarefree_part(Polynomial(2, [(m[1:], c) for m, c in r.terms])).monic()

    if not phi.constant_term().is_zero():
        raise InternalConsistencyError("image curve misses the origin")
    if not compose_target(phi, germ).is_zero():
        raise InternalConsistencyError("image curve equation does not annihilate the map")
    return phi
