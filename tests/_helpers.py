"""Shared helpers for the test suite."""

from fractions import Fraction

from germimage.algebra import gcd_many, squarefree_part
from germimage.poly import MapGerm, Polynomial
from germimage.rationals import GaussianRational, I


def P(nvars, terms):
    return Polynomial(nvars, terms)


def variables(nvars):
    return [Polynomial.variable(nvars, k) for k in range(nvars)]


def poly_subs(poly, args):
    """Substitute polynomials for the variables of ``poly``."""
    if len(args) != poly.nvars:
        raise ValueError("wrong substitution arity")
    nvars = args[0].nvars
    out = Polynomial.zero(nvars)
    for m, c in poly.terms:
        term = Polynomial.constant(nvars, c)
        for arg, e in zip(args, m):
            if e:
                term = term * arg**e
        out = out + term
    return out


def source_change(germ, matrix):
    """Precompose the germ with the linear map given by an integer matrix."""
    n = germ.n
    xs = variables(n)
    args = []
    for i in range(n):
        acc = Polynomial.zero(n)
        for j in range(n):
            if matrix[i][j]:
                acc = acc + xs[j].scale(matrix[i][j])
        args.append(acc)
    return MapGerm(poly_subs(germ.f, args), poly_subs(germ.g, args))


def target_change(germ, matrix):
    """Postcompose the germ with an invertible linear map of the target."""
    (a, b), (c, d) = matrix
    f2 = germ.f.scale(a) + germ.g.scale(b)
    g2 = germ.f.scale(c) + germ.g.scale(d)
    return MapGerm(f2, g2)


def random_unimodular(rng, n):
    """Random integer matrix of determinant +-1 (product of shears/swaps)."""
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(6):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        k = rng.choice([-2, -1, 1, 2])
        for col in range(n):
            mat[i][col] += k * mat[j][col]
        if rng.random() < 0.3:
            mat[i], mat[j] = mat[j], mat[i]
    return mat


# -- tracked-factor oracle family ---------------------------------------------


def factor_pool():
    """Distinct irreducible factors in 3 variables with known origin membership.

    Every entry is monic in a chosen leading variable, so distinct entries
    are pairwise non-associate, and linear-in-one-variable shapes are
    irreducible by construction.  Returns (polynomial, vanishes at 0) pairs.
    """
    x3, y3, z3 = (Polynomial.variable(3, k) for k in range(3))
    one3 = Polynomial.one(3)
    pool = [
        x3,
        y3,
        z3,
        x3 + y3,
        x3 - z3,
        y3 + z3.scale(2),
        x3 + y3.scale(I),
        y3 + x3 * x3,
        y3 - x3 * x3,
        y3 + x3 * z3,
        x3 + y3 * y3,
        x3 + z3 * z3 * z3,
        z3 + x3 * y3,
        x3 + one3,
        y3 - one3.scale(2),
        z3 + one3.scale(I),
        x3 + y3 + one3,
        y3 + x3 * x3 + one3,
    ]
    return [(p, p.constant_term().is_zero()) for p in pool]


def compose_case(rng, pool, max_factors=4):
    """A random (p, q, oracle) triple with tracked factor lists."""
    kp = rng.randint(1, max_factors)
    kq = rng.randint(1, max_factors)
    fs = [rng.choice(pool) for _ in range(kp)]
    gs = [rng.choice(pool) for _ in range(kq)]
    p = Polynomial.one(3)
    for fac, _ in fs:
        p = p * fac
    q = Polynomial.one(3)
    for fac, _ in gs:
        q = q * fac
    q_set = {fac for fac, _ in gs}
    oracle = all(fac in q_set for fac, through in fs if through)
    return p, q, oracle


def four_variable_pool():
    """Irreducible factors in x, y, z, w, some through 0, one with Gaussian coefficients."""
    x4, y4, z4, w4 = variables(4)
    one4 = Polynomial.one(4)
    lifted = [Polynomial(4, {m + (0,): c for m, c in fac.terms}) for fac, _ in factor_pool()]
    return lifted + [
        w4,
        x4 + w4 * w4,
        y4 + w4.scale(I),
        z4 * w4 + x4,
        x4 + w4 * w4 * x4 + w4 * w4 * y4 + z4.scale(2),
        w4 * w4 - x4**4 + w4 * w4 * x4 + y4.scale(I),
        w4 + one4.scale(GaussianRational(Fraction(1, 2), 1)),
    ]


def gcd_pair(rng, pool, nvars):
    """p = c*a, q = c*b over random factor lists; c is empty a third of the time."""
    def product(k):
        out = Polynomial.one(nvars)
        for _ in range(k):
            out = out * rng.choice(pool)
        return out

    common = product(rng.choice([0, 1, 2]))
    p, q = common * product(rng.randint(1, 2)), common * product(rng.randint(0, 2))
    if rng.random() < 0.3:  # a Gaussian unit or scalar must not change the monic gcd
        p = p.scale(GaussianRational(rng.randint(1, 3), rng.randint(-2, 2)))
    return p, q


def reference_constancy_locus(dec):
    """C by its defining formula: gcd(h_bar, 2x2 minors of (omega, dh_bar)).

    omega = g_hat*df_hat - f_hat*dg_hat and h_bar is the squarefree part
    of h; ``classifier.pencil_constancy_locus`` must agree term for term.
    """
    f, g, n = dec.f_hat, dec.g_hat, dec.h.nvars
    omega = [g * f.partial_derivative(i) - f * g.partial_derivative(i) for i in range(n)]
    h_bar = squarefree_part(dec.h)
    dh = [h_bar.partial_derivative(i) for i in range(n)]
    minors = [omega[i] * dh[j] - omega[j] * dh[i] for i in range(n) for j in range(i + 1, n)]
    return gcd_many([h_bar] + minors)
