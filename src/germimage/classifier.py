"""Decision pipeline for the local image of a map germ (C^n,0) -> (C^2,0).

Branch structure:

1. containment — if one zero set is included in the other at 0, the image
   is a well-defined germ exactly when every Jacobian minor vanishes, and
   then it is an irreducible plane curve germ;
2. codimension — no common factor of f and g through 0 means the central
   fibre has codimension 2 and the image fills a target neighborhood;
3. otherwise the pencil criterion decides exactly: with h_bar the
   squarefree part of h = gcd(f, g), the image is open when
   C = gcd(h_bar, 2x2 minors of (g_hat*df_hat - f_hat*dg_hat, dh_bar))
   does not vanish at 0, i.e. when the cofactor ratio f_hat : g_hat is
   constant on no component of Z(h) through 0.  When C(0) = 0, the ratio
   is constant on each component of Z(C), and the roots of one resultant
   R(c) = Res_t(C_L, f_hat_L + c*g_hat_L), on a line L with small
   Gaussian-integer coefficients, are exactly those constants.  Its roots
   in Q(i) nominate gap lines, the rest of R one gap curve, and each is
   verified exactly; failing that a bounded search for gap curves runs.
   A verified gap witness rules out both openness and (in this branch) a
   curve image, so the image is not a set germ.  With neither a
   certificate nor a witness the honest answer is Undetermined.

The only random choice here, the lines of the grid prescreen, has a fixed
seed, so verdicts do not depend on the seed, which drives only the probes.

Witnesses are data, re-checkable by the exact operations in this module.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import (
    IntersectionCase,
    decompose,
    first_nonzero_minor,
    gaussian_rational_roots,
    gcd,
    gcd_many,
    intersection_dimension_case,
    jacobian_minor,
    resultant,
    squarefree_part,
    zero_set_germ_included,
)
from .errors import (
    ImageContainsCurveError,
    InternalConsistencyError,
    PreconditionError,
)
from .groebner import image_curve_equation
from .poly import MapGerm, Polynomial, compose_target, substitute
from .rationals import I, ONE, ZERO, GaussianRational


@dataclass(frozen=True)
class ProjectiveRatio:
    """A point [alpha : beta] of P^1 over the Gaussian rationals.

    Canonical representative: the first nonzero component equals 1, so
    projectively equal ratios compare equal structurally.
    """

    alpha: GaussianRational
    beta: GaussianRational

    def __post_init__(self):
        alpha, beta = (
            x if isinstance(x, GaussianRational) else GaussianRational(x)
            for x in (self.alpha, self.beta)
        )
        if alpha.is_zero() and beta.is_zero():
            raise ValueError("(0, 0) is not a projective point")
        alpha, beta = (ONE, beta / alpha) if alpha else (alpha, ONE)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    def __repr__(self):
        return f"ProjectiveRatio({self.alpha}, {self.beta})"


@dataclass(frozen=True)
class PlaneCurveCandidate:
    """A plane curve {phi = 0} through the target origin."""

    phi: Polynomial

    def __post_init__(self):
        if self.phi.nvars != 2:
            raise PreconditionError("curve candidates live in the target plane (u, v)")
        if self.phi.is_zero():
            raise PreconditionError("curve candidate must be a nonzero polynomial")
        if not self.phi.constant_term().is_zero():
            raise PreconditionError("curve candidate must pass through the origin")


# ---------------------------------------------------------------------------
# the cofactor pencil: gap lines and the openness criterion
# ---------------------------------------------------------------------------


def _pencil_applies(dec):
    return not (dec.f_hat_is_unit or dec.g_hat_is_unit or dec.h.is_unit_germ())


def _require_pencil(dec):
    if not _pencil_applies(dec):
        raise PreconditionError(
            "the cofactor pencil needs non-unit cofactors and a common factor "
            "through 0; route through the containment or codimension branch"
        )


def pencil_member(dec, ratio):
    """beta*f_hat + alpha*g_hat: the pullback of the line beta*u + alpha*v = 0."""
    return dec.f_hat.scale(ratio.beta) + dec.g_hat.scale(ratio.alpha)


def is_gap_line(dec, ratio):
    """Exact test: does the line [alpha : beta] meet the image only at 0?

    Reduces, via coprimality of the cofactors, to the germ inclusion of
    Z(beta*f_hat + alpha*g_hat) in Z(h).
    """
    _require_pencil(dec)
    w = pencil_member(dec, ratio)
    if w.is_zero():
        raise InternalConsistencyError("pencil member vanished for coprime cofactors")
    return zero_set_germ_included(w, dec.h)


def pencil_constancy_locus(dec):
    """C = gcd(h_bar, 2x2 minors of (omega, dh_bar)), omega = g_hat*df_hat - f_hat*dg_hat.

    h_bar is the squarefree part of h, so dh_bar vanishes on no component of
    Z(h), and an irreducible factor of h_bar divides every minor exactly
    when f_hat : g_hat is constant on its zero set.  C is the product of
    those factors: C(0) != 0 says the ratio is constant on no component of
    Z(h) through 0.
    """
    _require_pencil(dec)
    h_bar = squarefree_part(dec.h)
    f, g = dec.f_hat, dec.g_hat
    n = h_bar.nvars
    omega = [g * f.partial_derivative(i) - f * g.partial_derivative(i) for i in range(n)]
    dh = [h_bar.partial_derivative(i) for i in range(n)]
    minors = [omega[i] * dh[j] - omega[j] * dh[i] for i in range(n) for j in range(i + 1, n)]
    return gcd_many([h_bar] + minors)


# The lines a + t*d of the nomination: d runs over _LINE_ENTRIES^n in
# product order from (1, ..., 1), and a is the vector after d.
_LINE_ENTRIES = (ONE, -ONE, GaussianRational(2), I, GaussianRational(-2), -I)
_NOMINATION_LINES = 64  # lines of the fixed list tried before giving up


def _exact_on_line(poly, a, d):
    """poly(a + t*d) exactly, in the ring (t, c) of the nomination."""
    return substitute(poly, [Polynomial(2, {(1, 0): dj, (0, 0): aj}) for aj, dj in zip(a, d)])


def _line_resultant(dec, locus, a, d):
    """R(c) = Res_t(C_L, f_hat_L + c*g_hat_L) on L = a + t*d, and deg_t C_L.

    R = lc^k * prod(f_hat(p) + c*g_hat(p)) over the points p of L n Z(C):
    its roots are the ratios [c : 1] there, and each point where g_hat
    vanishes (ratio [1 : 0]) lowers deg R below deg_t C_L.  None when L
    loses points of Z(C) at infinity (deg_t C_L < deg C) or meets Z(C)
    where f_hat and g_hat both vanish (R = 0).
    """
    c_line = _exact_on_line(locus, a, d)
    points = c_line.max_degree_in(0)
    if points < locus.degree():
        return None
    c = Polynomial.variable(2, 1)
    pencil = _exact_on_line(dec.f_hat, a, d) + c * _exact_on_line(dec.g_hat, a, d)
    r = resultant(c_line, pencil, 0)
    if r.is_zero():
        return None
    return Polynomial(1, [((m[1],), k) for m, k in r.terms]), points


@dataclass(frozen=True)
class GapLineSearchResult:
    """Gap-line candidates of the cofactor pencil and what became of them.

    ``c`` is :func:`pencil_constancy_locus`; ``verified`` and ``refuted``
    hold the nominated ratios in Q(i) that passed and failed
    :func:`is_gap_line`; ``curve`` is the unchecked gap-curve candidate of
    the other ratios; ``reason`` says why nomination gave up, if it did.
    """

    c: Polynomial
    verified: tuple
    refuted: tuple
    curve: object
    reason: str


def find_gap_lines(dec):
    """Gap lines of the cofactor pencil: exact nomination, exact verification.

    The ratio of a gap line is constant on a component of Z(h) through 0,
    which then divides C = pencil_constancy_locus(dec).  So C(0) != 0 rules
    gap lines out.  Otherwise C, f_hat and g_hat are restricted exactly to
    a line of a fixed list, and the roots of R(c) = Res_t(C_L, f_hat_L +
    c*g_hat_L) are the constant ratios on the components of Z(C).  Each
    root in Q(i) is checked once with :func:`is_gap_line`; the others make
    up one candidate gap curve, returned unchecked.
    """
    c = pencil_constancy_locus(dec)
    ratios, curve, reason = [], None, ""
    if c.constant_term().is_zero():
        reason = f"each of the {_NOMINATION_LINES} fixed lines degenerates on Z(C)"
        vectors = itertools.product(_LINE_ENTRIES, repeat=c.nvars)
        vectors = list(itertools.islice(vectors, _NOMINATION_LINES + 1))
        for a, d in zip(vectors[1:], vectors):
            found = _line_resultant(dec, c, a, d)
            if found is None:
                continue
            r, points = found
            split = gaussian_rational_roots(r)
            if split is None:
                reason = "the rational-root test over Q(i) passes its size caps"
                break
            roots, rest = split
            ratios = [ProjectiveRatio(root, ONE) for root in roots]
            if r.degree() < points:
                ratios.append(ProjectiveRatio(ONE, ZERO))
            k, reason = rest.degree(), ""
            if k:  # homogenize: a root s of the rest is the line u + s*v = 0
                terms = [((e, k - e), -s if e % 2 else s) for (e,), s in rest.terms]
                curve = PlaneCurveCandidate(Polynomial(2, terms).monic())
            break
    verified = tuple(ratio for ratio in ratios if is_gap_line(dec, ratio))
    refuted = tuple(ratio for ratio in ratios if ratio not in verified)
    return GapLineSearchResult(c, verified, refuted, curve, reason)


class PropCritKind(enum.Enum):
    ESTABLISHED = "Established"
    GAP_LINE_FOUND = "GapLineFound"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class PropCritCertificate:
    """The exact openness certificate C, with the ratios refuted behind it.

    ``c`` is :func:`pencil_constancy_locus`; the criterion holds exactly
    when C(0) != 0, and :func:`verify_witness` recomputes C.  ``refuted``
    holds the ratios :func:`find_gap_lines` nominated and refuted, which
    happens only when C(0) = 0.
    """

    c: Polynomial
    refuted: tuple
    note: str = (
        "exact certificate: C = gcd(h_bar, minors of (omega, dh_bar)) does not "
        "vanish at 0, so f_hat : g_hat is constant on no component of Z(h) "
        "through 0 and every pencil member meets Z(h) in codimension 2"
    )


@dataclass(frozen=True)
class PropCritOutcome:
    """The criterion's outcome; ``curve`` is the nominated gap-curve candidate, or None."""

    kind: PropCritKind
    ratio: object
    reason: str
    certificate: PropCritCertificate
    curve: object = None


def prop_crit_check(dec):
    """Does every member of the cofactor pencil cut Z(h) in codimension 2?

    Decided exactly by C = pencil_constancy_locus(dec): Established when
    C(0) != 0.  Otherwise f_hat : g_hat is constant on a component of Z(h)
    through 0 and the hypothesis fails; the outcome is GapLineFound when a
    ratio nominated by :func:`find_gap_lines` verifies exactly as a gap
    line, and Inconclusive when none does.  The nominated gap-curve
    candidate rides along for :func:`classify` to check.
    """
    res = find_gap_lines(dec)
    cert = PropCritCertificate(c=res.c, refuted=res.refuted)
    if not res.c.constant_term().is_zero():
        return PropCritOutcome(
            kind=PropCritKind.ESTABLISHED, ratio=None, reason="", certificate=cert
        )
    if res.verified:
        return PropCritOutcome(
            kind=PropCritKind.GAP_LINE_FOUND,
            ratio=res.verified[0],
            reason="a nominated ratio is constant along a component of Z(h) "
            "and verifies exactly as a gap line",
            certificate=cert,
            curve=res.curve,
        )
    bits = [
        "the pencil ratio is constant on a component of Z(h) through 0, so the "
        "criterion hypothesis fails"
    ]
    if res.refuted:
        bits.append(
            f"{len(res.refuted)} nominated ratio(s) fail the germ inclusion, so no gap line"
        )
    if res.curve is not None:
        bits.append(f"{res.curve.phi.degree()} ratio(s) outside Q(i) nominate a gap curve")
    if res.reason:
        bits.append(f"no ratio was nominated: {res.reason}")
    return PropCritOutcome(
        kind=PropCritKind.INCONCLUSIVE,
        ratio=None,
        reason="; ".join(bits),
        certificate=cert,
        curve=res.curve,
    )


# ---------------------------------------------------------------------------
# gap curves
# ---------------------------------------------------------------------------


def is_gap_curve(germ, dec, candidate):
    """Exact test: does the curve {phi = 0} meet the image only at 0?

    Via the pullback: psi = phi(f, g) must have its zero germ at 0 inside
    Z(h).  psi = 0 means the curve contains the whole image and is
    signalled separately.
    """
    psi = compose_target(candidate.phi, germ)
    if psi.is_zero():
        raise ImageContainsCurveError(
            "the candidate curve contains the image; use the curve-image branch"
        )
    if dec.h.is_unit_germ():
        return False
    return zero_set_germ_included(psi, dec.h)


DEFAULT_COEFF_GRID = tuple(GaussianRational(k) for k in (-2, -1, 0, 1, 2))


@dataclass(frozen=True)
class GapCurveSearchParams:
    max_degree: int = 2
    coeff_grid: tuple = DEFAULT_COEFF_GRID


def _grid_preference(c):
    # zeros first, then small magnitudes, positive real part preferred
    return (c.norm(), -c.re, -c.im)


_PRESCREEN_SEED = 0x5EED
_PRESCREEN_LINES = 4
_PRESCREEN_OFFSET = 1e-3  # distance of the sampling lines from the origin
_PRESCREEN_RADIUS = 0.05  # only roots this close to 0 witness origin branches
_PRESCREEN_DIV_TOL = 1e-7  # relative tolerance for synthetic-division remainders


def _restrict_to_line(poly, a, d):
    """Coefficients (ascending in t) of poly(a + t*d) in double precision."""
    deg = poly.degree()
    out = np.zeros((deg or 0) + 1, dtype=np.complex128)
    for m, c in poly.terms:
        conv = np.ones(1, dtype=np.complex128)
        for var, e in enumerate(m):
            lin = np.array([a[var], d[var]], dtype=np.complex128)
            for _ in range(e):
                conv = np.convolve(conv, lin)
        out[: conv.shape[0]] += complex(c) * conv
    return out


def _near_origin_lines(nvars, lines, seed, delta):
    """Random affine lines passing within ``delta`` of the origin."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(lines):
        a = rng.standard_normal(nvars) + 1j * rng.standard_normal(nvars)
        d = rng.standard_normal(nvars) + 1j * rng.standard_normal(nvars)
        na, nd = np.linalg.norm(a), np.linalg.norm(d)
        if na < 1e-12 or nd < 1e-12:
            continue
        out.append((delta * a / na, d / nd))
    return out


def _roots_near_origin_mask(coeff_rows, a, d, radius):
    """Which ascending-coefficient rows have a root t with |a + t*d| <= radius?

    Rows are trimmed to their effective degree, bucketed by degree, and
    each bucket goes through one batched companion eigensolve.
    """
    n, width = coeff_rows.shape
    mags = np.abs(coeff_rows)
    row_max = mags.max(axis=1)
    out = np.zeros(n, dtype=bool)
    significant = mags > (row_max[:, None] * 1e-12 + 1e-300)
    degrees = np.where(
        significant.any(axis=1), width - 1 - np.argmax(significant[:, ::-1], axis=1), 0
    )
    for deg in np.unique(degrees):
        if deg < 1:
            continue
        rows = np.nonzero(degrees == deg)[0]
        block = coeff_rows[rows, : deg + 1]
        monic = block / block[:, -1:]
        comp = np.zeros((rows.shape[0], deg, deg), dtype=np.complex128)
        comp[:, 0, :] = -monic[:, deg - 1 :: -1]
        if deg > 1:
            idx = np.arange(deg - 1)
            comp[:, idx + 1, idx] = 1.0
        roots = np.linalg.eigvals(comp)
        p2 = np.zeros(roots.shape)
        for ai, di in zip(a, d):
            w = ai + roots * di
            p2 += w.real * w.real + w.imag * w.imag
        out[rows] = (p2 <= radius * radius).any(axis=1)
    return out


def _prescreen_reject_batch(coeff_matrix, line_blocks):
    """Numerically refute Z(psi) <= Z(h) near the origin, for all candidates.

    On a line passing close to 0, the origin branches of Z(psi) and of
    Z(h) cross at small parameter values.  The roots of h's squarefree
    restriction are simple and precise, so they can be deflated out of
    psi's restriction by synthetic division (stable, no multiple-root
    accuracy loss); a candidate whose deflated restriction still has a
    root near the origin has an origin branch escaping Z(h) and is
    rejected.  Survivors are verified exactly, so only completeness rests
    on this screen.

    Returns a boolean reject mask over the candidate rows.
    """
    ncand = coeff_matrix.shape[0]
    reject = np.zeros(ncand, dtype=bool)
    for a, d, block_rows, near_h_roots in line_blocks:
        q = coeff_matrix @ block_rows  # (ncand, line length), ascending in t
        live = np.abs(q).max(axis=1) > 1e-300
        width = q.shape[1]
        for s in near_h_roots:
            powers = s ** np.arange(width)
            apow = np.abs(powers)
            for _ in range(width):
                vals = q @ powers
                scales = np.abs(q) @ apow
                div = live & (np.abs(vals) <= _PRESCREEN_DIV_TOL * (1e-30 + scales))
                if not div.any():
                    break
                sub = q[div]
                w = np.zeros_like(sub)
                w[:, width - 2] = sub[:, width - 1]
                for k in range(width - 2, 0, -1):
                    w[:, k - 1] = sub[:, k] + s * w[:, k]
                q[div] = w
        # each row's roots depend on that row alone, so a candidate that an
        # earlier line rejected needs no eigensolve here
        todo = np.nonzero(live & ~reject)[0]
        reject[todo] = _roots_near_origin_mask(q[todo], a, d, _PRESCREEN_RADIUS)
    return reject


def _normalized_candidates(grid, length):
    """Nonzero tuples over ``grid`` scaled to first nonzero entry 1, each once.

    Returns the tuples, in the order ``itertools.product`` first meets
    them, and the same as a complex matrix.  Each quotient of two grid
    values is computed once and named by an index, so the product runs
    over small integers instead of exact scalars.
    """
    index, values, quotient = {}, [], {}
    for j, d in enumerate(grid):
        if d.is_zero():
            continue
        for i, c in enumerate(grid):
            q = c / d
            if q not in index:
                index[q] = len(values)
                values.append(q)
            quotient[i, j] = index[q]
    zero = next((k for k, c in enumerate(grid) if c.is_zero()), None)
    seen, keys = set(), []
    for idx in itertools.product(range(len(grid)), repeat=length):
        first = next((k for k in idx if k != zero), None)
        if first is None:
            continue
        key = tuple(quotient[k, first] for k in idx)
        if key not in seen:
            seen.add(key)
            keys.append(key)
    as_complex = [complex(v) for v in values]
    matrix = np.array([[as_complex[q] for q in key] for key in keys], dtype=np.complex128)
    return [tuple(values[q] for q in key) for key in keys], matrix.reshape(len(keys), length)


def bounded_gap_curve_search(germ, dec, max_degree=2, coeff_grid=None):
    """Enumerate curves of bounded degree over a finite coefficient grid.

    A heuristic, not a decision procedure: an empty result does not prove
    the absence of gap curves.  Candidates are normalized (first nonzero
    coefficient 1 in a fixed monomial order) and deduplicated up to scalar.
    Candidates whose pullback visibly escapes Z(h) near the origin are
    discarded by a numeric prescreen; the survivors are verified exactly,
    so every returned candidate is a genuine gap curve.
    """
    if max_degree < 1:
        raise PreconditionError("max_degree must be at least 1")
    grid = [
        c if isinstance(c, GaussianRational) else GaussianRational(c)
        for c in (coeff_grid if coeff_grid is not None else DEFAULT_COEFF_GRID)
    ]
    grid = sorted(set(grid), key=_grid_preference)
    if dec.h.is_unit_germ():
        return ()  # codimension-two case: no gap curve can exist
    monos = [
        (i, total - i)
        for total in range(1, max_degree + 1)
        for i in range(total, -1, -1)
    ]
    blocks = {}
    f_pow = [Polynomial.one(germ.n)]
    g_pow = [Polynomial.one(germ.n)]
    for _ in range(max_degree):
        f_pow.append(f_pow[-1] * germ.f)
        g_pow.append(g_pow[-1] * germ.g)
    for i, j in monos:
        blocks[(i, j)] = f_pow[i] * g_pow[j]

    h_bar = squarefree_part(dec.h)
    line_blocks = []
    for a, d in _near_origin_lines(
        germ.n, _PRESCREEN_LINES, _PRESCREEN_SEED, _PRESCREEN_OFFSET
    ):
        f_line = _restrict_to_line(germ.f, a, d)
        g_line = _restrict_to_line(germ.g, a, d)
        h_line = _restrict_to_line(h_bar, a, d)
        if np.allclose(h_line[1:], 0.0):
            continue
        h_roots = np.roots(h_line[::-1])
        # only roots on origin branches of Z(h) take part in the deflation
        keep = []
        for s in h_roots:
            if np.linalg.norm(a + s * d) <= _PRESCREEN_RADIUS:
                keep.append(s)
        h_roots = np.array(keep, dtype=np.complex128)
        fl = [np.ones(1, dtype=np.complex128)]
        gl = [np.ones(1, dtype=np.complex128)]
        for _ in range(max_degree):
            fl.append(np.convolve(fl[-1], f_line))
            gl.append(np.convolve(gl[-1], g_line))
        raw = [np.convolve(fl[m[0]], gl[m[1]]) for m in monos]
        width = max(r.shape[0] for r in raw)
        rows = np.zeros((len(monos), width), dtype=np.complex128)
        for k, r in enumerate(raw):
            rows[k, : r.shape[0]] = r
        line_blocks.append((a, d, rows, h_roots))

    candidates, coeff_matrix = _normalized_candidates(grid, len(monos))
    if line_blocks:
        reject = _prescreen_reject_batch(coeff_matrix, line_blocks)
    else:
        reject = np.zeros(len(candidates), dtype=bool)

    hits = []
    zero = Polynomial.zero(germ.n)
    for norm, rej in zip(candidates, reject):
        if rej:
            continue
        psi = zero
        for c, m in zip(norm, monos):
            if not c.is_zero():
                psi = psi + blocks[m].scale(c)
        if psi.is_zero():
            continue  # the curve contains the image: not a gap curve
        if _origin_factors_within(psi, h_bar):
            phi = Polynomial(2, {m: c for m, c in zip(monos, norm) if not c.is_zero()})
            hits.append(PlaneCurveCandidate(phi))
    return tuple(hits)


def _origin_factors_within(psi, h_bar):
    """Exact: every irreducible factor of psi through 0 divides h_bar.

    Equivalent to the squarefree/gcd germ-inclusion test, but strips the
    shared factors off psi layer by layer instead of taking the squarefree
    part of psi, which is much cheaper when h_bar is small and psi is not.
    """
    r = psi
    while True:
        d = gcd(r, h_bar)
        if d.is_constant():
            return not r.constant_term().is_zero()
        r = r.exact_divide(d)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


class Status(enum.Enum):
    LOCALLY_OPEN = "LocallyOpen"
    CURVE_IMAGE = "CurveImage"
    NOT_A_GERM = "NotAGerm"
    UNDETERMINED = "Undetermined"


class SubflatLabel(enum.Enum):
    SUBFLAT = "Subflat"
    NOT_SUBFLAT = "NotSubflat"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class CodimTwoWitness:
    pass


@dataclass(frozen=True)
class GapLineWitness:
    ratio: ProjectiveRatio


@dataclass(frozen=True)
class GapCurveWitness:
    curve: PlaneCurveCandidate


@dataclass(frozen=True)
class ContainmentWitness:
    direction: str  # "g_in_f" or "f_in_g"
    minor_vars: tuple
    minor: Polynomial


@dataclass(frozen=True)
class CurveEquationWitness:
    phi: Polynomial


@dataclass(frozen=True)
class ProbeOnlyWitness:
    report: object


_WITNESS_KINDS = {
    CodimTwoWitness: "CodimTwo",
    PropCritCertificate: "PropCritCertificate",
    GapLineWitness: "GapLine",
    GapCurveWitness: "GapCurve",
    ContainmentWitness: "ContainmentNonvanishingJacobian",
    CurveEquationWitness: "CurveEquation",
    ProbeOnlyWitness: "ProbeOnly",
}


def witness_kind(witness):
    if witness is None:
        return "None"
    return _WITNESS_KINDS[type(witness)]


@dataclass(frozen=True)
class Verdict:
    """A decision, its witness, and what ``classify`` computed on the way.

    ``decomposition`` is the gcd decomposition; it is None on the nested
    branches, which decide without it.  ``prop_crit`` is the outcome of the
    pencil criterion, None where the criterion did not run.
    """

    status: Status
    witness: object
    subflat_label: SubflatLabel
    rationale: str
    decomposition: object = None
    prop_crit: object = None


def classify(germ, search=None):
    """Full classification with a machine-checkable witness; no seed enters it."""
    search = search or GapCurveSearchParams()
    f, g = germ.f, germ.g

    if f.is_zero():
        g_in_f, f_in_g = True, False
    elif g.is_zero():
        g_in_f, f_in_g = False, True
    else:
        g_in_f = zero_set_germ_included(g, f)
        f_in_g = zero_set_germ_included(f, g)

    if g_in_f or f_in_g:
        nonzero_minor = first_nonzero_minor(germ)
        if nonzero_minor is None:
            phi = image_curve_equation(germ)
            return Verdict(
                status=Status.CURVE_IMAGE,
                witness=CurveEquationWitness(phi),
                subflat_label=SubflatLabel.UNKNOWN,
                rationale=(
                    "nested zero sets and identically vanishing Jacobian minors: "
                    "the image is a well-defined irreducible plane curve germ; "
                    "the image is the origin branch of the returned curve "
                    "(branch selection is not decided)"
                ),
            )
        (i, j), minor = nonzero_minor
        direction = "g_in_f" if g_in_f else "f_in_g"
        return Verdict(
            status=Status.NOT_A_GERM,
            witness=ContainmentWitness(direction, (i, j), minor),
            subflat_label=SubflatLabel.UNKNOWN,
            rationale=(
                "nested zero sets with a nonvanishing Jacobian minor: the image "
                "of a small ball depends on the radius, so the local image is "
                "not a well-defined set germ"
            ),
        )

    dec = decompose(germ)
    if intersection_dimension_case(germ, dec) is IntersectionCase.CODIM_TWO:
        return Verdict(
            status=Status.LOCALLY_OPEN,
            witness=CodimTwoWitness(),
            subflat_label=SubflatLabel.SUBFLAT,
            rationale=(
                "f and g share no factor through 0: the central fibre has "
                "codimension 2 and the image fills a target neighborhood"
            ),
            decomposition=dec,
        )

    if dec.f_hat_is_unit or dec.g_hat_is_unit:
        raise InternalConsistencyError("unit cofactor escaped the containment branch")

    outcome = prop_crit_check(dec)
    if outcome.kind is PropCritKind.GAP_LINE_FOUND:
        return Verdict(
            status=Status.NOT_A_GERM,
            witness=GapLineWitness(outcome.ratio),
            subflat_label=SubflatLabel.NOT_SUBFLAT,
            rationale=(
                "verified gap line: the line meets the image only at 0; a gap "
                "line is a gap curve, so the image is not locally open, and a "
                "curve image is impossible without nested zero sets, so the "
                "image is not a well-defined set germ"
            ),
            decomposition=dec,
            prop_crit=outcome,
        )
    if outcome.kind is PropCritKind.ESTABLISHED:
        return Verdict(
            status=Status.LOCALLY_OPEN,
            witness=outcome.certificate,
            subflat_label=SubflatLabel.SUBFLAT,
            rationale=(
                "the cofactor ratio is constant on no component of Z(h) through "
                "0 (C(0) != 0): every pencil member meets Z(h) in codimension 2, "
                "so the image fills a target neighborhood"
            ),
            decomposition=dec,
            prop_crit=outcome,
        )

    if outcome.curve is not None and is_gap_curve(germ, dec, outcome.curve):
        candidates = (outcome.curve,)
    else:
        candidates = bounded_gap_curve_search(
            germ, dec, search.max_degree, search.coeff_grid
        )
    if candidates:
        return Verdict(
            status=Status.NOT_A_GERM,
            witness=GapCurveWitness(candidates[0]),
            subflat_label=SubflatLabel.NOT_SUBFLAT,
            rationale=(
                "verified gap curve: its pullback vanishes only inside the "
                "central fibre, so the curve meets the image only at 0; the "
                "image is neither locally open nor a curve"
            ),
            decomposition=dec,
            prop_crit=outcome,
        )

    return Verdict(
        status=Status.UNDETERMINED,
        witness=None,
        subflat_label=SubflatLabel.UNKNOWN,
        rationale=(
            "no openness certificate and no gap witness within the search "
            f"bounds ({outcome.reason})"
        ),
        decomposition=dec,
        prop_crit=outcome,
    )


def verify_witness(germ, verdict):
    """Re-run the defining operation of a verdict's witness."""
    w = verdict.witness
    if w is None or isinstance(w, ProbeOnlyWitness):
        return True
    if isinstance(w, PropCritCertificate):
        dec = decompose(germ)
        return (
            _pencil_applies(dec)
            and pencil_constancy_locus(dec) == w.c
            and not w.c.constant_term().is_zero()
        )
    if isinstance(w, CodimTwoWitness):
        return decompose(germ).h.is_unit_germ()
    if isinstance(w, GapLineWitness):
        return is_gap_line(decompose(germ), w.ratio)
    if isinstance(w, GapCurveWitness):
        return is_gap_curve(germ, decompose(germ), w.curve)
    if isinstance(w, CurveEquationWitness):
        return (
            w.phi.constant_term().is_zero()
            and compose_target(w.phi, germ).is_zero()
        )
    if isinstance(w, ContainmentWitness):
        i, j = w.minor_vars
        if jacobian_minor(germ, i, j) != w.minor or w.minor.is_zero():
            return False
        f, g = germ.f, germ.g
        if w.direction == "g_in_f":
            return f.is_zero() or (not g.is_zero() and zero_set_germ_included(g, f))
        return g.is_zero() or (not f.is_zero() and zero_set_germ_included(f, g))
    raise InternalConsistencyError(f"unknown witness type {type(w).__name__}")
