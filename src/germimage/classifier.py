"""Decision pipeline for the local image of a map germ (C^n,0) -> (C^2,0).

Branch structure:

1. containment — if one zero set is included in the other at 0, the image
   is a well-defined germ exactly when every Jacobian minor vanishes, and
   then it is an irreducible plane curve germ;
2. codimension — no common factor of f and g through 0 means the central
   fibre has codimension 2 and the image fills a target neighborhood;
3. otherwise the gap machinery runs: sampled ratios of the cofactor
   pencil nominate candidate gap lines, candidates are verified exactly,
   and failing that a bounded search for gap curves runs.  A verified gap
   witness rules out both openness and (in this branch) a curve image, so
   the image is not a set germ.  With neither a certificate nor a witness
   the honest answer is Undetermined.

Witnesses are data, re-checkable by the exact operations in this module.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import (
    IntersectionCase,
    decompose,
    first_nonzero_minor,
    gcd,
    intersection_dimension_case,
    jacobian_minor,
    squarefree_part,
    zero_set_germ_included,
)
from .errors import (
    DegenerateSamplingError,
    ImageContainsCurveError,
    InternalConsistencyError,
    PreconditionError,
)
from .groebner import image_curve_equation
from .poly import MapGerm, Polynomial, compose_target
from .probe import SamplerConfig
from .rationals import ONE, GaussianRational


class ProjectiveRatio:
    """A point [alpha : beta] of P^1 over the Gaussian rationals.

    Canonical representative: the first nonzero component equals 1, so
    projectively equal ratios compare equal structurally.
    """

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha, beta):
        if not isinstance(alpha, GaussianRational):
            alpha = GaussianRational(alpha)
        if not isinstance(beta, GaussianRational):
            beta = GaussianRational(beta)
        if alpha.is_zero() and beta.is_zero():
            raise ValueError("(0, 0) is not a projective point")
        if not alpha.is_zero():
            beta = beta / alpha
            alpha = ONE
        else:
            beta = ONE
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    def __setattr__(self, name, value):
        raise AttributeError("ProjectiveRatio is immutable")

    def __eq__(self, other):
        if not isinstance(other, ProjectiveRatio):
            return NotImplemented
        return self.alpha == other.alpha and self.beta == other.beta

    def __hash__(self):
        return hash((self.alpha, self.beta))

    def __repr__(self):
        return f"ProjectiveRatio({self.alpha}, {self.beta})"


class PlaneCurveCandidate:
    """A plane curve {phi = 0} through the target origin."""

    __slots__ = ("phi",)

    def __init__(self, phi):
        if phi.nvars != 2:
            raise PreconditionError("curve candidates live in the target plane (u, v)")
        if phi.is_zero():
            raise PreconditionError("curve candidate must be a nonzero polynomial")
        if not phi.constant_term().is_zero():
            raise PreconditionError("curve candidate must pass through the origin")
        object.__setattr__(self, "phi", phi)

    def __setattr__(self, name, value):
        raise AttributeError("PlaneCurveCandidate is immutable")

    def __eq__(self, other):
        if not isinstance(other, PlaneCurveCandidate):
            return NotImplemented
        return self.phi == other.phi

    def __hash__(self):
        return hash(self.phi)

    def __repr__(self):
        return f"PlaneCurveCandidate({self.phi!r})"


# ---------------------------------------------------------------------------
# gap lines
# ---------------------------------------------------------------------------


def pencil_member(dec, ratio):
    """beta*f_hat + alpha*g_hat: the pullback of the line beta*u + alpha*v = 0."""
    return dec.f_hat.scale(ratio.beta) + dec.g_hat.scale(ratio.alpha)


def is_gap_line(dec, ratio):
    """Exact test: does the line [alpha : beta] meet the image only at 0?

    Reduces, via coprimality of the cofactors, to the germ inclusion of
    Z(beta*f_hat + alpha*g_hat) in Z(h).
    """
    if dec.f_hat_is_unit or dec.g_hat_is_unit:
        raise PreconditionError(
            "gap lines are defined only for non-unit cofactors; "
            "route through the containment branch instead"
        )
    if dec.h.is_unit_germ():
        raise PreconditionError("gap lines need the common factor to vanish at 0")
    w = pencil_member(dec, ratio)
    if w.is_zero():
        raise InternalConsistencyError("pencil member vanished for coprime cofactors")
    return zero_set_germ_included(w, dec.h)


@dataclass(frozen=True)
class RatioSample:
    line: int
    alpha: complex
    beta: complex


@dataclass(frozen=True)
class CoverageStats:
    lines: int
    roots: int
    samples: int
    clusters: int
    retries: int


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


def _eval_scale(poly, point):
    """Sum of term magnitudes at ``point``: the natural scale for residuals."""
    mags = [abs(complex(z)) for z in point]
    s = 0.0
    for m, c in poly.terms:
        t = abs(complex(c))
        for mag, e in zip(mags, m):
            t *= mag**e
        s += t
    return s


def _sample_pencil_ratios(dec, cfg):
    """Ratios [f_hat : -g_hat] at numerically sampled points of Z(h).

    Random affine lines (kept away from the origin) cut Z(h) in deg(h)
    points each; at each root the pencil ratio is recorded unless both
    cofactors nearly vanish there.  Deterministic for a fixed seed.
    """
    n = dec.h.nvars
    rng = np.random.default_rng(cfg.seed)
    samples = []
    roots_total = 0
    lines_done = 0
    retries = 0
    while True:
        for j in range(cfg.lines):
            while True:
                a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                nd = np.linalg.norm(d)
                if nd < 1e-12:
                    continue
                d = d / nd
                # keep the line bounded away from the origin
                perp = a - np.vdot(d, a) * d
                if np.linalg.norm(perp) > 0.3:
                    break
            coeffs = _restrict_to_line(dec.h, a, d)
            if np.allclose(coeffs[1:], 0.0):
                continue  # degenerate direction: h constant along the line
            roots = np.roots(coeffs[::-1])
            roots_total += roots.shape[0]
            for t0 in roots:
                p = a + t0 * d
                if abs(dec.h.evaluate(p)) > cfg.root_tol * (1.0 + _eval_scale(dec.h, p)):
                    continue
                fa = dec.f_hat.evaluate(p)
                gb = dec.g_hat.evaluate(p)
                small_f = abs(fa) <= cfg.root_tol * (1.0 + _eval_scale(dec.f_hat, p))
                small_g = abs(gb) <= cfg.root_tol * (1.0 + _eval_scale(dec.g_hat, p))
                if small_f and small_g:
                    continue  # near Z(f_hat) n Z(g_hat): ratio undefined
                alpha, beta = fa, -gb
                nrm = (abs(alpha) ** 2 + abs(beta) ** 2) ** 0.5
                alpha /= nrm
                beta /= nrm
                piv = alpha if abs(alpha) >= abs(beta) else beta
                phase = piv.conjugate() / abs(piv)
                samples.append(
                    RatioSample(line=lines_done + j, alpha=alpha * phase, beta=beta * phase)
                )
        lines_done += cfg.lines
        if samples:
            return samples, roots_total, lines_done, retries
        retries += 1
        if retries > cfg.max_retries:
            raise DegenerateSamplingError(
                "no usable pencil ratios after "
                f"{lines_done} lines ({retries} rounds)"
            )


def _chordal(s, t):
    return abs(s.alpha * t.beta - t.alpha * s.beta)


def _cluster_samples(samples, tol):
    """Transitive merge of ratio samples at chordal tolerance; deterministic."""
    n = len(samples)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if _chordal(samples[i], samples[j]) <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)

    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [groups[r] for r in sorted(groups)]


def _rationalize_ratio(alpha, beta, bound, tol):
    """Continued-fraction reconstruction of a sampled ratio, or None."""

    def rat(z):
        re = Fraction(z.real).limit_denominator(bound)
        im = Fraction(z.imag).limit_denominator(bound)
        if abs(complex(float(re), float(im)) - z) > tol * (1.0 + abs(z)):
            return None
        return GaussianRational(re, im)

    if abs(alpha) >= abs(beta):
        z = rat(beta / alpha)
        return None if z is None else ProjectiveRatio(ONE, z)
    z = rat(alpha / beta)
    return None if z is None else ProjectiveRatio(z, ONE)


@dataclass(frozen=True)
class GapLineSearchResult:
    verified: tuple
    unverified_numeric: tuple
    coverage: CoverageStats


def _candidate_clusters(dec, cfg):
    samples, roots, lines, retries = _sample_pencil_ratios(dec, cfg)
    clusters = _cluster_samples(samples, cfg.cluster_tol)
    candidates = []
    for members in clusters:
        if len({samples[i].line for i in members}) >= 2:
            candidates.append(members)
    stats = CoverageStats(
        lines=lines,
        roots=roots,
        samples=len(samples),
        clusters=len(candidates),
        retries=retries,
    )
    return samples, candidates, stats


def find_gap_lines(dec, cfg=None):
    """Hybrid gap-line finder: numeric candidates, exact verification.

    A ratio constant along a whole component of Z(h) shows up as a cluster
    hit by at least two independent lines; each such cluster is
    rationalized and verified exactly.  Clusters that do not rationalize
    within the bound are reported as unverified numerics.
    """
    cfg = cfg or SamplerConfig()
    if dec.f_hat_is_unit or dec.g_hat_is_unit:
        raise PreconditionError(
            "gap-line search is defined only for non-unit cofactors"
        )
    if dec.h.is_unit_germ():
        raise PreconditionError("gap-line search needs the common factor through 0")
    samples, candidates, stats = _candidate_clusters(dec, cfg)
    verified = []
    unverified = []
    rat_tol = max(cfg.cluster_tol * 10.0, 1e-9)
    for members in candidates:
        rep = samples[members[0]]
        ratio = _rationalize_ratio(rep.alpha, rep.beta, cfg.rational_bound, rat_tol)
        if ratio is None:
            unverified.append((rep.alpha, rep.beta))
        elif is_gap_line(dec, ratio) and ratio not in verified:
            verified.append(ratio)
    return GapLineSearchResult(
        verified=tuple(verified),
        unverified_numeric=tuple(unverified),
        coverage=stats,
    )


# ---------------------------------------------------------------------------
# the sufficient openness test
# ---------------------------------------------------------------------------


class PropCritKind(enum.Enum):
    ESTABLISHED = "Established"
    GAP_LINE_FOUND = "GapLineFound"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class PropCritCertificate:
    """Sampling statistics behind a probabilistic openness certificate."""

    lines: int
    roots: int
    samples: int
    candidate_clusters: int
    refuted: tuple
    unverified: tuple
    note: str = (
        "probabilistic certificate: no pencil ratio repeated across "
        "independent lines, so every sampled component of Z(h) meets each "
        "pencil member transversally"
    )


@dataclass(frozen=True)
class PropCritOutcome:
    kind: PropCritKind
    ratio: object
    reason: str
    certificate: PropCritCertificate


def prop_crit_check(dec, cfg=None):
    """Does every member of the cofactor pencil cut Z(h) in codimension 2?

    Established means no sampled ratio repeated across independent lines
    (a probabilistic certificate).  A repeated ratio falsifies the
    hypothesis for that ratio; if it verifies exactly as a gap line the
    outcome is GapLineFound, otherwise Inconclusive.
    """
    cfg = cfg or SamplerConfig()
    if dec.f_hat_is_unit or dec.g_hat_is_unit:
        raise PreconditionError("openness test is defined only for non-unit cofactors")
    if dec.h.is_unit_germ():
        raise PreconditionError("openness test needs the common factor through 0")
    samples, candidates, stats = _candidate_clusters(dec, cfg)
    refuted = []
    unverified = []
    rat_tol = max(cfg.cluster_tol * 10.0, 1e-9)
    for members in candidates:
        rep = samples[members[0]]
        ratio = _rationalize_ratio(rep.alpha, rep.beta, cfg.rational_bound, rat_tol)
        if ratio is None:
            unverified.append((rep.alpha, rep.beta))
            continue
        if is_gap_line(dec, ratio):
            cert = PropCritCertificate(
                lines=stats.lines,
                roots=stats.roots,
                samples=stats.samples,
                candidate_clusters=stats.clusters,
                refuted=tuple(refuted),
                unverified=tuple(unverified),
                note="gap line verified exactly",
            )
            return PropCritOutcome(
                kind=PropCritKind.GAP_LINE_FOUND,
                ratio=ratio,
                reason="a sampled ratio is constant along a component of Z(h) "
                "and verifies exactly as a gap line",
                certificate=cert,
            )
        if ratio not in refuted:
            refuted.append(ratio)
    cert = PropCritCertificate(
        lines=stats.lines,
        roots=stats.roots,
        samples=stats.samples,
        candidate_clusters=stats.clusters,
        refuted=tuple(refuted),
        unverified=tuple(unverified),
    )
    if refuted or unverified:
        bits = []
        if refuted:
            bits.append(
                f"{len(refuted)} repeated ratio(s) share a factor with h but fail "
                "the germ inclusion (criterion hypothesis fails, no gap line)"
            )
        if unverified:
            bits.append(
                f"{len(unverified)} repeated ratio(s) did not rationalize within "
                "the bound"
            )
        return PropCritOutcome(
            kind=PropCritKind.INCONCLUSIVE,
            ratio=None,
            reason="; ".join(bits),
            certificate=cert,
        )
    return PropCritOutcome(
        kind=PropCritKind.ESTABLISHED,
        ratio=None,
        reason="",
        certificate=cert,
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
        reject |= live & _roots_near_origin_mask(q, a, d, _PRESCREEN_RADIUS)
    return reject


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

    seen = set()
    candidates = []
    for coeffs in itertools.product(grid, repeat=len(monos)):
        first = next((c for c in coeffs if not c.is_zero()), None)
        if first is None:
            continue
        norm = tuple(c / first for c in coeffs)
        if norm not in seen:
            seen.add(norm)
            candidates.append(norm)

    if line_blocks:
        coeff_matrix = np.array(
            [[complex(c) for c in norm] for norm in candidates], dtype=np.complex128
        )
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


def classify(germ, cfg=None, search=None):
    """Full classification with a machine-checkable witness."""
    cfg = cfg or SamplerConfig()
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

    outcome = prop_crit_check(dec, cfg)
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
                "sampled pencil ratios never repeated across independent lines: "
                "every pencil member meets Z(h) in codimension 2, so the image "
                "fills a target neighborhood (probabilistic certificate)"
            ),
            decomposition=dec,
            prop_crit=outcome,
        )

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
    if w is None or isinstance(w, (ProbeOnlyWitness, PropCritCertificate)):
        return True
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
