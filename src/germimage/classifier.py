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
   constant on no component of Z(h) through 0.  One table of the pieces
   of h_bar, the components D with ord_D f = p and ord_D g = q, gives C
   and, when C(0) = 0, one nomination walk for a gap witness.  On each
   piece through 0, f^q' : g^p', (p', q') = (p, q)/gcd(p, q), is constant
   on the components of a locus like C, and the roots of one resultant on
   a line L with small Gaussian-integer coefficients are exactly those
   constants.  A root c in Q(i) nominates the curve u^q' + c*v^p' = 0,
   and the rest of the resultant one more curve.  The pieces with p = q
   give the lines u + c*v = 0, the constant ratios f_hat : g_hat; these
   are verified first, and the first that passes is the gap line.
   Failing them, every curve is verified, and a refuted one shears the
   target along itself for the next round (Newton-Puiseux run in the
   target, to a fixed depth).  A verified gap witness rules out both
   openness and (in this branch) a curve image, so the image is not a set
   germ.  With neither a certificate nor a witness the answer is Undetermined.

   The coordinate axes are never nominated, and never needed: in this
   branch neither u = 0 nor v = 0 is a gap line.  The preimage of u = 0 is
   Z(f), so u = 0 is a gap line exactly when the germ of Z(f) lies in
   Z(h), the inclusion :func:`is_gap_curve` tests.  Then
   Z(f) = Z(h) u Z(f_hat) lies in Z(h), which lies in Z(g): the zero sets
   are nested, and the containment branch has decided first.  The same
   holds for v = 0 with f and g exchanged.

Everything here is exact arithmetic over Q(i): verdicts involve no
floating point and no random choice, so they do not depend on the seed,
which drives only the probes.

Witnesses are data, re-checkable by the exact operations in this module.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

from .algebra import (
    IntersectionCase,
    _strip,
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
from .rationals import I, ONE, GaussianRational


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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
# the cofactor pencil: the constancy locus and its nominations
# ---------------------------------------------------------------------------


def _pencil_applies(dec):
    return not (dec.f_hat_is_unit or dec.g_hat_is_unit or dec.h.is_unit_germ())


def _pencil_table(dec, f, g):
    """The :class:`_WeightedNominations` table of (f, g) = (h*f_hat, h*g_hat)."""
    if not _pencil_applies(dec):
        raise PreconditionError(
            "the cofactor pencil needs non-unit cofactors and a common factor "
            "through 0; route through the containment or codimension branch"
        )
    return _WeightedNominations(squarefree_part(dec.h), f, g, dec.f_hat, dec.g_hat)


def _constancy_locus(base, omega):
    """gcd(base, 2x2 minors of (omega, d base)) for a squarefree ``base``.

    d base vanishes on no component of Z(base), so an irreducible factor
    of base divides every minor exactly when omega restricted to its zero
    set is a multiple of d base there.
    """
    n = base.nvars
    db = [base.partial_derivative(i) for i in range(n)]
    minors = [omega[i] * db[j] - omega[j] * db[i] for i in range(n) for j in range(i + 1, n)]
    return gcd_many([base] + minors)


def pencil_constancy_locus(dec):
    """C = gcd(h_bar, 2x2 minors of (omega, dh_bar)), omega = g_hat*df_hat - f_hat*dg_hat.

    h_bar is the squarefree part of h, so dh_bar vanishes on no component
    of Z(h), and C is the product of the components of Z(h) on which
    f_hat : g_hat is constant: C(0) != 0 says there is none through 0.  It
    is read off the pieces P_pq of h_bar (:class:`_WeightedNominations`)
    as prod_{p != q} P_pq * prod_p gcd(P_pp, 2x2 minors of (omega, dP_pp)),
    monic, squarefree, pairwise coprime factors: the monic gcd above, term
    for term.  For a component D of a piece P:

    1. p != q: D divides every minor.  One of f_hat, g_hat vanishes on D,
       say f_hat = D^e*U with U prime to D.  If e >= 2, omega = 0 mod D; if
       e = 1, omega = g_hat*U*dD and dh_bar = (h_bar/D)*dD mod D.
    2. p = q: dh_bar = (h_bar/P)*dP mod P, and h_bar/P is prime to P.
    3. The walk's (p, p) locus, from A = f/P^p, B = g/P^p, is the same: with
       h = P^p*R, A = f_hat*R, B = g_hat*R, B*dA - A*dB = R^2*omega, R prime to P.
    """
    return _pencil_table(dec, dec.h * dec.f_hat, dec.h * dec.g_hat).certificate()


# The lines a + t*d of the nomination: d runs over _LINE_ENTRIES^n in
# product order from (1, ..., 1), and a is the vector after d.
_LINE_ENTRIES = (ONE, -ONE, GaussianRational(2), I, GaussianRational(-2), -I)
_NOMINATION_LINES = 64  # lines of the fixed list tried before giving up


def _exact_on_line(poly, a, d):
    """poly(a + t*d) exactly, in the ring (t, c) of the nomination."""
    t = Polynomial.variable(2, 0)
    return substitute(poly, [t.scale(dj) + Polynomial.constant(2, aj) for aj, dj in zip(a, d)])


def _line_resultant(first, second, locus, a, d):
    """R(c) = Res_t(C_L, first_L + c*second_L) on L = a + t*d.

    R = lc^k * prod(first(p) + c*second(p)) over the points p of L n Z(C):
    its roots are the ratios [c : 1] there.  None when L loses points of
    Z(C) at infinity (deg_t C_L < deg C) or meets Z(C) where both pencil
    polynomials vanish (R = 0).  Otherwise deg_t C_L = deg C, so lc_t(C_L)
    is the top form of C at d, a nonzero constant, as
    :func:`germimage.algebra.resultant` requires of its first argument.
    """
    c_line = _exact_on_line(locus, a, d)
    if c_line.max_degree_in(0) < locus.degree():
        return None
    c = Polynomial.variable(2, 1)
    pencil = _exact_on_line(first, a, d) + c * _exact_on_line(second, a, d)
    r = resultant(c_line, pencil, 0)
    if r.is_zero():
        return None
    return Polynomial(1, [((m[1],), k) for m, k in r.terms])


def _line_resultants(first, second, locus):
    """:func:`_line_resultant` on each line of the fixed list where it is defined."""
    vectors = itertools.product(_LINE_ENTRIES, repeat=locus.nvars)
    vectors = list(itertools.islice(vectors, _NOMINATION_LINES + 1))
    for a, d in zip(vectors[1:], vectors):
        found = _line_resultant(first, second, locus, a, d)
        if found is not None:
            yield found


def _weighted_curve(rest, q, p):
    """prod(u^q + s*v^p) over the roots s of ``rest``, up to a scalar.

    rest = sum s_e c^e gives sum s_e (-u^q)^e (v^p)^(k-e), k = deg rest.
    """
    k = rest.degree()
    terms = [((q * e, p * (k - e)), -s if e % 2 else s) for (e,), s in rest.terms]
    return Polynomial(2, terms)


# ---------------------------------------------------------------------------
# gap curves and the nomination walk
# ---------------------------------------------------------------------------


def is_gap_curve(germ, dec, candidate):
    """Exact test: does the curve {phi = 0} meet the image only at 0?

    Via the pullback: every irreducible factor of psi = phi(f, g) through 0
    must divide h, i.e. the germ of Z(psi) lies in Z(h).  psi = 0 means the
    curve contains the whole image and is signalled separately.
    """
    psi = compose_target(candidate.phi, germ)
    if psi.is_zero():
        raise ImageContainsCurveError(
            "the candidate curve contains the image; use the curve-image branch"
        )
    return zero_set_germ_included(psi, dec.h)


_SHEAR_DEPTH = 3  # target shears stacked along one chain of refuted candidates


def _order_layers(h_bar, f):
    """[E_1, E_2, ...]: E_k is the product of the components D of h_bar with ord_D f = k.

    A gcd ladder on the squarefree h_bar, which divides f: the product of
    the components of order >= k + 1 is gcd(that of order >= k, f / (that
    of order 1) / ... / (that of order k)).
    """
    layers, at_least, rest = [], h_bar, f
    while not at_least.is_constant():
        rest = rest.exact_divide(at_least)
        deeper = gcd(at_least, rest)
        layers.append(at_least.exact_divide(deeper))
        at_least = deeper
    return layers


class _WeightedNominations:
    """The piece table of the pair (f, g): the certificate C and the gap candidates.

    Its pieces P = gcd(E_p, F_q), from the ladders E, F of
    :func:`_order_layers`, are the components D of h_bar with ord_D f = p
    and ord_D g = q.  With A = f/P^p, B = g/P^q and (p', q') = (p, q) /
    gcd(p, q), neither A nor B vanishes on D, and f^q' / g^p' = A^q' / B^p'
    is constant there exactly when D divides C = gcd(P, 2x2 minors of
    (q'*B*dA - p'*A*dB, dP)); for p = q this is the factor of
    :meth:`certificate`, one for both.  Where C(0) = 0, the roots of
    R(c) = Res_t(C_L, A_L^q' + c*B_L^p') on a line L of the fixed list are
    those constants, all finite and nonzero: where B vanishes on Z(C), so
    does A, and then R = 0 and the line is skipped.  Each root c in Q(i)
    nominates phi = u^q' + c*v^p', and the rest of R one
    weighted-homogeneous phi (with c = None).

    Candidates are built per piece when first asked for, and kept:
    :meth:`lines` builds only the pieces with p = q, whose roots are the
    lines u + c*v; iterating yields every piece's in the order of (p, q).
    """

    def __init__(self, h_bar, f, g, f_hat, g_hat):
        self.h_bar, self._f, self._g = h_bar, f, g
        df, dg = ([x.partial_derivative(i) for i in range(f.nvars)] for x in (f_hat, g_hat))
        omega = [g_hat * dfi - f_hat * dgi for dfi, dgi in zip(df, dg)]
        self._layers = _order_layers(h_bar, f), _order_layers(h_bar, g)
        self._diagonal = [gcd(*pair) for pair in zip(*self._layers)]
        self._loci, self._built = [_constancy_locus(piece, omega) for piece in self._diagonal], {}

    def certificate(self):
        """prod_{p != q} P_pq * prod_p (the locus of P_pp), the first as h_bar / prod_p P_pp."""
        c = self.h_bar
        for piece, locus in zip(self._diagonal, self._loci):
            c = c.exact_divide(piece) * locus
        return c

    def _nominations(self, p, q):
        if (p, q) not in self._built:
            self._built[p, q] = self._build(p, q)
        return self._built[p, q]

    def _build(self, p, q):
        """The candidates (p', q', c, phi) of the piece P_pq."""
        layers_f, layers_g = self._layers
        piece = self._diagonal[p - 1] if p == q else gcd(layers_f[p - 1], layers_g[q - 1])
        if not piece.constant_term().is_zero():
            return []
        a, b = self._f.exact_divide(piece**p), self._g.exact_divide(piece**q)
        p1, q1 = p // math.gcd(p, q), q // math.gcd(p, q)
        if p == q:
            locus = self._loci[p - 1]
        else:
            da, db = ([x.partial_derivative(i) for i in range(piece.nvars)] for x in (a, b))
            omega = [b * x.scale(q1) - a * y.scale(p1) for x, y in zip(da, db)]
            locus = _constancy_locus(piece, omega)
        if not locus.constant_term().is_zero():
            return []
        found = next(_line_resultants(a**q1, b**p1, locus), None)
        split = None if found is None else gaussian_rational_roots(found)
        if split is None:
            return []
        roots, rest = split
        found = [(p1, q1, c, Polynomial(2, {(q1, 0): ONE, (0, p1): c})) for c in roots]
        if rest.degree():
            found.append((p1, q1, None, _weighted_curve(rest, q1, p1)))
        return found

    def lines(self):
        """The candidates u + c*v, c in Q(i), of the pieces with p = q, in the order of p."""
        diagonal = (self._nominations(p, p) for p in range(1, len(self._diagonal) + 1))
        return [found for built in diagonal for found in built if found[2] is not None]

    def __iter__(self):
        for p, q in itertools.product(*(range(1, len(e) + 1) for e in self._layers)):
            yield from self._nominations(p, q)


def _normalized(phi):
    """phi scaled so that its first canonical term of lowest total degree has coefficient 1."""
    low = min(sum(m) for m, _ in phi.terms)
    return phi.scale(ONE / next(c for m, c in phi.terms if sum(m) == low))


@dataclass(frozen=True, slots=True)
class GapSearch:
    """What the nomination walk verified and refuted.

    ``lines`` and ``refuted`` hold the ratios [c : 1] of the unsheared
    lines u + c*v that pass and fail :func:`is_gap_curve`; ``curves`` holds
    the verified gap curves, searched only when no line passes.  True when
    the walk verified a gap line or curve.
    """

    lines: tuple = ()
    refuted: tuple = ()
    curves: tuple = ()

    def __bool__(self):
        return bool(self.lines or self.curves)


def bounded_gap_curve_search(germ, dec, nominated):
    """The one nomination walk of the C(0) = 0 branch: lines first, then curves.

    Newton-Puiseux run in the target on ``nominated``, the
    :class:`_WeightedNominations` table of (f, g) that gave C.  Each root
    c in Q(i) of a piece with p = q (p' = q' = 1) is the line u + c*v.
    Those pieces are built first, and all their lines are checked with
    :func:`is_gap_curve` before any other piece is built or any curve
    checked.  When none passes, every candidate is checked in turn, in the
    order of the pieces (p, q); when a candidate u + c*v^p' or u^q' + c*v
    (c != 0) is refuted, the target is sheared along it, f <- f + c*g^p' or
    g <- g + f^q'/c (which keeps h), and the same steps run on the table of
    the new pair, at most _SHEAR_DEPTH shears deep; a candidate found there
    is mapped back by the inverse substitution.  Not a decision procedure:
    an empty result does not prove that no gap curve exists.
    """
    checked = {}  # curve -> is_gap_curve, None where the curve contains the image

    def check(curve):
        if curve not in checked:
            try:
                checked[curve] = is_gap_curve(germ, dec, curve)
            except ImageContainsCurveError:
                checked[curve] = None
        return checked[curve]

    lines = {
        ProjectiveRatio(c, ONE): check(PlaneCurveCandidate(phi))
        for _, _, c, phi in nominated.lines()
    }
    refuted = tuple(ratio for ratio, ok in lines.items() if ok is False)
    verified = tuple(ratio for ratio, ok in lines.items() if ok)
    if verified:
        return GapSearch(lines=verified, refuted=refuted)
    hits = []

    def search(nominations, f, g, back_u, back_v, depth):
        # back_u, back_v: the current target coordinates in terms of the original ones
        for p1, q1, c, phi in nominations:
            curve = PlaneCurveCandidate(_normalized(substitute(phi, [back_u, back_v])))
            verified = check(curve)
            if verified is None:
                continue
            if verified and curve not in hits:
                hits.append(curve)
            if verified or not c or depth == _SHEAR_DEPTH:
                continue
            if q1 == 1:
                sheared = (f + (g**p1).scale(c), g, back_u + (back_v**p1).scale(c), back_v)
            elif p1 == 1:
                s = ONE / c
                sheared = (f, g + (f**q1).scale(s), back_u, back_v + (back_u**q1).scale(s))
            else:
                continue
            f2, g2 = sheared[:2]
            hats = f2.exact_divide(dec.h), g2.exact_divide(dec.h)
            search(_WeightedNominations(nominated.h_bar, f2, g2, *hats), *sheared, depth + 1)

    u, v = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    search(nominated, germ.f, germ.g, u, v, 0)
    return GapSearch(refuted=refuted, curves=tuple(hits))


# ---------------------------------------------------------------------------
# the pencil criterion
# ---------------------------------------------------------------------------


class PropCritKind(enum.Enum):
    ESTABLISHED = "Established"
    GAP_LINE_FOUND = "GapLineFound"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True, slots=True)
class PropCritCertificate:
    """The exact openness certificate C = :func:`pencil_constancy_locus`.

    The criterion holds exactly when C(0) != 0; :func:`verify_witness`
    builds the piece table afresh and recomputes C.
    """

    c: Polynomial
    note: str = (
        "exact certificate: C = gcd(h_bar, minors of (omega, dh_bar)) does not "
        "vanish at 0, so f_hat : g_hat is constant on no component of Z(h) "
        "through 0 and every pencil member meets Z(h) in codimension 2"
    )


@dataclass(frozen=True, slots=True)
class PropCritOutcome:
    """The criterion's outcome and the nomination walk behind it.

    ``certificate`` holds C.  ``search`` is the :class:`GapSearch` of
    :func:`bounded_gap_curve_search` when C(0) = 0, and empty when nothing
    was nominated (Established).  The kind is GapLineFound exactly when
    ``search.lines`` is not empty.
    """

    kind: PropCritKind
    reason: str
    certificate: PropCritCertificate
    search: GapSearch = GapSearch()


def prop_crit_check(germ, dec):
    """Does every member of the cofactor pencil cut Z(h) in codimension 2?

    Decided exactly by C = :func:`pencil_constancy_locus`, read off one
    piece table of (f, g): Established when C(0) != 0.  Otherwise the
    hypothesis fails; :func:`bounded_gap_curve_search` runs the nomination
    walk once on the same table, and the outcome is GapLineFound when one
    of its lines verifies, Inconclusive when none does.
    """
    nominated = _pencil_table(dec, germ.f, germ.g)
    cert = PropCritCertificate(nominated.certificate())
    if not cert.c.constant_term().is_zero():
        return PropCritOutcome(PropCritKind.ESTABLISHED, "", cert)
    search = bounded_gap_curve_search(germ, dec, nominated)
    if search.lines:
        reason = (
            "a nominated ratio is constant along a component of Z(h) and "
            "verifies exactly as a gap line"
        )
        return PropCritOutcome(PropCritKind.GAP_LINE_FOUND, reason, cert, search)
    bits = [
        "the pencil ratio is constant on a component of Z(h) through 0, so the "
        "criterion hypothesis fails"
    ]
    if search.refuted:
        bits.append(
            f"{len(search.refuted)} nominated ratio(s) fail the germ inclusion, so no gap line"
        )
    if search.curves:
        bits.append(f"{len(search.curves)} nominated gap curve(s) verify")
    else:
        bits.append(f"no nominated curve verifies within {_SHEAR_DEPTH} target shears")
    return PropCritOutcome(PropCritKind.INCONCLUSIVE, "; ".join(bits), cert, search)


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


@dataclass(frozen=True, slots=True)
class CodimTwoWitness:
    pass


@dataclass(frozen=True, slots=True)
class GapLineWitness:
    ratio: ProjectiveRatio


@dataclass(frozen=True, slots=True)
class GapCurveWitness:
    curve: PlaneCurveCandidate


@dataclass(frozen=True, slots=True)
class ContainmentWitness:
    direction: str  # "g_in_f" or "f_in_g"
    minor_vars: tuple
    minor: Polynomial


@dataclass(frozen=True, slots=True)
class CurveEquationWitness:
    phi: Polynomial


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class Verdict:
    """A decision, its witness, and what ``classify`` computed on the way.

    ``h`` is gcd(f, g); ``classify`` sets it on every branch, and only a
    verdict built by hand leaves it None.  A verdict keeps h and not the
    :class:`GcdDecomposition`: the cofactors f_hat = f/h and g_hat = g/h
    are two exact divisions away (``algebra._decomposition``), while a
    verdict that held them would keep both alive for every germ a caller
    keeps.  ``prop_crit`` is the outcome of the pencil criterion, None
    where the criterion did not run.
    """

    status: Status
    witness: object
    subflat_label: SubflatLabel
    rationale: str
    h: object = None
    prop_crit: object = None


def classify(germ):
    """Full classification with a machine-checkable witness; no seed enters it."""
    f, g = germ.f, germ.g
    dec = decompose(germ)
    h = dec.h  # when f or g is 0, the other component made monic

    if f.is_zero():
        g_in_f, f_in_g = True, False
    elif g.is_zero():
        g_in_f, f_in_g = False, True
    else:
        # one gcd for both inclusions and the decomposition: gcd(g, f) is
        # gcd(f, g), and g_hat = g / h is where the strip from g stands
        # after its first division (see algebra._strip)
        g_in_f = _strip(dec.g_hat, h)
        f_in_g = _strip(dec.f_hat, h)

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
                h=h,
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
            h=h,
        )

    if intersection_dimension_case(germ, dec) is IntersectionCase.CODIM_TWO:
        return Verdict(
            status=Status.LOCALLY_OPEN,
            witness=CodimTwoWitness(),
            subflat_label=SubflatLabel.SUBFLAT,
            rationale=(
                "f and g share no factor through 0: the central fibre has "
                "codimension 2 and the image fills a target neighborhood"
            ),
            h=h,
        )

    outcome = prop_crit_check(germ, dec)
    if outcome.kind is PropCritKind.GAP_LINE_FOUND:
        return Verdict(
            status=Status.NOT_A_GERM,
            witness=GapLineWitness(outcome.search.lines[0]),
            subflat_label=SubflatLabel.NOT_SUBFLAT,
            rationale=(
                "verified gap line: the line meets the image only at 0; a gap "
                "line is a gap curve, so the image is not locally open, and a "
                "curve image is impossible without nested zero sets, so the "
                "image is not a well-defined set germ"
            ),
            h=h,
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
            h=h,
            prop_crit=outcome,
        )

    if outcome.search.curves:
        return Verdict(
            status=Status.NOT_A_GERM,
            witness=GapCurveWitness(outcome.search.curves[0]),
            subflat_label=SubflatLabel.NOT_SUBFLAT,
            rationale=(
                "verified gap curve: its pullback vanishes only inside the "
                "central fibre, so the curve meets the image only at 0; the "
                "image is neither locally open nor a curve"
            ),
            h=h,
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
        h=h,
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
        dec = decompose(germ)
        line = PlaneCurveCandidate(Polynomial(2, {(1, 0): w.ratio.beta, (0, 1): w.ratio.alpha}))
        return _pencil_applies(dec) and is_gap_curve(germ, dec, line)
    if isinstance(w, GapCurveWitness):
        try:
            return is_gap_curve(germ, decompose(germ), w.curve)
        except ImageContainsCurveError:
            return False
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
