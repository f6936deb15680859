"""JSON report assembly and the plot-ready occupancy CSV.

Field names and nesting are fixed; exact scalars serialize as "a/b" and
"(a/b)+(c/d)i"; polynomials serialize as canonical text.  Reports contain
no wall-clock data unless timing is explicitly requested, so runs with
equal seeds are byte-identical.
"""

from __future__ import annotations

import dataclasses
import json

from .algebra import _decomposition
from .classifier import (
    CodimTwoWitness,
    ContainmentWitness,
    CurveEquationWitness,
    GapCurveWitness,
    GapLineWitness,
    ProbeOnlyWitness,
    PropCritCertificate,
    Status,
    witness_kind,
)
from .parsing import format_polynomial, format_target_polynomial
from .probe import OccupancyReport


def serialize_fraction(q):
    return f"{q.numerator}/{q.denominator}"


def serialize_scalar(c):
    if not c.im:
        return serialize_fraction(c.re)
    return f"({serialize_fraction(c.re)})+({serialize_fraction(c.im)})i"


def serialize_ratio(r):
    return {"alpha": serialize_scalar(r.alpha), "beta": serialize_scalar(r.beta)}


def witness_json(witness, varnames):
    body = {"kind": witness_kind(witness)}
    if witness is None or isinstance(witness, CodimTwoWitness):
        return body
    if isinstance(witness, GapLineWitness):
        body["ratio"] = serialize_ratio(witness.ratio)
        return body
    if isinstance(witness, GapCurveWitness):
        body["phi"] = format_target_polynomial(witness.curve.phi)
        return body
    if isinstance(witness, CurveEquationWitness):
        body["phi"] = format_target_polynomial(witness.phi)
        return body
    if isinstance(witness, ContainmentWitness):
        body["direction"] = witness.direction
        body["minor_vars"] = list(witness.minor_vars)
        body["minor"] = format_polynomial(witness.minor, varnames)
        return body
    if isinstance(witness, PropCritCertificate):
        body["stats"] = {"c": format_polynomial(witness.c, varnames), "note": witness.note}
        return body
    if isinstance(witness, ProbeOnlyWitness):
        body["probe"] = occupancy_json(witness.report) if witness.report else None
        return body
    raise TypeError(f"unknown witness type {type(witness).__name__}")


def input_json(name, varnames, f_text, g_text):
    return {"name": name, "vars": list(varnames), "f": f_text, "g": g_text}


def verdict_json(verdict, varnames):
    return {
        "status": verdict.status.value,
        "witness": witness_json(verdict.witness, varnames),
        "subflat_label": verdict.subflat_label.value,
        "rationale": verdict.rationale,
    }


def decomposition_json(dec, varnames):
    return {
        "h": format_polynomial(dec.h, varnames),
        "f_hat": format_polynomial(dec.f_hat, varnames),
        "g_hat": format_polynomial(dec.g_hat, varnames),
        "f_hat_is_unit": dec.f_hat_is_unit,
        "g_hat_is_unit": dec.g_hat_is_unit,
    }


def prop_crit_json(outcome, varnames):
    return {
        "result": outcome.kind.value,
        "reason": outcome.reason,
        "c": format_polynomial(outcome.certificate.c, varnames),
        "refuted": [serialize_ratio(r) for r in outcome.search.refuted],
    }


def occupancy_json(report):
    return {
        "kind": "occupancy",
        "epsilon": report.epsilon,
        "target_radius": report.target_radius,
        "samples": report.samples,
        "grid_bins_per_axis": report.grid_bins_per_axis,
        "seed": report.seed,
        "total_bins": report.total_bins,
        "occupied_bins": report.occupied_bins,
        "occupied_fraction": report.occupied_fraction,
    }


def stability_json(report):
    return {
        "kind": "stability",
        "eps1": report.eps1,
        "eps2": report.eps2,
        "target_radius": report.target_radius,
        "samples": report.samples,
        "grid_bins_per_axis": report.grid_bins_per_axis,
        "seed": report.seed,
        "occupied_eps1": report.occupied_eps1,
        "occupied_eps2": report.occupied_eps2,
        "divergence": report.divergence,
    }


def residual_json(report):
    return {
        "kind": "residual",
        "epsilon": report.epsilon,
        "samples": report.samples,
        "seed": report.seed,
        "max_residual": report.max_residual,
        "mean_residual": report.mean_residual,
    }


def build_classify_report(
    name, varnames, f_text, g_text, germ, verdict, probe=None, timing=None
):
    """Attach probe evidence to a verdict and assemble its classify report.

    ``probe`` is a pair (JSON section, probe report) or None.  An occupancy
    probe becomes the witness of an Undetermined verdict that has none; it
    never changes the decision.  The criterion outcome is read from the
    verdict, and the decomposition is rebuilt from the verdict's h by two
    exact divisions: no gcd is taken here.

    Returns ``(verdict, report)``.
    """
    section, probe_report = probe or (None, None)
    if (
        verdict.status is Status.UNDETERMINED
        and verdict.witness is None
        and isinstance(probe_report, OccupancyReport)
    ):
        verdict = dataclasses.replace(verdict, witness=ProbeOnlyWitness(probe_report))
    report = {
        "input": input_json(name, varnames, f_text, g_text),
        "verdict": verdict_json(verdict, varnames),
        "decomposition": decomposition_json(_decomposition(germ, verdict.h), varnames),
    }
    if verdict.prop_crit is not None:
        report["prop_crit"] = prop_crit_json(verdict.prop_crit, varnames)
    if section is not None:
        report["probe"] = section
    if timing is not None:
        report["timing"] = {"seconds": timing}
    return verdict, report


def dumps_report(report):
    return json.dumps(report, indent=2) + "\n"


def emit_occupancy_grid(report, path):
    """CSV with one row per grid cell: bin-center coordinates and hit count.

    Every cell of the bins^4 grid is emitted (zero counts included) at full
    double precision, bit-exact for a given report.
    """
    bins = report.grid_bins_per_axis
    radius = report.target_radius
    width = 2.0 * radius / bins
    centers = [-radius + width * (k + 0.5) for k in range(bins)]
    hist = report.hit_histogram
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("re_u,im_u,re_v,im_v,count\n")
        idx = 0
        for i0 in range(bins):
            for i1 in range(bins):
                for i2 in range(bins):
                    for i3 in range(bins):
                        fh.write(
                            f"{centers[i0]!r},{centers[i1]!r},"
                            f"{centers[i2]!r},{centers[i3]!r},{int(hist[idx])}\n"
                        )
                        idx += 1
