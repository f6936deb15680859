"""Command-line interface.

Subcommands: classify, gap-lines, gap-curve, image-curve, probe, corpus.
Exit codes: 0 success, 1 classification mismatch (corpus), 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .algebra import decompose
from .classifier import (
    PlaneCurveCandidate,
    classify,
    find_gap_lines,
    is_gap_curve,
    witness_kind,
)
from .corpus import load_corpus, run_corpus, summary_table
from .errors import GermImageError, ImageContainsCurveError
from .groebner import image_curve_equation
from .parsing import (
    TARGET_VARS,
    format_polynomial,
    format_target_polynomial,
    parse_map_germ,
    parse_polynomial,
)
from .probe import (
    SamplerConfig,
    ball_image_occupancy,
    curve_residual_probe,
    germ_stability_probe,
)
from .report import (
    build_classify_report,
    dumps_report,
    emit_occupancy_grid,
    occupancy_json,
    residual_json,
    serialize_ratio,
    stability_json,
)


def _add_input_args(sub):
    sub.add_argument("--vars", help="comma- or space-separated source variables")
    sub.add_argument("--f", dest="f_text", help="first component")
    sub.add_argument("--g", dest="g_text", help="second component")
    sub.add_argument("--entry", help="corpus entry name instead of --vars/--f/--g")
    sub.add_argument("--corpus-file", help="corpus file (default: shipped corpus)")


def _resolve_input(args):
    if args.entry:
        entries = load_corpus(args.corpus_file)
        for entry in entries:
            if entry.name == args.entry:
                return entry.name, entry.varnames, entry.f_text, entry.g_text
        raise GermImageError(f"no corpus entry named {args.entry!r}")
    if not (args.vars and args.f_text and args.g_text):
        raise GermImageError("provide --vars, --f and --g (or --entry NAME)")
    varnames = tuple(args.vars.replace(",", " ").split())
    return "ad-hoc", varnames, args.f_text, args.g_text


def _sampler(args):
    return SamplerConfig(
        epsilon=args.epsilon,
        target_radius=args.target_radius,
        samples=args.samples,
        grid_bins_per_axis=args.bins,
        seed=args.seed,
    )


def cmd_classify(args):
    name, varnames, f_text, g_text = _resolve_input(args)
    germ = parse_map_germ(varnames, f_text, g_text)
    t0 = time.monotonic()
    verdict = classify(germ)

    probe = None
    if args.probe:
        rep = ball_image_occupancy(germ, _sampler(args))
        probe = (occupancy_json(rep), rep)
    elapsed = time.monotonic() - t0

    verdict, report = build_classify_report(
        name=name,
        varnames=varnames,
        f_text=f_text,
        g_text=g_text,
        germ=germ,
        verdict=verdict,
        probe=probe,
        timing=elapsed if args.timing else None,
    )
    if args.json:
        sys.stdout.write(dumps_report(report))
    else:
        print(f"status:  {verdict.status.value}")
        print(f"witness: {witness_kind(verdict.witness)}")
        print(f"subflat: {verdict.subflat_label.value}")
        print(f"because: {verdict.rationale}")
        if probe:
            print(f"probe:   occupancy {report['probe']['occupied_fraction']:.4f}")
    return 0


def cmd_gap_lines(args):
    name, varnames, f_text, g_text = _resolve_input(args)
    germ = parse_map_germ(varnames, f_text, g_text)
    dec = decompose(germ)
    result = find_gap_lines(dec)
    curve = None if result.curve is None else format_target_polynomial(result.curve.phi)
    payload = {
        "input": {"name": name, "vars": list(varnames), "f": f_text, "g": g_text},
        "c": format_polynomial(result.c, varnames),
        "verified": [serialize_ratio(r) for r in result.verified],
        "refuted": [serialize_ratio(r) for r in result.refuted],
        "curve": curve,
    }
    if args.json:
        sys.stdout.write(dumps_report(payload))
    else:
        if result.verified:
            for r in result.verified:
                print(f"gap line: alpha={r.alpha}, beta={r.beta}")
        else:
            print("no verified gap lines")
        if curve is not None:
            print(f"gap-curve candidate (unverified): {curve}")
        if result.reason:
            print(f"nomination gave up: {result.reason}")
    return 0


def cmd_gap_curve(args):
    name, varnames, f_text, g_text = _resolve_input(args)
    germ = parse_map_germ(varnames, f_text, g_text)
    dec = decompose(germ)
    phi = parse_polynomial(TARGET_VARS, args.phi)
    try:
        verdict = is_gap_curve(germ, dec, PlaneCurveCandidate(phi))
    except ImageContainsCurveError as exc:
        payload = {
            "phi": format_target_polynomial(phi),
            "is_gap_curve": False,
            "note": str(exc),
        }
        if args.json:
            sys.stdout.write(dumps_report(payload))
        else:
            print(f"not a gap curve: {exc}")
        return 0
    payload = {"phi": format_target_polynomial(phi), "is_gap_curve": verdict}
    if args.json:
        sys.stdout.write(dumps_report(payload))
    else:
        print(f"{format_target_polynomial(phi)}: "
              f"{'gap curve' if verdict else 'not a gap curve'}")
    return 0


def cmd_image_curve(args):
    name, varnames, f_text, g_text = _resolve_input(args)
    germ = parse_map_germ(varnames, f_text, g_text)
    phi = image_curve_equation(germ)
    if args.json:
        sys.stdout.write(dumps_report({"phi": format_target_polynomial(phi)}))
    else:
        print(format_target_polynomial(phi))
    return 0


def cmd_probe(args):
    name, varnames, f_text, g_text = _resolve_input(args)
    germ = parse_map_germ(varnames, f_text, g_text)
    cfg = _sampler(args)
    sections = []
    occupancy = None
    if args.stability:
        eps1, eps2 = (float(t) for t in args.stability.split(","))
        sections.append(stability_json(germ_stability_probe(germ, eps1, eps2, cfg)))
    elif args.residual_phi:
        phi = parse_polynomial(TARGET_VARS, args.residual_phi)
        sections.append(residual_json(curve_residual_probe(germ, phi, cfg)))
    else:
        occupancy = ball_image_occupancy(germ, cfg)
        sections.append(occupancy_json(occupancy))
    if args.csv:
        if occupancy is None:
            raise GermImageError("--csv requires the occupancy probe")
        emit_occupancy_grid(occupancy, args.csv)
    payload = {
        "input": {"name": name, "vars": list(varnames), "f": f_text, "g": g_text},
        "probes": sections,
    }
    if args.json:
        sys.stdout.write(dumps_report(payload))
    else:
        for section in sections:
            kind = section["kind"]
            if kind == "occupancy":
                print(f"occupancy: {section['occupied_fraction']:.4f} "
                      f"({section['occupied_bins']}/{section['total_bins']} bins)")
            elif kind == "stability":
                print(f"divergence: {section['divergence']:.4f} "
                      f"({section['occupied_eps1']} vs {section['occupied_eps2']} bins)")
            else:
                print(f"max residual: {section['max_residual']:.3e} "
                      f"mean: {section['mean_residual']:.3e}")
    return 0


def cmd_corpus(args):
    results, code = run_corpus(
        path=args.corpus_file,
        seed=args.seed,
        out_dir=args.out_dir,
        with_probe=True,
    )
    if args.json:
        payload = {
            "entries": [r.report for r in results],
            "all_ok": code == 0,
        }
        sys.stdout.write(dumps_report(payload))
    else:
        print(summary_table(results))
    return code


def build_parser():
    parser = argparse.ArgumentParser(
        prog="germimage",
        description=(
            "Classify the local image of a polynomial map germ "
            "(C^n,0) -> (C^2,0): locally open, a plane-curve germ, or not a "
            "well-defined set germ."
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="seed of the Monte Carlo probes; verdicts do not depend on it",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="full classification with witness")
    _add_input_args(p)
    p.add_argument("--probe", action="store_true", help="attach an occupancy probe")
    p.add_argument("--timing", action="store_true", help="include timing in JSON")
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--target-radius", type=float, default=None)
    p.add_argument("--samples", type=int, default=200_000)
    p.add_argument("--bins", type=int, default=8)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("gap-lines", help="find and verify gap lines")
    _add_input_args(p)
    p.set_defaults(func=cmd_gap_lines)

    p = sub.add_parser("gap-curve", help="test a candidate gap curve")
    _add_input_args(p)
    p.add_argument("--phi", required=True, help="curve equation in u, v")
    p.set_defaults(func=cmd_gap_curve)

    p = sub.add_parser("image-curve", help="equation of a curve image")
    _add_input_args(p)
    p.set_defaults(func=cmd_image_curve)

    p = sub.add_parser("probe", help="Monte Carlo image probes")
    _add_input_args(p)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--target-radius", type=float, default=None)
    p.add_argument("--samples", type=int, default=200_000)
    p.add_argument("--bins", type=int, default=8)
    p.add_argument("--stability", default=None, help="eps1,eps2 stability probe")
    p.add_argument("--residual-phi", default=None, help="curve for residual probe")
    p.add_argument("--csv", default=None, help="write the occupancy grid CSV here")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("corpus", help="run the classification corpus")
    p.add_argument("--corpus-file", help="corpus file (default: shipped corpus)")
    p.add_argument("--out-dir", default=None, help="write per-entry JSON reports here")
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GermImageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
