"""Command-line interface.

Subcommands: classify, gap-lines, gap-curve, image-curve, probe, corpus.
``gap-lines`` prints what ``classify`` found in the pencil branch: the
constancy locus C, the gap lines verified and refuted, and the verified gap
curves; a germ outside that branch is an input error.

``probe`` runs the occupancy probe, the stability probe (``--stability
eps1,eps2``) or the residual probe (``--residual-phi``); ``--csv`` writes
the occupancy grid, so these three flags exclude each other.  With
``--entry`` it starts from the entry's probe protocol (kind, knobs, eps1,
eps2 and threshold, as the corpus runner runs it) and the flags given
override it.  ``probe`` and ``classify --probe`` run the corpus runner's
dispatcher, ``probe_section``.

Exit codes: 0 success, 1 classification mismatch (corpus), 2 input error.
Exit 2 comes before any sampling for flags that exclude each other, a
``--stability`` value that is not two numbers, input that does not parse,
and probe knobs or radii that ``SamplerConfig`` or the probe refuses.  A
corpus file is checked whole at load (``parse_corpus``): an entry whose
germ does not parse or whose probe could not run exits 2, naming the
entry, before any entry is classified.
"""

from __future__ import annotations

import argparse
import sys
import time

from .algebra import decompose
from .classifier import PlaneCurveCandidate, classify, is_gap_curve, witness_kind
from .corpus import (
    _SAMPLER_KEYS,
    _run_protocol,
    load_corpus,
    probe_section,
    run_corpus,
    sampler_config,
    summary_table,
)
from .errors import GermImageError, ImageContainsCurveError, PreconditionError
from .groebner import image_curve_equation
from .parsing import (
    TARGET_VARS,
    format_polynomial,
    format_target_polynomial,
    parse_map_germ,
    parse_polynomial,
)
from .report import (
    build_classify_report,
    dumps_report,
    emit_occupancy_grid,
    input_json,
    serialize_ratio,
)


def _add_input_args(sub):
    sub.add_argument("--vars", help="comma- or space-separated source variables")
    sub.add_argument("--f", dest="f_text", help="first component")
    sub.add_argument("--g", dest="g_text", help="second component")
    sub.add_argument("--entry", help="corpus entry name instead of --vars/--f/--g")
    sub.add_argument("--corpus-file", help="corpus file (default: shipped corpus)")


def _add_sampler_args(sub):
    """The sampler knobs; a flag left out keeps the entry's value or the ``SamplerConfig`` default."""
    sub.add_argument("--epsilon", type=float, default=None)
    sub.add_argument("--target-radius", type=float, default=None)
    sub.add_argument("--samples", type=int, default=None)
    sub.add_argument("--bins", type=int, default=None)


def _eps_pair(text):
    try:
        eps1, eps2 = (float(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected two numbers eps1,eps2, got {text!r}") from None
    return eps1, eps2


def _entry(args):
    for entry in load_corpus(args.corpus_file):
        if entry.name == args.entry:
            return entry
    raise GermImageError(f"no corpus entry named {args.entry!r}")


def _resolve_input(args, entry=None):
    """``(name, varnames, f_text, g_text, germ)`` of a corpus entry or of --vars/--f/--g.

    ``entry`` is the entry --entry names, if the caller has loaded it.
    """
    if args.entry:
        entry = entry or _entry(args)
        return entry.name, entry.varnames, entry.f_text, entry.g_text, entry.germ()
    if not (args.vars and args.f_text and args.g_text):
        raise GermImageError("provide --vars, --f and --g (or --entry NAME)")
    varnames = tuple(args.vars.replace(",", " ").split())
    germ = parse_map_germ(varnames, args.f_text, args.g_text)
    return "ad-hoc", varnames, args.f_text, args.g_text, germ


def cmd_classify(args):
    name, varnames, f_text, g_text, germ = _resolve_input(args)
    t0 = time.monotonic()
    verdict = classify(germ)

    probe = None
    if args.probe:
        probe = probe_section("occupancy", germ, sampler_config(vars(args), args.seed))
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
    name, varnames, f_text, g_text, germ = _resolve_input(args)
    outcome = classify(germ).prop_crit
    if outcome is None:
        raise PreconditionError(
            "the cofactor pencil needs zero sets that are not nested and a common "
            "factor through 0; the containment or codimension branch decides this germ"
        )
    search = outcome.search
    c = format_polynomial(outcome.certificate.c, varnames)
    curves = [format_target_polynomial(curve.phi) for curve in search.curves]
    payload = {
        "input": input_json(name, varnames, f_text, g_text),
        "c": c,
        "verified": [serialize_ratio(r) for r in search.lines],
        "refuted": [serialize_ratio(r) for r in search.refuted],
        "curves": curves,
    }
    if args.json:
        sys.stdout.write(dumps_report(payload))
    else:
        print(f"C: {c}")
        for label, ratios in (("gap line", search.lines), ("refuted", search.refuted)):
            for r in ratios:
                print(f"{label}: alpha={r.alpha}, beta={r.beta}")
        if not search.lines:
            print("no verified gap lines")
        for curve in curves:
            print(f"gap curve: {curve}")
    return 0


def cmd_gap_curve(args):
    name, varnames, f_text, g_text, germ = _resolve_input(args)
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
    name, varnames, f_text, g_text, germ = _resolve_input(args)
    phi = image_curve_equation(germ)
    if args.json:
        sys.stdout.write(dumps_report({"phi": format_target_polynomial(phi)}))
    else:
        print(format_target_polynomial(phi))
    return 0


def cmd_probe(args):
    # an entry's probe protocol, with the flags given over it
    entry = _entry(args) if args.entry else None
    name, varnames, f_text, g_text, germ = _resolve_input(args, entry)
    kind = entry.probe_kind if entry and entry.probe_kind else "occupancy"
    params = dict(entry.probe_params) if entry else {}
    params.update({k: v for k in _SAMPLER_KEYS if (v := getattr(args, k)) is not None})
    phi = None
    if args.stability:
        kind, (params["eps1"], params["eps2"]) = "stability", args.stability
    elif args.residual_phi:
        kind, phi = "residual", parse_polynomial(TARGET_VARS, args.residual_phi)
    elif args.csv:
        kind = "occupancy"
    if kind == "residual" and phi is None:
        phi = getattr(classify(germ).witness, "phi", None)
        if phi is None:
            raise GermImageError("the residual probe needs --residual-phi or a curve image")
    if entry:
        section, _, rep = _run_protocol(kind, params, germ, args.seed, phi)
    else:
        cfg = sampler_config(params, args.seed)
        section, rep = probe_section(kind, germ, cfg, args.stability, phi)
    if args.csv:
        emit_occupancy_grid(rep, args.csv)
    payload = {"input": input_json(name, varnames, f_text, g_text), "probes": [section]}
    if args.json:
        sys.stdout.write(dumps_report(payload))
    elif kind == "occupancy":
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
    results, code = run_corpus(path=args.corpus_file, seed=args.seed, out_dir=args.out_dir)
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
    _add_sampler_args(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("gap-lines", help="the pencil criterion's gap lines and curves")
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
    _add_sampler_args(p)
    only = p.add_mutually_exclusive_group()
    only.add_argument("--stability", type=_eps_pair, default=None,
                      help="eps1,eps2 stability probe")
    only.add_argument("--residual-phi", default=None, help="curve for residual probe")
    only.add_argument("--csv", default=None, help="write the occupancy grid CSV here")
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
