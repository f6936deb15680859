#!/usr/bin/env python3
"""The germimage benchmark: one workload, one run, metrics as JSON.

    python3 perfbench/run.py --workload corpus|classify-random|probe-dims \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  The run times full passes over the workload's items
for about ``--seconds`` seconds and checks every output.

``--trace 0`` prints the end-to-end metrics (untraced).  Their times are
wall times scaled to a fixed machine speed, gauged by the reference kernels
of ``refspeed.py`` around every item; the wall times are printed as well.
``--trace 1`` alternates untraced passes and passes with the layer tracer
on, and prints the per-layer metrics of the traced passes with the tracing
overhead (scaled times).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it record the environment, sample counts and
the exact counts that must repeat from run to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

from layertrace import LayerTracer, layer_metrics
from refspeed import REFERENCE_S, reference_seconds
from srcpath import REPO_ROOT, MissingProgramError

SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60
SETUP_READINGS = 5


def parse_args(argv):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description="germimage benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--setup-only",
        type=float,
        metavar="T0",
        help="build the inputs, print the seconds since time.time() was T0, and exit "
        "(used to time set-up in a fresh process)",
    )
    return ap.parse_args(argv)


def time_setup(args):
    """Median time from spawning a fresh process until it has built the inputs.

    The child measures the time itself, against the parent's clock reading
    taken just before the spawn, so that neither interpreter exit nor the
    parent's wait adds to it.  Set-up is mostly interpreted Python (imports,
    parsing), so each time is scaled by the ``python`` kernel, read by the
    parent just before and just after the child runs.  A reading here is the
    median of ``SETUP_READINGS`` kernel runs: one short run is too noisy a
    gauge for a single fresh process.  Returns (median scaled time,
    [(wall, scaled) per process]).
    """
    times = []
    ref_before = setup_reading()
    for _ in range(SETUP_REPEATS):
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", "0",
            "--setup-only", repr(time.time()),
        ]
        out = subprocess.run(
            cmd, check=True, timeout=SETUP_TIMEOUT_S, cwd=REPO_ROOT, capture_output=True, text=True
        )
        wall = float(out.stdout.split()[-1])
        ref_after = setup_reading()
        times.append((wall, wall * 2 * REFERENCE_S["python"] / (ref_before + ref_after)))
        ref_before = ref_after
    return statistics.median(t[1] for t in times), times


def setup_reading():
    return statistics.median(reference_seconds("python") for _ in range(SETUP_READINGS))


def run_passes(workload, seconds, traced=False):
    """Full passes until the next one would end after ``seconds``; at least one.

    With ``traced``, passes alternate untraced and traced, starting
    untraced, and there are at least two, so that a drift in the machine's
    speed affects both kinds alike.  Returns (pass results, per-item ok
    flags, layer metrics per traced pass).
    """
    passes, oks, layers = [], [], []
    t_start = perf_counter()
    loop_times = []
    while True:
        t_loop = perf_counter()
        if traced and len(passes) % 2 == 1:
            with LayerTracer() as tracer:
                res = workload.run_pass(tracer)
            layers.append(layer_metrics(tracer, res.seconds))
        else:
            res = workload.run_pass()
        passes.append(res)
        oks.extend(workload.check(res))
        loop_times.append(perf_counter() - t_loop)
        if traced and len(passes) < 2:
            continue
        if perf_counter() - t_start + statistics.median(loop_times) > seconds:
            return passes, oks, layers


def blas_threads():
    """OpenBLAS thread count of the BLAS numpy loaded, or None if not found."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """Commit of the checkout, read from .git without running git; None outside git."""
    git = REPO_ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy

    from germimage import kernels

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "kernels_backend": kernels.active_backend(),
        "git_commit": git_commit(),
    }


def deciles_ms(latencies):
    """(p50, p90) in ms and the number of samples above p90."""
    cuts = statistics.quantiles(latencies, n=10, method="inclusive")
    p50, p90 = cuts[4], cuts[8]
    return p50 * 1e3, p90 * 1e3, sum(1 for x in latencies if x > p90)


def main(argv=None):
    args = parse_args(argv)
    from workloads import WORKLOADS

    try:
        workload = WORKLOADS[args.workload](args.seed)
    except MissingProgramError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_only is not None:
        print(time.time() - args.setup_only)
        return 0

    print("env " + json.dumps(environment(), sort_keys=True))

    if args.trace:
        passes, oks, layers = run_passes(workload, args.seconds, traced=True)
        plain, traced = passes[0::2], passes[1::2]
        metrics = {
            name: (statistics.median(pass_layers[name][0] for pass_layers in layers), unit)
            for name, (_, unit) in layers[0].items()
        }
        # wall time, which the layer self times and unattributed_ms add up to
        metrics["trace.pass_ms"] = (statistics.median(p.seconds for p in traced) * 1e3, "ms")
        # scaled times, so that a drift in the machine's speed cancels out
        overhead = statistics.median(p.scaled_seconds for p in traced) - statistics.median(
            p.scaled_seconds for p in plain
        )
        metrics["trace.overhead_ms"] = (overhead * 1e3, "ms")
        print(
            f"passes untraced {len(plain)} {[round(p.scaled_seconds, 4) for p in plain]} "
            f"traced {len(traced)} {[round(p.scaled_seconds, 4) for p in traced]} "
            f"(wall {[round(p.seconds, 4) for p in traced]})"
        )
    else:
        setup_s, setup_samples = time_setup(args)
        print(
            "setup_s samples wall "
            f"{[round(w, 4) for w, _ in setup_samples]} scaled "
            f"{[round(s, 4) for _, s in setup_samples]}"
        )
        passes, oks, _ = run_passes(workload, args.seconds)
        latencies = [x for p in passes for x in p.latencies]
        p50, p90, beyond = deciles_ms(latencies)
        metrics = {
            "pass_s": (statistics.median(p.scaled_seconds for p in passes), "s"),
            "item_p50_ms": (p50, "ms"),
            "item_p90_ms": (p90, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "passed_frac": (1 - oks.count(False) / len(oks), "ratio"),
        }
        print(
            f"passes {len(passes)} pass_s {[round(p.scaled_seconds, 4) for p in passes]} "
            f"(wall {[round(p.seconds, 4) for p in passes]}); "
            f"item samples {len(latencies)}, {beyond} above p90"
        )
    summary = workload.summary()
    print("summary " + json.dumps(summary, sort_keys=True))

    failed = oks.count(False)
    out = {
        "correct": failed == 0 and summary.get("evaluate_batch_bitwise_mismatches", 0) == 0,
        "attempted": len(oks),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
