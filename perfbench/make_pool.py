#!/usr/bin/env python3
"""Regenerate ``data/classify_pool.json``, the germ pool of ``classify-random``.

    python3 perfbench/make_pool.py

Germs f = h*p, g = h*q in three variables are products of random factors
from a fixed pool of irreducibles (the same pool as the tests' tracked-factor
oracle family).  Each candidate is classified once with default settings and
labelled with its status, witness kind and classify time.  The benchmark
draws a fixed number of germs per label at fixed cost quantiles, so that
every seed gives a pass of the same shape, and fails a germ labelled
decided whose verdict no longer matches its label.

Candidates whose classification runs longer than ``CAP_SECONDS`` are left
out and counted in the file: the gap-curve search has no candidate budget
yet, and one such germ would take a whole run.

The recorded time of a kept germ is the median of ``ROUNDS`` further
classifications, made in rounds over all kept germs in shuffled order.  The
speed of a shared machine drifts over tens of seconds; spreading each germ's
measurements over the whole run keeps that drift out of the cost order the
benchmark draws by.  Timings make the file differ from run to run of this
script, so the committed file is the record.
"""

import json
import random
import signal
import statistics
import sys
import time
from pathlib import Path

from srcpath import import_germimage

GENERATOR_SEED = 20181011
CANDIDATES = 2000
CAP_SECONDS = 3.0
ROUNDS = 3
POOL_PATH = Path(__file__).resolve().parent / "data" / "classify_pool.json"
VARS = ("x", "y", "z")
FACTORS = (
    "x", "y", "z", "x+y", "x-z", "y+2*z", "x+i*y", "y+x^2", "y-x^2", "y+x*z",
    "x+y^2", "x+z^3", "z+x*y", "x+1", "y-2", "z+i", "x+y+1", "y+x^2+1",
)
# At most this many germs per (status, witness) stratum are kept, spread
# evenly over the stratum's cost order.
KEEP_PER_STRATUM = 60


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def _product(germimage, factors):
    out = germimage.Polynomial.one(len(VARS))
    for fac in factors:
        out = out * fac
    return out


def generate():
    germimage = import_germimage()
    from germimage import classifier, parsing

    pool = [parsing.parse_polynomial(VARS, text) for text in FACTORS]
    rng = random.Random(GENERATOR_SEED)
    seen = set()
    kept = []
    over_cap = 0
    signal.signal(signal.SIGALRM, _alarm)
    while len(seen) < CANDIDATES:
        h = _product(germimage, rng.choices(pool, k=rng.randint(1, 2)))
        p = _product(germimage, rng.choices(pool, k=rng.randint(0, 2)))
        q = _product(germimage, rng.choices(pool, k=rng.randint(0, 2)))
        f, g = h * p, h * q
        if not (f.constant_term().is_zero() and g.constant_term().is_zero()):
            continue
        f_text = parsing.format_polynomial(f, VARS)
        g_text = parsing.format_polynomial(g, VARS)
        if (f_text, g_text) in seen:
            continue
        seen.add((f_text, g_text))
        germ = parsing.parse_map_germ(VARS, f_text, g_text)
        signal.setitimer(signal.ITIMER_REAL, CAP_SECONDS)
        t0 = time.perf_counter()
        try:
            verdict = classifier.classify(germ)
        except _Timeout:
            over_cap += 1
            continue
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        ms = (time.perf_counter() - t0) * 1e3
        kept.append(
            {
                "f": f_text,
                "g": g_text,
                "status": verdict.status.value,
                "witness": classifier.witness_kind(verdict.witness),
                "ms": round(ms, 1),
            }
        )
    return kept, over_cap


def thin(germs):
    """Keep at most KEEP_PER_STRATUM germs per stratum, evenly over cost."""
    strata = {}
    for germ in germs:
        strata.setdefault((germ["status"], germ["witness"]), []).append(germ)
    out = []
    for key in sorted(strata):
        members = sorted(strata[key], key=lambda germ: germ["ms"])
        if len(members) > KEEP_PER_STRATUM:
            step = len(members) / KEEP_PER_STRATUM
            members = [members[int(k * step)] for k in range(KEEP_PER_STRATUM)]
        out.extend(members)
    return out


def retime(germs):
    """Set each germ's ``ms`` to the median of ``ROUNDS`` interleaved classifications."""
    from germimage import classifier, parsing

    parsed = [parsing.parse_map_germ(VARS, g["f"], g["g"]) for g in germs]
    times = [[] for _ in germs]
    order = list(range(len(germs)))
    rng = random.Random(GENERATOR_SEED + 1)
    for _ in range(ROUNDS):
        rng.shuffle(order)
        for k in order:
            t0 = time.perf_counter()
            classifier.classify(parsed[k])
            times[k].append(time.perf_counter() - t0)
    for germ, samples in zip(germs, times):
        germ["ms"] = round(statistics.median(samples) * 1e3, 1)
    return sorted(germs, key=lambda g: (g["status"], g["witness"], g["ms"]))


def dump_pool(doc):
    """JSON text with one germ per line."""
    head = {k: v for k, v in doc.items() if k != "germs"}
    germs = ",\n".join("  " + json.dumps(g) for g in doc["germs"])
    return json.dumps(head, indent=1)[:-2] + ',\n "germs": [\n' + germs + "\n ]\n}\n"


def main():
    germs, over_cap = generate()
    doc = {
        "generator_seed": GENERATOR_SEED,
        "vars": list(VARS),
        "factors": list(FACTORS),
        "candidates": CANDIDATES,
        "cap_seconds": CAP_SECONDS,
        "over_cap": over_cap,
        "rounds": ROUNDS,
        "germs": retime(thin(germs)),
    }
    POOL_PATH.parent.mkdir(parents=True, exist_ok=True)
    POOL_PATH.write_text(dump_pool(doc), encoding="utf-8")
    counts = {}
    for germ in germs:
        key = f"{germ['status']}/{germ['witness']}"
        counts[key] = counts.get(key, 0) + 1
    print(json.dumps({"classified": len(germs), "over_cap": over_cap, "strata": counts}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
