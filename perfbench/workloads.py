"""The benchmark's three workloads.

Each workload builds its inputs from a seed in ``__init__`` (the set-up the
benchmark times), runs one pass over its items in ``run_pass`` and checks
the outputs of a pass in ``check``.  A pass times its items with a
``refspeed.ScaledClock`` on the reference kernel named by the workload's
``reference``, so that item and pass times are also given at a fixed
machine speed.  The program is always called through module attributes
(``corpus.run_corpus``, ``classifier.classify``, ...) at call time, so that
the layer tracer's wrappers are seen.

See README.md beside this file for why each workload exists and which layer
it exercises or bypasses.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from refspeed import ScaledClock
from srcpath import import_germimage

POOL_PATH = Path(__file__).resolve().parent / "data" / "classify_pool.json"


@dataclass
class PassResult:
    seconds: float  # wall time of the pass, reference readings left out
    scaled_seconds: float  # the same at the reference speed
    latencies: list  # seconds per item at the reference speed
    outputs: list  # one per item; an exception object if the item raised


def _timed_items(calls, reference, tracer=None):
    """Run each zero-argument callable; returns a PassResult.

    ``reference`` names the kernel that gauges the machine's speed around
    each item.  A ``tracer`` is told of every reading, to leave it out of
    its spans.
    """
    clock = ScaledClock(reference, tracer and tracer.exclude)
    latencies, outputs = [], []
    for call in calls:
        try:
            out = call()
        except Exception as exc:  # an item that raises counts as failed
            out = exc
        latencies.append(clock.lap()[1])
        outputs.append(out)
    return PassResult(clock.wall, clock.scaled, latencies, outputs)


# ---------------------------------------------------------------------------
# corpus: the `germimage corpus` path on the shipped entries
# ---------------------------------------------------------------------------


class CorpusWorkload:
    """``corpus.run_corpus`` over the shipped corpus, with probes and reports.

    One item is one corpus entry; its latency is the time of the
    ``corpus.run_entry`` call that ``run_corpus`` makes for it.  Entries
    split their time between the gap-curve search and the probes at n = 2,
    with much interpreted Python in both, and the ``python`` kernel tracks
    the speed of a pass more closely than the ``numpy`` kernel does.
    """

    name = "corpus"
    reference = "python"

    def __init__(self, seed):
        import_germimage()
        from germimage import classifier, corpus, report

        self.classifier = classifier
        self.corpus = corpus
        self.report = report
        self.seed = seed
        self.entries = {e.name: e for e in corpus.load_corpus()}
        self.first_digests = None
        self.pass_digests = []

    def run_pass(self, tracer=None):
        """One ``run_corpus`` call.

        Besides each entry, the ``classify`` and ``run_probe`` calls inside
        it are bracketed by readings, so that a drift within a long entry
        (over a second for ``nogapline`` and ``rouche``) is tracked too.
        The readings fall inside ``run_corpus``, so a ``tracer`` must leave
        them out of its open spans.
        """
        corpus = self.corpus
        originals = {
            name: getattr(corpus, name) for name in ("run_entry", "classify", "run_probe")
        }
        clock = ScaledClock(self.reference, tracer and tracer.exclude)
        latencies = []

        def lapped(fn):
            def call(*args, **kwargs):
                clock.lap()
                try:
                    return fn(*args, **kwargs)
                finally:
                    clock.lap()

            return call

        def timed_entry(*args, **kwargs):
            clock.lap()  # run_corpus's own work before the entry: pass time only
            start = clock.scaled
            try:
                return originals["run_entry"](*args, **kwargs)
            finally:
                clock.lap()
                latencies.append(clock.scaled - start)

        corpus.run_entry = timed_entry
        corpus.classify = lapped(originals["classify"])
        corpus.run_probe = lapped(originals["run_probe"])
        try:
            results, _ = corpus.run_corpus(seed=self.seed)
        except Exception as exc:
            results = [exc] * len(self.entries)
        finally:
            clock.lap()
            for name, fn in originals.items():
                setattr(corpus, name, fn)
        if len(latencies) != len(results):
            latencies = [clock.scaled / len(results)] * len(results)
        return PassResult(clock.wall, clock.scaled, latencies, results)

    def _entry_ok(self, res):
        entry = self.entries.get(res.entry.name)
        if entry is None or res.verdict.status.value != entry.expected_status:
            return False
        witness = self.classifier.witness_kind(res.verdict.witness)
        if entry.expected_witness and witness != entry.expected_witness:
            return False
        if not entry.probe_kind:
            return True
        section = res.report.get("probe") or {}
        p = entry.probe_params
        if entry.probe_kind == "occupancy":
            return section.get("occupied_fraction", -1.0) >= p.get("min_occupancy", 0.0)
        if entry.probe_kind == "stability":
            return section.get("divergence", -1.0) >= p.get("min_divergence", 0.0)
        if entry.probe_kind == "residual":
            bound = p.get("max_residual", float("inf"))
            return section.get("max_residual", float("inf")) <= bound
        return False

    def check(self, result):
        """Per-item pass/fail: expectations from corpus.txt, reports equal across passes."""
        digests = []
        ok = []
        for res in result.outputs:
            if isinstance(res, Exception):
                digests.append(None)
                ok.append(False)
                continue
            text = self.report.dumps_report(res.report)
            digests.append(hashlib.sha256(text.encode("utf-8")).hexdigest())
            ok.append(self._entry_ok(res))
        if self.first_digests is None:
            self.first_digests = digests
        ok = [
            good and d is not None and d == first
            for good, d, first in zip(ok, digests, self.first_digests)
        ]
        whole = hashlib.sha256("".join(d or "-" for d in digests).encode()).hexdigest()
        self.pass_digests.append(whole)
        return ok

    def summary(self):
        return {
            "entries": len(self.entries),
            "reports_sha256": self.pass_digests[0] if self.pass_digests else None,
            "reports_identical_across_passes": len(set(self.pass_digests)) == 1,
        }


# ---------------------------------------------------------------------------
# classify-random: exact algebra on random 3-variable germs, no probes
# ---------------------------------------------------------------------------

# Items per pass drawn from each (status, witness kind) stratum of the pool.
# The shares are fixed so that every seed gives a pass of the same shape.
# Undetermined germs run the whole gap-curve search and cost about 1 s each;
# they are 8 of 56 items (14 %), so the pooled p90 falls among them while
# the median falls among the germs decided by exact algebra.  With these
# shares the median also falls where neighbouring cost quantiles are close,
# so that it hardly moves with the seed.
CLASSIFY_SHARES = {
    ("NotAGerm", "ContainmentNonvanishingJacobian"): 20,
    ("LocallyOpen", "PropCritCertificate"): 12,
    ("CurveImage", "CurveEquation"): 6,
    ("LocallyOpen", "CodimTwo"): 6,
    ("NotAGerm", "GapLine"): 4,
    ("Undetermined", "None"): 8,
}
# Each pick is one of this many neighbours in a stratum's cost order.
DRAW_WINDOW = 2


def draw_stratified(germs, shares, rng):
    """``shares[key]`` germs per stratum, at evenly spaced cost quantiles.

    Germs of a stratum are sorted by their recorded classify time; pick j of
    ``count`` is drawn from the ``DRAW_WINDOW`` germs at quantile
    (j + 1/2) / count.  The seed changes the germs but hardly the cost
    profile of a pass, so pass time and percentiles stay comparable across
    seeds.
    """
    strata = {}
    for germ in germs:
        strata.setdefault((germ["status"], germ["witness"]), []).append(germ)
    picked = []
    for key, count in shares.items():
        members = sorted(strata.get(key, []), key=lambda g: (g["ms"], g["f"], g["g"]))
        n = len(members)
        if n < max(count, DRAW_WINDOW):
            raise ValueError(f"pool stratum {key} has {n} germs, need {count}")
        for j in range(count):
            lo = min(max(int((j + 0.5) * n / count) - DRAW_WINDOW // 2, 0), n - DRAW_WINDOW)
            picked.append(members[lo + rng.randrange(DRAW_WINDOW)])
    rng.shuffle(picked)
    return picked


class ClassifyRandomWorkload:
    """``classify`` with default settings on seeded random germs f = h*p, g = h*q.

    The exact algebra is interpreted Python, so the ``python`` kernel
    gauges the speed.
    """

    name = "classify-random"
    reference = "python"

    def __init__(self, seed):
        import_germimage()
        from germimage import classifier, parsing

        self.classifier = classifier
        pool = json.loads(POOL_PATH.read_text(encoding="utf-8"))
        varnames = tuple(pool["vars"])
        picked = draw_stratified(pool["germs"], CLASSIFY_SHARES, random.Random(seed))
        self.germs = [parsing.parse_map_germ(varnames, g["f"], g["g"]) for g in picked]
        self.labels = [(g["status"], g["witness"]) for g in picked]
        self.first = None  # (verdict key, verified) per item from the first pass
        self.histogram = None

    def run_pass(self, tracer=None):
        classifier = self.classifier
        return _timed_items(
            [lambda germ=germ: classifier.classify(germ) for germ in self.germs],
            self.reference,
            tracer,
        )

    def _key(self, verdict):
        kind = self.classifier.witness_kind(verdict.witness)
        return (verdict.status.value, kind, verdict.rationale)

    def _item_ok(self, germ, label, verdict, key):
        """No exception, a verdict as strong as the pool's label, a witness that verifies.

        A germ the pool labels decided must get the same status and witness
        kind again: ``verify_witness`` re-checks nothing for a missing
        witness or a pencil certificate, so a verdict that got weaker would
        otherwise pass.  A germ labelled Undetermined may now be decided.
        """
        if key is None:
            return False
        if label[0] != "Undetermined" and key[:2] != label:
            return False
        try:
            return bool(self.classifier.verify_witness(germ, verdict))
        except Exception:  # a witness that cannot be re-checked fails the item
            return False

    def check(self, result):
        """First pass: labels and ``verify_witness``; later passes: the first pass's verdicts."""
        keys = [None if isinstance(v, Exception) else self._key(v) for v in result.outputs]
        if self.first is None:
            self.first = [
                (key, self._item_ok(germ, label, verdict, key))
                for germ, label, verdict, key in zip(self.germs, self.labels, result.outputs, keys)
            ]
            self.histogram = Counter(f"{k[0]}/{k[1]}" if k else "raised" for k in keys)
        return [key is not None and (key, True) == first for key, first in zip(keys, self.first)]

    def summary(self):
        shares = {f"{status}/{kind}": n for (status, kind), n in CLASSIFY_SHARES.items()}
        histogram = dict(sorted((self.histogram or {}).items()))
        newly_decided = sum(
            1
            for label, (key, _) in zip(self.labels, self.first or [])
            if label[0] == "Undetermined" and key is not None and key[0] != "Undetermined"
        )
        return {
            "germs_per_pass": len(self.germs),
            "status_witness_histogram": histogram,
            "histogram_matches_shares": histogram == shares,
            "newly_decided": newly_decided,
        }


# ---------------------------------------------------------------------------
# probe-dims: the three probes at source dimension 2, 3 and 4
# ---------------------------------------------------------------------------

PROBE_VARS = {2: ("x", "y"), 3: ("x", "y", "z"), 4: ("x", "y", "z", "w")}
# Samples per probe call at each source dimension: rejection sampling from
# the cube accepts about 31 %, 8 % and 1.6 % of draws at n = 2, 3, 4.
PROBE_SAMPLES = {2: 200_000, 3: 120_000, 4: 50_000}
GERMS_PER_KIND = 3
OCCUPANCY_FLOOR = 0.95
DIVERGENCE_FLOOR = 0.9
RESIDUAL_CEILING = 1e-10
BITWISE_POINTS = 256


def _term(rng, monomial):
    """`` + c*monomial`` or `` - c*monomial`` with a random c in {1, 2}."""
    return f" {rng.choice('+-')} {rng.choice((1, 2))}*{monomial}"


def probe_germ_texts(kind, n, rng):
    """(f, g) texts of a germ of known type at source dimension ``n``.

    * ``open``: f = x + ..., g = y + ... with quadratic terms: the Jacobian
      has rank 2 at 0, so the map is a submersion and its image is open;
    * ``unstable``: f = x^2, g = x*(y + linear terms): Z(f) lies in Z(g)
      and a Jacobian minor is nonzero, so the image is not a set germ
      (the blow-up map, with extra variables);
    * ``curve``: f = L^2, g = L^3 for a linear form L: the image is the
      cusp u^3 = v^2.
    """
    x, y, *rest = PROBE_VARS[n]
    if kind == "open":
        if n == 2:
            return "x" + _term(rng, "y^2"), "y" + _term(rng, "x^2")
        return "x" + _term(rng, f"y*{rest[-1]}"), "y" + _term(rng, f"{rest[0]}^2")
    if kind == "unstable":
        return "x^2", "x*(y" + "".join(_term(rng, v) for v in rest) + ")"
    if kind == "curve":
        lin = "x" + "".join(_term(rng, v) for v in (y, *rest))
        return f"({lin})^2", f"({lin})^3"
    raise ValueError(kind)


class ProbeDimsWorkload:
    """Occupancy, stability and residual probes on germs of known type, n = 2, 3, 4.

    The sampler does array arithmetic, so the ``numpy`` kernel gauges the
    speed.
    """

    name = "probe-dims"
    reference = "numpy"

    def __init__(self, seed):
        import_germimage()
        from germimage import parsing, probe

        self.probe = probe
        rng = random.Random(seed)
        self.items = []  # (kind, n, germ, config)
        for n in (2, 3, 4):
            for kind in ("open", "unstable", "curve"):
                for _ in range(GERMS_PER_KIND):
                    f_text, g_text = probe_germ_texts(kind, n, rng)
                    germ = parsing.parse_map_germ(PROBE_VARS[n], f_text, g_text)
                    cfg = probe.SamplerConfig(
                        epsilon=0.1,
                        target_radius=0.03 if kind == "open" else 0.01,
                        samples=PROBE_SAMPLES[n],
                        grid_bins_per_axis=4 if kind == "open" else 8,
                        seed=rng.randrange(2**31),
                    )
                    self.items.append((kind, n, germ, cfg))
        self.cusp = parsing.parse_polynomial(("u", "v"), "u^3 - v^2")
        self.first = None

    def _call(self, kind, germ, cfg):
        probe = self.probe
        if kind == "open":
            return probe.ball_image_occupancy(germ, cfg).occupied_fraction
        if kind == "unstable":
            return probe.germ_stability_probe(germ, 0.2, 0.05, cfg).divergence
        return probe.curve_residual_probe(germ, self.cusp, cfg).max_residual

    def run_pass(self, tracer=None):
        return _timed_items(
            [
                lambda kind=kind, germ=germ, cfg=cfg: self._call(kind, germ, cfg)
                for kind, _, germ, cfg in self.items
            ],
            self.reference,
            tracer,
        )

    def check(self, result):
        """Known type holds, and every value repeats bitwise across passes."""
        ok = []
        for (kind, _, _, _), value in zip(self.items, result.outputs):
            if isinstance(value, Exception):
                ok.append(False)
            elif kind == "open":
                ok.append(value >= OCCUPANCY_FLOOR)
            elif kind == "unstable":
                ok.append(value >= DIVERGENCE_FLOOR)
            else:
                ok.append(value <= RESIDUAL_CEILING)
        if self.first is None:
            self.first = list(result.outputs)
        return [
            good and value == first for good, value, first in zip(ok, result.outputs, self.first)
        ]

    def bitwise_check(self):
        """``kernels.evaluate_batch`` equals ``Polynomial.evaluate`` bit for bit."""
        from germimage import kernels

        mismatches = 0
        for kind, n, germ, cfg in self.items:
            pts = cfg.epsilon * self.probe.unit_ball_samples(n, BITWISE_POINTS, cfg.seed)
            polys = [(germ.f, pts), (germ.g, pts)]
            if kind == "curve":
                uv = np.column_stack(
                    [kernels.evaluate_batch(germ.f, pts), kernels.evaluate_batch(germ.g, pts)]
                )
                polys.append((self.cusp, uv))
            for poly, points in polys:
                batch = kernels.evaluate_batch(poly, points)
                mismatches += sum(
                    1 for k, p in enumerate(points) if batch[k] != poly.evaluate(p)
                )
        return mismatches

    def summary(self):
        values = {}
        for (kind, n, _, _), value in zip(self.items, self.first or []):
            values.setdefault(f"{kind}/n={n}", []).append(value)
        return {
            "probe_calls_per_pass": len(self.items),
            "values": {k: [repr(x) for x in v] for k, v in values.items()},
            "evaluate_batch_bitwise_mismatches": self.bitwise_check(),
        }


WORKLOADS = {
    w.name: w for w in (CorpusWorkload, ClassifyRandomWorkload, ProbeDimsWorkload)
}
