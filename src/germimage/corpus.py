"""Corpus file parsing and the corpus runner.

The corpus is a human-editable key-value block file (see data/corpus.txt).
Each entry names a map germ, its expected verdict, a provenance note and
an optional probe protocol with frozen thresholds.
"""

from __future__ import annotations

import importlib.resources
import os
import time
from dataclasses import dataclass, field

from .classifier import GapCurveSearchParams, classify, witness_kind
from .errors import GermImageError
from .parsing import parse_map_germ
from .probe import (
    SamplerConfig,
    ball_image_occupancy,
    curve_residual_probe,
    germ_stability_probe,
)
from .report import (
    build_classify_report,
    dumps_report,
    occupancy_json,
    residual_json,
    stability_json,
)

_INT_KEYS = {"samples", "bins"}
_FLOAT_KEYS = {
    "epsilon",
    "target_radius",
    "eps1",
    "eps2",
    "min_occupancy",
    "min_divergence",
    "max_residual",
}
_TEXT_KEYS = {"vars", "f", "g", "expected_status", "expected_witness", "provenance", "probe"}


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    varnames: tuple
    f_text: str
    g_text: str
    expected_status: str
    expected_witness: str
    provenance: str
    probe_kind: str | None = None
    probe_params: dict = field(default_factory=dict)

    def germ(self):
        return parse_map_germ(self.varnames, self.f_text, self.g_text)


def shipped_corpus_path():
    return importlib.resources.files("germimage").joinpath("data/corpus.txt")


def parse_corpus(text):
    entries = []
    seen = set()
    block_name = None
    block = {}

    def finish():
        if block_name is None:
            return
        missing = [k for k in ("vars", "f", "g", "expected_status") if k not in block]
        if missing:
            raise GermImageError(
                f"corpus entry [{block_name}] is missing keys: {', '.join(missing)}"
            )
        params = {
            k: v for k, v in block.items() if k in _INT_KEYS | _FLOAT_KEYS
        }
        entries.append(
            CorpusEntry(
                name=block_name,
                varnames=tuple(block["vars"].replace(",", " ").split()),
                f_text=block["f"],
                g_text=block["g"],
                expected_status=block["expected_status"],
                expected_witness=block.get("expected_witness", ""),
                provenance=block.get("provenance", ""),
                probe_kind=block.get("probe"),
                probe_params=params,
            )
        )

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            finish()
            block_name = line[1:-1].strip()
            if block_name in ("", ".", "..") or any(c in block_name for c in "/\\"):
                raise GermImageError(
                    f"corpus line {lineno}: entry name {block_name!r} is not a "
                    "plain file name"
                )
            if block_name in seen:
                raise GermImageError(
                    f"corpus line {lineno}: duplicate entry name {block_name!r}"
                )
            seen.add(block_name)
            block = {}
            continue
        if "=" not in line:
            raise GermImageError(f"corpus line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if block_name is None:
            raise GermImageError(f"corpus line {lineno}: key outside any [entry]")
        if key in _INT_KEYS:
            block[key] = int(value)
        elif key in _FLOAT_KEYS:
            block[key] = float(value)
        elif key in _TEXT_KEYS:
            block[key] = value
        else:
            raise GermImageError(f"corpus line {lineno}: unknown key {key!r}")
    finish()
    return entries


def load_corpus(path=None):
    if path is None:
        text = shipped_corpus_path().read_text(encoding="utf-8")
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    return parse_corpus(text)


def _probe_cfg(entry, seed):
    p = entry.probe_params
    return SamplerConfig(
        epsilon=p.get("epsilon", 0.1),
        target_radius=p.get("target_radius"),
        samples=p.get("samples", 200_000),
        grid_bins_per_axis=p.get("bins", 8),
        seed=seed,
    )


def run_probe(entry, germ, verdict, seed):
    """Run the entry's probe protocol; returns (json section, ok, report)."""
    kind = entry.probe_kind
    if not kind:
        return None, True, None
    cfg = _probe_cfg(entry, seed)
    p = entry.probe_params
    if kind == "occupancy":
        rep = ball_image_occupancy(germ, cfg)
        section = occupancy_json(rep)
        ok = True
        if "min_occupancy" in p:
            section["min_occupancy"] = p["min_occupancy"]
            ok = rep.occupied_fraction >= p["min_occupancy"]
        section["passed"] = ok
        return section, ok, rep
    if kind == "stability":
        rep = germ_stability_probe(germ, p["eps1"], p["eps2"], cfg)
        section = stability_json(rep)
        ok = True
        if "min_divergence" in p:
            section["min_divergence"] = p["min_divergence"]
            ok = rep.divergence >= p["min_divergence"]
        section["passed"] = ok
        return section, ok, rep
    if kind == "residual":
        phi = getattr(verdict.witness, "phi", None)
        if phi is None:
            return {"kind": "residual", "error": "no curve equation"}, False, None
        rep = curve_residual_probe(germ, phi, cfg)
        section = residual_json(rep)
        ok = True
        if "max_residual" in p:
            section["max_residual_bound"] = p["max_residual"]
            ok = rep.max_residual <= p["max_residual"]
        section["passed"] = ok
        return section, ok, rep
    raise GermImageError(f"unknown probe kind {kind!r} in entry [{entry.name}]")


@dataclass(frozen=True)
class EntryResult:
    entry: CorpusEntry
    verdict: object
    status_ok: bool
    witness_ok: bool
    probe_ok: bool
    report: dict
    seconds: float

    @property
    def ok(self):
        return self.status_ok and self.witness_ok and self.probe_ok


def run_entry(entry, seed=0, search=None, with_probe=True):
    germ = entry.germ()
    cfg = SamplerConfig(seed=seed)
    t0 = time.monotonic()
    verdict = classify(germ, cfg, search or GapCurveSearchParams())

    probe_section, probe_ok, probe_rep = (None, True, None)
    if with_probe:
        probe_section, probe_ok, probe_rep = run_probe(entry, germ, verdict, seed)
    seconds = time.monotonic() - t0

    verdict, report = build_classify_report(
        name=entry.name,
        varnames=entry.varnames,
        f_text=entry.f_text,
        g_text=entry.g_text,
        germ=germ,
        verdict=verdict,
        probe=(probe_section, probe_rep),
    )
    status_ok = verdict.status.value == entry.expected_status
    witness_ok = entry.expected_witness in ("", witness_kind(verdict.witness))
    report["expected"] = {
        "status": entry.expected_status,
        "witness": entry.expected_witness,
        "status_ok": status_ok,
        "witness_ok": witness_ok,
        "probe_ok": probe_ok,
    }
    return EntryResult(
        entry=entry,
        verdict=verdict,
        status_ok=status_ok,
        witness_ok=witness_ok,
        probe_ok=probe_ok,
        report=report,
        seconds=seconds,
    )


def run_corpus(path=None, seed=0, out_dir=None, with_probe=True, search=None):
    """Classify every corpus entry; returns (results, exit_code)."""
    entries = load_corpus(path)
    results = []
    for entry in entries:
        results.append(run_entry(entry, seed=seed, search=search, with_probe=with_probe))
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for res in results:
            with open(
                os.path.join(out_dir, f"{res.entry.name}.json"), "w", encoding="utf-8"
            ) as fh:
                fh.write(dumps_report(res.report))
    exit_code = 0 if all(r.ok for r in results) else 1
    return results, exit_code


def summary_table(results):
    lines = []
    header = f"{'entry':18s} {'status':13s} {'witness':34s} {'probe':7s} {'time':>7s}  ok"
    lines.append(header)
    lines.append("-" * len(header))
    for r in results:
        wk = witness_kind(r.verdict.witness)
        probe = "-" if r.entry.probe_kind is None else ("pass" if r.probe_ok else "FAIL")
        mark = "ok" if r.ok else "MISMATCH"
        lines.append(
            f"{r.entry.name:18s} {r.verdict.status.value:13s} {wk:34s} "
            f"{probe:7s} {r.seconds:6.2f}s  {mark}"
        )
    return "\n".join(lines)
