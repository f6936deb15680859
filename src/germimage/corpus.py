"""Corpus file parsing and the corpus runner.

The corpus is a human-editable key-value block file (see data/corpus.txt).
Each entry names a map germ, its expected verdict, a provenance note and
an optional probe protocol with frozen thresholds.

:func:`parse_corpus` checks the whole file before any entry runs: entry
names, required keys, the germ of each entry (it must parse and vanish
at the origin), the probe kind and its knobs, and the probe module's own
pre-draw check (:func:`germimage.probe.check_probe`) on the entry's germ.
A refusal names the entry.
"""

from __future__ import annotations

import importlib.resources
import operator
import os
import time
from dataclasses import dataclass, field

from .classifier import classify, witness_kind
from .errors import GermImageError
from .parsing import parse_map_germ
from .probe import (
    SamplerConfig,
    SharedBallSamples,
    ball_image_occupancy,
    check_probe,
    curve_residual_probe,
    germ_stability_probe,
)
from .report import build_classify_report, dumps_report, probe_json

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
# The SamplerConfig field of each sampler knob's corpus key and CLI flag.
_SAMPLER_KEYS = {"epsilon": "epsilon", "target_radius": "target_radius", "samples": "samples",
                 "bins": "grid_bins_per_axis"}
# Per probe kind, its threshold: the entry key, the key it is recorded
# under in the section, the report field it bounds and the comparison
# that passes.
_THRESHOLDS = {
    "occupancy": ("min_occupancy", "min_occupancy", "occupied_fraction", operator.ge),
    "stability": ("min_divergence", "min_divergence", "divergence", operator.ge),
    "residual": ("max_residual", "max_residual_bound", "max_residual", operator.le),
}


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
    """The entries of a corpus file's text; a bad entry refuses the whole file."""
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
        entry = CorpusEntry(
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
        try:
            _check_probe(entry, entry.germ())
        except (GermImageError, ValueError) as exc:
            raise GermImageError(f"corpus entry [{block_name}]: {exc}") from None
        entries.append(entry)

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


def _check_probe(entry, germ):
    """Refuse an entry whose probe could not run on ``germ``."""
    kind = entry.probe_kind
    if kind is None:
        return
    if kind not in _THRESHOLDS:
        raise GermImageError(
            f"unknown probe kind {kind!r} (expected one of {', '.join(_THRESHOLDS)})"
        )
    p = entry.probe_params
    check_probe(kind, germ, sampler_config(p, seed=0), (p.get("eps1"), p.get("eps2")))


def sampler_config(knobs, seed):
    """The :class:`SamplerConfig` of a corpus entry's keys or the CLI's flags.

    A knob that is absent or None keeps the default of ``SamplerConfig``,
    the one place the probe defaults are written.
    """
    fields = {f: knobs[k] for k, f in _SAMPLER_KEYS.items() if knobs.get(k) is not None}
    return SamplerConfig(seed=seed, **fields)


def probe_section(kind, germ, cfg, eps=None, phi=None, draw=None):
    """Run one probe; returns ``(JSON section, probe report)``.

    ``eps`` is the pair (eps1, eps2) of a stability probe and ``phi`` the
    curve of a residual probe.  ``draw`` is handed to the probe; ``None``
    draws a fresh sample.
    """
    if kind == "occupancy":
        rep = ball_image_occupancy(germ, cfg, draw=draw)
    elif kind == "stability":
        rep = germ_stability_probe(germ, *eps, cfg, draw=draw)
    elif kind == "residual":
        rep = curve_residual_probe(germ, phi, cfg, draw=draw)
    else:
        raise GermImageError(f"unknown probe kind {kind!r}")
    return probe_json(rep), rep


def run_probe(entry, germ, verdict, seed, draw=None):
    """Run the entry's probe protocol; returns (json section, ok, report).

    The section records the entry's threshold, if it has one, and whether
    the probe passed it.  ``draw`` is handed to the probe.
    """
    kind = entry.probe_kind
    if not kind:
        return None, True, None
    phi = getattr(verdict.witness, "phi", None)
    if kind == "residual" and phi is None:
        return {"kind": "residual", "error": "no curve equation"}, False, None
    return _run_protocol(kind, entry.probe_params, germ, seed, phi, draw)


def _run_protocol(kind, params, germ, seed, phi=None, draw=None):
    """One probe under a protocol's ``params``: knobs, eps1 and eps2, and maybe a threshold.

    Returns (json section, ok, report), as :func:`run_probe` does.
    """
    section, rep = probe_section(
        kind, germ, sampler_config(params, seed), (params.get("eps1"), params.get("eps2")), phi, draw
    )
    entry_key, section_key, measured, passes = _THRESHOLDS[kind]
    ok = True
    if entry_key in params:
        section[section_key] = params[entry_key]
        ok = passes(getattr(rep, measured), params[entry_key])
    section["passed"] = ok
    return section, ok, rep


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


def run_entry(entry, seed=0, draw=None):
    germ = entry.germ()
    t0 = time.monotonic()
    verdict = classify(germ)
    section, probe_ok, probe_rep = run_probe(entry, germ, verdict, seed, draw=draw)
    seconds = time.monotonic() - t0

    verdict, report = build_classify_report(
        name=entry.name,
        varnames=entry.varnames,
        f_text=entry.f_text,
        g_text=entry.g_text,
        germ=germ,
        verdict=verdict,
        probe=(section, probe_rep),
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


def run_corpus(path=None, seed=0, out_dir=None):
    """Classify every corpus entry; returns (results, exit_code).

    The whole file is parsed and checked (see :func:`parse_corpus`)
    before the first entry runs.
    All probes of one call share one :class:`SharedBallSamples`, so each
    point of an (n, seed) unit-ball stream is drawn once: a later entry
    that asks for more points than were drawn resumes the stream and draws
    only the new ones, while its probe bins the points already written.
    A shared draw gives the points a fresh one would, so the reports are
    the same.  A stream is dropped after the last entry with a probe at
    its n, so it does not hold memory through the entries that follow,
    and no thread outlives the call.
    """
    entries = load_corpus(path)
    draw = SharedBallSamples()
    last_reader = {len(e.varnames): e for e in entries if e.probe_kind}
    results = []
    for entry in entries:
        results.append(run_entry(entry, seed=seed, draw=draw))
        n = len(entry.varnames)
        if last_reader.get(n) is entry:
            draw.release(n, seed)
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
