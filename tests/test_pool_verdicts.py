"""Every germ of the benchmark pool keeps the verdict recorded for it.

``perfbench/data/classify_pool.json`` lists 309 seeded random germs in
x, y, z with the status and witness kind ``classify`` gave when the pool
was made.  The file is read, never written.
"""

import hashlib
import json
from pathlib import Path

from germimage.algebra import _decomposition, _strip, gcd, zero_set_germ_included
from germimage.classifier import Status, classify, verify_witness, witness_kind
from germimage.corpus import load_corpus
from germimage.parsing import parse_map_germ
from germimage.report import dumps_report, verdict_json

POOL_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "classify_pool.json"

# sha256 of every pool germ's verdict_json, then every shipped corpus
# entry's, as ``dumps_report`` writes them, recorded when each verdict
# took three gcds of (f, g); it pins the one-gcd classify to that output.
VERDICTS_SHA256 = "14d327f96cada420fc7bb6112901d5acae418fa307f8008c4f10d086511dcc9e"


def _pool():
    pool = json.loads(POOL_PATH.read_text(encoding="utf-8"))
    varnames = tuple(pool["vars"])
    return [(parse_map_germ(varnames, e["f"], e["g"]), varnames) for e in pool["germs"]]


def test_pool_verdicts_hold_and_witnesses_verify():
    pool = json.loads(POOL_PATH.read_text(encoding="utf-8"))
    varnames = tuple(pool["vars"])
    assert len(pool["germs"]) == 309
    wrong = []
    for entry in pool["germs"]:
        germ = parse_map_germ(varnames, entry["f"], entry["g"])
        verdict = classify(germ)
        got = (verdict.status.value, witness_kind(verdict.witness))
        # a germ the pool leaves undetermined may since have been decided
        if entry["status"] != Status.UNDETERMINED.value and got != (entry["status"], entry["witness"]):
            wrong.append((entry["f"], entry["g"], got))
        elif not verify_witness(germ, verdict):
            wrong.append((entry["f"], entry["g"], "witness fails"))
    assert wrong == []


def test_strips_from_the_cofactors_match_the_inclusion_tests():
    """The cofactor strips ``classify`` makes answer as both germ inclusions do."""
    for germ, _ in _pool():
        dec = _decomposition(germ, gcd(germ.f, germ.g))
        assert _strip(dec.g_hat, dec.h) is zero_set_germ_included(germ.g, germ.f)
        assert _strip(dec.f_hat, dec.h) is zero_set_germ_included(germ.f, germ.g)


def test_verdict_json_matches_the_recorded_run():
    digest = hashlib.sha256()
    cases = _pool() + [(entry.germ(), entry.varnames) for entry in load_corpus()]
    for germ, varnames in cases:
        digest.update(dumps_report(verdict_json(classify(germ), varnames)).encode())
    assert digest.hexdigest() == VERDICTS_SHA256
