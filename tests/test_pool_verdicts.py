"""Every germ of the benchmark pool keeps the verdict recorded for it.

``perfbench/data/classify_pool.json`` lists 309 seeded random germs in
x, y, z with the status and witness kind ``classify`` gave when the pool
was made.  The file is read, never written.
"""

import json
from pathlib import Path

from germimage.classifier import Status, classify, verify_witness, witness_kind
from germimage.parsing import parse_map_germ

POOL_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "classify_pool.json"


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
