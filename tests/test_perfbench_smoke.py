"""One round of each benchmark workload, checked by the benchmark's own
oracles: the hand-derived verdict tables of `ring` and `grid` and the
recorded expectations of `corpus`.  The round's output digest (saved LTS
JSON, verdict JSON and the other recorded outputs) must be the one the
benchmark records, so a change to any of those bytes fails here too.  The
benchmark's modules are loaded from perfbench/ as they are; nothing there
is written."""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")

DIGESTS = {
    "ring": "1541db919a4665f17073800d3e9e32715097d1fa9e8d46f73526b3fdde0b25c7",
    "grid": "8c54faf910067352b1341d4e1258480199e748c706e6fb8ff72b3494688a7d6b",
    "corpus": "ea1388660b6c9cfad272155c91dfd75c6411b6477ab01eddefc6435c753edd87",
}


@pytest.mark.parametrize("workload", ["ring", "grid", "corpus"])
def test_one_round_meets_the_oracles(workload):
    make_inputs, run_round = workloads.WORKLOADS[workload]
    speed = spans.Speedometer()
    speed.warm_up()
    rec = spans.Recorder(False, speed)
    run_round(make_inputs(), rec, random.Random(1))
    assert rec.failures == []
    assert rec.attempted > 100 and rec.outputs
    assert rec.digest() == DIGESTS[workload]
