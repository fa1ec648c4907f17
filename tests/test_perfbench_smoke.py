"""One round of each benchmark workload, checked by the benchmark's own
oracles: the hand-derived verdict tables of `ring` and `grid` and the
recorded expectations of `corpus`.  The benchmark's modules are loaded
from perfbench/ as they are; nothing there is written."""

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


@pytest.mark.parametrize("workload", ["ring", "grid", "corpus"])
def test_one_round_meets_the_oracles(workload):
    make_inputs, run_round = workloads.WORKLOADS[workload]
    speed = spans.Speedometer()
    speed.warm_up()
    rec = spans.Recorder(False, speed)
    run_round(make_inputs(), rec, random.Random(1))
    assert rec.failures == []
    assert rec.attempted > 100 and rec.outputs
