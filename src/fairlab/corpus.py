"""The bundled corpus of worked examples with their expected verdicts.

Each entry builds an augmented transition system (from a .ccs source or a
handwritten .json file), attaches named goals and task sets, and lists the
expected liveness verdicts, path classifications, prefix certificates,
loop-free witnesses, and probability estimates.  The corpus runner replays
everything and diffs against the expectations.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from importlib import resources

from .lts import (AugmentedLTS, GoalSpec, Task, TaskSet, from_exploration,
                  load_lts, named_goal)
from .parser import parse_ccs
from .paths import (Lasso, PathPrefix, classify_lasso, parse_assumption,
                    prefix_certificate)
from .semantics import explore
from .syntax import Fix, Prefix, ProcessSpec, project
from .tasks import extract_tasks
from .verify import liveness, loopfree_witness, parse_weights, simulate


def _data(name: str) -> str:
    return resources.files("fairlab.corpus_data").joinpath(name).read_text()


@dataclass
class CorpusEntry:
    id: str
    source: str
    note: str
    kind: str = "ccs"  # ccs | lts
    state_cap: int = 512
    depth_cap: int = 256
    goals: dict = field(default_factory=dict)  # name -> GoalSpec | builder(lts)
    verdicts: list = field(default_factory=list)  # (assume, goal, expected)
    lassos: dict = field(default_factory=dict)  # name -> builder(lts) -> Lasso
    classifications: list = field(default_factory=list)  # (lasso, assume, bool)
    prefixes: dict = field(default_factory=dict)  # name -> builder(lts)
    certificates: list = field(default_factory=list)  # (prefix, task, ee, occ)
    loopfree: list = field(default_factory=list)  # (goal, bound, present)
    estimates: list = field(default_factory=list)  # (goal, weights, h, n, lo, hi)


@dataclass
class BuiltEntry:
    entry: CorpusEntry
    lts: AugmentedLTS
    spec: ProcessSpec | None

    def custom_tasks(self, name: str) -> TaskSet:
        """The task set an x:custom=NAME assumption names: one of the
        system's own, or `zonly`, local fairness declaring just the reset a task."""
        if name == "zonly":
            zs = [t.id for t in self.lts.transitions if str(t.label) == "z"]
            return TaskSet("custom", (Task("z", frozenset(zs)),))
        return self.lts.tasks[name]


def build(entry: CorpusEntry) -> BuiltEntry:
    if entry.kind == "ccs":
        spec = parse_ccs(_data(entry.source))
        lts = from_exploration(explore(spec, entry.state_cap, entry.depth_cap))
    else:
        spec = None
        lts = load_lts(_data(entry.source))
    for name, goal in entry.goals.items():
        lts.goals[name] = goal(lts) if callable(goal) else goal
    return BuiltEntry(entry, lts, spec)


# ---------------------------------------------------------------------------
# Small resolvers used by entry definitions.
# ---------------------------------------------------------------------------

def _only(items, what: str):
    items = list(items)
    if len(items) != 1:
        raise LookupError(f"expected exactly one {what}, found {len(items)}")
    return items[0]


def t_by(lts: AugmentedLTS, source: str | None = None, label: str | None = None) -> str:
    hits = [t.id for t in lts.transitions
            if (source is None or t.source == source) and (label is None or str(t.label) == label)]
    return _only(hits, f"transition matching {source}/{label}")


def walk_labels(lts: AugmentedLTS, start: str, labels: list[str]) -> list[str]:
    """Follow uniquely-labelled transitions from `start`."""
    at, out = start, []
    for lab in labels:
        tid = t_by(lts, source=at, label=lab)
        out.append(tid)
        at = lts.transition(tid).target
    return out


def label_lasso(stem: list[str], cycle: list[str]):
    def make(lts: AugmentedLTS) -> Lasso:
        start = lts.initial[0]
        stem_steps = walk_labels(lts, start, stem)
        entry = lts.transition(stem_steps[-1]).target if stem_steps else start
        cyc = walk_labels(lts, entry, cycle)
        return Lasso(start, tuple(stem_steps), tuple(cyc))
    return make


def label_prefix(labels: list[str]):
    def make(lts: AugmentedLTS) -> PathPrefix:
        start = lts.initial[0]
        return PathPrefix(start, tuple(walk_labels(lts, start, labels)))
    return make


def prefix_of_steps(count: int, chooser):
    """Walk `count` steps, each chosen among the outgoing transitions."""
    def make(lts: AugmentedLTS) -> PathPrefix:
        at = lts.initial[0]
        steps = []
        for _ in range(count):
            tid = chooser(lts, at)
            steps.append(tid)
            at = lts.transition(tid).target
        return PathPrefix(lts.initial[0], tuple(steps))
    return make


def explicit_goal(predicate):
    """Goal built from a per-state predicate over (lts, state id)."""
    def make(lts: AugmentedLTS) -> GoalSpec:
        return GoalSpec.explicit(s.id for s in lts.states if predicate(lts, s.id))
    return make


def _head_prefix_named(name: str, path: str):
    def pred(lts: AugmentedLTS, sid: str) -> bool:
        comp = project(lts.state_expr(sid), path)
        return isinstance(comp, Prefix) and comp.name == name
    return pred


def _fix_var_in(vars_: set[str], path: str):
    def pred(lts: AugmentedLTS, sid: str) -> bool:
        comp = project(lts.state_expr(sid), path)
        return isinstance(comp, Fix) and comp.var in vars_
    return pred


def _phase(expr, order: str) -> int:
    node = expr
    while isinstance(node, Fix):
        node = node.spec.body(node.var)
    if isinstance(node, Prefix):
        return order.index(node.action.base)
    raise LookupError("component has no next action")


def _diag(lts: AugmentedLTS, sid: str) -> bool:
    left = project(lts.state_expr(sid), "L")
    right = project(lts.state_expr(sid), "R")
    return _phase(left, "abc") == _phase(right, "abc")


# ---------------------------------------------------------------------------
# The entries.
# ---------------------------------------------------------------------------

def corpus_entries() -> list[CorpusEntry]:
    out: list[CorpusEntry] = []

    out.append(CorpusEntry(
        id="ex-2.1-two-steps", source="ex-2.1.ccs",
        note="two sequential steps; stopping early is not progressing",
        goals={"done": GoalSpec.state_is("0")},
        verdicts=[("P", "done", "yes")],
    ))

    out.append(CorpusEntry(
        id="ex-4.1-reset", source="ex-4.1.ccs",
        note="reset thread beside an increment loop",
        goals={"reset": GoalSpec.component_at("L", "0")},
        verdicts=[("W:A", "reset", "yes"), ("S:A", "reset", "yes"),
                  ("just", "reset", "yes"), ("P", "reset", "no"),
                  ("W:custom=zonly", "reset", "yes")],
    ))

    out.append(CorpusEntry(
        id="ex-4.1-second-ts", source="ex-4.1-second-ts.json", kind="lts",
        note="unfolded variant of ex-4.1; bounded evidence only",
        prefixes={"incs": label_prefix(["i"] * 8)},
        certificates=[("incs", ("custom", "zs", "T2"), True, False),
                      ("incs", ("custom", "zs", "T1"), True, True)],
        loopfree=[("reset", 9, True)],
    ))

    for variant, just in (("mem", "no"), ("free", "yes")):
        out.append(CorpusEntry(
            id=f"ex-4.2-mutex-{variant}", source=f"ex-4.2-mutex-{variant}.json",
            kind="lts",
            note="semaphore mutual exclusion, "
                 + ("memory-participating" if variant == "mem" else "memory-free")
                 + " component annotation",
            verdicts=[("S:custom=LM", "crit", "yes"), ("W:custom=LM", "crit", "no"),
                      ("S:A", "crit", "yes"), ("W:A", "crit", "no"),
                      ("S:T", "crit", "yes"), ("W:T", "crit", "no"),
                      ("just", "crit", just)],
            lassos={"m-cycle": label_lasso([], ["m1", "m2", "m3"])},
            classifications=[("m-cycle", "W:custom=LM", True),
                             ("m-cycle", "S:custom=LM", False)],
        ))

    out.append(CorpusEntry(
        id="ex-5.1-exit-loop", source="ex-5.1.ccs",
        note="single exit beside an unbounded loop",
        goals={"done": GoalSpec.component_at("L", "0")},
        verdicts=[("S:A", "done", "no"), ("W:A", "done", "no")]
                 + [(f"{x}:{y}", "done", "yes")
                    for x in ("W", "S") for y in ("T", "I", "Z", "C", "G")]
                 + [("just", "done", "yes"), ("J:T", "done", "yes")],
    ))

    out.append(CorpusEntry(
        id="ex-5.2-relabel-chain", source="ex-5.2.ccs",
        note="infinite relabelling family; bounded evidence only",
        state_cap=128,
        goals={"done": GoalSpec.component_at("L", "0")},
        prefixes={"bs": prefix_of_steps(20, lambda lts, at: _only(
            [t.id for t in lts.outgoing(at) if str(t.label) != "a"], "b-step"))},
        certificates=[("bs", ("I", "a@1"), True, False)],
        loopfree=[("done", 50, True)],
        verdicts=[("W:A", "done", "bounded-unknown")],
    ))

    out.append(CorpusEntry(
        id="ex-5.3-single-component", source="ex-5.3.ccs",
        note="loop with exit in one sequential component",
        goals={"done": GoalSpec.state_is("0")},
        verdicts=[("S:G", "done", "no"), ("S:C", "done", "no"),
                  ("W:G", "done", "no"), ("W:C", "done", "no")]
                 + [(f"{x}:{y}", "done", "yes")
                    for x in ("W", "S") for y in ("A", "T", "I", "Z")],
    ))

    out.append(CorpusEntry(
        id="ex-5.4-sync-exit", source="ex-5.4.ccs",
        note="two loops with a single synchronised exit",
        goals={"sync": GoalSpec.state_is("(0 | 0)\\b")},
        verdicts=[("W:C", "sync", "no"), ("S:C", "sync", "no")]
                 + [(f"{x}:{y}", "sync", "yes")
                    for x in ("W", "S") for y in ("A", "T", "I", "Z", "G")],
    ))

    out.append(CorpusEntry(
        id="ex-5.5-handshake-loops", source="ex-5.5.ccs",
        note="independent loops that can also synchronise",
        lassos={"a-abar": label_lasso([], ["a", "'a"])},
        classifications=[("a-abar", "S:I", True), ("a-abar", "S:C", True),
                         ("a-abar", "S:A", False), ("a-abar", "S:T", False),
                         ("a-abar", "S:Z", False), ("a-abar", "S:G", False)],
    ))

    out.append(CorpusEntry(
        id="ex-5.6-idle-loop", source="ex-5.6.ccs",
        note="the second loop state carries its own copy of the idle loop",
        lassos={"abc": label_lasso([], ["a", "b", "c"])},
        classifications=[("abc", "S:T", False)]
                        + [("abc", f"S:{y}", True) for y in ("A", "I", "Z", "C", "G")],
    ))

    out.append(CorpusEntry(
        id="ex-5.7-swap-chain", source="ex-5.7.ccs",
        note="swap relabelling unfolds into an infinite chain",
        state_cap=128,
        prefixes={"ab12": label_prefix(["a", "b"] * 6)},
        certificates=[("ab12", ("A", "c"), True, False),
                      ("ab12", ("T-singletons",), False, False)],
    ))

    out.append(CorpusEntry(
        id="ex-5.8-chained-sync", source="ex-5.8.ccs",
        note="a one-shot chooser beside two relay loops and a four-step cycle",
        goals={"served": GoalSpec.component_at("LLL", "0")},
        verdicts=[("W:C", "served", "yes")]
                 + [(f"W:{y}", "served", "no") for y in ("A", "T", "I", "Z", "G")]
                 + [("just", "served", "no")],
    ))

    out.append(CorpusEntry(
        id="ex-5.9-wz-separator", source="ex-5.9-wz.ccs",
        note="synchronisations enabled only in alternate states",
        goals={"used": GoalSpec.component_at("LL", "0")},
        verdicts=[("W:I", "used", "yes"), ("W:C", "used", "yes"),
                  ("W:G", "used", "yes"), ("W:Z", "used", "no"),
                  ("W:T", "used", "no"), ("W:A", "used", "no"),
                  ("S:A", "used", "no"), ("just", "used", "no")],
    ))

    out.append(CorpusEntry(
        id="ex-6.2-weak-robustness", source="ex-6.2-weak.ccs",
        note="interleaving order decides weak component fairness",
        lassos={"abcd": label_lasso([], ["a", "b", "c", "d"]),
                "acbd": label_lasso([], ["a", "c", "b", "d"])},
        classifications=[("abcd", "W:C", False), ("acbd", "W:C", True)],
    ))

    out.append(CorpusEntry(
        id="ex-6.2-strong-robustness", source="ex-6.2-strong.ccs",
        note="interleaving order decides strong fairness of the one-shot sync",
        lassos={"acbd": label_lasso([], ["a", "c", "b", "d"]),
                "a-cbad": label_lasso(["a"], ["c", "b", "a", "d"])},
        classifications=[("acbd", f"S:{y}", False) for y in ("A", "T", "I", "Z", "G")]
                        + [("a-cbad", f"S:{y}", True) for y in ("A", "I", "Z", "G")]
                        # under fairness of transitions the second interleaving
                        # still leaves the b-copy at the recurring state unserved
                        + [("a-cbad", "S:T", False)],
    ))

    out.append(CorpusEntry(
        id="ex-7.1-clerk", source="ex-7.1-clerk.ccs",
        note="clerk with three windows; window 3's customers may go home",
        # G2 is the moment of serving window 2 (that serve leaves no other
        # trace); G and G3 are encoded as the persistent facts "window 3 has
        # been served" resp. "... or both its customers are at home", read off
        # the queue component, so hopeless states do not hide behind the goal
        goals={"G2": explicit_goal(_head_prefix_named("e@2", "LLL")),
               "G3": explicit_goal(_fix_var_in({"Y11", "Y10", "Y00", "Y20"}, "R")),
               "G": explicit_goal(_fix_var_in({"Y11", "Y10", "Y00"}, "R"))},
        verdicts=[(f"W:{y}", "G2", "no") for y in ("A", "T", "I", "Z", "C", "G")]
                 + [(f"S:{y}", "G2", "yes") for y in ("T", "I", "Z", "G")]
                 + [("SWI", "G2", "yes"), ("S:A", "G2", "no"),
                    ("S:C", "G3", "no"), ("SWI", "G3", "yes"),
                    ("SWI", "G", "no")],
    ))

    out.append(CorpusEntry(
        id="ex-10.1-offset-cycles", source="ex-10.1.ccs",
        note="two offset three-phase cycles; goal is phase agreement",
        goals={"diag": explicit_goal(_diag)},
        verdicts=[("ST", "diag", "yes"), ("S:Z", "diag", "no"),
                  ("S:A", "diag", "no"), ("Fu", "diag", "yes"),
                  ("Pr", "diag", "yes"), ("S:T", "diag", "yes")],
        estimates=[("diag", None, 200, 2000, 0.99, None)],
    ))

    out.append(CorpusEntry(
        id="ex-11.2-counters", source="ex-11.2-counters.json", kind="lts",
        note="increment/decrement race; the chain is explored up to a bound",
        loopfree=[("zero", 30, True)],
    ))

    out.append(CorpusEntry(
        id="ex-12.1-phone", source="ex-12.1-phone.ccs",
        note="an always-willing caller beside a busy callee",
        goals={"conn": GoalSpec.component_at("R", "0")},
        verdicts=[(f"{x}:{y}", "conn", "yes")
                  for x in ("W", "S") for y in ("A", "T", "I", "Z", "C", "G")]
                 + [("just", "conn", "no"), ("Fu", "conn", "yes")],
        lassos={"a-loop": label_lasso([], ["a"])},
        classifications=[("a-loop", "just", True)],
        estimates=[("conn", None, 200, 2000, 0.99, None)],
    ))

    out.append(CorpusEntry(
        id="ex-12.2-breakfast", source="ex-12.2.ccs",
        note="fully independent components",
        goals={"fed": GoalSpec.component_at("R", "0")},
        verdicts=[("just", "fed", "yes"), ("P", "fed", "no")],
        lassos={"b-loop": label_lasso([], ["b"])},
        classifications=[("b-loop", "just", False), ("b-loop", "P", True)],
    ))

    out.append(CorpusEntry(
        id="ex-13.1-relabel-ring", source="ex-13.1.json", kind="lts",
        note="eight-phase handshake ring with label-swapping loops",
        lassos={"a-tau": lambda lts: Lasso("s0", (), (
            "txa0", "tz0", "tya1", "tz1", "txc2", "tz2", "txc3", "tz3",
            "tyc4", "tz4", "tyc5", "tz5", "txa6", "tz6", "txa7", "tz7"))},
        classifications=[("a-tau", "J:A", False), ("a-tau", "W:A", False),
                         ("a-tau", "S:A", False)]
                        + [(f"a-tau", f"{x}:{y}", True)
                           for x in ("J", "W", "S") for y in ("I", "Z", "C", "G")],
    ))

    out.append(CorpusEntry(
        id="ex-13.2-one-shot", source="ex-13.2.ccs",
        note="one-shot synchroniser beside relays and a four-step cycle",
        goals={"served": GoalSpec.component_at("LLL", "0")},
        verdicts=[(f"{x}:{y}", "served", "yes")
                  for x in ("J", "W", "S") for y in ("I", "C")]
                 + [(f"W:{y}", "served", "no") for y in ("A", "T", "Z", "G")],
    ))

    out.append(CorpusEntry(
        id="ex-16-reactive", source="ex-16-reactive.ccs",
        note="a blocking receive followed by an internal step",
        goals={"end": GoalSpec.state_is("0")},
        verdicts=[("P", "end", "yes"), ("P,reactive", "end", "no")],
    ))

    out.append(CorpusEntry(
        id="prob-notagef", source="prob-notagef.json", kind="lts",
        note="a coin flip into a trap; the goal is not reachable everywhere",
        verdicts=[("ST", "win", "no"), ("Pr", "win", "no")],
        estimates=[("win", "weights-notagef.json", 200, 2000, None, 0.90)],
    ))

    return out


def build_all(pattern: str = "*") -> list[BuiltEntry]:
    return [build(e) for e in corpus_entries() if fnmatch.fnmatch(e.id, pattern)]


# ---------------------------------------------------------------------------
# Expectation replay.
# ---------------------------------------------------------------------------

def _task_for(built: BuiltEntry, spec: tuple):
    if spec[0] == "custom":
        _, set_name, task_name = spec
        return built.lts.tasks[set_name].get(task_name)
    notion, name = spec
    return extract_tasks(built.lts, notion).get(f"{notion}:{name}")


@dataclass
class CheckResult:
    entry: str
    kind: str
    subject: str
    expected: str
    actual: str

    @property
    def ok(self) -> bool:
        return self.expected == self.actual

    def line(self) -> str:
        mark = "pass" if self.ok else "FAIL"
        return (f"[{mark}] {self.entry:24s} {self.kind:10s} {self.subject:34s} "
                f"expected={self.expected} actual={self.actual}")


def run_entry(built: BuiltEntry) -> list[CheckResult]:
    out: list[CheckResult] = []
    entry, lts = built.entry, built.lts
    for assume_text, goal_name, expected in entry.verdicts:
        assumption = parse_assumption(assume_text, built.custom_tasks)
        verdict = liveness(lts, named_goal(lts, goal_name), assumption,
                           goal_name=goal_name)
        out.append(CheckResult(entry.id, "verdict", f"{assume_text} {goal_name}",
                               expected, verdict.holds))
    for lasso_name, assume_text, expected in entry.classifications:
        lasso = entry.lassos[lasso_name](lts)
        assumption = parse_assumption(assume_text, built.custom_tasks)
        got = classify_lasso(lts, lasso, assumption)
        out.append(CheckResult(entry.id, "classify", f"{lasso_name} {assume_text}",
                               str(expected), str(got)))
    for prefix_name, task_spec, expect_ee, expect_occ in entry.certificates:
        prefix = entry.prefixes[prefix_name](lts)
        if task_spec == ("T-singletons",):  # checks enabled-everywhere only
            certs = [prefix_certificate(lts, prefix, t)
                     for t in extract_tasks(lts, "T").tasks]
            got_ee = any(c.enabled_everywhere for c in certs)
            out.append(CheckResult(entry.id, "certific.",
                                   f"{prefix_name} any-T-enabled-everywhere",
                                   str(expect_ee), str(got_ee)))
            continue
        task = _task_for(built, task_spec)
        cert = prefix_certificate(lts, prefix, task)
        out.append(CheckResult(
            entry.id, "certific.", f"{prefix_name} {task.name}",
            f"ee={expect_ee} occ={expect_occ}",
            f"ee={cert.enabled_everywhere} occ={cert.occurs}"))
    for goal_name, bound, present in entry.loopfree:
        witness = loopfree_witness(lts, named_goal(lts, goal_name), bound)
        out.append(CheckResult(entry.id, "loopfree", f"{goal_name} len={bound}",
                               str(present), str(witness is not None)))
    for goal_name, weights_file, horizon, runs, lo, hi in entry.estimates:
        weights = parse_weights(_data(weights_file)) if weights_file else None
        est = simulate(lts, named_goal(lts, goal_name), weights, horizon, runs)
        value = float(est.estimate)
        want = (f">= {lo}" if lo is not None else "") + \
               (f"<= {hi}" if hi is not None else "")
        okay = (lo is None or value >= lo) and (hi is None or value <= hi)
        out.append(CheckResult(entry.id, "estimate", f"{goal_name} {want}",
                               "within", "within" if okay else f"value={value}"))
    return out


def run_corpus(pattern: str = "*") -> tuple[list[CheckResult], bool]:
    results: list[CheckResult] = []
    for built in build_all(pattern):
        results.extend(run_entry(built))
    return results, all(r.ok for r in results)
