"""Liveness verdicts with witnesses, the fair-scheduler, AGEF/full fairness,
probabilistic estimation, and hierarchy checking."""

from __future__ import annotations

import contextlib
import itertools
import math
import random
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .lts import (AnnotationError, AugmentedLTS, SchemaError, TaskSet, affected, obligations,
                  read_json, unmet, validate_side_conditions)
from .paths import (Assumption, Lasso, PathPrefix, classify_lasso, complete_at,
                    enabled_tasks, just_stem, unfair_states)


@dataclass
class Verdict:
    holds: str  # yes | no | bounded-unknown
    assumption: str
    goal: str
    witness: Lasso | PathPrefix | None = None
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        w = self.witness.to_json() if self.witness is not None else None
        return {"assumption": self.assumption, "goal": self.goal,
                "holds": self.holds, "witness": w, "notes": list(self.notes)}


@dataclass(frozen=True)
class Bounds:
    stem: int = 5
    cycle: int = 6

    def __post_init__(self) -> None:
        if self.stem < 0 or self.cycle < 1:
            raise ValueError(f"needs STEM >= 0 and CYCLE >= 1, got {self.stem},{self.cycle}")


def _tid_key(t) -> tuple[int, str]:
    """Transitions in id order, shorter ids first (t2 before t10)."""
    return (len(t.id), t.id)


# ---------------------------------------------------------------------------
# Reachability and AGEF.
# ---------------------------------------------------------------------------

def _bfs(starts, moves):
    """Breadth-first search from the `starts` nodes; moves(node) yields
    (transition id, next node) pairs.  Yields (node, start, depth, back) once
    for each node reached, in frontier order: the steps from start are depth
    long, and back links them last first, as (tid, back) pairs ending in ()."""
    frontier, depth = [(node, node, ()) for node in dict.fromkeys(starts)], 0
    seen = {node for node, _, _ in frontier}
    while frontier:
        nxt = []
        for node, start, back in frontier:
            yield node, start, depth, back
            for tid, succ in moves(node):
                if succ not in seen:
                    seen.add(succ)
                    nxt.append((succ, start, (tid, back)))
        frontier, depth = nxt, depth + 1


def reachable_states(lts: AugmentedLTS, frm: set[str] | None = None,
                     eligible=None) -> set[str]:
    return {s for s, _, _, _ in _bfs(lts.initial if frm is None else frm,
                                     lambda s: [(t.id, t.target) for t in lts.outgoing(s)
                                                if eligible is None or eligible(t)])}


def _co_reachable(lts: AugmentedLTS, goal: frozenset[str],
                  reactive: bool = False) -> dict[str, int]:
    """Fewest steps (non-blocking ones, when reactive) from each state to the
    goal, by one breadth-first search over predecessors; a state that cannot
    reach the goal is absent."""
    pred: dict[str, list] = {s.id: [] for s in lts.states}
    for s in lts.states:
        for t in lts.outgoing(s.id, reactive):
            pred[t.target].append((t.id, t.source))
    return {s: depth for s, _, depth, _ in _bfs(goal, lambda s: pred.get(s, ()))}


def agef(lts: AugmentedLTS, goal: frozenset[str], reactive: bool = False) -> bool:
    """From every state reachable from an initial state, the goal is reachable
    (along non-blocking transitions only, in reactive mode)."""
    return not _hopeless(lts, goal, reactive)


def _hopeless(lts: AugmentedLTS, goal: frozenset[str], reactive: bool) -> set[str]:
    """Reachable states from which the goal is unreachable."""
    reachable = lts.memo(("reachable",), reachable_states, lts)
    return reachable.difference(_co_reachable(lts, goal, reactive))


# ---------------------------------------------------------------------------
# Liveness.
# ---------------------------------------------------------------------------

def liveness(lts: AugmentedLTS, goal: frozenset[str], assumption: Assumption,
             goal_name: str = "") -> Verdict:
    """holds=yes iff no assumption-fair complete rooted path avoids the goal.

    Finite counterexamples are complete finite paths inside the goal-avoiding
    region; infinite ones are found by enumerating the strongly connected
    state subsets of each of its SCCs (with all induced transitions as cycle
    support) one at a time, judging each by `paths.unfair_states`, and
    re-verifying a witness lasso built from the first fair one.  Under S:y,
    SWI and justness an SCC is first cut to the states on its fair subsets
    (`_fair_states`, by the same judge); no fair subset loses a state and the
    enumeration keeps its order, so each witness is the one the whole SCC
    gives.
    """
    name = str(assumption)
    if lts.truncated:
        notes = ["exploration was truncated; no exact verdict"]
        bound = max(1, len(lts.states) // 2)
        if loopfree_witness(lts, goal, bound) is not None:
            notes.append(f"bounded evidence: a loop-free goal-avoiding rooted "
                         f"path of length {bound} exists in the explored part")
        return Verdict("bounded-unknown", name, goal_name, notes=notes)
    if not assumption.pathwise():
        note = {"Fu": "full fairness is reachability of the goal from every reachable state",
                "ST": "decided via goal reachability from every reachable state",
                "Pr": "probability-one reachability decided via the same reachability check",
                }[assumption.kind]
        hopeless = _hopeless(lts, goal, assumption.reactive)
        if not hopeless:
            return Verdict("yes", name, goal_name, notes=[note])
        # every hopeless state is reachable, so the stem exists
        start, steps = _stem_into(lts, set(lts.state_ids()), hopeless)
        return Verdict("no", name, goal_name, witness=PathPrefix(start, steps),
                       notes=[note, "witness ends where the goal is unreachable"])

    region = lts.memo(("region", goal), _region, lts, goal)

    # (a) finite complete counterexamples
    for sid in region.ordered:
        if complete_at(lts, sid, assumption):
            # every region state is reachable inside the region
            start, steps = _stem_into(lts, region.states, {sid})
            return Verdict("no", name, goal_name, witness=PathPrefix(start, steps),
                           notes=["complete finite run avoiding the goal"])

    # (b) infinite counterexamples via support enumeration
    witness = _fair_cycle_witness(lts, region, assumption)
    if witness is not None:
        return Verdict("no", name, goal_name, witness=witness,
                       notes=["fair infinite run avoiding the goal"])
    return Verdict("yes", name, goal_name)


class _Region(NamedTuple):
    """The states reachable from a non-goal initial state without touching the
    goal; it depends on the goal and the transitions only (`lts.memo`)."""
    states: frozenset[str]
    ordered: list[str]  # the states in sorted order
    out: dict[str, list]  # each state's transitions that stay in the region
    succ: dict[str, list[str]]  # each state's successors in the region, sorted
    sccs: list[list[str]]  # its strongly connected components, by Tarjan


def _region(lts: AugmentedLTS, goal: frozenset[str]) -> _Region:
    states = frozenset(reachable_states(lts, {s for s in lts.initial if s not in goal},
                                        lambda t: t.target not in goal))
    out = {s: [t for t in lts.outgoing(s) if t.target in states] for s in states}
    succ = {s: sorted({t.target for t in ts}) for s, ts in out.items()}
    return _Region(states, sorted(states), out, succ, _scc_partition(states, succ.__getitem__))


def _shortest(starts: list, moves, done):
    """(start, steps) for the first `done` node `_bfs` reaches, or None."""
    for node, start, _, back in _bfs(starts, moves):
        if done(node):
            steps = []
            while back:
                tid, back = back
                steps.append(tid)
            return start, tuple(reversed(steps))
    return None


def _stem_into(lts: AugmentedLTS, region: set[str], targets: set[str]):
    """Shortest rooted path within the region reaching one of targets.
    Returns (start, steps) or None."""
    return _shortest([s for s in lts.initial if s in region],
                     lambda sid: [(t.id, t.target) for t in lts.outgoing(sid)
                                  if t.target in region],
                     targets.__contains__)


def _scc_partition(nodes: set[str], succ) -> list[list[str]]:
    """Tarjan over an explicit successor function (iterative)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on: set[str] = set()
    stack: list[str] = []
    work: list = []
    out: list[list[str]] = []

    def push(v: str) -> None:
        index[v] = low[v] = len(index)
        stack.append(v)
        on.add(v)
        work.append((v, iter(sorted(succ(v)))))

    for root in sorted(nodes):
        if root not in index:
            push(root)
        while work:
            v, it = work[-1]
            w = next(it, None)
            if w is None:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == index[v]:
                    comp = []
                    while not comp or comp[-1] != v:
                        comp.append(stack.pop())
                    on.difference_update(comp)
                    out.append(sorted(comp))
            elif w not in index:
                push(w)
            elif w in on:
                low[v] = min(low[v], index[w])
    return out


def _strongly_connected_subsets(scc: list[str], succ):
    """The nonempty subsets of one sorted SCC whose induced subgraph is
    strongly connected (single states only when they carry a self-loop),
    yielded lazily by size, then lexicographically."""
    pred: dict[str, list[str]] = {v: [] for v in scc}
    for u in scc:
        for w in succ(u):
            if w in pred:
                pred[w].append(u)
    for r in range(1, len(scc) + 1):
        for combo in itertools.combinations(scc, r):
            if _is_strongly_connected(set(combo), succ, pred.__getitem__):
                yield list(combo)


def _is_strongly_connected(cset: set[str], succ, pred) -> bool:
    """Whether every state of `cset` reaches and is reached from its least
    state inside `cset`; a single state needs a self-loop."""
    start = min(cset)
    if len(cset) == 1:
        return start in succ(start)
    for nbrs in (succ, pred):
        seen = {start}
        frontier = [start]
        while frontier:
            for w in nbrs(frontier.pop()):
                if w in cset and w not in seen:
                    seen.add(w)
                    frontier.append(w)
        if len(seen) != len(cset):
            return False
    return True


def _covering_cycle(edges: list, entry: str):
    """A closed walk from `entry` through the induced subgraph taking every
    induced transition at least once."""
    edges = sorted(edges, key=_tid_key)
    by_src: dict[str, list] = {}
    for t in edges:
        by_src.setdefault(t.source, []).append((t.id, t.target))

    def path(frm: str, to: str) -> tuple:
        return _shortest([frm], lambda v: by_src.get(v, ()), to.__eq__)[1]

    walk: list = []
    at = entry
    for t in edges:
        walk += path(at, t.source)
        walk.append(t.id)
        at = t.target
    return walk + list(path(at, entry))


def _fair_states(lts: AugmentedLTS, region: _Region, scc: list[str],
                 assumption: Assumption) -> list[str]:
    """The SCC's states on a strongly connected set fair under S:y, SWI or
    justness, sorted (Emerson & Lei).  A set loses the states `unfair_states`
    names, and what is left splits into SCCs again.  Under these assumptions
    a state is named for a reason every subset holding it shares, so a
    deleted state makes every such subset unfair."""
    kept, work = [], [scc]
    while work:
        live = work.pop()
        inside = set(live)
        steps = sorted(t.id for s in live for t in region.out[s] if t.target in inside)
        if not steps:
            continue
        bad = unfair_states(lts, live, steps, assumption)
        if not bad:
            kept += live
        elif rest := inside.difference(bad):
            work += _scc_partition(rest, lambda v: rest.intersection(region.succ[v]))
    return sorted(kept)


def _fair_cycle_witness(lts: AugmentedLTS, region: _Region,
                        assumption: Assumption) -> Lasso | None:
    refine = assumption.kind in ("S", "SWI", "Just")
    for scc in region.sccs:
        # on an error (each is a ValueError) the whole SCC is enumerated, raising it as before
        with contextlib.suppress(ValueError):
            scc = _fair_states(lts, region, scc, assumption) if refine else scc
        for cset_list in _strongly_connected_subsets(scc, region.succ.__getitem__):
            cset = set(cset_list)
            edges = [t for s in cset_list for t in region.out[s] if t.target in cset]
            if unfair_states(lts, cset_list, sorted(t.id for t in edges), assumption):
                continue
            entry = cset_list[0]
            cycle = _covering_cycle(edges, entry)
            stem = _find_stem(lts, region.states, entry, cycle, assumption)
            if stem is None:
                continue
            lasso = Lasso(stem[0], tuple(stem[1]), tuple(cycle))
            if classify_lasso(lts, lasso, assumption):
                return lasso
    return None


def _find_stem(lts: AugmentedLTS, region: set[str], entry: str, cycle: list[str],
               assumption: Assumption):
    """A rooted stem into `entry` through the region such that the full lasso
    still satisfies the assumption.

    Only justness is stem-sensitive: each transition enabled at a stem state
    must be interfered with later.  That search runs over (state, pending
    obligations) pairs, with `just_stem`'s rule, so discharging loops are found too.
    """
    if assumption.kind != "Just":
        return _stem_into(lts, region, {entry})
    comps, reactive = affected(lts, cycle), assumption.reactive

    def moves(node):
        sid, pending = node
        for t in lts.outgoing(sid):
            if t.target in region:
                yield t.id, (t.target, unmet(pending, affected(lts, (t.id,)))
                             | unmet(obligations(lts, t.target, reactive), comps))

    found = _shortest([(s, unmet(obligations(lts, s, reactive), comps)) for s in lts.initial
                       if s in region], moves, lambda node: node[0] == entry and not node[1])
    return None if found is None else (found[0][0], found[1])


# ---------------------------------------------------------------------------
# Loop-free witnesses (bounded evidence for infinite-state claims).
# ---------------------------------------------------------------------------

def loopfree_witness(lts: AugmentedLTS, goal: frozenset[str],
                     length_bound: int) -> PathPrefix | None:
    """A loop-free goal-avoiding rooted path of exactly length_bound inside
    the (possibly truncated) explored graph; absence is bounded evidence only.
    Raises ValueError for length_bound < 0."""
    if length_bound < 0:
        raise ValueError(f"need length >= 0, got {length_bound}")
    for init in lts.initial:
        if init in goal:
            continue
        stack = [(init, [], {init})]
        while stack:
            sid, steps, seen = stack.pop()
            if len(steps) == length_bound:
                return PathPrefix(init, tuple(steps))
            for t in sorted(lts.outgoing(sid), key=_tid_key, reverse=True):
                if t.target in goal or t.target in seen:
                    continue
                stack.append((t.target, steps + [t.id], seen | {t.target}))
    return None


# ---------------------------------------------------------------------------
# The feasibility scheduler (matrix as priority queue).
# ---------------------------------------------------------------------------

def _schedule(lts: AugmentedLTS, prefix: PathPrefix, ts: TaskSet):
    """The priority-queue scheduler from the end of prefix.  Each step appends
    a column, the names of the tasks enabled now in name order, to the queue;
    pops the earliest entry whose task is enabled now; and takes that task's
    member with the least id.  Yields each transition taken until deadlock.
    The queue is kept as each name's entry positions in order, so a step's
    cost grows with the number of task names, not with the queue."""
    pending: dict[str, deque[int]] = {}
    position = itertools.count()
    at = prefix.end(lts)
    while now := {ts.tasks[k].name for k in enabled_tasks(lts, ts, at)}:
        for name in sorted(now):
            pending.setdefault(name, deque()).append(next(position))
        name = min(now, key=lambda k: pending[k][0])
        pending[name].popleft()
        task = ts.get(name)
        taken = min((t for t in lts.outgoing(at) if t.id in task.members), key=_tid_key)
        yield taken
        at = taken.target


def fair_extend(lts: AugmentedLTS, prefix: PathPrefix, ts: TaskSet,
                step_cap: int) -> PathPrefix:
    """Extend a finite path by the priority-queue algorithm: always serve the
    earliest filled, uncrossed entry whose task is enabled now.  Stops at
    deadlock (no task enabled) or after step_cap appended transitions;
    raises ValueError for step_cap < 0."""
    if step_cap < 0:
        raise ValueError(f"need steps >= 0, got {step_cap}")
    prefix.validate(lts)
    taken = itertools.islice(_schedule(lts, prefix, ts), step_cap)
    return PathPrefix(prefix.start, prefix.steps + tuple(t.id for t in taken))


# ---------------------------------------------------------------------------
# Hierarchy checking.
# ---------------------------------------------------------------------------

@dataclass
class HierarchyReport:
    stronger: str
    weaker: str
    checked: int = 0
    violations: list[Lasso] = field(default_factory=list)
    skipped: str = ""  # nonempty reason when the check did not run


def rooted_walks(lts: AugmentedLTS, max_len: int) -> dict[str, list[tuple[str, tuple[str, ...]]]]:
    """All rooted walks of length <= max_len, grouped by end state."""
    return lts.memo(("walks", max_len), _rooted_walks, lts, max_len)


def _rooted_walks(lts: AugmentedLTS, max_len: int) -> dict[str, list[tuple[str, tuple[str, ...]]]]:
    out: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
    layer = [(s, s, ()) for s in lts.initial]
    for s in lts.initial:
        out.setdefault(s, []).append((s, ()))
    for _ in range(max_len):
        nxt = []
        for start, at, steps in layer:
            for t in lts.outgoing(at):
                w = (start, steps + (t.id,))
                out.setdefault(t.target, []).append(w)
                nxt.append((start, t.target, steps + (t.id,)))
        layer = nxt
    return out


def simple_cycles_at(lts: AugmentedLTS, start: str, max_len: int) -> list[tuple[str, ...]]:
    """Cycles without a repeated transition, of length <= max_len, anchored at
    `start`.  States may recur (a loop plus its exit is a valid cycle)."""
    return lts.memo(("cycles", start, max_len), _simple_cycles_at, lts, start, max_len)


def _simple_cycles_at(lts: AugmentedLTS, start: str, max_len: int) -> list[tuple[str, ...]]:
    out: list[tuple[str, ...]] = []
    stack: list[tuple[str, tuple[str, ...]]] = [(start, ())] if max_len >= 1 else []
    while stack:
        at, steps = stack.pop()
        for t in sorted(lts.outgoing(at), key=_tid_key, reverse=True):
            if t.id in steps:
                continue
            if t.target == start:
                out.append(steps + (t.id,))
            if len(steps) + 1 < max_len:
                stack.append((t.target, steps + (t.id,)))
    return out


def _cycle_sets(lts: AugmentedLTS, entry: str, max_len: int):
    """`simple_cycles_at`, each cycle beside its transition set."""
    return lts.memo(("cycle sets", entry, max_len), lambda: [
        (cycle, frozenset(cycle)) for cycle in simple_cycles_at(lts, entry, max_len)])


class UnknownCondition(ValueError):
    """A required side-condition tag that names no condition."""


def hierarchy_check(lts: AugmentedLTS, stronger: Assumption, weaker: Assumption,
                    bounds: Bounds = Bounds(),
                    required_conditions: tuple[str, ...] = ()) -> HierarchyReport:
    """Search for a lasso that is stronger-fair but not weaker-fair among all
    rooted lassos with stem length <= bounds.stem and cycles of <= bounds.cycle
    pairwise-distinct transitions.  A valid hierarchy arrow must yield zero
    violations.  Required conditions are named by exact tag, the report name's
    first word; an unknown tag raises UnknownCondition, and one that does not
    hold (skipped ones included) skips the search."""
    report = HierarchyReport(str(stronger), str(weaker))
    if required_conditions:
        holds = {c.name.split()[0]: c.holds for c in validate_side_conditions(lts)}
        unknown = [need for need in required_conditions if need not in holds]
        if unknown:
            raise UnknownCondition(f"unknown side condition {unknown[0]!r}; "
                                   f"known: {', '.join(holds)}")
        need = next((need for need in required_conditions if not holds[need]), None)
        if need is not None:
            report.skipped = f"side condition {need} does not validate"
            return report
    walks = rooted_walks(lts, bounds.stem)
    s_just = stronger.kind == "Just"
    w_just = weaker.kind == "Just"
    # The verdict of cycle^omega (for justness the cycle part; `just_stem`
    # judges the stem) reads only the cycle's transition set, and `just_stem`
    # only its arguments, so both are kept per system and bounds: verdicts by
    # assumption and set, stem justness by flag, cycle components, entry and
    # index into walks[entry].  Each is filled by the first call that needs it.
    verdicts, justness = lts.memo(("hierarchy", bounds), lambda: ({}, {}))
    s_verdicts, w_verdicts = (verdicts.setdefault(a, {}) for a in (stronger, weaker))

    def verdict(table: dict, a: Assumption, entry: str, cycle: tuple[str, ...],
                cset: frozenset[str]) -> bool:
        if cset not in table:
            table[cset] = classify_lasso(lts, Lasso(entry, (), cycle), a)
        return table[cset]

    def just(marks: list, i: int, walk: tuple, comps: frozenset[str], reactive: bool) -> bool:
        if marks[i] is None:
            marks[i] = just_stem(lts, *walk, comps, reactive)
        return marks[i]

    try:
        # each justness side owes the obligations of its own ,reactive flag; all
        # states are read up front, so a missing comp anywhere skips the check
        for a in (stronger, weaker):
            if a.kind == "Just":
                for s in lts.states:
                    obligations(lts, s.id, a.reactive)
        for entry in sorted(walks):
            stems = walks[entry]
            for cycle, cset in _cycle_sets(lts, entry, bounds.cycle):
                report.checked += len(stems)
                if not verdict(s_verdicts, stronger, entry, cycle, cset):
                    continue
                w_cyc = verdict(w_verdicts, weaker, entry, cycle, cset)
                if w_cyc and not w_just:
                    continue
                # only justness looks at the stem: a violation is the first
                # stem that keeps the stronger side fair and the weaker not
                comps_u = affected(lts, cycle) if s_just or w_just else None
                s_marks, w_marks = (justness.setdefault((a.reactive, comps_u, entry),
                                                        [None] * len(stems))
                                    for a in (stronger, weaker))
                for i, walk in enumerate(stems):
                    if s_just and not just(s_marks, i, walk, comps_u, stronger.reactive):
                        continue
                    if w_cyc and just(w_marks, i, walk, comps_u, weaker.reactive):
                        continue
                    report.violations.append(Lasso(*walk, cycle))
                    return report
    except AnnotationError as exc:
        report.skipped = f"missing annotations: {exc}"
        report.checked = 0
        report.violations = []
    return report


# Fig. 2 arrows: (stronger, weaker, side conditions required on the system).
def figure2_arrows() -> list[tuple[Assumption, Assumption, tuple[str, ...]]]:
    arrows: list[tuple[Assumption, Assumption, tuple[str, ...]]] = []
    notions = ("A", "T", "I", "Z", "C", "G")
    for y in notions:
        arrows.append((Assumption("S", y), Assumption("W", y), ()))
        arrows.append((Assumption("W", y), Assumption("J", y), ()))
        arrows.append((Assumption("J", y), Assumption("P"), ()))
    arrows.append((Assumption("Just"), Assumption("P"), ()))
    arrows.append((Assumption("S", "I"), Assumption("SWI"), ()))
    arrows.append((Assumption("W", "Z"), Assumption("W", "T"), ("(1)",)))
    arrows.append((Assumption("S", "Z"), Assumption("S", "I"), ("(2)",)))
    arrows.append((Assumption("S", "Z"), Assumption("S", "G"), ("(2)", "(3)")))
    arrows.append((Assumption("S", "G"), Assumption("S", "C"), ("(2)", "(3)")))
    arrows.append((Assumption("S", "I"), Assumption("S", "C"), ("(2)", "(3)")))
    arrows.append((Assumption("SWI"), Assumption("W", "I"), ("(4)",)))
    arrows.append((Assumption("SWI"), Assumption("S", "C"),
                   ("(2)", "(3)", "(4)", "(5)")))
    arrows.append((Assumption("J", "C"), Assumption("J", "I"), ("(3)",)))
    for y in ("I", "Z", "C", "G"):
        arrows.append((Assumption("J", y), Assumption("Just"), ("(3)", "(6)")))
    for y in ("T", "Z", "G"):
        arrows.append((Assumption("Just"), Assumption("J", y), ("(3)",)))
    return arrows


# ---------------------------------------------------------------------------
# Probabilistic estimation.
# ---------------------------------------------------------------------------

@dataclass
class ProbEstimate:
    runs: int
    horizon: int
    reached: int
    estimate: Fraction
    seed: int

    def to_json(self) -> dict:
        return {"runs": self.runs, "horizon": self.horizon, "reached": self.reached,
                "estimate": f"{self.estimate.numerator}/{self.estimate.denominator}",
                "value": float(self.estimate), "seed": self.seed}


def parse_weights(document: str) -> dict[str, Fraction]:
    """Parse a {"weights": {transition id: number}} document."""
    doc = read_json(document)
    if not isinstance(doc, dict) or not isinstance(doc.get("weights"), dict):
        raise SchemaError('weights file needs a top-level "weights" object')
    out = {}
    for tid, value in doc["weights"].items():
        try:
            if isinstance(value, bool):  # a bool is an int to Fraction: true would be 1
                raise TypeError(value)
            out[tid] = Fraction(value)
        except (TypeError, ValueError, ArithmeticError):
            raise SchemaError(f"weight of transition {tid!r} is not a number") from None
    return out


def simulate(lts: AugmentedLTS, goal: frozenset[str],
             weights: dict[str, Fraction] | None = None,
             horizon: int = 200, runs: int = 2000,
             seed: int = 0xC0FFEE) -> ProbEstimate:
    """Monte-Carlo estimate of reaching the goal within the horizon.

    Weights are per transition, positive, normalised per state; uniform by
    default.  With several initial states a fresh pre-initial state with
    uniform outgoing choices is implied.  One derived stream per run index
    keeps the estimate reproducible and order-independent.

    A run stops as soon as the goal cannot be reached in the steps it has
    left (fewest steps to the goal, found once per call by `_co_reachable`).
    Such a run could not reach the goal and every run has its own stream, so
    the estimate equals that of walking every run to its horizon.

    Raises ValueError for runs < 1 or horizon < 0 (`fairlab simulate`: exit
    2) and for a weight that is not positive or names no transition (exit 1)."""
    if runs < 1 or horizon < 0:
        raise ValueError(f"need runs >= 1 and horizon >= 0, got runs={runs}, "
                         f"horizon={horizon}")
    weights = weights or {}
    known = {t.id for t in lts.transitions}
    for tid, w in weights.items():
        if tid not in known:
            raise ValueError(f"weight for unknown transition {tid!r}")
        if w <= 0:
            raise ValueError(f"non-positive weight for transition {tid}")
    rows: dict[str, tuple[float, list[tuple[float, str]]]] = {}
    for s in lts.states:
        choices = [(float(weights.get(t.id, 1)), t.target) for t in lts.outgoing(s.id)]
        rows[s.id] = (sum(w for w, _ in choices), choices)
    dist = _co_reachable(lts, goal)
    reached = 0
    for run in range(runs):
        rng = random.Random((seed << 32) ^ run)  # one derived stream per run
        at = lts.initial[0] if len(lts.initial) == 1 else rng.choice(sorted(lts.initial))
        left = horizon
        while at not in goal and dist.get(at, math.inf) <= left:
            total, choices = rows[at]
            x = rng.random() * total
            for w, target in choices:
                x -= w
                if x <= 0:
                    at = target
                    break
            else:
                at = choices[-1][1]
            left -= 1
        reached += at in goal
    return ProbEstimate(runs, horizon, reached, Fraction(reached, runs), seed)
