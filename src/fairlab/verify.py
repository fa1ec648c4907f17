"""Liveness verdicts with witnesses, the fair-scheduler, AGEF/full fairness,
probabilistic estimation, and hierarchy checking."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .lts import AnnotationError, AugmentedLTS, TaskSet
from .paths import (Assumption, Lasso, PathPrefix, classify_finite,
                    classify_lasso)


@dataclass
class Verdict:
    holds: str  # yes | no | bounded-unknown
    assumption: str
    goal: str
    witness: Lasso | PathPrefix | None = None
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        w = None
        if isinstance(self.witness, Lasso):
            w = {"start": self.witness.start, "stem": list(self.witness.stem),
                 "cycle": list(self.witness.cycle)}
        elif isinstance(self.witness, PathPrefix):
            w = {"start": self.witness.start, "steps": list(self.witness.steps)}
        return {"assumption": self.assumption, "goal": self.goal,
                "holds": self.holds, "witness": w, "notes": list(self.notes)}


@dataclass(frozen=True)
class Bounds:
    stem: int = 5
    cycle: int = 6


# ---------------------------------------------------------------------------
# Reachability and AGEF.
# ---------------------------------------------------------------------------

def reachable_states(lts: AugmentedLTS, frm: set[str] | None = None,
                     eligible=None) -> set[str]:
    frontier = list(frm if frm is not None else lts.initial)
    seen = set(frontier)
    while frontier:
        s = frontier.pop()
        for t in lts.outgoing(s):
            if eligible is not None and not eligible(t):
                continue
            if t.target not in seen:
                seen.add(t.target)
                frontier.append(t.target)
    return seen


def _co_reachable(lts: AugmentedLTS, goal: frozenset[str], eligible=None) -> set[str]:
    pred: dict[str, list[str]] = {s.id: [] for s in lts.states}
    for t in lts.transitions:
        if eligible is not None and not eligible(t):
            continue
        pred[t.target].append(t.source)
    seen = set(goal)
    frontier = list(goal)
    while frontier:
        s = frontier.pop()
        for p in pred[s]:
            if p not in seen:
                seen.add(p)
                frontier.append(p)
    return seen


def agef(lts: AugmentedLTS, goal: frozenset[str], reactive: bool = False) -> bool:
    """From every state reachable from an initial state, the goal is reachable
    (along non-blocking transitions only, in reactive mode)."""
    reach = reachable_states(lts)
    okay = _co_reachable(lts, goal,
                         eligible=(lambda t: not t.blocking) if reactive else None)
    return reach <= okay


# ---------------------------------------------------------------------------
# Liveness.
# ---------------------------------------------------------------------------

def liveness(lts: AugmentedLTS, goal: frozenset[str], assumption: Assumption,
             goal_name: str = "") -> Verdict:
    """holds=yes iff no assumption-fair complete rooted path avoids the goal.

    Finite counterexamples are complete finite paths inside the goal-avoiding
    region; infinite ones are found by enumerating strongly connected state
    subsets of that region (with all induced transitions as cycle support)
    and re-verifying a constructed witness lasso.
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
        if agef(lts, goal, assumption.reactive):
            return Verdict("yes", name, goal_name, notes=[note])
        okay = _co_reachable(lts, goal, eligible=(lambda t: not t.blocking)
                             if assumption.reactive else None)
        hopeless = reachable_states(lts) - okay
        stem = _stem_into(lts, set(lts.state_ids()), hopeless)
        witness = PathPrefix(stem[0], tuple(stem[1])) if stem else None
        return Verdict("no", name, goal_name, witness=witness,
                       notes=[note, "witness ends where the goal is unreachable"])

    region, region_out = _avoiding_region(lts, goal)

    # (a) finite complete counterexamples
    for sid in sorted(region):
        if classify_finite(lts, PathPrefix(sid), assumption):
            stem = _stem_into(lts, region, {sid})
            if stem is not None:
                return Verdict("no", name, goal_name,
                               witness=PathPrefix(stem[0], tuple(stem[1])),
                               notes=["complete finite run avoiding the goal"])

    # (b) infinite counterexamples via support enumeration
    witness = _fair_cycle_witness(lts, region, region_out, assumption)
    if witness is not None:
        return Verdict("no", name, goal_name, witness=witness,
                       notes=["fair infinite run avoiding the goal"])
    return Verdict("yes", name, goal_name)


def _avoiding_region(lts: AugmentedLTS, goal: frozenset[str]):
    """States reachable from a non-goal initial state without touching the
    goal, with the transition map of the induced subgraph."""
    bad_init = [s for s in lts.initial if s not in goal]
    region: set[str] = set()
    frontier = list(bad_init)
    region.update(bad_init)
    while frontier:
        s = frontier.pop()
        for t in lts.outgoing(s):
            if t.target in goal or t.target in region:
                continue
            region.add(t.target)
            frontier.append(t.target)
    region_out = {s: [t for t in lts.outgoing(s) if t.target in region]
                  for s in region}
    return region, region_out


def _stem_into(lts: AugmentedLTS, region: set[str], targets: set[str]):
    """Shortest rooted path within the region reaching one of targets.
    Returns (start, steps) or None."""
    inits = [s for s in lts.initial if s in region]
    for s in inits:
        if s in targets:
            return (s, ())
    seen = set(inits)
    frontier = [(s, s, ()) for s in inits]
    while frontier:
        nxt = []
        for start, sid, steps in frontier:
            for t in lts.outgoing(sid):
                if t.target not in region or t.target in seen:
                    continue
                path = steps + (t.id,)
                if t.target in targets:
                    return (start, path)
                seen.add(t.target)
                nxt.append((start, t.target, path))
        frontier = nxt
    return None


def _scc_partition(nodes: set[str], succ) -> list[list[str]]:
    """Tarjan over an explicit successor function (iterative)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on: set[str] = set()
    stack: list[str] = []
    out: list[list[str]] = []
    counter = [0]

    for root in sorted(nodes):
        if root in index:
            continue
        work = [(root, iter(sorted(succ(root))))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on.add(w)
                    work.append((w, iter(sorted(succ(w)))))
                    advanced = True
                    break
                if w in on:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                out.append(sorted(comp))
    return out


def _strongly_connected_subsets(scc: list[str], succ) -> list[list[str]]:
    """All nonempty subsets of one SCC whose induced subgraph is strongly
    connected (single states only when they carry a self-loop)."""
    import itertools
    out = []
    for r in range(1, len(scc) + 1):
        for combo in itertools.combinations(scc, r):
            cset = set(combo)
            if _is_strongly_connected(cset, succ):
                out.append(list(combo))
    return out


def _is_strongly_connected(cset: set[str], succ) -> bool:
    start = next(iter(sorted(cset)))
    seen = {start}
    frontier = [start]
    edges = False
    while frontier:
        v = frontier.pop()
        for w in succ(v):
            if w in cset:
                edges = True
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
    if seen != cset:
        return False
    # reverse reachability
    rseen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for u in cset:
            if v in succ(u) and u not in rseen:
                rseen.add(u)
                frontier.append(u)
    if rseen != cset:
        return False
    if len(cset) == 1:
        return start in succ(start)  # needs a self-loop
    return edges


def _covering_cycle(edges: list, entry: str):
    """A closed walk from `entry` through the induced subgraph taking every
    induced transition at least once."""
    by_src: dict[str, list] = {}
    for t in edges:
        by_src.setdefault(t.source, []).append(t)
    for v in by_src:
        by_src[v].sort(key=lambda t: (len(t.id), t.id))

    def shortest_path(frm: str, to: str) -> list:
        if frm == to:
            return []
        seen = {frm}
        frontier = [(frm, [])]
        while frontier:
            nxt = []
            for v, path in frontier:
                for t in by_src.get(v, []):
                    if t.target in seen:
                        continue
                    p2 = path + [t]
                    if t.target == to:
                        return p2
                    seen.add(t.target)
                    nxt.append((t.target, p2))
            frontier = nxt
        raise AssertionError("induced subgraph not strongly connected")

    walk: list = []
    at = entry
    for t in sorted(edges, key=lambda t: (len(t.id), t.id)):
        walk.extend(shortest_path(at, t.source))
        walk.append(t)
        at = t.target
    walk.extend(shortest_path(at, entry))
    return [t.id for t in walk]


def _fair_cycle_witness(lts: AugmentedLTS, region: set[str], region_out,
                        assumption: Assumption) -> Lasso | None:
    succ_map = {s: sorted({t.target for t in region_out[s]}) for s in region}

    def succ(v: str):
        return succ_map.get(v, [])

    for scc in _scc_partition(region, succ):
        if not any(t.target in set(scc) for s in scc for t in region_out[s]):
            continue
        for cset_list in _strongly_connected_subsets(scc, succ):
            cset = set(cset_list)
            edges = [t for s in cset_list for t in region_out[s] if t.target in cset]
            if not edges:
                continue
            entry = cset_list[0]
            cycle = _covering_cycle(edges, entry)
            # quick cycle-level test with an empty stem anchored at the entry
            probe = Lasso(entry, (), tuple(cycle))
            if not classify_lasso(lts, probe, assumption):
                continue
            stem = _find_stem(lts, region, cset, entry, cycle, assumption)
            if stem is None:
                continue
            lasso = Lasso(stem[0], tuple(stem[1]), tuple(cycle))
            if classify_lasso(lts, lasso, assumption):
                return lasso
    return None


def _find_stem(lts: AugmentedLTS, region: set[str], cset: set[str], entry: str,
               cycle: list[str], assumption: Assumption):
    """A rooted stem into `entry` through the region such that the full lasso
    still satisfies the assumption.

    Only justness is stem-sensitive: each transition enabled at a stem state
    must be interfered with later.  That search runs over (state, pending
    component-set obligations) pairs, so discharging loops are found too.
    """
    if assumption.kind != "Just":
        found = _stem_into(lts, region, {entry})
        return found
    comp_u: set[str] = set()
    for tid in cycle:
        comp_u |= lts.comp_of(tid)

    def obligations(sid: str) -> frozenset[frozenset[str]]:
        out = set()
        for t in lts.outgoing(sid):
            if assumption.reactive and t.blocking:
                continue
            c = lts.comp_of(t.id)
            if not (c & comp_u):
                out.add(frozenset(c))
        return frozenset(out)

    inits = [s for s in lts.initial if s in region]
    start_nodes = [(s, obligations(s)) for s in inits]
    seen = set(start_nodes)
    frontier: list[tuple[str, tuple[str, frozenset], tuple[str, ...]]] = [
        (s, n, ()) for s, n in zip(inits, start_nodes)]
    while frontier:
        nxt = []
        for start, (sid, pending), steps in frontier:
            if sid == entry and not pending:
                return (start, steps)
            for t in lts.outgoing(sid):
                if t.target not in region:
                    continue
                tcomp = lts.comp_of(t.id)
                new_pending = frozenset(o for o in pending if not (o & tcomp))
                new_pending = new_pending | obligations(t.target)
                node = (t.target, new_pending)
                if node in seen:
                    continue
                seen.add(node)
                nxt.append((start, node, steps + (t.id,)))
        frontier = nxt
    return None


# ---------------------------------------------------------------------------
# Loop-free witnesses (bounded evidence for infinite-state claims).
# ---------------------------------------------------------------------------

def loopfree_witness(lts: AugmentedLTS, goal: frozenset[str],
                     length_bound: int) -> PathPrefix | None:
    """A loop-free goal-avoiding rooted path of exactly length_bound inside
    the (possibly truncated) explored graph; absence is bounded evidence only."""
    for init in lts.initial:
        if init in goal:
            continue
        stack = [(init, [], {init})]
        while stack:
            sid, steps, seen = stack.pop()
            if len(steps) == length_bound:
                return PathPrefix(init, tuple(steps))
            for t in sorted(lts.outgoing(sid), key=lambda t: (len(t.id), t.id),
                            reverse=True):
                if t.target in goal or t.target in seen:
                    continue
                stack.append((t.target, steps + [t.id], seen | {t.target}))
    return None


# ---------------------------------------------------------------------------
# The feasibility scheduler (matrix as priority queue).
# ---------------------------------------------------------------------------

def _tid_key(tid: str):
    return (len(tid), tid)


@dataclass
class _Queue:
    """Filled, uncrossed matrix entries in enumeration order (column-major by
    construction: columns are appended per step, rows in task-name order)."""

    entries: list[str] = field(default_factory=list)  # task names, f-ordered

    def fill_column(self, enabled_tasks: list[str]) -> None:
        self.entries.extend(sorted(enabled_tasks))

    def pick(self, enabled_now: set[str]) -> str | None:
        for k, name in enumerate(self.entries):
            if name in enabled_now:
                del self.entries[k]
                return name
        return None

    def digest(self) -> tuple[str, ...]:
        seen: list[str] = []
        for name in self.entries:
            if name not in seen:
                seen.append(name)
        return tuple(seen)


def _scheduler_run(lts: AugmentedLTS, prefix: PathPrefix, ts: TaskSet):
    """Generator of scheduler steps: yields (state, queue) before each pick."""
    from .paths import enabled
    queue = _Queue()
    at = prefix.end(lts)
    steps = list(prefix.steps)
    while True:
        enabled_now = {t.name for t in ts.tasks if enabled(lts, t, at)}
        if not enabled_now:
            yield at, queue, steps, None
            return
        queue.fill_column(sorted(enabled_now))
        name = queue.pick(enabled_now)
        assert name is not None  # the column just filled contains one
        task = ts.get(name)
        chosen = min((t for t in lts.outgoing(at) if t.id in task.members),
                     key=lambda t: _tid_key(t.id))
        steps.append(chosen.id)
        yield at, queue, steps, chosen
        at = chosen.target


def fair_extend(lts: AugmentedLTS, prefix: PathPrefix, ts: TaskSet,
                step_cap: int) -> PathPrefix:
    """Extend a finite path by the priority-queue algorithm: always serve the
    earliest filled, uncrossed entry whose task is enabled now.  Stops at
    deadlock (no task enabled) or after step_cap appended transitions."""
    prefix.validate(lts)
    appended = 0
    steps = list(prefix.steps)
    for _, _, steps, chosen in _scheduler_run(lts, prefix, ts):
        if chosen is None:
            break
        appended += 1
        if appended >= step_cap:
            break
    return PathPrefix(prefix.start, tuple(steps[: len(prefix.steps) + appended]))


def fair_lasso(lts: AugmentedLTS, prefix: PathPrefix, ts: TaskSet,
               max_steps: int = 20000) -> Lasso | None:
    """Run the scheduler to a (state, queue-digest) repetition whose window is
    a strongly fair cycle; the infinite schedule is fair, so one exists."""
    prefix.validate(lts)
    seen: dict[tuple, list[int]] = {}
    count = 0
    strong = Assumption("S", "custom", ts)
    for _, queue, steps, chosen in _scheduler_run(lts, prefix, ts):
        if chosen is None:
            return None  # deadlocked: no infinite extension
        # recurrence point: configuration right after taking the step
        key = (chosen.target, queue.digest())
        position = len(steps)
        for earlier in reversed(seen.get(key, [])):
            cycle = tuple(steps[earlier:position])
            if not cycle:
                continue
            lasso = Lasso(prefix.start, tuple(steps[:earlier]), cycle)
            if classify_lasso(lts, lasso, strong):
                return lasso
        seen.setdefault(key, []).append(position)
        count += 1
        if count >= max_steps:
            return None
    return None


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
    cache = getattr(lts, "_walk_cache", None)
    if cache is None:
        cache = {}
        lts._walk_cache = cache
    if max_len in cache:
        return cache[max_len]
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
    cache[max_len] = out
    return out


def simple_cycles_at(lts: AugmentedLTS, start: str, max_len: int) -> list[tuple[str, ...]]:
    """Cycles without a repeated transition, of length <= max_len, anchored at
    `start`.  States may recur (a loop plus its exit is a valid cycle)."""
    cache = getattr(lts, "_cycle_cache", None)
    if cache is None:
        cache = {}
        lts._cycle_cache = cache
    key = (start, max_len)
    if key in cache:
        return cache[key]
    out: list[tuple[str, ...]] = []
    stack: list[tuple[str, tuple[str, ...]]] = [(start, ())]
    while stack:
        at, steps = stack.pop()
        for t in sorted(lts.outgoing(at), key=lambda t: (len(t.id), t.id), reverse=True):
            if t.id in steps:
                continue
            if t.target == start:
                out.append(steps + (t.id,))
            if len(steps) + 1 < max_len:
                stack.append((t.target, steps + (t.id,)))
    cache[key] = out
    return out


def _cycle_verdict(lts: AugmentedLTS, entry: str, cycle: tuple[str, ...],
                   a: Assumption) -> bool:
    """Classification of the infinite path cycle^omega (cached on the system).

    For justness this is the cycle part only; stem obligations are handled by
    `_just_stem_ok`.  Every other assumption is stem-insensitive, so this is
    the verdict of any lasso carrying this cycle.
    """
    cache = getattr(lts, "_verdict_cache", None)
    if cache is None:
        cache = {}
        lts._verdict_cache = cache
    key = (entry, cycle, str(a))
    if key not in cache:
        cache[key] = classify_lasso(lts, Lasso(entry, (), cycle), a)
    return cache[key]


def _obligations_by_state(lts: AugmentedLTS, reactive: bool) -> dict[str, list[frozenset[str]]]:
    cache = getattr(lts, "_obligation_cache", None)
    if cache is None:
        cache = {}
        lts._obligation_cache = cache
    if reactive not in cache:
        cache[reactive] = {
            s.id: [lts.comp_of(t.id) for t in lts.outgoing(s.id)
                   if not (reactive and t.blocking)]
            for s in lts.states}
    return cache[reactive]


def _just_stem_ok(lts: AugmentedLTS, start: str, steps: tuple[str, ...],
                  comps_u: frozenset[str], obligations) -> bool:
    """Are all justness obligations along the stem discharged by the stem's
    own remainder or the cycle's components?"""
    states = [start]
    for tid in steps:
        states.append(lts.transition(tid).target)
    # avail[k] = components of steps[k:] plus the cycle's components; the
    # transition leaving position k counts as "past the occurrence" of its
    # source state, so it may discharge that state's obligations itself
    avail: list[frozenset[str]] = [frozenset()] * (len(steps) + 1)
    acc = frozenset(comps_u)
    for k in range(len(steps), -1, -1):
        avail[k] = acc
        if k > 0:
            acc = acc | lts.comp_of(steps[k - 1])
    for k in range(len(steps)):  # the final state is the cycle entry
        for need in obligations[states[k]]:
            if not (need & avail[k]):
                return False
    return True


def hierarchy_check(lts: AugmentedLTS, stronger: Assumption, weaker: Assumption,
                    bounds: Bounds = Bounds(),
                    required_conditions: tuple[str, ...] = ()) -> HierarchyReport:
    """Search for a lasso that is stronger-fair but not weaker-fair among all
    rooted lassos with stem length <= bounds.stem and cycles of <= bounds.cycle
    pairwise-distinct transitions.  A valid hierarchy arrow must yield zero
    violations."""
    report = HierarchyReport(str(stronger), str(weaker))
    if required_conditions:
        from .lts import validate_side_conditions
        conditions = validate_side_conditions(lts)
        for need in required_conditions:
            hit = next((c for c in conditions if c.name.startswith(need)), None)
            if hit is None or not hit.checked or not hit.holds:
                report.skipped = f"side condition {need} does not validate"
                return report
    walks = rooted_walks(lts, bounds.stem)
    s_just = stronger.kind == "Just"
    w_just = weaker.kind == "Just"
    try:
        obligations = (_obligations_by_state(lts, stronger.reactive or weaker.reactive)
                       if (s_just or w_just) else None)
        for entry in sorted(walks):
            stems = walks[entry]
            for cycle in simple_cycles_at(lts, entry, bounds.cycle):
                s_cyc = _cycle_verdict(lts, entry, cycle, stronger)
                if not s_cyc:
                    report.checked += len(stems)
                    continue
                w_cyc = _cycle_verdict(lts, entry, cycle, weaker)
                if not (s_just or w_just):
                    report.checked += len(stems)
                    if not w_cyc:
                        start, steps = stems[0]
                        report.violations.append(Lasso(start, steps, cycle))
                        return report
                    continue
                comps_u = frozenset().union(*(lts.comp_of(t) for t in cycle))
                if s_just:
                    # a violation needs a genuinely just lasso and an unfair
                    # (stem-insensitive) weaker side
                    report.checked += len(stems)
                    if w_cyc:
                        continue
                    for start, steps in stems:
                        if _just_stem_ok(lts, start, steps, comps_u, obligations):
                            report.violations.append(Lasso(start, steps, cycle))
                            return report
                else:
                    # weaker is justness: stronger-fair holds for every stem
                    report.checked += len(stems)
                    if not w_cyc:
                        start, steps = stems[0]
                        report.violations.append(Lasso(start, steps, cycle))
                        return report
                    for start, steps in stems:
                        if not _just_stem_ok(lts, start, steps, comps_u, obligations):
                            report.violations.append(Lasso(start, steps, cycle))
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


def simulate(lts: AugmentedLTS, goal: frozenset[str],
             weights: dict[str, Fraction] | None = None,
             horizon: int = 200, runs: int = 2000,
             seed: int = 0xC0FFEE) -> ProbEstimate:
    """Monte-Carlo estimate of reaching the goal within the horizon.

    Weights are per transition, positive, normalised per state; uniform by
    default.  With several initial states a fresh pre-initial state with
    uniform outgoing choices is implied.  One derived stream per run index
    keeps the estimate reproducible and order-independent."""
    if weights:
        for tid, w in weights.items():
            if w <= 0:
                raise ValueError(f"non-positive weight for transition {tid}")
    out_weights: dict[str, list[tuple[str, float, str]]] = {}
    for s in lts.states:
        rows = []
        for t in lts.outgoing(s.id):
            w = float(weights[t.id]) if weights and t.id in weights else 1.0
            rows.append((t.id, w, t.target))
        out_weights[s.id] = rows
    reached = 0
    for run in range(runs):
        rng = random.Random((seed << 32) ^ run)  # one derived stream per run
        at = lts.initial[0] if len(lts.initial) == 1 else rng.choice(sorted(lts.initial))
        hit = at in goal
        for _ in range(horizon):
            if hit:
                break
            rows = out_weights[at]
            if not rows:
                break
            total = sum(w for _, w, _ in rows)
            x = rng.random() * total
            for _, w, target in rows:
                x -= w
                if x <= 0:
                    at = target
                    break
            else:
                at = rows[-1][2]
            if at in goal:
                hit = True
        if hit:
            reached += 1
    return ProbEstimate(runs, horizon, reached, Fraction(reached, runs), seed)
