"""The augmented transition-system model: serialization, goals, tasks,
the concurrency relation, and structural side-condition validators."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .labels import ActionLabel, parse_label
from .syntax import Expr, print_expr, project


class SchemaError(ValueError):
    pass


class AnnotationError(ValueError):
    """An operation needed instr/comp/expr data the LTS does not carry."""


@dataclass(frozen=True)
class Transition:
    id: str
    source: str
    target: str
    label: ActionLabel
    instr: frozenset[str] | None  # None when the file omits it
    comp: frozenset[str] | None
    blocking: bool


@dataclass(frozen=True)
class State:
    id: str
    expr: str | None  # canonical expression text for ccs-origin systems


@dataclass(frozen=True)
class Task:
    name: str
    members: frozenset[str]


@dataclass(frozen=True)
class TaskSet:
    notion: str  # A T I Z C G custom
    tasks: tuple[Task, ...]

    def names(self) -> list[str]:
        return [t.name for t in self.tasks]

    def get(self, name: str) -> Task:
        for t in self.tasks:
            if t.name == name:
                return t
        raise KeyError(name)


@dataclass(frozen=True)
class GoalPredicate:
    kind: str  # state_is | component_at | explicit
    expr: str = ""
    path: str = ""
    states: frozenset[str] = frozenset()


@dataclass(frozen=True)
class GoalSpec:
    disjuncts: tuple[GoalPredicate, ...]

    @staticmethod
    def explicit(states) -> "GoalSpec":
        return GoalSpec((GoalPredicate("explicit", states=frozenset(states)),))

    @staticmethod
    def state_is(expr: str) -> "GoalSpec":
        return GoalSpec((GoalPredicate("state_is", expr=expr),))

    @staticmethod
    def component_at(path: str, expr: str) -> "GoalSpec":
        return GoalSpec((GoalPredicate("component_at", expr=expr, path=path),))


@dataclass
class AugmentedLTS:
    states: list[State]
    transitions: list[Transition]
    initial: list[str]
    goals: dict[str, GoalSpec] = field(default_factory=dict)
    tasks: dict[str, TaskSet] = field(default_factory=dict)
    origin: str = "handwritten"  # ccs | handwritten
    truncated: bool = False

    def __post_init__(self) -> None:
        ids = {s.id for s in self.states}
        if len(ids) != len(self.states):
            raise SchemaError("duplicate state id")
        tids = {t.id for t in self.transitions}
        if len(tids) != len(self.transitions):
            raise SchemaError("duplicate transition id")
        for t in self.transitions:
            if t.source not in ids or t.target not in ids:
                raise SchemaError(f"transition {t.id} has a dangling endpoint")
        if not self.initial:
            raise SchemaError("no initial state")
        for s in self.initial:
            if s not in ids:
                raise SchemaError(f"initial state {s} unknown")
        for name, ts in self.tasks.items():
            for task in ts.tasks:
                for m in task.members:
                    if m not in tids:
                        raise SchemaError(
                            f"task {task.name} in {name} references unknown transition {m}")
        self._by_id = {t.id: t for t in self.transitions}
        self._state_by_id = {s.id: s for s in self.states}
        self._out: dict[str, list[Transition]] = {s.id: [] for s in self.states}
        for t in self.transitions:
            self._out[t.source].append(t)
        self._expr_cache: dict[str, Expr] = {}

    # -- access helpers ----------------------------------------------------

    def transition(self, tid: str) -> Transition:
        try:
            return self._by_id[tid]
        except KeyError:
            raise SchemaError(f"unknown transition id {tid}") from None

    def state(self, sid: str) -> State:
        try:
            return self._state_by_id[sid]
        except KeyError:
            raise SchemaError(f"unknown state id {sid}") from None

    def outgoing(self, sid: str) -> list[Transition]:
        return self._out[sid]

    def state_ids(self) -> list[str]:
        return [s.id for s in self.states]

    def state_expr(self, sid: str) -> Expr:
        """Parsed expression of a ccs-origin state (cached)."""
        if sid not in self._expr_cache:
            text = self.state(sid).expr
            if text is None:
                raise AnnotationError(f"state {sid} carries no expression")
            from .parser import reparse_state
            self._expr_cache[sid] = reparse_state(text)
        return self._expr_cache[sid]

    def comp_of(self, tid: str) -> frozenset[str]:
        c = self.transition(tid).comp
        if c is None:
            raise AnnotationError(f"transition {tid} carries no component set")
        return c

    def instr_of(self, tid: str) -> frozenset[str]:
        i = self.transition(tid).instr
        if i is None:
            raise AnnotationError(f"transition {tid} carries no instruction set")
        return i

    def instructions(self) -> list[str]:
        out: set[str] = set()
        for t in self.transitions:
            if t.instr:
                out |= t.instr
        return sorted(out)


def from_exploration(report) -> AugmentedLTS:
    """Freeze an ExplorationReport into an AugmentedLTS."""
    states = [State(s.id, s.key) for s in report.states]
    transitions = [Transition(t.id, t.source, t.target, t.label,
                              frozenset(t.instr), frozenset(t.comp), t.blocking)
                   for t in report.transitions]
    return AugmentedLTS(states, transitions, [report.initial],
                        origin="ccs", truncated=report.truncated)


# ---------------------------------------------------------------------------
# JSON serialization (field names are part of the file format).
# ---------------------------------------------------------------------------

def _goal_to_json(g: GoalSpec) -> dict:
    out = []
    for d in g.disjuncts:
        if d.kind == "explicit":
            out.append({"kind": "explicit", "states": sorted(d.states)})
        elif d.kind == "state_is":
            out.append({"kind": "state_is", "expr": d.expr})
        elif d.kind == "component_at":
            out.append({"kind": "component_at", "path": d.path, "expr": d.expr})
        else:
            raise SchemaError(f"unknown goal predicate kind {d.kind}")
    return {"disjuncts": out}


def _goal_from_json(doc) -> GoalSpec:
    if not isinstance(doc, dict) or "disjuncts" not in doc:
        raise SchemaError("goal must be an object with a disjuncts list")
    preds = []
    for d in doc["disjuncts"]:
        kind = d.get("kind")
        if kind == "explicit":
            preds.append(GoalPredicate("explicit", states=frozenset(d["states"])))
        elif kind == "state_is":
            preds.append(GoalPredicate("state_is", expr=d["expr"]))
        elif kind == "component_at":
            preds.append(GoalPredicate("component_at", expr=d["expr"], path=d.get("path", "")))
        else:
            raise SchemaError(f"unknown goal predicate kind {kind}")
    return GoalSpec(tuple(preds))


def save_lts(lts: AugmentedLTS) -> str:
    doc = {
        "states": [{"id": s.id, **({"expr": s.expr} if s.expr is not None else {})}
                   for s in lts.states],
        "transitions": [
            {"id": t.id, "source": t.source, "target": t.target, "label": str(t.label),
             **({"instr": sorted(t.instr)} if t.instr is not None else {}),
             **({"comp": sorted(t.comp)} if t.comp is not None else {}),
             "blocking": t.blocking}
            for t in lts.transitions],
        "initial": list(lts.initial),
        "goals": {name: _goal_to_json(g) for name, g in sorted(lts.goals.items())},
        "tasks": {name: {"notion": ts.notion,
                         "tasks": [{"name": t.name, "members": sorted(t.members)}
                                   for t in ts.tasks]}
                  for name, ts in sorted(lts.tasks.items())},
        "origin": lts.origin,
        "truncated": lts.truncated,
    }
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def load_lts(document: str) -> AugmentedLTS:
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    for key in ("states", "transitions", "initial"):
        if key not in doc:
            raise SchemaError(f"missing field {key!r}")
    states = []
    for s in doc["states"]:
        if "id" not in s:
            raise SchemaError("state without id")
        states.append(State(s["id"], s.get("expr")))
    transitions = []
    for t in doc["transitions"]:
        for key in ("id", "source", "target", "label"):
            if key not in t:
                raise SchemaError(f"transition missing field {key!r}")
        label = parse_label(t["label"])
        instr = frozenset(t["instr"]) if "instr" in t and t["instr"] is not None else None
        comp = frozenset(t["comp"]) if "comp" in t and t["comp"] is not None else None
        blocking = t.get("blocking", not label.is_tau)
        transitions.append(Transition(t["id"], t["source"], t["target"], label,
                                      instr, comp, blocking))
    goals = {name: _goal_from_json(g) for name, g in doc.get("goals", {}).items()}
    tasks = {}
    for name, ts in doc.get("tasks", {}).items():
        tasks[name] = TaskSet(ts.get("notion", "custom"),
                              tuple(Task(t["name"], frozenset(t["members"]))
                                    for t in ts.get("tasks", [])))
    return AugmentedLTS(states, transitions, doc["initial"], goals, tasks,
                        doc.get("origin", "handwritten"), doc.get("truncated", False))


# ---------------------------------------------------------------------------
# Goals.
# ---------------------------------------------------------------------------

def goal_states(lts: AugmentedLTS, goal: GoalSpec) -> frozenset[str]:
    """Union of the goal's disjunct evaluations over the state set."""
    from .parser import reparse_state
    out: set[str] = set()
    for d in goal.disjuncts:
        if d.kind == "explicit":
            out |= d.states & set(lts.state_ids())
        elif d.kind == "state_is":
            want = print_expr(reparse_state(d.expr))
            for s in lts.states:
                if s.expr is not None and print_expr(lts.state_expr(s.id)) == want:
                    out.add(s.id)
        elif d.kind == "component_at":
            want = print_expr(reparse_state(d.expr))
            for s in lts.states:
                if s.expr is None:
                    raise AnnotationError(
                        "component_at goals need expression-carrying states")
                comp = project(lts.state_expr(s.id), d.path)
                if comp is not None and print_expr(comp) == want:
                    out.add(s.id)
        else:
            raise SchemaError(f"unknown goal predicate kind {d.kind}")
    return frozenset(out)


def named_goal(lts: AugmentedLTS, name: str) -> frozenset[str]:
    if name not in lts.goals:
        raise SchemaError(f"unknown goal {name!r}")
    return goal_states(lts, lts.goals[name])


# ---------------------------------------------------------------------------
# Concurrency relation (ac = pc = comp).
# ---------------------------------------------------------------------------

def concurrent(lts: AugmentedLTS, t: str, u: str) -> bool:
    """t and u are concurrent iff their component sets are disjoint."""
    return not (lts.comp_of(t) & lts.comp_of(u))


# ---------------------------------------------------------------------------
# Side-condition validators.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionReport:
    name: str
    holds: bool
    checked: bool  # False when the needed annotations are missing
    detail: str = ""


def _requested_fn(lts: AugmentedLTS):
    from .paths import requested
    return lambda i, sid: requested(lts, i, sid)


def validate_side_conditions(lts: AugmentedLTS) -> list[ConditionReport]:
    """Check conditions (1)-(6), persistence (#), and interference reflexivity.

    Exhaustive only for non-truncated systems; a truncated system yields a
    bounded report (checked over the explored part).
    """
    out: list[ConditionReport] = []
    has_instr = all(t.instr is not None for t in lts.transitions)
    has_comp = all(t.comp is not None for t in lts.transitions)
    has_expr = all(s.expr is not None for s in lts.states)

    # (1) unique synchronisation
    if has_instr:
        holds, detail = True, ""
        seen: dict[tuple[str, frozenset[str]], str] = {}
        for t in lts.transitions:
            key = (t.source, t.instr)
            if key in seen:
                holds, detail = False, f"state {t.source}: {seen[key]} and {t.id} share instr"
                break
            seen[key] = t.id
        out.append(ConditionReport("(1) unique synchronisation", holds, True, detail))
    else:
        out.append(ConditionReport("(1) unique synchronisation", False, False, "no instr"))

    # (2) finitely many instructions: immediate for an explored finite system
    out.append(ConditionReport("(2) finite instruction set", has_instr, has_instr,
                               "" if has_instr else "no instr"))

    # (3) comp is determined by a function cmp over instructions
    if has_instr and has_comp:
        holds, detail = _solve_cmp(lts)
        out.append(ConditionReport("(3) comp images of cmp", holds, True, detail))
    else:
        out.append(ConditionReport("(3) comp images of cmp", False, False,
                                   "needs instr and comp"))

    # (4)/(5) requested-ness conditions (ccs origin only)
    if lts.origin == "ccs" and has_expr and has_instr and has_comp:
        req = _requested_fn(lts)
        holds4, detail4 = True, ""
        holds5, detail5 = True, ""
        instrs = lts.instructions()
        cmp_map = _derive_cmp(lts)
        for sid in lts.state_ids():
            enabled_instr = {i for t in lts.outgoing(sid) for i in t.instr}
            for i in sorted(enabled_instr):
                if not req(i, sid):
                    holds4, detail4 = False, f"instruction {i} enabled but not requested in {sid}"
                    break
            if not holds4:
                break
        for sid in lts.state_ids():
            for i in instrs:
                if cmp_map.get(i) is None:
                    continue
                try:
                    if not req(i, sid):
                        continue
                except Exception:
                    continue
                for u in lts.outgoing(sid):
                    if cmp_map[i] not in u.comp and not req(i, u.target):
                        holds5 = False
                        detail5 = f"instruction {i} requested in {sid} but not after {u.id}"
                        break
                if not holds5:
                    break
            if not holds5:
                break
        out.append(ConditionReport("(4) enabled implies requested", holds4, True, detail4))
        out.append(ConditionReport("(5) requested persists", holds5, True, detail5))
    else:
        why = "ccs origin with expressions required"
        out.append(ConditionReport("(4) enabled implies requested", False, False, why))
        out.append(ConditionReport("(5) requested persists", False, False, why))

    # (6) and (#): persistence of concurrent transitions
    if has_comp:
        holds6, detail6 = True, ""
        holdsH, detailH = True, ""
        for sid in lts.state_ids():
            outs = lts.outgoing(sid)
            for t in outs:
                for u in outs:
                    if t.comp & u.comp:
                        continue
                    succ = lts.outgoing(u.target)
                    if not any(v.comp == t.comp for v in succ):
                        holdsH = False
                        detailH = f"(#) fails for t={t.id}, u={u.id}"
                    if has_instr and not any(v.instr == t.instr for v in succ):
                        holds6 = False
                        detail6 = f"(6) fails for t={t.id}, u={u.id}"
        out.append(ConditionReport("(#) persistence of components", holdsH, True, detailH))
        out.append(ConditionReport("(6) persistence of instructions", holds6, has_instr,
                                   detail6 if has_instr else "no instr"))
    else:
        out.append(ConditionReport("(#) persistence of components", False, False, "no comp"))
        out.append(ConditionReport("(6) persistence of instructions", False, False, "no comp"))

    # reflexivity of interference: comp(t) nonempty
    if has_comp:
        bad = next((t.id for t in lts.transitions if not t.comp), "")
        out.append(ConditionReport("interference reflexivity", not bad, True,
                                   f"transition {bad} has empty comp" if bad else ""))
    else:
        out.append(ConditionReport("interference reflexivity", False, False, "no comp"))
    return out


def _solve_cmp(lts: AugmentedLTS) -> tuple[bool, str]:
    """Does some cmp: instructions -> components satisfy comp(t) = cmp[instr(t)]
    for every transition?  Backtracking over the (small) instruction set."""
    constraints = [(tuple(sorted(t.instr)), frozenset(t.comp), t.id)
                   for t in lts.transitions]
    domains: dict[str, set[str]] = {}
    for instr, comp, _ in constraints:
        for i in instr:
            domains[i] = domains.setdefault(i, set(comp)) & comp
    order = sorted(domains)
    assignment: dict[str, str] = {}

    def consistent() -> str:
        for instr, comp, tid in constraints:
            if all(i in assignment for i in instr):
                if {assignment[i] for i in instr} != comp:
                    return tid
        return ""

    def solve(k: int) -> bool:
        if k == len(order):
            return not consistent()
        i = order[k]
        for value in sorted(domains[i]):
            assignment[i] = value
            bad = consistent()
            if not bad and solve(k + 1):
                return True
            del assignment[i]
        return False

    for i, dom in domains.items():
        if not dom:
            return False, f"instruction {i} has no candidate component"
    if solve(0):
        return True, ""
    return False, "no consistent cmp assignment found"


def _derive_cmp(lts: AugmentedLTS) -> dict[str, str]:
    """Recover cmp from singleton-instruction transitions (condition (3))."""
    cmp_map: dict[str, str] = {}
    changed = True
    while changed:
        changed = False
        for t in lts.transitions:
            if t.instr is None or t.comp is None:
                continue
            unknown = [i for i in t.instr if i not in cmp_map]
            if len(t.instr) == 1 and unknown and len(t.comp) == 1:
                cmp_map[unknown[0]] = next(iter(t.comp))
                changed = True
            elif len(unknown) == 1:
                rest = set(t.comp) - {cmp_map[i] for i in t.instr if i in cmp_map}
                if len(rest) == 1:
                    cmp_map[unknown[0]] = next(iter(rest))
                    changed = True
    return cmp_map


def isomorphic(a: AugmentedLTS, b: AugmentedLTS) -> bool:
    """Id-preserving structural equality (the round-trip contract)."""
    return save_lts(a) == save_lts(b)

