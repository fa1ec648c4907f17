"""The augmented transition-system model: serialization, goals, tasks,
the concurrency relation, and structural side-condition validators."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache, cached_property, partial

from .labels import ActionLabel, parse_label
from .parser import parse_expression, state_parser
from .semantics import step
from .syntax import Expr, cmp_table, print_expr, project


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
    """Tasks in order; a set of them is one int mask, bit k for task k."""

    notion: str  # A T I Z C G custom
    tasks: tuple[Task, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for name in self.names():
            if name in seen:
                raise SchemaError(f"task {name!r} is named twice")
            seen.add(name)

    def names(self) -> list[str]:
        return [t.name for t in self.tasks]

    def get(self, name: str) -> Task:
        for t in self.tasks:
            if t.name == name:
                return t
        raise KeyError(name)

    @cached_property
    def containing(self) -> dict[str, int]:
        """Transition id -> the mask of the tasks that contain it."""
        out: dict[str, int] = {}
        for k, task in enumerate(self.tasks):
            for tid in task.members:
                out[tid] = out.get(tid, 0) | 1 << k
        return out

    def to_json(self) -> dict:
        return {"notion": self.notion,
                "tasks": [{"name": t.name, "members": sorted(t.members)} for t in self.tasks]}


@dataclass(frozen=True)
class GoalPredicate:
    kind: str  # state_is | component_at | explicit
    expr: str = ""
    path: str = ""
    states: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.kind not in ("state_is", "component_at", "explicit"):
            raise SchemaError(f"unknown goal predicate kind {self.kind}")
        if self.kind == "component_at" and set(self.path) - {"L", "R"}:
            raise SchemaError(f"component path {self.path!r} is not a word over L and R")


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


_MISSING = object()


@dataclass
class AugmentedLTS:
    """A transition system with its annotations.  `states`, `transitions`
    and `initial` are tuples, so the tables derived from them (`memo`) cannot
    go stale; goals and task sets may still be added after construction."""

    states: tuple[State, ...]
    transitions: tuple[Transition, ...]
    initial: tuple[str, ...]
    goals: dict[str, GoalSpec] = field(default_factory=dict)
    tasks: dict[str, TaskSet] = field(default_factory=dict)
    origin: str = "handwritten"  # ccs | handwritten
    truncated: bool = False

    def __post_init__(self) -> None:
        self.states = tuple(self.states)
        self.transitions = tuple(self.transitions)
        self.initial = tuple(self.initial)
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
            if self.initial.count(s) > 1:
                raise SchemaError(f"initial state {s} listed twice")
        for name, ts in self.tasks.items():
            for task in ts.tasks:
                for m in task.members:
                    if m not in tids:
                        raise SchemaError(
                            f"task {task.name} in {name} references unknown transition {m}")
        self._by_id = {t.id: t for t in self.transitions}
        self._state_by_id = {s.id: s for s in self.states}
        out: dict[str, list[Transition]] = {s.id: [] for s in self.states}
        for t in self.transitions:
            out[t.source].append(t)
        self._out = {sid: tuple(ts) for sid, ts in out.items()}
        self._moves = {sid: tuple(t for t in ts if not t.blocking) for sid, ts in out.items()}
        self._memo: dict = {}

    def memo(self, key: tuple, compute, *args):
        """The table `key` of this system, from `compute(*args)` on the first
        call; a call that raises stores nothing, so the error repeats."""
        value = self._memo.get(key, _MISSING)
        if value is _MISSING:
            value = self._memo[key] = compute(*args)
        return value

    # -- access helpers ----------------------------------------------------

    def transition(self, tid: str) -> Transition:
        try:
            return self._by_id[tid]
        except KeyError:
            raise SchemaError(f"unknown transition id {tid!r}") from None

    def state(self, sid: str) -> State:
        try:
            return self._state_by_id[sid]
        except KeyError:
            raise SchemaError(f"unknown state id {sid!r}") from None

    def outgoing(self, sid: str, reactive: bool = False) -> tuple[Transition, ...]:
        """The transitions leaving a state; under `reactive`, only the
        non-blocking ones."""
        return (self._moves if reactive else self._out)[sid]

    def state_ids(self) -> list[str]:
        return [s.id for s in self.states]

    def state_expr(self, sid: str) -> Expr:
        """Parsed expression of a ccs-origin state (see `state_parser`)."""
        return self.memo(("expr", sid), self._parse_state, sid)

    def _parse_state(self, sid: str) -> Expr:
        text = self.state(sid).expr
        if text is None:
            raise AnnotationError(f"state {sid} carries no expression")
        return self.memo(("parser",), state_parser)(text)

    def cmp(self) -> dict[str, str]:
        """cmp: the component of each instruction, read off the initial
        state's expression (ccs-origin systems only)."""
        if self.origin != "ccs":
            raise AnnotationError("instruction projection needs a ccs-origin system")
        return self.memo(("cmp",), lambda: cmp_table(self.state_expr(self.initial[0])))

    def comp_of(self, tid: str) -> frozenset[str]:
        c = self.transition(tid).comp
        if c is None:
            raise AnnotationError(f"transition {tid} carries no component set")
        return c

    def instructions(self) -> list[str]:
        return sorted({i for t in self.transitions if t.instr for i in t.instr})


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
    return {"disjuncts": out}


def _goal_from_json(doc) -> GoalSpec:
    if not isinstance(doc, dict) or "disjuncts" not in doc:
        raise SchemaError("goal must be an object with a disjuncts list")
    preds = []
    for d in _list_of(doc["disjuncts"], dict, "goal disjuncts"):
        kind = d.get("kind")
        if kind == "explicit":
            states = _list_of(d.get("states"), str, "explicit goal states")
            preds.append(GoalPredicate("explicit", states=frozenset(states)))
        elif kind in ("state_is", "component_at"):
            expr, path = d.get("expr"), d.get("path", "") if kind == "component_at" else ""
            if not (isinstance(expr, str) and isinstance(path, str)):
                raise SchemaError(f'a {kind} goal needs string "expr" and "path" fields')
            preds.append(GoalPredicate(kind, expr=expr, path=path))
        else:
            raise SchemaError(f"unknown goal predicate kind {kind}")
    return GoalSpec(tuple(preds))


def read_json(document: str):
    """The value of a JSON document; malformed or too deeply nested text
    is a SchemaError."""
    try:
        return json.loads(document)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise SchemaError("not valid JSON: nested too deeply") from None


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{what} must be an object")
    return value


def _list_of(value, kind: type, what: str) -> list:
    """`value`, which must be a list of `kind` (str or dict)."""
    if not isinstance(value, list) or not all(isinstance(v, kind) for v in value):
        raise SchemaError(f"{what} must be a list of {'strings' if kind is str else 'objects'}")
    return value


def _string_set(t: dict, key: str, sets: dict) -> frozenset[str] | None:
    """Transition field `key` as a frozenset, or None when absent or null: `sets`
    maps None to None and each list of strings met so far, as a tuple, to one."""
    value = t.get(key)
    try:
        return sets[tuple(value) if isinstance(value, list) else value]
    except (KeyError, TypeError):  # not met yet, or not a list of strings
        pass
    items = tuple(_list_of(value, str, f"transition {t['id']} field {key!r}"))
    return sets.setdefault(items, frozenset(items))


def read_tasks(entries) -> tuple[Task, ...]:
    """Tasks from a [{"name": n, "members": [transition id, ...]}] list."""
    if not isinstance(entries, list):
        raise SchemaError("a task list must be a JSON list")
    for entry in entries:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("members"), list)
                and all(isinstance(m, str) for m in entry["members"])):
            raise SchemaError('each task needs a "name" and a "members" list '
                              'of transition ids')
    return tuple(Task(e["name"], frozenset(e["members"])) for e in entries)


def save_lts(lts: AugmentedLTS) -> str:
    """`json.dumps(doc, indent=2)` of the system and a newline, with the states and
    transitions laid out here, since CPython's indenting encoder is pure Python."""
    q = json.encoder.encode_basestring_ascii  # json.dumps's C encoder of each string
    annotations = {  # instr and comp once per distinct pair; no encoded string holds "\n"
        pair: "".join(f'      "{key}": ' + json.dumps(sorted(value), indent=2).replace(
            "\n", "\n      ") + ",\n" for key, value in zip(("instr", "comp"), pair)
            if value is not None)
        for pair in {(t.instr, t.comp) for t in lts.transitions}}
    states = [f'    {{\n      "id": {q(s.id)}'
              + ("" if s.expr is None else f',\n      "expr": {q(s.expr)}') + "\n    }"
              for s in lts.states]
    transitions = [
        f'    {{\n      "id": {q(t.id)},\n      "source": {q(t.source)},\n'
        f'      "target": {q(t.target)},\n      "label": {q(str(t.label))},\n'
        f'{annotations[t.instr, t.comp]}'
        f'      "blocking": {"true" if t.blocking else "false"}\n    }}'
        for t in lts.transitions]
    tail = json.dumps({
        "initial": list(lts.initial),
        "goals": {name: _goal_to_json(g) for name, g in sorted(lts.goals.items())},
        "tasks": {name: ts.to_json() for name, ts in sorted(lts.tasks.items())},
        "origin": lts.origin,
        "truncated": lts.truncated,
    }, indent=2)  # "{\n" and then the fields, already one level in
    return ('{\n  "states": [\n' + ",\n".join(states) + '\n  ],\n  "transitions": '
            + ("[\n" + ",\n".join(transitions) + "\n  ]" if transitions else "[]")
            + ",\n" + tail[2:] + "\n")


def load_lts(document: str) -> AugmentedLTS:
    doc = _object(read_json(document), "top level")
    for key in ("states", "transitions", "initial"):
        if key not in doc:
            raise SchemaError(f"missing field {key!r}")
    states = []
    for s in _list_of(doc["states"], dict, '"states"'):
        if "id" not in s:
            raise SchemaError("state without id")
        if not isinstance(s["id"], str) or not isinstance(s.get("expr", ""), (str, type(None))):
            raise SchemaError('state fields "id" and "expr" must be strings')
        states.append(State(s["id"], s.get("expr")))
    transitions, label_of, sets = [], cache(parse_label), {None: None}  # one parse per label
    for t in _list_of(doc["transitions"], dict, '"transitions"'):
        for key in ("id", "source", "target", "label"):
            if key not in t:
                raise SchemaError(f"transition missing field {key!r}")
            if not isinstance(t[key], str):
                raise SchemaError(f"transition field {key!r} must be a string")
        label = label_of(t["label"])
        instr, comp = _string_set(t, "instr", sets), _string_set(t, "comp", sets)
        blocking = t.get("blocking", not label.is_tau)
        if not isinstance(blocking, bool):
            raise SchemaError(f"transition {t['id']} field 'blocking' must be true or false")
        transitions.append(Transition(t["id"], t["source"], t["target"], label,
                                      instr, comp, blocking))
    goals = {name: _goal_from_json(g)
             for name, g in _object(doc.get("goals", {}), '"goals"').items()}
    tasks = {}
    for name, ts in _object(doc.get("tasks", {}), '"tasks"').items():
        ts = _object(ts, f"task set {name!r}")
        if not isinstance(ts.get("notion", ""), str):
            raise SchemaError(f"task set {name!r} field 'notion' must be a string")
        tasks[name] = TaskSet(ts.get("notion", "custom"), read_tasks(ts.get("tasks", [])))
    initial = _list_of(doc["initial"], str, '"initial"')
    if not isinstance(doc.get("truncated", False), bool):
        raise SchemaError('"truncated" must be true or false')
    if doc.get("origin", "handwritten") not in ("ccs", "handwritten"):
        raise SchemaError('"origin" must be "ccs" or "handwritten"')
    return AugmentedLTS(states, transitions, initial, goals, tasks,
                        doc.get("origin", "handwritten"), doc.get("truncated", False))


# ---------------------------------------------------------------------------
# Goals.
# ---------------------------------------------------------------------------

def goal_states(lts: AugmentedLTS, goal: GoalSpec) -> frozenset[str]:
    """Union of the goal's disjunct evaluations over the state set.  A state
    id the system lacks is a SchemaError, and a state_is or component_at goal
    on a state without an expression an AnnotationError."""
    out: set[str] = set()
    for d in goal.disjuncts:
        if d.kind == "explicit":
            unknown = d.states - set(lts.state_ids())
            if unknown:
                raise SchemaError(f"explicit goal names unknown state id {min(unknown)!r}")
            out |= d.states
        elif d.kind == "state_is":
            want = print_expr(parse_expression(d.expr))
            out.update(lts.memo(("printed",), _states_by_print, lts).get(want, ()))
        elif d.kind == "component_at":
            want = print_expr(parse_expression(d.expr))
            for s in lts.states:
                comp = project(lts.state_expr(s.id), d.path)
                if comp is not None and print_expr(comp) == want:
                    out.add(s.id)
    return frozenset(out)


def _states_by_print(lts: AugmentedLTS) -> dict[str, list[str]]:
    """The ids of the states, by the printed text of their terms; a state
    without an expression is an AnnotationError."""
    out: dict[str, list[str]] = {}
    for s in lts.states:
        out.setdefault(print_expr(lts.state_expr(s.id)), []).append(s.id)
    return out


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


def affected(lts: AugmentedLTS, steps) -> frozenset[str]:
    """The components the transitions steps affect, read in order."""
    return frozenset().union(*map(lts.comp_of, steps))


def obligations(lts: AugmentedLTS, sid: str, reactive: bool) -> tuple[frozenset[str], ...]:
    """The component sets the transitions of state sid (non-blocking ones,
    when reactive) oblige a just path to interfere with, read whole."""
    return lts.memo(("obligations", sid, reactive), lambda: tuple(
        lts.comp_of(t.id) for t in lts.outgoing(sid, reactive)))


def unmet(pending, comps: frozenset[str]) -> frozenset[frozenset[str]]:
    """The obligations of pending that share no component with comps."""
    return frozenset(filter(comps.isdisjoint, pending))


def requested(lts: AugmentedLTS, instruction: str, state: str) -> bool:
    """An instruction is requested when its component, viewed in isolation,
    can fire it (no restriction context applies).  An unknown instruction,
    or one whose component the state lacks, is an AnnotationError."""
    path = lts.cmp().get(instruction)
    if path is None:
        raise AnnotationError(f"unknown instruction {instruction!r}")
    if project(lts.state_expr(state), path) is None:
        raise AnnotationError(f"component {path!r} absent in state {state}")
    return instruction in requests(lts, state)


def requests(lts: AugmentedLTS, state: str) -> frozenset[str]:
    """R(state): the instructions requested in a state of a ccs-origin
    system, the union over its components of what each can fire on its own.
    A component's moves are computed once per distinct component term, keyed
    by its printed text: hashing a deep term would recurse twice as deep."""
    return lts.memo(("requests", state), _requests, lts, state)


def _requests(lts: AugmentedLTS, state: str) -> frozenset[str]:
    cmp = lts.cmp()
    expr, out = lts.state_expr(state), set()
    for path in dict.fromkeys(cmp.values()):
        comp = project(expr, path)
        if comp is not None:
            fires = lts.memo(("fires", print_expr(comp)),
                             lambda: {i for s in step(comp) for i in s.instr})
            out.update(i for i in fires if cmp.get(i) == path)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Side-condition validators.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionReport:
    name: str
    holds: bool
    checked: bool  # False when skipped: see `validate_side_conditions`
    detail: str = ""


def validate_side_conditions(lts: AugmentedLTS) -> list[ConditionReport]:
    """Check conditions (1)-(6), persistence (#), and interference reflexivity.

    A condition is skipped (neither checked nor holding) on a system without
    its annotations, and (#) and (6), which read past each step's target, on
    a truncated one too ("exploration truncated"); the rest judge the explored
    part.  Computed once per system; each call returns a fresh list."""
    return list(lts.memo(("conditions",), _validate, lts))


def _validate(lts: AugmentedLTS) -> list[ConditionReport]:
    instr = all(t.instr is not None for t in lts.transitions)
    comp = all(t.comp is not None for t in lts.transitions)
    ccs = (lts.origin == "ccs" and instr and comp
           and all(s.expr is not None for s in lts.states))
    needs_ccs = "ccs origin with expressions required"
    # (name, annotated, why skipped if not, reads past targets, first failure or "")
    table = (
        ("(1) unique synchronisation", instr, "no instr", False, _unique_synchronisation),
        # (2) holds on every system with instr: a system file is finite
        ("(2) finite instruction set", instr, "no instr", False, lambda _: ""),
        ("(3) comp images of cmp", instr and comp, "needs instr and comp", False, _solve_cmp),
        ("(4) enabled implies requested", ccs, needs_ccs, False, _enabled_requested),
        ("(5) requested persists", ccs, needs_ccs, False, _requested_persists),
        ("(#) persistence of components", comp, "no comp", True,
         partial(_persistence, "(#)", "comp")),
        ("(6) persistence of instructions", comp and instr, "no instr" if comp else "no comp",
         True, partial(_persistence, "(6)", "instr")),
        ("interference reflexivity", comp, "no comp", False, _interference_reflexive),
    )
    out = []
    for name, annotated, missing, successors, check in table:
        ready = annotated and not (successors and lts.truncated)
        detail = (check(lts) if ready else missing if not annotated
                  else "exploration truncated")
        out.append(ConditionReport(name, ready and not detail, ready, detail))
    return out


def _unique_synchronisation(lts: AugmentedLTS) -> str:
    """(1): no two transitions of one state carry the same instructions."""
    seen: dict[tuple[str, frozenset[str]], str] = {}
    for t in lts.transitions:
        first = seen.setdefault((t.source, t.instr), t.id)
        if first != t.id:
            return f"state {t.source}: {first} and {t.id} share instr"
    return ""


def _enabled_requested(lts: AugmentedLTS) -> str:
    """(4): every instruction enabled in a state is requested there."""
    for sid in lts.state_ids():
        missing = {i for t in lts.outgoing(sid) for i in t.instr} - requests(lts, sid)
        if missing:
            return f"instruction {min(missing)} enabled but not requested in {sid}"
    return ""


def _requested_persists(lts: AugmentedLTS) -> str:
    """(5): a requested instruction stays requested across a step that does
    not involve its component."""
    cmp, instrs = lts.cmp(), set(lts.instructions())
    for sid in lts.state_ids():
        held = requests(lts, sid) & instrs
        lost = [(i, k, u.id) for k, u in enumerate(lts.outgoing(sid))
                for i in held - requests(lts, u.target) if cmp[i] not in u.comp]
        if lost:  # the first in instruction, then transition order
            i, _, uid = min(lost)
            return f"instruction {i} requested in {sid} but not after {uid}"
    return ""


def _persistence(tag: str, field: str, lts: AugmentedLTS) -> str:
    """(#) for field "comp", (6) for "instr": when t and u leave one state
    and are concurrent, a transition with t's field leaves u's target."""
    after = {s.id: {getattr(v, field) for v in lts.outgoing(s.id)} for s in lts.states}
    return next((f"{tag} fails for t={t.id}, u={u.id}" for sid in lts.state_ids()
                 for t in lts.outgoing(sid) for u in lts.outgoing(sid)
                 if getattr(t, field) not in after[u.target] and concurrent(lts, t.id, u.id)), "")


def _interference_reflexive(lts: AugmentedLTS) -> str:
    """Interference is reflexive: no transition is concurrent with itself."""
    return next((f"transition {t.id} has empty comp" for t in lts.transitions
                 if concurrent(lts, t.id, t.id)), "")


def _solve_cmp(lts: AugmentedLTS) -> str:
    """(3): "" if some cmp: instructions -> components has comp(t) = cmp[instr(t)]
    for every transition, else why not.  Backtracks over the instruction set
    in name order, without recursion; each distinct (instr, comp) constraint
    is checked once its last instruction is assigned."""
    constraints = dict.fromkeys((tuple(sorted(t.instr)), t.comp) for t in lts.transitions)
    domains: dict[str, frozenset[str]] = {}
    last: dict[str | None, list] = {}  # instruction -> the constraints it completes
    for instr, comp in constraints:
        for i in instr:
            domains[i] = domains.get(i, comp) & comp
        last.setdefault(instr[-1] if instr else None, []).append((instr, comp))
    for i, dom in domains.items():
        if not dom:
            return f"instruction {i} has no candidate component"
    order = sorted(domains)
    assignment: dict[str, str | None] = {}
    k, untried = 0, []  # untried[j]: the values of order[j] not yet tried
    while 0 <= k < len(order):
        i = order[k]
        if k == len(untried):
            untried.append(iter(sorted(domains[i])))
        assignment[i] = next(untried[k], None)
        if assignment[i] is None:  # every value failed: back up
            untried.pop()
            k -= 1
        elif all({assignment[j] for j in instr} == comp for instr, comp in last.get(i, ())):
            k += 1
    if k < 0 or any(comp for _, comp in last.get(None, ())):
        return "no consistent cmp assignment found"
    return ""
