"""Finite runs and lassos, enabledness predicates, and path classification
under every progress/justness/fairness assumption."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .lts import (AugmentedLTS, Task, TaskSet, affected, concurrent, obligations, read_json,
                  requests, unmet)
from .tasks import NOTIONS, extract_tasks


class PathError(ValueError):
    pass


@dataclass(frozen=True)
class PathPrefix:
    """A finite rooted-or-not path: a start state and consecutive transitions."""

    start: str
    steps: tuple[str, ...] = ()

    def validate(self, lts: AugmentedLTS) -> None:
        _walk(lts, self.start, self.steps)

    def states(self, lts: AugmentedLTS) -> list[str]:
        return [self.start] + [lts.transition(tid).target for tid in self.steps]

    def end(self, lts: AugmentedLTS) -> str:
        return self.states(lts)[-1]

    def to_json(self) -> dict:
        return {"start": self.start, "steps": list(self.steps)}


def _walk(lts: AugmentedLTS, at: str, steps: tuple[str, ...]) -> str:
    """The state steps reach from state at, each checked to continue the path."""
    lts.state(at)
    for tid in steps:
        t = lts.transition(tid)
        if t.source != at:
            raise PathError(f"transition {tid} does not continue the path at {at}")
        at = t.target
    return at


@dataclass(frozen=True)
class Lasso:
    """stem . cycle^omega: the canonical finite presentation of an infinite
    path in a finite-state system."""

    start: str
    stem: tuple[str, ...] = ()
    cycle: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.cycle:
            raise PathError("a lasso needs a nonempty cycle")

    def validate(self, lts: AugmentedLTS) -> None:
        entry = _walk(lts, self.start, self.stem)
        if _walk(lts, entry, self.cycle) != entry:
            raise PathError("cycle does not close at the stem's end state")

    def to_json(self) -> dict:
        return {"start": self.start, "stem": list(self.stem), "cycle": list(self.cycle)}


def path_from_json(document: str) -> Lasso | PathPrefix:
    """Read a lasso {"start": s, "stem": [t...], "cycle": [t...]} (stem
    optional) or, when there is no cycle, a prefix {"start": s, "steps": [t...]}."""
    doc = read_json(document)
    if not isinstance(doc, dict) or not isinstance(doc.get("start"), str):
        raise PathError('a path must be an object with a "start" state id')

    def ids(key: str) -> tuple[str, ...]:
        value = doc.get(key, [])
        if not isinstance(value, list) or not all(isinstance(t, str) for t in value):
            raise PathError(f'path field "{key}" must be a list of transition ids')
        return tuple(value)

    if "cycle" in doc:
        return Lasso(doc["start"], ids("stem"), ids("cycle"))
    return PathPrefix(doc["start"], ids("steps"))


@dataclass(frozen=True)
class Assumption:
    """A path-level or liveness-level assumption.

    kind: P | Just | J | W | S | SWI | Fu | ST | Pr.  J/W/S carry a notion
    (A/T/I/Z/C/G or custom with an explicit task set).
    """

    kind: str
    notion: str = ""
    taskset: TaskSet | None = None
    reactive: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("P", "Just", "J", "W", "S", "SWI", "Fu", "ST", "Pr"):
            raise ValueError(f"unknown assumption kind {self.kind!r}")
        if self.kind in ("J", "W", "S"):
            if self.notion not in NOTIONS and self.notion != "custom":
                raise ValueError(f"unknown notion {self.notion!r} for {self.kind}; "
                                 f"known: {', '.join(NOTIONS)}, custom=FILE")
            if self.notion == "custom" and self.taskset is None:
                raise ValueError("custom notion needs an explicit task set")

    def pathwise(self) -> bool:
        return self.kind not in ("Fu", "ST", "Pr")

    def __str__(self) -> str:
        base = {"P": "P", "Just": "just", "SWI": "SWI", "Fu": "Fu", "ST": "ST",
                "Pr": "Pr"}.get(self.kind)
        if base is None:
            base = f"{self.kind}:{self.notion}"
        return base + (",reactive" if self.reactive else "")


def parse_assumption(text: str,
                     custom: Callable[[str], TaskSet] | None = None) -> Assumption:
    """Parse the --assume grammar: P | just | J:y | W:y | S:y | SWI | Fu | ST
    | Pr | x:custom=NAME for x in J, W, S, optionally ,reactive.  `custom`
    resolves NAME to its task set (the CLI reads a file of that name)."""
    s = text.strip()
    reactive = False
    if s.endswith(",reactive"):
        reactive = True
        s = s[: -len(",reactive")].strip()
    if s in ("P", "p"):
        return Assumption("P", reactive=reactive)
    if s.lower() == "just":
        return Assumption("Just", reactive=reactive)
    if s in ("SWI", "Fu", "ST", "Pr"):
        return Assumption(s, reactive=reactive)
    if ":" in s:
        kind, _, notion = s.partition(":")
        if kind in ("J", "W", "S"):
            if notion.startswith("custom="):
                taskset = custom(notion[len("custom="):]) if custom else None
                return Assumption(kind, "custom", taskset, reactive)
            return Assumption(kind, notion, None, reactive)
    raise ValueError(f"cannot parse assumption {text!r}")


def resolve_tasks(lts: AugmentedLTS, assumption: Assumption) -> TaskSet:
    """The tasks J/W/S judge; SWI judges the instruction tasks."""
    if assumption.taskset is not None:
        return assumption.taskset
    return extract_tasks(lts, "I" if assumption.kind == "SWI" else assumption.notion)


# ---------------------------------------------------------------------------
# Enabledness.
# ---------------------------------------------------------------------------

def enabled(lts: AugmentedLTS, task: Task, state: str) -> bool:
    """A task is enabled in a state if a member leaves that state."""
    return any(t.id in task.members for t in lts.outgoing(state))


def enabled_during(lts: AugmentedLTS, task: Task, u: str, reactive: bool = False) -> bool:
    """A task is enabled during a transition u if a member from source(u)
    (non-blocking, when reactive) is `concurrent` with u."""
    return any(t.id in task.members and concurrent(lts, u, t.id)
               for t in lts.outgoing(lts.transition(u).source, reactive))


def enabled_tasks(lts: AugmentedLTS, ts: TaskSet, state: str) -> set[int]:
    """Indices of the tasks of ts enabled in the state."""
    return set(task_indices(task_mask(ts, lts.outgoing(state))))


def task_mask(ts: TaskSet, transitions) -> int:
    """The tasks of ts holding one of the transitions, as a mask."""
    mask, containing = 0, ts.containing
    for t in transitions:
        mask |= containing.get(t.id, 0)
    return mask


def task_indices(mask: int) -> Iterator[int]:
    """The set bits of a task mask, ascending: the indices of its tasks."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


# ---------------------------------------------------------------------------
# Classification.
# ---------------------------------------------------------------------------

def classify_lasso(lts: AugmentedLTS, lasso: Lasso, assumption: Assumption) -> bool:
    """Does the infinite path stem . cycle^omega satisfy the assumption?

    All conditions except justness depend only on the cycle: a task is
    relentlessly enabled iff enabled at a recurring state, perpetually
    enabled on a suffix iff enabled at every recurring state, and occurs
    infinitely often iff it meets the cycle.  Justness additionally owes an
    interference to every transition enabled along the stem (`just_stem`).
    The cycle is judged by `unfair_states` over its states and steps in
    sorted order, so every rotation of a cycle is judged alike, errors
    included.
    """
    if not assumption.pathwise():
        raise ValueError(f"{assumption.kind} is a liveness-level assumption, "
                         "not a path predicate")
    lasso.validate(lts)
    steps = sorted(set(lasso.cycle))
    if assumption.kind == "Just" and lasso.stem:
        if not just_stem(lts, lasso.start, lasso.stem, affected(lts, steps), assumption.reactive):
            return False
    states = sorted({lts.transition(u).source for u in steps})
    return not unfair_states(lts, states, steps, assumption)


def unfair_states(lts: AugmentedLTS, states: list[str], steps: list[str],
                  assumption: Assumption) -> list[str]:
    """The states that make a strongly connected set unfair when a path
    visits them forever and takes exactly the transitions `steps` forever;
    `states` and `steps` come sorted, and the set is fair iff none is found.

    For J/W/S a set of tasks is one int mask, bit k for task k: the steps
    OR into the tasks that occur, each state's outgoing transitions into the
    tasks enabled there.  Under S each state that enables a task no step
    takes is unfair; under SWI each that enables such a task whose
    instruction every state requests (requests are read only when a task is
    owed).  Under W and J every state is, when a task never taken is enabled
    at all of them (for J, enabled during every step, asked in task order).
    Under justness each state is unfair that owes an obligation the steps
    leave `unmet`; every state's obligations are read.  P owes nothing.
    """
    kind, reactive = assumption.kind, assumption.reactive
    if kind == "P":
        return []
    if kind == "Just":
        comps = affected(lts, steps)
        return [s for s in states if unmet(obligations(lts, s, reactive), comps)]
    ts = resolve_tasks(lts, assumption)
    occurring = 0
    for u in steps:
        occurring |= ts.containing.get(u, 0)
    owed, union, perpetual = [], 0, -1  # perpetual: owed at every state
    for s in states:
        mask = task_mask(ts, lts.outgoing(s, reactive)) & ~occurring
        owed.append(mask)
        union |= mask
        perpetual &= mask
    if kind == "W":
        return list(states) if perpetual else []
    if kind == "J":
        unfair = any(all(enabled_during(lts, ts.tasks[k], u, reactive) for u in steps)
                     for k in task_indices(perpetual))
        return list(states) if unfair else []
    if kind == "SWI" and union:  # task "I:i" is owed only if instruction i is always requested
        asked = frozenset.intersection(*(requests(lts, s) for s in states))
        union = sum(1 << k for k in task_indices(union) if ts.tasks[k].name[2:] in asked)
    bad = []
    for s, mask in zip(states, owed):
        if mask & union:
            bad.append(s)
    return bad


def just_stem(lts: AugmentedLTS, start: str, stem: tuple[str, ...],
              cycle_comp: frozenset[str], reactive: bool) -> bool:
    """Justness on a stem: every transition enabled at stem position k
    (non-blocking ones, when reactive) shares a component with stem[k:], the
    step leaving k included, or with the cycle's components cycle_comp.  The
    scan runs in stem order and reads a step's components only while an
    obligation is owed, so it raises AnnotationError only for what it reaches."""
    at = start
    for k, step in enumerate(stem):
        owed = unmet(obligations(lts, at, reactive), cycle_comp)
        for u in stem[k:]:
            owed = owed and unmet(owed, affected(lts, (u,)))
        if owed:
            return False
        at = lts.transition(step).target
    return True


def classify_finite(lts: AugmentedLTS, prefix: PathPrefix, assumption: Assumption) -> bool:
    """Completeness of a finite path: `complete_at` its last state."""
    if not assumption.pathwise():
        raise ValueError(f"{assumption.kind} is a liveness-level assumption, "
                         "not a path predicate")
    prefix.validate(lts)
    return complete_at(lts, prefix.end(lts), assumption)


def complete_at(lts: AugmentedLTS, state: str, assumption: Assumption) -> bool:
    """A finite path ending in the state is complete: nothing the (pathwise)
    assumption promises is still possible there."""
    outs = lts.outgoing(state, assumption.reactive)
    if assumption.kind in ("P", "Just"):
        return not outs
    ts = resolve_tasks(lts, assumption)
    return not any(t.id in ts.containing for t in outs)


# ---------------------------------------------------------------------------
# Prefix certificates: finite evidence on (possibly truncated) systems.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrefixCertificate:
    prefix: PathPrefix
    task: str
    enabled_everywhere: bool
    occurs: bool
    length: int


def prefix_certificate(lts: AugmentedLTS, prefix: PathPrefix, task: Task) -> PrefixCertificate:
    """Whether the task is enabled at every state of the prefix and whether
    it occurs in it; claims nothing about any continuation."""
    prefix.validate(lts)
    states = prefix.states(lts)
    return PrefixCertificate(
        prefix=prefix,
        task=task.name,
        enabled_everywhere=all(enabled(lts, task, s) for s in states),
        occurs=bool(task.members & set(prefix.steps)),
        length=len(prefix.steps),
    )
