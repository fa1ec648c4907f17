"""Task extraction for the global fairness notions, and custom task files.

Task names are canonical strings ("A:a", "T:t17", "Z:{x@1,y@2}", "C:LR",
"G:{L,R}") so verdict files stay diffable.  The whole-system component path
(the empty word) is rendered "root" inside names.
"""

from __future__ import annotations

from .lts import (AnnotationError, AugmentedLTS, SchemaError, Task, TaskSet,
                  read_json, read_tasks)


# notion -> (the annotation it reads, if any, and its name in errors; the
# (task name, transition id) pairs of a list of transitions)
_TABLE = {
    "A": (None, None, lambda ts: ((f"A:{t.label}", t.id) for t in ts)),
    "T": (None, None, lambda ts: ((f"T:{t.id}", t.id) for t in ts)),
    "I": ("instr", "instruction", lambda ts: ((f"I:{i}", t.id) for t in ts for i in t.instr)),
    "Z": ("instr", "instruction",
          lambda ts: (("Z:{" + ",".join(sorted(t.instr)) + "}", t.id) for t in ts)),
    "C": ("comp", "component",
          lambda ts: ((f"C:{c or 'root'}", t.id) for t in ts for c in t.comp)),
    "G": ("comp", "component",
          lambda ts: (("G:{" + ",".join(sorted(c or "root" for c in t.comp)) + "}", t.id)
                      for t in ts)),
}
NOTIONS = tuple(_TABLE)


def extract_tasks(lts: AugmentedLTS, notion: str) -> TaskSet:
    """The task collection of one global fairness notion; empty tasks omitted.

    Pure in the inputs; memoised on the system object since classification
    loops ask for the same notion repeatedly.
    """
    if notion not in NOTIONS:
        raise ValueError(f"unknown notion {notion!r}")
    return lts.memo(("tasks", notion), _extract, lts, notion)


def _extract(lts: AugmentedLTS, notion: str) -> TaskSet:
    needs, what, pairs = _TABLE[notion]
    if needs and any(getattr(t, needs) is None for t in lts.transitions):
        raise AnnotationError(f"notion {notion} needs {what} annotations")
    buckets: dict[str, set[str]] = {}
    for name, tid in pairs(lts.transitions):
        buckets.setdefault(name, set()).add(tid)
    return TaskSet(notion, tuple(Task(name, frozenset(members))
                                 for name, members in sorted(buckets.items())))


def load_custom_tasks(lts: AugmentedLTS, document: str) -> TaskSet:
    """Parse a {"tasks": [{"name":..., "members":[...]}]} document against lts."""
    doc = read_json(document)
    if not isinstance(doc, dict) or "tasks" not in doc:
        raise SchemaError("custom task file needs a top-level tasks list")
    tasks = read_tasks(doc["tasks"])
    known = {t.id for t in lts.transitions}
    for task in tasks:
        dangling = task.members - known
        if dangling:
            raise SchemaError(f"task {task.name!r} references unknown "
                              f"transition {sorted(dangling)[0]}")
    return TaskSet("custom", tasks)


def with_progress_task(ts: TaskSet, lts: AugmentedLTS) -> TaskSet:
    """Add the all-transitions task unless the tasks already cover Tr."""
    covered: set[str] = set()
    for t in ts.tasks:
        covered |= t.members
    everything = {t.id for t in lts.transitions}
    if covered >= everything:
        return ts
    return TaskSet(ts.notion, ts.tasks + (Task("Tr", frozenset(everything)),))
