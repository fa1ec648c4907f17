"""Task extraction for the global fairness notions, and custom task files.

Task names are canonical strings ("A:a", "T:t17", "Z:{x@1,y@2}", "C:LR",
"G:{L,R}") so verdict files stay diffable.  The whole-system component path
(the empty word) is rendered "root" inside names.
"""

from __future__ import annotations

from .lts import (AnnotationError, AugmentedLTS, SchemaError, Task, TaskSet,
                  read_json, read_tasks)

NOTIONS = ("A", "T", "I", "Z", "C", "G")


def _path_name(path: str) -> str:
    return path if path else "root"


def extract_tasks(lts: AugmentedLTS, notion: str) -> TaskSet:
    """The task collection of one global fairness notion; empty tasks omitted.

    Pure in the inputs; memoised on the system object since classification
    loops ask for the same notion repeatedly.
    """
    if notion not in NOTIONS:
        raise ValueError(f"unknown notion {notion!r}")
    return lts.memo(("tasks", notion), _extract, lts, notion)


def _extract(lts: AugmentedLTS, notion: str) -> TaskSet:
    buckets: dict[str, set[str]] = {}

    def put(name: str, tid: str) -> None:
        buckets.setdefault(name, set()).add(tid)

    for t in lts.transitions:
        if notion == "A":
            put(f"A:{t.label}", t.id)
        elif notion == "T":
            put(f"T:{t.id}", t.id)
        elif notion == "I":
            if t.instr is None:
                raise AnnotationError("notion I needs instruction annotations")
            for i in t.instr:
                put(f"I:{i}", t.id)
        elif notion == "Z":
            if t.instr is None:
                raise AnnotationError("notion Z needs instruction annotations")
            put("Z:{" + ",".join(sorted(t.instr)) + "}", t.id)
        elif notion == "C":
            if t.comp is None:
                raise AnnotationError("notion C needs component annotations")
            for c in t.comp:
                put(f"C:{_path_name(c)}", t.id)
        elif notion == "G":
            if t.comp is None:
                raise AnnotationError("notion G needs component annotations")
            put("G:{" + ",".join(sorted(_path_name(c) for c in t.comp)) + "}", t.id)
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
