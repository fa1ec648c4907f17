"""Differential test of the fair scheduler behind `fair_extend`.

The oracle is the scheduler `fair_extend` replaced, copied verbatim: a
`_Queue` of task names with a fill/pick/digest interface, and a generator
yielding (state, queue, steps, transition taken) with a last item for
deadlock.  Both sides run on every corpus system, under every notion it
supports and under its own task sets, from seeded random prefixes, and on
seeded random annotated systems with custom task sets whose names are not
in task-index order.  Results and error texts must be equal.

`_oracle_lasso` runs the same scheduler on to a strongly fair lasso, the
paper's feasibility argument; other tests use it to reach fair lassos.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass, field

from families import random_lts

from fairlab.corpus import build_all
from fairlab.lts import AnnotationError, AugmentedLTS, Task, TaskSet
from fairlab.paths import (Assumption, Lasso, PathPrefix, classify_lasso,
                           enabled_tasks)
from fairlab.tasks import NOTIONS, extract_tasks
from fairlab.verify import _tid_key, fair_extend

CAPS = (-1, 0, 1, 7, 60)


# ---------------------------------------------------------------------------
# The oracle: the replaced scheduler, verbatim.
# ---------------------------------------------------------------------------

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
    queue = _Queue()
    at = prefix.end(lts)
    steps = list(prefix.steps)
    while True:
        enabled_now = {ts.tasks[k].name for k in enabled_tasks(lts, ts, at)}
        if not enabled_now:
            yield at, queue, steps, None
            return
        queue.fill_column(sorted(enabled_now))
        name = queue.pick(enabled_now)
        assert name is not None  # the column just filled contains one
        task = ts.get(name)
        chosen = min((t for t in lts.outgoing(at) if t.id in task.members),
                     key=_tid_key)
        steps.append(chosen.id)
        yield at, queue, steps, chosen
        at = chosen.target


def _oracle_extend(lts: AugmentedLTS, prefix: PathPrefix, ts: TaskSet,
                   step_cap: int) -> PathPrefix:
    """Extend a finite path by the priority-queue algorithm: always serve the
    earliest filled, uncrossed entry whose task is enabled now.  Stops at
    deadlock (no task enabled) or after step_cap appended transitions;
    raises ValueError for step_cap < 0."""
    if step_cap < 0:
        raise ValueError(f"need steps >= 0, got {step_cap}")
    prefix.validate(lts)
    steps = prefix.steps
    for _, _, steps, _ in itertools.islice(_scheduler_run(lts, prefix, ts), step_cap):
        pass
    return PathPrefix(prefix.start, tuple(steps))


def _oracle_lasso(lts: AugmentedLTS, prefix: PathPrefix, ts: TaskSet,
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
# The comparison.
# ---------------------------------------------------------------------------

def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - error texts are compared too
        return f"{type(exc).__name__}: {exc}"


def _prefixes(lts, rng, count):
    """Seeded random walks from initial states, plus one broken prefix."""
    out = [PathPrefix(lts.initial[0], ("no-such-transition",))]
    for _ in range(count):
        at = start = rng.choice(lts.initial)
        steps = []
        for _ in range(rng.randint(0, 8)):
            outs = lts.outgoing(at)
            if not outs:
                break
            t = rng.choice(outs)
            steps.append(t.id)
            at = t.target
        out.append(PathPrefix(start, tuple(steps)))
    return out


def _compare(lts, tasksets, prefixes, tally):
    for ts in tasksets:
        for prefix in prefixes:
            for cap in CAPS:
                got = _outcome(fair_extend, lts, prefix, ts, cap)
                assert got == _outcome(_oracle_extend, lts, prefix, ts, cap), (prefix, ts, cap)
                tally["extend", type(got).__name__] += 1


def _tasksets(lts):
    out = list(lts.tasks.values())
    for notion in NOTIONS:
        try:
            out.append(extract_tasks(lts, notion))
        except AnnotationError:
            pass
    return out


def test_scheduler_matches_queue_oracle_on_corpus():
    rng = random.Random(1988)
    tally = Counter()
    for built in build_all():
        _compare(built.lts, _tasksets(built.lts), _prefixes(built.lts, rng, 6), tally)
    assert tally["extend", "PathPrefix"] > 1000 and tally["extend", "str"] > 100


def test_scheduler_matches_queue_oracle_on_random_systems():
    rng = random.Random(1985)
    tally = Counter()
    for _ in range(150):
        lts = random_lts(rng)
        tids = [t.id for t in lts.transitions]
        # names out of task-index order, so that column order shows
        names = rng.sample(["p", "q", "r", "s", "t"], rng.randint(1, 5))
        custom = TaskSet("custom", tuple(
            Task(name, frozenset(rng.sample(tids, rng.randint(0, len(tids)))))
            for name in names))
        _compare(lts, [custom] + _tasksets(lts), _prefixes(lts, rng, 2), tally)
    assert tally["extend", "PathPrefix"] > 5000
