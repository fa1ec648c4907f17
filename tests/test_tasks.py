"""Task extraction per notion, custom task files, progress task."""

from __future__ import annotations

import json
import random

import pytest

from fairlab.corpus import build_all
from fairlab.labels import parse_label
from fairlab.lts import (AnnotationError, AugmentedLTS, SchemaError, State, Task, TaskSet,
                         Transition, from_exploration)
from fairlab.parser import parse_ccs
from fairlab.semantics import explore
from fairlab.tasks import NOTIONS, extract_tasks, load_custom_tasks, with_progress_task


def _oracle_extract(lts, notion):
    """Task extraction as it was before one table described every notion:
    one branch per notion, met by each transition in turn."""
    def path_name(path):
        return path if path else "root"

    buckets: dict[str, set[str]] = {}

    def put(name, tid):
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
                put(f"C:{path_name(c)}", t.id)
        elif notion == "G":
            if t.comp is None:
                raise AnnotationError("notion G needs component annotations")
            put("G:{" + ",".join(sorted(path_name(c) for c in t.comp)) + "}", t.id)
    return TaskSet(notion, tuple(Task(name, frozenset(members))
                                 for name, members in sorted(buckets.items())))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except AnnotationError as exc:
        return f"AnnotationError: {exc}"


def _random_partly_annotated(rng) -> AugmentedLTS:
    """Up to 8 transitions; each instruction or component set is missing
    with probability 1/10, empty sometimes, and may name the root path."""
    n = rng.randint(1, 4)
    transitions = [Transition(
        f"t{k}", f"s{rng.randrange(n)}", f"s{rng.randrange(n)}",
        parse_label(rng.choice(["a", "b", "'a", "tau", "b#2"])),
        None if rng.random() < 0.1 else frozenset(rng.sample(["i1", "i2", "i3"],
                                                             rng.randint(0, 2))),
        None if rng.random() < 0.1 else frozenset(rng.sample(["", "L", "R", "LR"],
                                                             rng.randint(0, 2))),
        rng.random() < 0.5) for k in range(rng.randint(0, 8))]
    return AugmentedLTS([State(f"s{k}", None) for k in range(n)], transitions, ["s0"])


def test_extract_tasks_matches_the_per_notion_branches():
    systems = [b.lts for b in build_all()]
    systems += [from_exploration(explore(parse_ccs(
        "X | done where X = " + ".".join(f"a{i}" for i in range(k)) + ".X"))) for k in (4, 6)]
    systems += [from_exploration(explore(parse_ccs(
        " | ".join(f"X{i}" for i in range(n)) + " where "
        + ", ".join(f"X{i} = a{i}.X{i} + b{i}.0" for i in range(n))))) for n in (3, 4)]
    rng = random.Random(1810_07414)
    systems += [_random_partly_annotated(rng) for _ in range(400)]
    tally = {"tasks": 0, "error": 0}
    for lts in systems:
        for notion in NOTIONS:
            got = _outcome(extract_tasks, lts, notion)
            assert got == _outcome(_oracle_extract, lts, notion), notion
            tally["error" if isinstance(got, str) else "tasks"] += 1
    assert tally["tasks"] > 1500 and tally["error"] > 400


def _running_example():
    return from_exploration(explore(parse_ccs(
        "X | Y where X = a.X + b.X, Y = a.Y + 'b.Y")))


def test_component_tasks_of_running_example():
    lts = _running_example()
    ts = extract_tasks(lts, "C")
    left = ts.get("C:L").members
    right = ts.get("C:R").members
    tau = next(t.id for t in lts.transitions if t.label.is_tau)
    assert tau in left and tau in right
    assert len(left) == 3 and len(right) == 3
    assert left | right == {t.id for t in lts.transitions}


def test_synchronisation_tasks_of_running_example():
    lts = _running_example()
    ts = extract_tasks(lts, "Z")
    assert len(ts.tasks) == 5
    tau = next(t for t in lts.transitions if t.label.is_tau)
    pair_name = "Z:{" + ",".join(sorted(tau.instr)) + "}"
    assert ts.get(pair_name).members == {tau.id}
    assert all(len(t.members) == 1 for t in ts.tasks)


def test_empty_system_has_no_tasks():
    lts = from_exploration(explore(parse_ccs("0")))
    for notion in ("A", "T", "I", "Z", "C", "G"):
        assert extract_tasks(lts, notion).tasks == ()


def test_union_of_tasks_covers_transitions_for_t_and_z():
    for src in ["a | X where X = a.X", "(X|Y)\\b where X = a.X + b.0, Y = c.Y + 'b.0"]:
        lts = from_exploration(explore(parse_ccs(src)))
        everything = {t.id for t in lts.transitions}
        for notion in ("T", "Z"):
            union: set[str] = set()
            for task in extract_tasks(lts, notion).tasks:
                union |= task.members
            assert union == everything
        for notion in ("A", "I", "C", "G"):
            union = set()
            for task in extract_tasks(lts, notion).tasks:
                union |= task.members
            assert union <= everything


def test_direction_coincidence_on_singleton_instr_systems():
    # no synchronisation: instruction and synchronisation tasks partition alike
    lts = from_exploration(explore(parse_ccs("X | Y where X = a.b.c.X, Y = c.a.b.Y")))
    parts_i = sorted(frozenset(t.members) for t in extract_tasks(lts, "I").tasks)
    parts_z = sorted(frozenset(t.members) for t in extract_tasks(lts, "Z").tasks)
    assert parts_i == parts_z


def test_single_component_c_and_g_collapse_to_all_transitions():
    lts = from_exploration(explore(parse_ccs("X where X = a.X + b.0")))
    for notion in ("C", "G"):
        ts = extract_tasks(lts, notion)
        assert len(ts.tasks) == 1
        assert ts.tasks[0].members == {t.id for t in lts.transitions}


def test_c_tasks_union_of_i_tasks_and_g_tasks_union_of_z_tasks():
    for src in ["X | Y where X = a.X + b.X, Y = a.Y + 'b.Y",
                "(X|Y)\\b where X = a.X + b.0, Y = c.Y + 'b.0"]:
        lts = from_exploration(explore(parse_ccs(src)))
        i_parts = [t.members for t in extract_tasks(lts, "I").tasks]
        z_parts = [t.members for t in extract_tasks(lts, "Z").tasks]
        for c_task in extract_tasks(lts, "C").tasks:
            assert any(m <= c_task.members for m in i_parts)
            covered: set[str] = set()
            for m in i_parts:
                if m <= c_task.members:
                    covered |= m
            assert covered == c_task.members
        for g_task in extract_tasks(lts, "G").tasks:
            covered = set()
            for m in z_parts:
                if m <= g_task.members:
                    covered |= m
            assert covered == g_task.members


def test_load_custom_tasks_roundtrip_and_errors():
    lts = from_exploration(explore(parse_ccs("X where X = a.X + b.0")))
    tids = sorted(t.id for t in lts.transitions)
    ts = load_custom_tasks(lts, json.dumps({"tasks": [{"name": "b", "members": [tids[1]]}]}))
    assert ts.notion == "custom" and ts.get("b").members == {tids[1]}
    assert load_custom_tasks(lts, '{"tasks": []}').tasks == ()
    with pytest.raises(SchemaError):
        load_custom_tasks(lts, '{"tasks": [{"name": "x", "members": ["zzz"]}]}')


def test_with_progress_task():
    lts = from_exploration(explore(parse_ccs("X where X = a.X + b.0")))
    only_b = load_custom_tasks(
        lts, json.dumps({"tasks": [{"name": "b", "members":
                                    [next(t.id for t in lts.transitions
                                          if str(t.label) == "b")]}]}))
    widened = with_progress_task(only_b, lts)
    assert [t.name for t in widened.tasks] == ["b", "Tr"]
    assert widened.tasks[-1].members == {t.id for t in lts.transitions}

    full = extract_tasks(lts, "T")
    assert with_progress_task(full, lts) is full

    empty = load_custom_tasks(lts, '{"tasks": []}')
    assert [t.name for t in with_progress_task(empty, lts).tasks] == ["Tr"]

    # a Tr task that misses a transition would be named twice
    only_tr = TaskSet("custom", (Task("Tr", only_b.tasks[0].members),))
    with pytest.raises(SchemaError, match="task 'Tr' is named twice"):
        with_progress_task(only_tr, lts)


def test_repeated_task_names_are_rejected():
    with pytest.raises(SchemaError, match="task 'x' is named twice"):
        TaskSet("custom", (Task("x", frozenset({"t5"})), Task("y", frozenset()),
                           Task("x", frozenset({"t1"}))))
    lts = from_exploration(explore(parse_ccs("X where X = a.X + b.0")))
    tid = lts.transitions[0].id
    with pytest.raises(SchemaError, match="task 'x' is named twice"):
        load_custom_tasks(lts, json.dumps({"tasks": [{"name": "x", "members": [tid]},
                                                     {"name": "x", "members": []}]}))
