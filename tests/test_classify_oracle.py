"""Differential tests of the table-driven classifier and the requested table.

The oracles are the per-task scans the classifier replaced: every task of
the collection is tested at every cycle state, and `requested` projects and
steps the state expression on every query.  The oracles drop blocking
transitions under ,reactive themselves, from the unfiltered
`lts.outgoing(state)`, and justness is checked against the stem-by-stem
scan the classifier used before `outgoing` took the flag.  That oracle
reads the cycle's steps in sorted order, then each stem state's component
sets whole, stem state by stem state, then every cycle state's whole, in
sorted order; the scan it copies read cycle states lazily in cycle order,
so on a partially annotated system the rotations of a cycle could disagree.
The J oracle also reads the cycle's steps in sorted order, so that every
rotation of a cycle gets one verdict or one AnnotationError.

The SWI oracle scans the instructions one by one.  Like notion I, it needs
an instruction set on every transition; unlike S:I, it asks whether each
instruction S:I would owe is requested at every cycle state.  A component
absent from a state requests nothing there, but a system that cannot say
what is requested (not of ccs origin) raises, as the classifier does.
"""

from __future__ import annotations

import random
from collections import Counter

from fairlab.corpus import build_all
from fairlab.lts import (AnnotationError, AugmentedLTS, State, Task, TaskSet,
                         Transition, from_exploration, load_lts, requested,
                         save_lts, validate_side_conditions)
from fairlab.labels import parse_label
from fairlab.parser import parse_ccs
from fairlab.paths import (Assumption, Lasso, PathPrefix, classify_finite,
                           classify_lasso, resolve_tasks)
from fairlab.semantics import explore, step
from fairlab.syntax import cmp_table, project
from fairlab.verify import Bounds, rooted_walks, simple_cycles_at

NOTIONS = ("A", "T", "I", "Z", "C", "G")
BOUNDS = Bounds(2, 3)


def _direct_requested(lts, instruction, state):
    cmp_map = cmp_table(lts.state_expr(lts.initial[0]))
    if instruction not in cmp_map:
        raise AnnotationError(f"unknown instruction {instruction!r}")
    comp = project(lts.state_expr(state), cmp_map[instruction])
    if comp is None:
        raise AnnotationError(f"component {cmp_map[instruction]!r} absent in state {state}")
    return any(instruction in s.instr for s in step(comp))


def _direct_requested_if_present(lts, instruction, state):
    if lts.origin != "ccs":
        raise AnnotationError("instruction projection needs a ccs-origin system")
    try:
        return _direct_requested(lts, instruction, state)
    except AnnotationError as exc:
        if " absent in state " not in str(exc):
            raise
        return False


def _moves(lts, state, reactive):
    return [t for t in lts.outgoing(state) if not (reactive and t.blocking)]


def _enabled(lts, task, state, reactive):
    return any(t.id in task.members for t in _moves(lts, state, reactive))


def _enabled_during(lts, task, u, reactive):
    ucomp = lts.comp_of(u)
    return any(t.id in task.members and not (lts.comp_of(t.id) & ucomp)
               for t in _moves(lts, lts.transition(u).source, reactive))


def _instr_enabled(lts, instruction, state, reactive):
    return any(t.instr is not None and instruction in t.instr
               for t in _moves(lts, state, reactive))


def _just_lasso(lts, lasso, reactive):
    """Every transition enabled along the lasso is interfered with later."""
    cyc_comp = set()
    for u in sorted(lasso.cycle):
        cyc_comp |= lts.comp_of(u)

    def comps(state):
        return [lts.comp_of(t.id) for t in lts.outgoing(state)
                if not (reactive and t.blocking)]

    at = lasso.start
    for k in range(len(lasso.stem)):
        for tcomp in comps(at):
            if not (tcomp & cyc_comp
                    or any(lts.comp_of(u) & tcomp for u in lasso.stem[k:])):
                return False
        at = lts.transition(lasso.stem[k]).target
    cyc_states = sorted({lts.transition(u).source for u in lasso.cycle})
    per_state = [comps(s) for s in cyc_states]
    return all(tcomp & cyc_comp for tcomps in per_state for tcomp in tcomps)


def _oracle_lasso(lts, lasso, assumption):
    """J/W/S and SWI by one scan per task (per instruction) of the cycle."""
    lasso.validate(lts)
    reactive = assumption.reactive
    cyc_states = sorted({lts.transition(u).source for u in lasso.cycle})
    if assumption.kind == "Just":
        return _just_lasso(lts, lasso, reactive)
    if assumption.kind == "SWI":
        _needs_instr(lts)
        for i in lts.instructions():
            if (any(i in lts.transition(u).instr for u in lasso.cycle)
                    or not any(_instr_enabled(lts, i, s, reactive) for s in cyc_states)):
                continue
            if all(_direct_requested_if_present(lts, i, s) for s in cyc_states):
                return False
        return True
    for task in resolve_tasks(lts, assumption).tasks:
        if task.members & set(lasso.cycle):
            continue
        per_state = [_enabled(lts, task, s, reactive) for s in cyc_states]
        if assumption.kind == "W" and all(per_state):
            return False
        if assumption.kind == "S" and any(per_state):
            return False
        if assumption.kind == "J" and all(per_state) and all(
                _enabled_during(lts, task, u, reactive) for u in sorted(lasso.cycle)):
            return False
    return True


def _needs_instr(lts):
    if any(t.instr is None for t in lts.transitions):
        raise AnnotationError("notion I needs instruction annotations")


def _oracle_finite(lts, prefix, assumption):
    prefix.validate(lts)
    last = prefix.end(lts)
    if assumption.kind == "Just":
        return not _moves(lts, last, assumption.reactive)
    if assumption.kind == "SWI":
        _needs_instr(lts)
        return not any(t.instr for t in _moves(lts, last, assumption.reactive))
    return not any(_enabled(lts, task, last, assumption.reactive)
                   for task in resolve_tasks(lts, assumption).tasks)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except AnnotationError as exc:
        return f"AnnotationError: {exc}"


def _assumptions(lts, extra=()):
    tasksets = [(y, None) for y in NOTIONS]
    tasksets += [("custom", ts) for _, ts in sorted(lts.tasks.items())]
    tasksets += [("custom", ts) for ts in extra]
    out = [Assumption(kind, reactive=r) for kind in ("SWI", "Just") for r in (False, True)]
    for kind in "JWS":
        for notion, ts in tasksets:
            for reactive in (False, True):
                out.append(Assumption(kind, notion, ts, reactive))
    return out


def _rooted_lassos(lts, stems):
    """Rooted lassos within BOUNDS, with up to `stems` stems per cycle."""
    walks = rooted_walks(lts, BOUNDS.stem)
    return [Lasso(start, steps, cycle)
            for entry in sorted(walks)
            for cycle in simple_cycles_at(lts, entry, BOUNDS.cycle)
            for start, steps in walks[entry][:stems]]


_NO_INSTR = "AnnotationError: notion I needs instruction annotations"


def _compare(lts, assumptions, tally, stems=None):
    """Both classifiers on every rooted lasso and every one-state prefix;
    tallies the outcomes, and SWI's by system kind and path kind in
    `tally["SWI"]`."""
    partial = any(t.instr is None for t in lts.transitions)
    kind = "partial" if partial else lts.origin

    def swi(a, path, got):
        if a.kind == "SWI":
            assert got == _NO_INSTR or not partial, str(a)
            tally["SWI"][kind, path, got] += 1

    for lasso in _rooted_lassos(lts, stems):
        for a in assumptions:
            got = _outcome(classify_lasso, lts, lasso, a)
            assert got == _outcome(_oracle_lasso, lts, lasso, a), (lasso, str(a))
            tally[got if isinstance(got, bool) else "error"] += 1
            swi(a, "lasso", got)
    for sid in lts.state_ids():
        for a in assumptions:
            got = _outcome(classify_finite, lts, PathPrefix(sid), a)
            assert got == _outcome(_oracle_finite, lts, PathPrefix(sid), a), (sid, str(a))
            tally["finite"] += 1
            swi(a, "finite", got)


_NOT_CCS = "AnnotationError: instruction projection needs a ccs-origin system"


def _drawn_tasks(rng, lts, n) -> TaskSet:
    """n custom tasks with drawn, overlapping members (some empty); past 64
    tasks a task mask spans several machine words."""
    tids = [t.id for t in lts.transitions]
    return TaskSet("custom", tuple(
        Task(f"c{k}", frozenset(rng.sample(tids, rng.randint(0, min(3, len(tids))))))
        for k in range(n)))


def test_classifier_matches_per_task_scan_on_corpus():
    # each system's own task sets, plus 70 drawn tasks, each with ,reactive
    rng = random.Random(2311)
    tally = {True: 0, False: 0, "error": 0, "finite": 0, "SWI": Counter()}
    systems = 0
    for built in build_all():
        lts = built.lts
        if lts.truncated:
            continue
        systems += 1
        _compare(lts, _assumptions(lts, (_drawn_tasks(rng, lts, 70),)), tally)
    assert systems > 20
    assert tally[True] > 1000 and tally[False] > 1000 and tally["finite"] > 1000
    assert tally["error"] > 0  # I/Z/C/G on systems without instr/comp
    swi = tally["SWI"]
    assert swi["ccs", "lasso", True] > 300 and swi["ccs", "lasso", False] > 200
    assert swi["ccs", "finite", True] > 30 and swi["ccs", "finite", False] > 50
    # the mutex and prob-notagef files lack instr on some transitions
    assert swi["partial", "lasso", _NO_INSTR] > 20 and swi["partial", "finite", _NO_INSTR] > 20
    # ex-13.1 carries instr but is handwritten: each of its cycles leaves an
    # instruction S:I would owe, whose requested-ness cannot be read
    assert swi["handwritten", "lasso", _NOT_CCS] > 2000
    assert swi["handwritten", "finite", False] > 10
    assert len(swi) == 8


def _random_system(rng, instr_missing, comp_missing) -> AugmentedLTS:
    n = rng.randint(1, 4)
    states = [State(f"s{k}", None) for k in range(n)]
    transitions = []
    for k in range(rng.randint(1, 7)):
        instr = frozenset(rng.sample(["i1", "i2", "i3"], rng.randint(1, 2)))
        comp = frozenset(rng.sample(["L", "R", "M"], rng.randint(1, 2)))
        transitions.append(Transition(
            f"t{k}", f"s{rng.randrange(n)}", f"s{rng.randrange(n)}",
            parse_label(rng.choice(["a", "b", "'a", "tau"])),
            None if rng.random() < instr_missing else instr,
            None if rng.random() < comp_missing else comp,
            rng.random() < 0.5))
    return AugmentedLTS(states, transitions, ["s0"])


def test_classifier_matches_per_task_scan_on_random_systems():
    rng = random.Random(1810)
    tally = {True: 0, False: 0, "error": 0, "finite": 0, "SWI": Counter()}
    for instr_missing, comp_missing in ((0, 0), (0.3, 0), (0, 0.3), (0.3, 0.3), (1, 1)):
        for _ in range(25):
            lts = _random_system(rng, instr_missing, comp_missing)
            tids = [t.id for t in lts.transitions]
            custom = TaskSet("custom", tuple(
                Task(f"c{k}", frozenset(rng.sample(tids, rng.randint(0, len(tids)))))
                for k in range(3)))
            # only justness looks at the stem, so one stem per cycle will do
            _compare(lts, _assumptions(lts, (custom, _drawn_tasks(rng, lts, 70))), tally,
                     stems=1)
    assert tally[True] > 1000 and tally[False] > 1000 and tally["error"] > 1000
    swi = tally["SWI"]
    assert swi["partial", "lasso", _NO_INSTR] > 2000 and swi["partial", "finite", _NO_INSTR] > 200
    # fully annotated but handwritten: fair where S:I owes nothing
    assert swi["handwritten", "lasso", True] > 1000 and swi["handwritten", "lasso", _NOT_CCS] > 500
    assert swi["handwritten", "finite", True] > 50 and swi["handwritten", "finite", False] > 50
    assert len(swi) == 6


def test_every_rotation_of_a_cycle_gets_one_verdict_or_one_error():
    """On random partly annotated systems, the rotations of a cycle (each
    with an empty stem) classify alike, errors included, under P, justness,
    J, W, S and SWI, with and without ,reactive, over every notion and two
    custom task sets."""
    rng = random.Random(2312)
    tally = Counter()
    for instr_missing, comp_missing in ((0, 0.3), (0.3, 0.3), (0.2, 0.6)):
        for _ in range(10):
            lts = _random_system(rng, instr_missing, comp_missing)
            extra = (_drawn_tasks(rng, lts, 3), _drawn_tasks(rng, lts, 70))
            assumptions = [Assumption("P")] + _assumptions(lts, extra)
            for sid in lts.state_ids():
                for cycle in simple_cycles_at(lts, sid, 3):
                    rotations = [Lasso(lts.transition(u).source, (), cycle[k:] + cycle[:k])
                                 for k, u in enumerate(cycle)]
                    for a in assumptions:
                        outcomes = {_outcome(classify_lasso, lts, r, a) for r in rotations}
                        assert len(outcomes) == 1, (cycle, str(a), outcomes)
                        got = outcomes.pop()
                        tally[got if isinstance(got, bool) else "error", len(cycle) > 1] += 1
    assert min(tally[outcome, True] for outcome in (True, False, "error")) > 5000, tally


def _grid(n):
    return (" | ".join(f"X{i}" for i in range(n)) + " where "
            + ", ".join(f"X{i} = a{i}.X{i} + b{i}.0" for i in range(n)))


def _ring(k):
    return "X | done where X = " + ".".join(f"a{i}" for i in range(k)) + ".X"


def test_requested_table_matches_projection():
    systems = [b.lts for b in build_all() if b.lts.origin == "ccs"]
    systems += [from_exploration(explore(parse_ccs(src)))
                for src in [_ring(k) for k in range(10, 15)] + [_grid(n) for n in range(5, 8)]]
    answers = {True: 0, False: 0, "error": 0}
    for lts in systems:
        for i in lts.instructions() + ["no-such-instruction"]:
            for sid in lts.state_ids():
                got = _outcome(requested, lts, i, sid)
                assert got == _outcome(_direct_requested, lts, i, sid), (i, sid)
                answers[got if isinstance(got, bool) else "error"] += 1
    assert answers[True] > 100 and answers[False] > 100 and answers["error"] > 100


def test_side_condition_reports_are_fresh_copies():
    for built in build_all("ex-7.1-clerk") + build_all("ex-12.1-phone"):
        lts = built.lts
        first = validate_side_conditions(lts)
        expected = list(first)
        first.clear()
        assert validate_side_conditions(lts) == expected
        assert validate_side_conditions(lts) is not validate_side_conditions(lts)
        # the same reports as a fresh copy of the system
        assert validate_side_conditions(load_lts(save_lts(lts))) == expected
