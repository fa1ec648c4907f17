"""Liveness verdicts, witnesses, the fair scheduler, simulation."""

from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from test_classify_oracle import _random_system
from test_goal_oracle import _damage
from test_scheduler_oracle import _oracle_lasso

from fairlab import verify
from fairlab.corpus import build_all, t_by
from fairlab.labels import parse_label
from fairlab.lts import (AnnotationError, AugmentedLTS, State, Task, TaskSet, Transition,
                         load_lts, named_goal, save_lts, validate_side_conditions)
from fairlab.paths import (Assumption, Lasso, PathPrefix, classify_finite, classify_lasso,
                           just_stem, parse_assumption)
from fairlab.tasks import NOTIONS, extract_tasks
from fairlab.verify import (Bounds, agef, fair_extend, figure2_arrows,
                            hierarchy_check, liveness, loopfree_witness,
                            rooted_walks, simple_cycles_at, simulate)


def _built(pattern):
    return {b.entry.id: b for b in build_all(pattern)}


def test_agef_examples():
    ten = _built("ex-10.1*")["ex-10.1-offset-cycles"].lts
    assert agef(ten, named_goal(ten, "diag"))
    assert agef(ten, frozenset(ten.state_ids()))
    phone = _built("ex-12.1*")["ex-12.1-phone"].lts
    assert agef(phone, named_goal(phone, "conn"))


def test_agef_reactive_blocks_blocking_paths():
    lts = _built("ex-16-reactive")["ex-16-reactive"].lts
    goal = named_goal(lts, "end")
    assert agef(lts, goal)
    assert not agef(lts, goal, reactive=True)


def test_liveness_mutex_with_witness():
    built = _built("ex-4.2-mutex-mem")["ex-4.2-mutex-mem"]
    lts = built.lts
    ts = lts.tasks["LM"]
    goal = named_goal(lts, "crit")
    strong = liveness(lts, goal, Assumption("S", "custom", ts), goal_name="crit")
    weak = liveness(lts, goal, Assumption("W", "custom", ts), goal_name="crit")
    assert strong.holds == "yes"
    assert weak.holds == "no"
    witness = weak.witness
    assert isinstance(witness, Lasso)
    # soundness: the witness classifies fair and avoids the goal
    assert classify_lasso(lts, witness, Assumption("W", "custom", ts))
    visited = {witness.start}
    visited.update(lts.transition(t).target for t in witness.stem + witness.cycle)
    assert not (visited & goal)


def test_liveness_progress_counterexample_is_finite_or_cyclic():
    built = _built("ex-2.1*")["ex-2.1-two-steps"]
    lts = built.lts
    goal = named_goal(lts, "done")
    mid = liveness(lts, goal, Assumption("P"))
    assert mid.holds == "yes"


def test_liveness_truncated_is_bounded_unknown():
    built = _built("ex-5.2*")["ex-5.2-relabel-chain"]
    verdict = liveness(built.lts, named_goal(built.lts, "done"), Assumption("W", "A"))
    assert verdict.holds == "bounded-unknown"
    assert any("truncated" in n for n in verdict.notes)


def test_loopfree_witness_bounds():
    counters = _built("ex-11.2*")["ex-11.2-counters"].lts
    assert loopfree_witness(counters, named_goal(counters, "zero"), 30) is not None
    mutex = _built("ex-4.2-mutex-mem")["ex-4.2-mutex-mem"].lts
    # pigeonhole: no loop-free path longer than the state count
    assert loopfree_witness(mutex, named_goal(mutex, "crit"), 6) is None


def test_fair_extend_mutex_alternates():
    built = _built("ex-4.2-mutex-mem")["ex-4.2-mutex-mem"]
    lts = built.lts
    ts = lts.tasks["LM"]
    path = fair_extend(lts, PathPrefix("init"), ts, 12)
    assert path.steps == ("l1", "l2", "l3", "m1", "m2", "m3") * 2
    lasso = _oracle_lasso(lts, PathPrefix("init"), ts)
    assert lasso is not None
    assert classify_lasso(lts, lasso, Assumption("S", "custom", ts))


def test_fair_extend_deadlock_returns_prefix():
    lts = _built("ex-2.1*")["ex-2.1-two-steps"].lts
    end = next(s.id for s in lts.states if not lts.outgoing(s.id))
    ts = extract_tasks(lts, "A")
    prefix = PathPrefix(end)
    assert fair_extend(lts, prefix, ts, 10) == prefix


def test_fair_extend_ex_5_1_schedules_exit():
    # queue trace: the exit task (single instruction of the left component)
    # is filled first in column 0 and scheduled immediately
    built = _built("ex-5.1*")["ex-5.1-exit-loop"]
    lts = built.lts
    ts = extract_tasks(lts, "I")
    path = fair_extend(lts, PathPrefix(lts.initial[0]), ts, 6)
    exit_tid = t_by(lts, comp={"L"})
    assert exit_tid in path.steps
    assert len(path.steps) == 6


def test_hierarchy_no_violation_strong_to_weak():
    for built in build_all("ex-5.4*"):
        report = hierarchy_check(built.lts, Assumption("S", "I"),
                                 Assumption("W", "I"), Bounds(3, 4))
        assert not report.skipped and not report.violations


def test_hierarchy_sz_to_si_under_condition_2():
    built = _built("ex-5.3*")["ex-5.3-single-component"]
    report = hierarchy_check(built.lts, Assumption("S", "Z"), Assumption("S", "I"),
                             Bounds(3, 4), required_conditions=("(2)",))
    assert not report.skipped and not report.violations


def test_hierarchy_finds_separating_lasso_for_absent_arrow():
    built = _built("ex-5.6*")["ex-5.6-idle-loop"]
    report = hierarchy_check(built.lts, Assumption("S", "A"), Assumption("S", "T"),
                             Bounds(2, 4))
    assert report.violations
    lasso = report.violations[0]
    assert classify_lasso(built.lts, lasso, Assumption("S", "A"))
    assert not classify_lasso(built.lts, lasso, Assumption("S", "T"))


def _random_annotated_system(rng) -> AugmentedLTS:
    n = rng.randint(1, 4)
    transitions = [Transition(f"t{k}", f"s{rng.randrange(n)}", f"s{rng.randrange(n)}",
                              parse_label(rng.choice(["a", "b", "tau"])), None,
                              frozenset(rng.sample(["L", "R", "M"], rng.randint(1, 2))),
                              rng.random() < 0.5)
                   for k in range(rng.randint(1, 4))]
    return AugmentedLTS([State(f"s{k}", None) for k in range(n)], transitions, ["s0"])


def _random_goal_systems() -> list[tuple[AugmentedLTS, frozenset[str]]]:
    """1,500 random annotated systems, each with a random goal (maybe empty)."""
    rng = random.Random(1810)
    out = []
    for _ in range(1500):
        lts = _random_annotated_system(rng)
        out.append((lts, frozenset(s.id for s in lts.states if rng.random() < 0.3)))
    return out


def _is_fair(lts, witness, assumption) -> bool:
    if isinstance(witness, Lasso):
        return classify_lasso(lts, witness, assumption)
    return classify_finite(lts, witness, assumption)


def _fig2_consistency(lts, goal, tally, problems, where) -> None:
    """Along every Fig. 2 arrow whose side conditions validate on lts: a
    weaker yes implies a stronger yes, and a stronger no witness is
    weaker-fair.  Pairs whose annotations are missing are skipped."""
    held = {c.name for c in validate_side_conditions(lts) if c.checked and c.holds}
    for stronger, weaker, conditions in figure2_arrows():
        if not all(any(name.startswith(need) for name in held) for need in conditions):
            continue
        try:
            strong, weak = liveness(lts, goal, stronger), liveness(lts, goal, weaker)
            transfers = strong.holds == "no" and _is_fair(lts, strong.witness, weaker)
        except AnnotationError:
            continue
        tally[0] += 1
        if weak.holds == "yes" and strong.holds != "yes":
            problems.append((where, str(stronger), str(weaker), "weaker yes, stronger no"))
        if strong.holds == "no":
            tally[1] += 1
            if not transfers:
                problems.append((where, str(stronger), str(weaker), strong.witness))


def test_figure2_arrows_agree_with_liveness_on_the_corpus():
    tally, problems = [0, 0], []
    for built in build_all():
        lts = built.lts
        if lts.truncated:
            continue
        for goal_name in sorted(lts.goals):
            _fig2_consistency(lts, named_goal(lts, goal_name), tally, problems,
                              (built.entry.id, goal_name))
    assert not problems, problems[:5]
    assert tally[0] > 500 and tally[1] > 200, tally


def test_figure2_arrows_agree_with_liveness_on_random_systems():
    tally, problems = [0, 0], []
    for k, (lts, goal) in enumerate(_random_goal_systems()):
        _fig2_consistency(lts, goal, tally, problems, k)
    assert not problems, problems[:5]
    assert tally[0] > 20000 and tally[1] > 10000, tally


def _visits(lts, start, steps) -> list[str]:
    states = [start]
    for tid in steps:
        states.append(lts.transition(tid).target)
    return states


def test_liveness_witnesses_and_reachability_verdicts_on_random_systems():
    """Every no witness is a rooted, goal-avoiding path that is fair under its
    own assumption, and ST, Fu and Pr say yes exactly when AGEF holds."""
    pathwise = [("P", ""), ("Just", "")] + [(kind, y) for kind in "JWS" for y in "ATCG"]
    verdicts, witnesses, problems = 0, 0, []
    for k, (lts, goal) in enumerate(_random_goal_systems()):
        for reactive in (False, True):
            for kind, notion in pathwise:
                assumption = Assumption(kind, notion, None, reactive)
                try:
                    verdict = liveness(lts, goal, assumption)
                    w = verdict.witness
                    fair = verdict.holds != "no" or _is_fair(lts, w, assumption)
                except AnnotationError:
                    continue
                verdicts += 1
                if verdict.holds == "no":
                    witnesses += 1
                    steps = w.stem + w.cycle if isinstance(w, Lasso) else w.steps
                    if (not fair or w.start not in lts.initial
                            or goal & set(_visits(lts, w.start, steps))):
                        problems.append((k, str(assumption), w))
            reach = "yes" if agef(lts, goal, reactive) else "no"
            for kind in ("ST", "Fu", "Pr"):
                verdicts += 1
                assumption = Assumption(kind, reactive=reactive)
                if liveness(lts, goal, assumption).holds != reach:
                    problems.append((k, str(assumption), reach))
    assert not problems, problems[:5]
    assert verdicts > 40000 and witnesses > 20000, (verdicts, witnesses)


def test_hierarchy_judges_each_side_under_its_own_reactive_flag():
    """Arrows between justness and J/W/S:A, P or justness, both ways, with
    equal and with opposite ,reactive flags: the checker reports exactly the
    first lasso that a brute force over the same rooted walks and simple
    cycles finds to be stronger-fair and weaker-unfair, and none when there
    is none."""
    rng = random.Random(2)
    bounds = Bounds(2, 3)
    kinds = [("Just", ""), ("J", "A"), ("W", "A"), ("S", "A"), ("P", "")]
    assumptions = [Assumption(kind, notion, None, reactive)
                   for kind, notion in kinds for reactive in (False, True)]
    pairs = [(a, b) for a in assumptions for b in assumptions
             if a != b and "Just" in (a.kind, b.kind)]
    mismatches, separated = [], 0
    for _ in range(400):
        lts = _random_annotated_system(rng)
        walks = rooted_walks(lts, bounds.stem)
        lassos = [Lasso(start, steps, cycle) for entry in sorted(walks)
                  for cycle in simple_cycles_at(lts, entry, bounds.cycle)
                  for start, steps in walks[entry]]
        fair = {a: [classify_lasso(lts, lasso, a) for lasso in lassos] for a in assumptions}
        for stronger, weaker in pairs:
            first = next((lasso for lasso, s, w in zip(lassos, fair[stronger], fair[weaker])
                          if s and not w), None)
            report = hierarchy_check(lts, stronger, weaker, bounds)
            assert not report.skipped
            separated += first is not None
            if report.violations != ([first] if first else []):
                mismatches.append((str(stronger), str(weaker), report.violations, first))
    assert not mismatches, (len(mismatches), mismatches[:3])
    assert separated > 500


def _parent_just_stem_ok(lts, start, steps, comps_u, obligations) -> bool:
    """The eager stem check `hierarchy_check` used before it shared
    `paths.just_stem` with the classifier, copied as it was."""
    states = [start]
    for tid in steps:
        states.append(lts.transition(tid).target)
    avail: list[frozenset[str]] = [frozenset()] * (len(steps) + 1)
    acc = frozenset(comps_u)
    for k in range(len(steps), -1, -1):
        avail[k] = acc
        if k > 0:
            acc = acc | lts.comp_of(steps[k - 1])
    for k in range(len(steps)):
        for need in obligations[states[k]]:
            if not (need & avail[k]):
                return False
    return True


def _compare_just_stems(lts, bounds, tally):
    """Every rooted lasso within bounds, under both ,reactive flags, where
    `hierarchy_check` would judge stems: the obligation table and the
    cycle's components can be read."""
    walks = rooted_walks(lts, bounds.stem)
    for reactive in (False, True):
        try:
            obligations = {s.id: tuple(lts.comp_of(t.id) for t in lts.outgoing(s.id, reactive))
                           for s in lts.states}
        except AnnotationError:
            tally["skipped"] += 1
            continue
        for entry in sorted(walks):
            for cycle in simple_cycles_at(lts, entry, bounds.cycle):
                try:
                    comps_u = frozenset().union(*(lts.comp_of(t) for t in cycle))
                except AnnotationError:
                    tally["skipped"] += 1
                    continue
                for start, steps in walks[entry]:
                    got = _outcome(just_stem, lts, start, steps, comps_u, reactive)
                    assert got == _outcome(_parent_just_stem_ok, lts, start, steps, comps_u,
                                           obligations), (start, steps, cycle)
                    tally[got] += 1


def _outcome(fn, *args):
    try:
        return fn(*args)
    except AnnotationError as exc:
        return f"AnnotationError: {exc}"


def test_just_stem_matches_the_parent_check():
    tally = {True: 0, False: 0, "skipped": 0}
    for built in build_all():
        if not built.lts.truncated:
            _compare_just_stems(built.lts, Bounds(3, 4), tally)
    rng = random.Random(2)  # the systems of the reactive-flag hierarchy test
    for _ in range(400):
        _compare_just_stems(_random_annotated_system(rng), Bounds(3, 4), tally)
    assert tally[True] > 10_000 and tally[False] > 10_000 and tally["skipped"] > 0


def test_hierarchy_reads_only_the_component_sets_justness_owes():
    # t0 is blocking and has no component set: under ,reactive it is owed
    # nothing, so the check runs; without ,reactive the up-front read skips it
    lts = AugmentedLTS([State("s0", None), State("s1", None)],
                       [Transition("t0", "s0", "s1", parse_label("a"), None, None, True),
                        Transition("t1", "s1", "s1", parse_label("tau"), None,
                                   frozenset({"L"}), False)], ["s0"])
    report = hierarchy_check(lts, Assumption("P"), Assumption("Just", reactive=True),
                             Bounds(2, 3))
    assert not report.skipped and report.checked == 2 and not report.violations
    report = hierarchy_check(lts, Assumption("P"), Assumption("Just"), Bounds(2, 3))
    assert report.skipped == "missing annotations: transition t0 carries no component set"


def test_hierarchy_tells_custom_task_sets_apart():
    # one task holding every transition makes S as weak as P; one task per
    # transition makes it S:T, which the mutex's m-cycle violates
    lts = _built("ex-4.2-mutex-mem")["ex-4.2-mutex-mem"].lts
    tids = [t.id for t in lts.transitions]
    every = Assumption("S", "custom", TaskSet("custom", (Task("all", frozenset(tids)),)))
    each = Assumption("S", "custom", TaskSet("custom", tuple(
        Task(tid, frozenset([tid])) for tid in tids)))
    expected = hierarchy_check(lts, Assumption("P"), each, Bounds(3, 4)).violations
    assert expected
    assert hierarchy_check(lts, every, each, Bounds(3, 4)).violations == expected
    assert not hierarchy_check(lts, each, every, Bounds(3, 4)).violations


def test_hierarchy_skips_on_missing_side_condition():
    built = _built("ex-4.2-mutex-mem")["ex-4.2-mutex-mem"]
    report = hierarchy_check(built.lts, Assumption("S", "Z"), Assumption("S", "I"),
                             Bounds(2, 3), required_conditions=("(2)",))
    assert report.skipped


def test_simulate_goal_initial_certain():
    lts = _built("ex-12.2*")["ex-12.2-breakfast"].lts
    est = simulate(lts, frozenset(lts.initial), horizon=10, runs=50)
    assert est.estimate == 1


def test_simulate_deterministic_per_seed():
    lts = _built("ex-10.1*")["ex-10.1-offset-cycles"].lts
    goal = named_goal(lts, "diag")
    a_ = simulate(lts, goal, horizon=50, runs=200, seed=7)
    b = simulate(lts, goal, horizon=50, runs=200, seed=7)
    c = simulate(lts, goal, horizon=50, runs=200, seed=8)
    assert a_.estimate == b.estimate
    assert a_.seed != c.seed


def test_simulate_rejects_bad_weights():
    lts = _built("ex-12.2*")["ex-12.2-breakfast"].lts
    with pytest.raises(ValueError):
        simulate(lts, frozenset(), weights={"t0": Fraction(0)}, horizon=5, runs=5)


def test_liveness_st_matches_agef_on_corpus():
    for built in build_all():
        lts = built.lts
        if lts.truncated or not lts.goals:
            continue
        for goal_name in lts.goals:
            goal = named_goal(lts, goal_name)
            via_st = liveness(lts, goal, Assumption("ST")).holds
            assert via_st == ("yes" if agef(lts, goal) else "no"), \
                (built.entry.id, goal_name)


def test_fair_extend_random_prefixes_reach_fair_lassos():
    rng = random.Random(2026)
    for built in build_all("ex-5.4*"):
        lts = built.lts
        ts = extract_tasks(lts, "A")
        for _ in range(10):
            at = lts.initial[0]
            steps = []
            for _ in range(rng.randint(0, 8)):
                outs = lts.outgoing(at)
                if not outs:
                    break
                t = rng.choice(outs)
                steps.append(t.id)
                at = t.target
            lasso = _oracle_lasso(lts, PathPrefix(lts.initial[0], tuple(steps)), ts)
            if lasso is None:
                # the prefix ended in (or was forced into) a deadlock
                end = PathPrefix(lts.initial[0], tuple(steps)).end(lts)
                continue
            assert classify_lasso(lts, lasso, Assumption("S", "custom", ts))


def test_out_of_range_caps_and_bounds_are_rejected():
    lts = _built("ex-4.2-mutex-mem")["ex-4.2-mutex-mem"].lts
    ts, prefix = lts.tasks["LM"], PathPrefix("init", ("l1",))
    assert fair_extend(lts, prefix, ts, 0) == prefix
    assert len(fair_extend(lts, prefix, ts, 1).steps) == 2
    with pytest.raises(ValueError, match="steps >= 0, got -3"):
        fair_extend(lts, prefix, ts, -3)
    assert simple_cycles_at(lts, "init", 0) == [] == simple_cycles_at(lts, "init", -1)
    assert simple_cycles_at(lts, "init", 3)
    for stem, cycle in ((-1, 1), (0, 0), (2, -1)):
        with pytest.raises(ValueError, match="STEM >= 0 and CYCLE >= 1"):
            Bounds(stem, cycle)
    assert Bounds(0, 1).cycle == 1
    with pytest.raises(ValueError, match="length >= 0, got -1"):
        loopfree_witness(lts, frozenset(), -1)
    assert loopfree_witness(lts, frozenset(), 0) == PathPrefix("init")


def test_liveness_on_an_empty_region_reads_no_annotations():
    """When every initial state is in the goal, the goal-avoiding region is
    empty and no run is judged, so a system without instr or comp annotations
    answers yes; once the region has a state, the same queries need them."""
    needy = [parse_assumption(a) for a in ("J:A", "W:I", "S:C", "SWI")]
    for order in ((frozenset({"s0"}), frozenset({"s1"})),
                  (frozenset({"s1"}), frozenset({"s0"}))):
        lts = AugmentedLTS([State("s0", None), State("s1", None)],
                           [Transition("t0", "s0", "s0", parse_label("a"), None, None, False),
                            Transition("t1", "s0", "s1", parse_label("b"), None, None, False)],
                           ["s0"])
        for goal in order:
            for a in needy:
                if goal == {"s0"}:
                    assert liveness(lts, goal, a).holds == "yes", a
                else:
                    with pytest.raises(AnnotationError):
                        liveness(lts, goal, a)


# Every built-in assumption, plain and reactive.
_MATRIX = [parse_assumption(text + reactive)
           for text in ["P", "just", "SWI", "Fu", "ST", "Pr"]
           + [f"{x}:{y}" for x in "JWS" for y in NOTIONS]
           for reactive in ("", ",reactive")]


def _verdict_text(lts, goal, assumption) -> str:
    try:
        return json.dumps(liveness(lts, goal, assumption).to_json())
    except AnnotationError as exc:
        return f"AnnotationError: {exc}"


def _order_independent(lts, goals, rng, problems, where) -> None:
    """The matrix over several goals in a shuffled order on one system object
    gives the verdicts of a reloaded copy that has answered nothing yet."""
    queries = [(goal, a) for goal in goals for a in _MATRIX]
    rng.shuffle(queries)
    text = save_lts(lts)
    for goal, a in queries:
        shared, fresh = _verdict_text(lts, goal, a), _verdict_text(load_lts(text), goal, a)
        if shared != fresh:
            problems.append((where, sorted(goal), str(a), shared, fresh))


def test_liveness_verdicts_do_not_depend_on_query_order():
    rng, problems, systems = random.Random(19), [], 0
    for built in build_all():
        lts = built.lts
        if lts.truncated:
            continue
        goals = [named_goal(lts, name) for name in sorted(lts.goals)]
        _order_independent(lts, goals + [frozenset()], rng, problems, built.entry.id)
        systems += 1
    for k, (lts, goal) in enumerate(_random_goal_systems()[:200]):
        _order_independent(lts, [goal, frozenset(lts.state_ids()) - goal], rng, problems, k)
    assert not problems, problems[:5]
    assert systems > 20, systems


# S:y, SWI and justness, plain and reactive: the families whose SCCs are
# refined before their subsets are enumerated.
_REFINED = [parse_assumption(text + reactive)
            for text in [f"S:{y}" for y in NOTIONS] + ["SWI", "just"]
            for reactive in ("", ",reactive")]


def _liveness_text(lts, goal, assumption) -> str:
    """The verdict's JSON, or the type and text of any fairlab error."""
    try:
        return json.dumps(liveness(lts, goal, assumption).to_json())
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def _oracle_fair_states(lts, region, scc, assumption) -> list[str]:
    """The states of the SCC's strongly connected subsets whose covering
    cycle, with an empty stem, is fair: what the enumeration would accept."""
    found = set()
    for states in verify._strongly_connected_subsets(scc, region.succ.__getitem__):
        edges = [t for s in states for t in region.out[s] if t.target in states]
        cycle = verify._covering_cycle(edges, states[0])
        if classify_lasso(lts, Lasso(states[0], (), tuple(cycle)), assumption):
            found.update(states)
    return sorted(found)


def _compare_refined(monkeypatch, lts, goal, assumptions, tally) -> None:
    """Verdict or error text with the refinement and with it replaced by the
    identity, which is the unpruned enumeration; and the refined states of
    each SCC against the states of the fair subsets the enumeration finds,
    where neither raises.  (Under SWI a set that owes no task keeps its
    states without reading requests, which a smaller subset may raise on.)"""
    refine = verify._fair_states
    region = verify._region(lts, goal)
    for a in assumptions:
        outcomes = []
        for fn in (refine, lambda lts, region, scc, assumption: scc):
            monkeypatch.setattr(verify, "_fair_states", fn)
            outcomes.append(_liveness_text(lts, goal, a))
        monkeypatch.setattr(verify, "_fair_states", refine)
        assert outcomes[0] == outcomes[1], (sorted(goal), str(a))
        text = outcomes[0]
        tally[json.loads(text)["holds"] if text.startswith("{") else text.split(":")[0]] += 1
        for scc in region.sccs:
            try:
                kept = refine(lts, region, scc, a)
                expected = _oracle_fair_states(lts, region, scc, a)
            except ValueError:
                continue
            assert kept == expected, (scc, str(a))
            tally["pruned"] += kept != scc


def test_refinement_keeps_the_enumerations_verdicts_and_errors(monkeypatch):
    """On random systems, fully or partly annotated, every corpus goal, and
    CCS corpus systems reloaded with one state text damaged (under SWI), the
    refined search gives the unpruned enumeration's verdict JSON or error
    text, and keeps exactly the states of the fair strongly connected subsets."""
    tally, rng = Counter(), random.Random(24)
    systems = _random_goal_systems()
    for instr_missing, comp_missing in ((0, 0), (0.3, 0), (0, 0.3), (0.3, 0.3)):
        for _ in range(100):
            lts = _random_system(rng, instr_missing, comp_missing)
            systems.append((lts, frozenset(s.id for s in lts.states if rng.random() < 0.3)))
    for lts, goal in systems:
        _compare_refined(monkeypatch, lts, goal, _REFINED, tally)
    swi = [a for a in _REFINED if a.kind == "SWI"]
    for built in build_all():
        lts = built.lts
        if lts.truncated:
            continue
        goals = [named_goal(lts, name) for name in sorted(lts.goals)] + [frozenset()]
        for goal in goals:
            _compare_refined(monkeypatch, lts, goal, _REFINED, tally)
        for _ in range(8 if built.entry.kind == "ccs" else 0):
            doc = json.loads(save_lts(lts))
            state = rng.choice(doc["states"])
            state["expr"] = _damage(state["expr"], rng)
            for goal in goals:
                _compare_refined(monkeypatch, load_lts(json.dumps(doc)), goal, swi, tally)
    assert tally["no"] > 12000 and tally["AnnotationError"] > 6000, tally
    assert tally["ParseError"] > 50 and tally["pruned"] > 5000, tally
