"""Differential test of `hierarchy_check` and its two tables.

`hierarchy_check` keeps, per system and bounds, each cycle's verdict under
an assumption keyed by the cycle's transition set, and each stem's justness
keyed by the stem, the cycle's components and the ,reactive flag.  The
oracle is the search as it was before those tables: it caches a verdict per
(entry, cycle, assumption) on the system for every bound, and calls
`paths.just_stem` for every stem it judges.

The two agree on every corpus system.  On a partly annotated system they may
differ in one way only.  The table classifies a transition set once, from
the first (entry, cycle) the search meets, which is the call the oracle
makes first too.  The oracle then classifies the other rotations of that
cycle, and J reads `enabled_during` in cycle order and stops at the first
False, so a later rotation can raise AnnotationError where the first did
not.  The oracle then skips the arrow for missing annotations, while the
tables check it and find no violation.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter

import pytest

from fairlab import verify
from fairlab.corpus import build_all
from fairlab.labels import parse_label
from fairlab.lts import AnnotationError, AugmentedLTS, State, Transition, validate_side_conditions
from fairlab.paths import Lasso, classify_lasso, just_stem, parse_assumption
from fairlab.verify import (Bounds, HierarchyReport, UnknownCondition, figure2_arrows,
                            hierarchy_check, rooted_walks, simple_cycles_at)


def _oracle_check(lts, stronger, weaker, bounds, required_conditions, verdicts):
    """`hierarchy_check` before its tables, with the per-(entry, cycle)
    verdict cache of the system held in `verdicts`."""
    report = HierarchyReport(str(stronger), str(weaker))
    if required_conditions:
        holds = {c.name.split()[0]: c.holds for c in validate_side_conditions(lts)}
        unknown = [need for need in required_conditions if need not in holds]
        if unknown:
            raise UnknownCondition(f"unknown side condition {unknown[0]!r}")
        need = next((need for need in required_conditions if not holds[need]), None)
        if need is not None:
            report.skipped = f"side condition {need} does not validate"
            return report

    def cycle_verdict(entry, cycle, a):
        key = (entry, cycle, a)
        if key not in verdicts:
            verdicts[key] = classify_lasso(lts, Lasso(entry, (), cycle), a)
        return verdicts[key]

    walks = rooted_walks(lts, bounds.stem)
    s_just = stronger.kind == "Just"
    w_just = weaker.kind == "Just"
    try:
        for a in (stronger, weaker):
            if a.kind == "Just":
                for s in lts.states:
                    tuple(lts.comp_of(t.id) for t in lts.outgoing(s.id, a.reactive))
        for entry in sorted(walks):
            stems = walks[entry]
            for cycle in simple_cycles_at(lts, entry, bounds.cycle):
                report.checked += len(stems)
                if not cycle_verdict(entry, cycle, stronger):
                    continue
                w_cyc = cycle_verdict(entry, cycle, weaker)
                if w_cyc and not w_just:
                    continue
                comps_u = (frozenset().union(*(lts.comp_of(t) for t in cycle))
                           if s_just or w_just else None)
                for start, steps in stems:
                    if s_just and not just_stem(lts, start, steps, comps_u,
                                                stronger.reactive):
                        continue
                    if w_cyc and just_stem(lts, start, steps, comps_u, weaker.reactive):
                        continue
                    report.violations.append(Lasso(start, steps, cycle))
                    return report
    except AnnotationError as exc:
        report.skipped = f"missing annotations: {exc}"
        report.checked = 0
        report.violations = []
    return report


def _outcome(report):
    return report.checked, report.violations, report.skipped


def _compare(lts, arrows, bounds_list, verdicts, tally):
    """Every arrow under each bound in turn, on the one system object: the
    outcome of the tables against the oracle's, tallied by kind."""
    for bounds in bounds_list:
        for stronger, weaker, conditions in arrows:
            got = hierarchy_check(lts, stronger, weaker, bounds, conditions)
            want = _oracle_check(lts, stronger, weaker, bounds, conditions, verdicts)
            if _outcome(got) == _outcome(want):
                tally["skipped" if got.skipped else
                      "violation" if got.violations else "holds"] += 1
            elif (want.skipped.startswith("missing annotations: ") and not got.skipped
                  and not got.violations):
                tally["oracle skips, tables check"] += 1
            else:
                tally["other"] += 1
                tally.setdefault("first other", (bounds, str(stronger), str(weaker),
                                                 _outcome(got), _outcome(want)))


@pytest.fixture(scope="module")
def corpus():
    return [b.lts for b in build_all() if not b.lts.truncated]


def test_tables_match_the_oracle_on_every_corpus_arrow(corpus):
    """Every Fig. 2 arrow at two bounds, and every arrow reversed at the
    smaller one, so that violations are compared too."""
    reversed_arrows = [(weaker, stronger, ()) for stronger, weaker, _ in figure2_arrows()]
    tally = Counter()
    for lts in corpus:
        verdicts = {}
        _compare(lts, figure2_arrows(), (Bounds(2, 4), Bounds(5, 6)), verdicts, tally)
        _compare(lts, reversed_arrows, (Bounds(2, 4),), verdicts, tally)
    assert set(tally) == {"holds", "violation", "skipped"}, tally
    assert tally["holds"] > 1500 and tally["violation"] > 100 and tally["skipped"] > 150, tally


def _random_system(rng) -> AugmentedLTS:
    n = rng.randint(1, 3)
    transitions = [Transition(
        f"t{k}", f"s{rng.randrange(n)}", f"s{rng.randrange(n)}",
        parse_label(rng.choice(["a", "b", "c", "tau"])),
        None if rng.random() < 0.10 else frozenset(rng.sample(["i1", "i2"], rng.randint(1, 2))),
        None if rng.random() < 0.15 else frozenset(rng.sample(["L", "R"], rng.randint(1, 2))),
        rng.random() < 0.5) for k in range(rng.randint(1, 5))]
    return AugmentedLTS([State(f"s{k}", None) for k in range(n)], transitions, ["s0"])


def test_tables_match_the_oracle_on_random_partly_annotated_systems():
    """3,000 random systems, about 15% of their transitions without comp
    and 10% without instr, each checked under two bounds on the same object
    over every Fig. 2 arrow, with both sides ,reactive on about half of the
    systems: the only difference is the class the module docstring names."""
    rng = random.Random(2110)
    tally = Counter()
    for _ in range(3000):
        reactive = rng.random() < 0.5
        arrows = [(dataclasses.replace(stronger, reactive=reactive),
                   dataclasses.replace(weaker, reactive=reactive), conditions)
                  for stronger, weaker, conditions in figure2_arrows()]
        _compare(_random_system(rng), arrows, (Bounds(1, 2), Bounds(2, 3)), {}, tally)
    assert "other" not in tally, tally
    assert tally["oracle skips, tables check"] > 0, tally
    assert tally["holds"] > 50000 and tally["skipped"] > 50000, tally


def _rotations_system(t2_comp) -> AugmentedLTS:
    """A self-loop and a two-step cycle on s0 and s1, plus a self-loop on s1;
    t2, the cycle's way back, is blocking and carries `t2_comp`."""
    def t(tid, source, target, label, comp, blocking=False):
        return Transition(tid, source, target, parse_label(label), None, comp, blocking)
    r = frozenset({"R"})
    return AugmentedLTS([State("s0", None), State("s1", None)],
                        [t("t0", "s0", "s0", "a", r), t("t1", "s0", "s1", "b", r),
                         t("t2", "s1", "s0", "c", t2_comp, True), t("t3", "s1", "s1", "a", r)],
                        ["s0"])


def test_first_rotation_judges_a_partly_annotated_cycle():
    """Under J:A,reactive the cycle t1 t2 is fair from s0: task a is never
    enabled during t1, so `enabled_during` never reads t2's components.  The
    rotation t2 t1 from s1 reads them first and raises.  The tables judge the
    cycle once, from the rotation met first, so the check runs as it does
    when t2 carries any component set; the search before the tables skipped it."""
    p, j = parse_assumption("P"), parse_assumption("J:A,reactive")
    lts = _rotations_system(None)
    assert classify_lasso(lts, Lasso("s0", (), ("t1", "t2")), j)
    with pytest.raises(AnnotationError, match="transition t2 carries no component set"):
        classify_lasso(lts, Lasso("s1", (), ("t2", "t1")), j)
    oracle = _oracle_check(lts, p, j, Bounds(1, 2), (), {})
    assert oracle.skipped == "missing annotations: transition t2 carries no component set"
    for comp in (None, frozenset({"R"}), frozenset({"L"}), frozenset({"L", "R"})):
        report = hierarchy_check(_rotations_system(comp), p, j, Bounds(1, 2))
        assert _outcome(report) == (6, [], ""), comp
        if comp is not None:
            oracle = _oracle_check(_rotations_system(comp), p, j, Bounds(1, 2), (), {})
            assert _outcome(oracle) == (6, [], ""), comp


def test_each_table_key_is_computed_once(monkeypatch):
    """Over every Fig. 2 arrow on a fresh corpus at Bounds(5, 6), `just_stem`
    runs at most once per system, stem, cycle components and flag, and the
    cycle classifier at most once per system, transition set and assumption.
    A call that raises stores nothing, so only calls that return count."""
    calls = Counter()

    def counted(name, fn, key):
        def wrapper(*args):
            result = fn(*args)
            calls[name, key(*args)] += 1
            return result
        return wrapper

    monkeypatch.setattr(verify, "just_stem", counted(
        "just_stem", just_stem, lambda lts, start, steps, comps, reactive:
        (id(lts), start, steps, comps, reactive)))
    monkeypatch.setattr(verify, "classify_lasso", counted(
        "classify", classify_lasso, lambda lts, lasso, a: (id(lts), frozenset(lasso.cycle), a)))
    for built in build_all():
        if not built.lts.truncated:
            for stronger, weaker, conditions in figure2_arrows():
                hierarchy_check(built.lts, stronger, weaker, Bounds(5, 6), conditions)
    for name in ("just_stem", "classify"):
        counts = [n for (kind, _), n in calls.items() if kind == name]
        assert sum(counts) <= len(counts) and len(counts) > 1000, (name, sum(counts))
