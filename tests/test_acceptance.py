"""Acceptance suite: one check per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they pass.
"""

from __future__ import annotations

import random
import sys

import pytest

from test_scheduler_oracle import _oracle_lasso

from fairlab.corpus import build_all, run_corpus
from fairlab.lts import named_goal, validate_side_conditions
from fairlab.ltl import (convert_lasso, eval_ltl, ltl_convert,
                         strong_fairness_formula, weak_fairness_formula)
from fairlab.paths import (Assumption, Lasso, PathPrefix, classify_finite,
                           classify_lasso, parse_assumption)
from fairlab.semantics import step
from fairlab.syntax import well_named
from fairlab.tasks import extract_tasks
from fairlab.verify import (Bounds, agef, fair_extend,
                            figure2_arrows, hierarchy_check, liveness,
                            rooted_walks, simple_cycles_at)


@pytest.fixture(scope="module")
def corpus():
    return {b.entry.id: b for b in build_all()}


def _report(criterion: str, okay: bool, detail: str = "") -> None:
    mark = "pass" if okay else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"[{mark}] acceptance {criterion}{extra}", file=sys.stdout)
    assert okay, f"{criterion}: {detail}"


def test_criterion_1_verdict_matrix():
    results, okay = run_corpus()
    verdicts = [r for r in results if r.kind == "verdict"]
    bad = [r.line() for r in results if not r.ok]
    _report("1 verdict matrix",
            okay and len(verdicts) >= 90,
            f"{len(verdicts)} verdict expectations, "
            f"{len(results)} total checks" + ("; " + "; ".join(bad) if bad else ""))


def test_criterion_2_path_classification_goldens():
    results, _ = run_corpus()
    classified = [r for r in results if r.kind == "classify"]
    bad = [r.line() for r in classified if not r.ok]
    needed = ["ex-5.5", "ex-5.6", "ex-6.2-weak", "ex-6.2-strong", "ex-13.1"]
    covered = all(any(r.entry.startswith(n) for r in classified) for n in needed)
    _report("2 path-classification goldens",
            not bad and covered,
            f"{len(classified)} classification goldens")


def test_criterion_3_hierarchy_arrows(corpus):
    checked_arrows = 0
    skipped = 0
    violations = []
    for built in corpus.values():
        lts = built.lts
        if lts.truncated:
            continue
        for stronger, weaker, conditions in figure2_arrows():
            report = hierarchy_check(lts, stronger, weaker, Bounds(5, 6), conditions)
            if report.skipped:
                skipped += 1
                continue
            checked_arrows += 1
            if report.violations:
                violations.append((built.entry.id, report.stronger, report.weaker))
    _report("3a hierarchy arrows hold", not violations and checked_arrows > 300,
            f"{checked_arrows} arrow runs, {skipped} skipped for side conditions, "
            f"violations={violations}")


# Absent arrows refuted by named separating lassos: for each, the named lasso
# must be stronger-fair and weaker-unfair, and where the lasso fits the
# enumeration bounds the checker must find a violation by itself.
ABSENT_ARROWS = [
    ("ex-4.2-mutex-mem", "m-cycle", "W:custom=LM", "S:custom=LM", Bounds(2, 3)),
    ("ex-5.5-handshake-loops", "a-abar", "S:I", "S:A", Bounds(2, 2)),
    ("ex-5.5-handshake-loops", "a-abar", "S:I", "S:Z", Bounds(2, 2)),
    ("ex-5.5-handshake-loops", "a-abar", "S:C", "S:G", Bounds(2, 2)),
    ("ex-5.6-idle-loop", "abc", "S:A", "S:T", Bounds(2, 4)),
    ("ex-5.6-idle-loop", "abc", "S:I", "S:T", Bounds(2, 4)),
    ("ex-5.6-idle-loop", "abc", "S:Z", "S:T", Bounds(2, 4)),
    ("ex-5.6-idle-loop", "abc", "S:C", "S:T", Bounds(2, 4)),
    ("ex-5.6-idle-loop", "abc", "S:G", "S:T", Bounds(2, 4)),
    ("ex-12.1-phone", "a-loop", "just", "W:A", Bounds(1, 1)),
    ("ex-12.1-phone", "a-loop", "J:A", "W:A", Bounds(1, 1)),
    ("ex-13.1-relabel-ring", "a-tau", "S:Z", "J:A", None),  # outside bounds
]


def test_criterion_3b_absent_arrows(corpus):
    problems = []
    for entry_id, lasso_name, stronger_text, weaker_text, bounds in ABSENT_ARROWS:
        built = corpus[entry_id]
        lasso = built.entry.lassos[lasso_name](built.lts)
        stronger = parse_assumption(stronger_text, built.custom_tasks)
        weaker = parse_assumption(weaker_text, built.custom_tasks)
        if not classify_lasso(built.lts, lasso, stronger):
            problems.append((entry_id, lasso_name, "not stronger-fair"))
        if classify_lasso(built.lts, lasso, weaker):
            problems.append((entry_id, lasso_name, "weaker-fair"))
        if bounds is not None:
            report = hierarchy_check(built.lts, stronger, weaker, bounds)
            if not report.violations:
                problems.append((entry_id, lasso_name, "checker found no violation"))
    _report("3b absent arrows separated", not problems, str(problems))


def test_criterion_4_st_equals_agef(corpus):
    checked = 0
    bad = []
    for built in corpus.values():
        lts = built.lts
        if lts.truncated or not lts.goals:
            continue
        for goal_name in sorted(lts.goals):
            goal = named_goal(lts, goal_name)
            reachability = agef(lts, goal)
            via_cycle_search = liveness(lts, goal, Assumption("S", "T")).holds
            via_theorem = liveness(lts, goal, Assumption("ST")).holds
            want = "yes" if reachability else "no"
            checked += 1
            if not (via_cycle_search == via_theorem == want):
                bad.append((built.entry.id, goal_name, via_cycle_search, want))
    _report("4 ST equals AGEF", checked >= 15 and not bad,
            f"{checked} (system, goal) pairs" + (f"; bad={bad}" if bad else ""))


def test_criterion_5_ltl_crosscheck(corpus):
    checked = 0
    bad = []
    for built in corpus.values():
        lts = built.lts
        if lts.truncated:
            continue
        conv = ltl_convert(lts)
        walks = rooted_walks(lts, 5)
        for entry in sorted(walks):
            start, steps = walks[entry][0]
            for cycle in simple_cycles_at(lts, entry, 6):
                lasso = Lasso(start, steps, cycle)
                classo = convert_lasso(conv, lasso)
                for notion in ("A", "T", "I", "Z", "C", "G"):
                    try:
                        ts = extract_tasks(lts, notion)
                    except Exception:
                        continue  # missing annotations on handwritten files
                    direct_w = classify_lasso(lts, lasso, Assumption("W", notion))
                    direct_s = classify_lasso(lts, lasso, Assumption("S", notion))
                    ltl_w = eval_ltl(conv, classo, weak_fairness_formula(ts))
                    ltl_s = eval_ltl(conv, classo, strong_fairness_formula(ts))
                    checked += 2
                    if direct_w != ltl_w or direct_s != ltl_s:
                        bad.append((built.entry.id, notion, lasso))
    _report("5 LTL agreement", checked > 2000 and not bad,
            f"{checked} comparisons" + (f"; bad={bad[:3]}" if bad else ""))


def test_criterion_6_feasibility(corpus):
    rng = random.Random(0xFA1C)
    failures = []
    attempted = 0
    for built in corpus.values():
        lts = built.lts
        if lts.truncated:
            continue
        ts = extract_tasks(lts, "A")
        if not ts.tasks:
            continue
        for _ in range(50):
            at = lts.initial[0]
            steps = []
            for _ in range(rng.randint(0, 8)):
                outs = lts.outgoing(at)
                if not outs:
                    break
                t = rng.choice(sorted(outs, key=lambda t: t.id))
                steps.append(t.id)
                at = t.target
            prefix = PathPrefix(lts.initial[0], tuple(steps))
            attempted += 1
            lasso = _oracle_lasso(lts, prefix, ts)
            if lasso is None:
                # the schedule ran into a deadlock: its finite completion
                # must itself be fair
                done = fair_extend(lts, prefix, ts, 10_000)
                if not classify_finite(lts, done, Assumption("S", "custom", ts)):
                    failures.append((built.entry.id, prefix))
            elif not classify_lasso(lts, lasso, Assumption("S", "custom", ts)):
                failures.append((built.entry.id, prefix))
    _report("6 feasibility (fair scheduler)", attempted >= 800 and not failures,
            f"{attempted} random prefixes" + (f"; failures={failures[:3]}" if failures else ""))


def test_criterion_7_probabilistic(corpus):
    results, _ = run_corpus()
    estimates = [r for r in results if r.kind == "estimate"]
    bad = [r.line() for r in estimates if not r.ok]
    names = {r.entry for r in estimates}
    _report("7 probabilistic estimates",
            not bad and "ex-10.1-offset-cycles" in names and "prob-notagef" in names,
            f"{len(estimates)} estimates")


def test_criterion_8_structural_validators(corpus):
    bad = []
    systems = 0
    for built in corpus.values():
        lts = built.lts
        if lts.origin != "ccs" or lts.truncated:
            continue
        systems += 1
        for report in validate_side_conditions(lts):
            if not report.checked or not report.holds:
                bad.append((built.entry.id, report.name, report.detail))
    # well-namedness preservation along 1000 random walks over ccs specs
    rng = random.Random(0xBEEF)
    specs = [built.spec for built in corpus.values() if built.spec is not None]
    walks = 0
    violations = 0
    while walks < 1000:
        spec = specs[walks % len(specs)]
        state = spec.root
        for _ in range(rng.randint(1, 50)):
            succ = step(state)
            if not succ:
                break
            state = rng.choice(succ).target
            if not well_named(state):
                violations += 1
                break
        walks += 1
    _report("8 structural validators", systems >= 12 and not bad and violations == 0,
            f"{systems} systems validated, {walks} walks" +
            (f"; bad={bad}" if bad else ""))


def test_criterion_9_determinism():
    first, ok1 = run_corpus()
    second, ok2 = run_corpus()
    same = [r.line() for r in first] == [r.line() for r in second]
    _report("9 determinism", ok1 and ok2 and same,
            f"{len(first)} lines, byte-identical={same}")
