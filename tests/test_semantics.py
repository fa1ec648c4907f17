"""SOS derivations and state-space exploration."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from fairlab import semantics
from fairlab.labels import parse_label
from fairlab.lts import (AugmentedLTS, State, Transition, from_exploration,
                         validate_side_conditions)
from fairlab.parser import parse_ccs, parse_expression
from fairlab.semantics import SemanticsError, explore, step
from fairlab.syntax import Choice, Nil, Prefix, ProcessSpec, print_expr, well_named


def _labels(steps):
    return sorted(str(s.label) for s in steps)


def test_step_prefix_and_nil():
    assert step(parse_expression("0")) == []
    s = step(parse_expression("a.0"))
    assert len(s) == 1 and str(s[0].label) == "a" and print_expr(s[0].target) == "0"


def test_step_ex_5_1_shape():
    spec = parse_ccs("a | X where X = a.X")
    first = step(spec.root)
    # from (a | X): the left exit and the right loop
    assert len(first) == 2
    by_instr = {tuple(sorted(s.instr)): s for s in first}
    assert ("a@1",) in by_instr and ("a@2",) in by_instr
    loop = by_instr[("a@2",)]
    assert print_expr(loop.target) == print_expr(spec.root)
    exit_ = by_instr[("a@1",)]
    after = step(exit_.target)
    assert len(after) == 1 and tuple(sorted(after[0].instr)) == ("a@2",)


def test_step_running_example_five_results():
    spec = parse_ccs("X | Y where X = a.X + b.X, Y = a.Y + 'b.Y")
    results = step(spec.root)
    assert len(results) == 5
    taus = [s for s in results if s.label.is_tau]
    assert len(taus) == 1
    names = {spec.name_table[i][1] for i in taus[0].instr}
    assert sorted(str(l) for l in names) == ["'b", "b"]
    comps = {spec.cmp_of(i) for i in taus[0].instr}
    assert comps == {"L", "R"}


def test_step_restriction_blocks_unmatched():
    spec = parse_ccs("(a.0 | 'a.0)\\a")
    results = step(spec.root)
    assert _labels(results) == ["tau"]


def test_step_relabelling_changes_label_not_name():
    spec = parse_ccs("(a.0)[a -> b]")
    (s,) = step(spec.root)
    assert str(s.label) == "b"
    assert spec.name_table[next(iter(s.instr))][1].base == "a"


def test_step_open_expression_rejected():
    with pytest.raises(SemanticsError):
        step(parse_expression("X"))


# specs outside the fragment whose derivations never reach a prefix
_UNGUARDED = ("X where X = X + a", "X where X = (X)[a -> b] + c",
             "X where X = Y + a, Y = X + b", "X | c where X = X\\a + b")


@pytest.mark.parametrize("src", _UNGUARDED)
def test_unguarded_recursion_is_a_semantics_error(src):
    with pytest.raises(SemanticsError, match="unguarded recursion"):
        explore(parse_ccs(src))
    with pytest.raises(SemanticsError, match="unguarded recursion"):
        step(parse_ccs(src).root)


def test_terms_nested_past_the_recursion_limit_are_a_semantics_error():
    # parse_ccs refuses such a term; built directly, it reaches explore and step
    term = Nil()
    for k in range(2000):
        term = Choice(term, Prefix(parse_label("a"), f"a@{k}", Nil()))
    for run in (lambda: explore(ProcessSpec(term, {}, {})), lambda: step(term)):
        with pytest.raises(SemanticsError, match="nesting too deep"):
            run()


def test_explore_ex_5_1():
    rep = explore(parse_ccs("a | X where X = a.X"))
    assert len(rep.states) == 2
    assert len(rep.transitions) == 3
    assert not rep.truncated


def test_explore_ex_10_1_configurations():
    rep = explore(parse_ccs("X | Y where X = a.b.c.X, Y = c.a.b.Y"))
    assert len(rep.states) == 9
    assert len(rep.transitions) == 18
    assert not rep.truncated


def test_explore_ex_5_2_truncates_at_cap():
    # hand unfolding: layer k holds (a | X[f]^k) and (0 | X[f]^k); ten states
    # are reached within five layers, so the cap is hit and truncation is set
    spec = parse_ccs("a | X where X = b#0.(X[b#i -> b#(i+1)])")
    rep = explore(spec, state_cap=10)
    assert len(rep.states) == 10
    assert rep.truncated


def test_explore_depth_cap_truncates():
    rep = explore(parse_ccs("X where X = a.X + b.0"), depth_cap=1)
    assert rep.truncated


def _condition_1(lts):
    return next(r for r in validate_side_conditions(lts) if r.name.startswith("(1)"))


def test_unique_synchronisation_on_corpus_like_specs():
    for src in [
        "a | X where X = a.X",
        "(X|Y)\\b where X = a.X + b.0, Y = c.Y + 'b.0",
        "X | Y where X = a.X + b.X, Y = a.Y + 'b.Y",
        "X | Y where X = a.b.c.X, Y = c.a.b.Y",
    ]:
        report = _condition_1(from_exploration(explore(parse_ccs(src))))
        assert report.checked and report.holds, src


def test_unique_synchronisation_violation_detected():
    a = parse_label("a")
    lts = AugmentedLTS(
        [State("s0", None), State("s1", None)],
        [Transition("t0", "s0", "s1", a, frozenset({"a"}), frozenset({""}), True),
         Transition("t1", "s0", "s0", a, frozenset({"a"}), frozenset({""}), True)],
        ["s0"])
    report = _condition_1(lts)
    assert report.checked and not report.holds
    assert report.detail == "state s0: t0 and t1 share instr"


def test_ex_5_4_transition_inventory():
    # enumeration oracle: one a-loop, one c-loop, one synchronisation
    spec = parse_ccs("(X|Y)\\b where X = a.X + b.0, Y = c.Y + 'b.0")
    rep = explore(spec)
    assert len(rep.states) == 2
    kinds = sorted((str(t.label), tuple(sorted(t.comp))) for t in rep.transitions)
    assert kinds == [("a", ("L",)), ("c", ("R",)), ("tau", ("L", "R"))]


def test_step_preserves_well_namedness_random_walks():
    specs = [
        parse_ccs("a | X where X = a.X"),
        parse_ccs("X | Y where X = a.X + b.X, Y = a.Y + 'b.Y"),
        parse_ccs("(X|Y)\\b where X = a.X + b.0, Y = c.Y + 'b.0"),
        parse_ccs("X | c.X where X = a.b.c.X"),
        parse_ccs("X where X = a.X + c.X + b.(X[a -> c, c -> a])"),
    ]
    rng = random.Random(0xC0FFEE)
    walks = 0
    for spec in specs:
        for _ in range(40):
            state = spec.root
            for _ in range(rng.randint(1, 50)):
                succ = step(state)
                if not succ:
                    break
                state = rng.choice(succ).target
                assert well_named(state)
            walks += 1
    assert walks == 200


def test_explore_prints_each_state_once(monkeypatch):
    # grid(5): 32 states and 160 transitions, and no two steps of a state
    # tie on (label, instruction set), so only the new states are printed
    calls = []

    def counting_print(e):
        calls.append(e)
        return print_expr(e)

    monkeypatch.setattr(semantics, "print_expr", counting_print)
    n = 5
    source = (" | ".join(f"X{i}" for i in range(n)) + " where "
              + ", ".join(f"X{i} = a{i}.X{i} + b{i}.0" for i in range(n)))
    report = explore(parse_ccs(source))
    groups = Counter((t.source, str(t.label), t.instr) for t in report.transitions)
    tied = sum(size for size in groups.values() if size > 1)
    assert (len(report.states), len(report.transitions)) == (32, 160)
    assert len(calls) <= len(report.states) + tied
