"""LTS model: serialization round-trips, goals, concurrency, validators."""

from __future__ import annotations

from importlib import resources

import pytest

from fairlab.corpus import build, corpus_entries
from fairlab.lts import (AnnotationError, GoalSpec, SchemaError, concurrent,
                         from_exploration, goal_states, load_lts,
                         save_lts, validate_side_conditions)
from fairlab import lts as lts_module, parser, paths, verify
from fairlab.parser import parse_ccs
from fairlab.paths import parse_assumption
from fairlab.semantics import explore
from fairlab.syntax import Fix, print_expr, walk
from fairlab.tasks import NOTIONS


MUTEX_JSON = """
{
  "states": [{"id": "init"}, {"id": "l2"}, {"id": "l3"},
             {"id": "m2"}, {"id": "m3"}],
  "transitions": [
    {"id": "l1", "source": "init", "target": "l2", "label": "a", "comp": ["L", "M"], "blocking": true},
    {"id": "l2t", "source": "l2", "target": "l3", "label": "b", "comp": ["L"], "blocking": true},
    {"id": "l3t", "source": "l3", "target": "init", "label": "c", "comp": ["L", "M"], "blocking": true},
    {"id": "m1", "source": "init", "target": "m2", "label": "d", "comp": ["R", "M"], "blocking": true},
    {"id": "m2t", "source": "m2", "target": "m3", "label": "e", "comp": ["R"], "blocking": true},
    {"id": "m3t", "source": "m3", "target": "init", "label": "f", "comp": ["R", "M"], "blocking": true}
  ],
  "initial": ["init"],
  "goals": {"critical": {"disjuncts": [{"kind": "explicit", "states": ["l2"]}]}},
  "tasks": {"LM": {"notion": "custom", "tasks": [
      {"name": "L", "members": ["l1", "l2t", "l3t"]},
      {"name": "M", "members": ["m1", "m2t", "m3t"]}]}},
  "origin": "handwritten",
  "truncated": false
}
"""


def test_load_mutex_tasks():
    lts = load_lts(MUTEX_JSON)
    ts = lts.tasks["LM"]
    assert ts.get("L").members == {"l1", "l2t", "l3t"}
    assert ts.get("M").members == {"m1", "m2t", "m3t"}


def test_load_minimal_system():
    lts = load_lts('{"states": [{"id": "s"}], "transitions": [], "initial": ["s"]}')
    assert lts.state_ids() == ["s"]


def test_load_rejects_dangling_task_member():
    bad = MUTEX_JSON.replace('"members": ["l1", "l2t", "l3t"]',
                             '"members": ["l1", "nope"]')
    with pytest.raises(SchemaError):
        load_lts(bad)


def test_load_rejects_dangling_endpoint():
    with pytest.raises(SchemaError):
        load_lts('{"states": [{"id": "s"}], "transitions": '
                 '[{"id": "t", "source": "s", "target": "gone", "label": "a"}], '
                 '"initial": ["s"]}')


def test_roundtrip_ex_5_1():
    lts = from_exploration(explore(parse_ccs("a | X where X = a.X")))
    again = load_lts(save_lts(lts))
    assert save_lts(lts) == save_lts(again)


def test_roundtrip_mutex_preserves_tasks():
    lts = load_lts(MUTEX_JSON)
    again = load_lts(save_lts(lts))
    assert save_lts(lts) == save_lts(again)
    assert again.tasks["LM"].get("L").members == {"l1", "l2t", "l3t"}


def test_roundtrip_truncated_flag():
    rep = explore(parse_ccs("a | X where X = b#0.(X[b#i -> b#(i+1)])"), state_cap=10)
    lts = from_exploration(rep)
    assert load_lts(save_lts(lts)).truncated


def test_goal_component_at_ex_5_1():
    lts = from_exploration(explore(parse_ccs("a | X where X = a.X")))
    hit = goal_states(lts, GoalSpec.component_at("L", "0"))
    assert len(hit) == 1
    (sid,) = hit
    assert lts.state(sid).expr.startswith("0 |")
    # a path is a word over L and R: another letter, a lowercase l too, is refused
    for path in ("Q", "x", "z", "l"):
        with pytest.raises(SchemaError, match=f"component path '{path}'"):
            GoalSpec.component_at(path, "0")


def test_goal_state_is_initial():
    spec = parse_ccs("a | X where X = a.X")
    lts = from_exploration(explore(spec))
    hit = goal_states(lts, GoalSpec.state_is(print_expr(spec.root)))
    assert hit == frozenset(lts.initial)


def test_goal_monotone_in_disjuncts():
    lts = from_exploration(explore(parse_ccs("a | X where X = a.X")))
    one = GoalSpec.component_at("L", "0")
    both = GoalSpec(one.disjuncts + GoalSpec.state_is(lts.state(lts.initial[0]).expr).disjuncts)
    assert goal_states(lts, one) <= goal_states(lts, both)


def test_concurrent_reflexive_complement_and_symmetry():
    lts = from_exploration(explore(parse_ccs("X | c.0 where X = b.X")))
    for t in lts.transitions:
        assert not concurrent(lts, t.id, t.id)
        for u in lts.transitions:
            assert concurrent(lts, t.id, u.id) == concurrent(lts, u.id, t.id)


def test_concurrent_ex_12_2():
    lts = from_exploration(explore(parse_ccs("X | c.0 where X = b.X")))
    b_loop = next(t.id for t in lts.transitions
                  if str(t.label) == "b" and t.source == lts.initial[0])
    c_step = next(t.id for t in lts.transitions if str(t.label) == "c")
    assert concurrent(lts, b_loop, c_step)


def test_concurrent_ex_5_1_exit_vs_loop():
    # component sets from the two-occurrence split: {L} against {R}
    lts = from_exploration(explore(parse_ccs("a | X where X = a.X")))
    exit_ = next(t.id for t in lts.transitions if t.comp == frozenset({"L"}))
    loop = next(t.id for t in lts.transitions if t.comp == frozenset({"R"}))
    assert concurrent(lts, exit_, loop)


def test_tau_synchronisation_components_incomparable():
    for src in ["(X|Y)\\b where X = a.X + b.0, Y = c.Y + 'b.0",
                "X | Y where X = a.X + b.X, Y = a.Y + 'b.Y"]:
        lts = from_exploration(explore(parse_ccs(src)))
        for t in lts.transitions:
            if t.label.is_tau and t.instr and len(t.instr) == 2:
                a_, b = sorted(t.comp)
                assert len(t.comp) == 2
                assert not a_.startswith(b) and not b.startswith(a_)


def test_side_conditions_pass_on_ccs_systems():
    for src in ["a | X where X = a.X",
                "X | Y where X = a.X + b.X, Y = a.Y + 'b.Y",
                "(X|Y)\\b where X = a.X + b.0, Y = c.Y + 'b.0",
                "X | Y where X = a.b.c.X, Y = c.a.b.Y"]:
        lts = from_exploration(explore(parse_ccs(src)))
        for report in validate_side_conditions(lts):
            assert report.checked, (src, report)
            assert report.holds, (src, report)


def test_side_condition_3_fails_on_bad_comp():
    doc = ('{"states": [{"id": "s"}], "transitions": ['
           '{"id": "t", "source": "s", "target": "s", "label": "a", '
           '"instr": ["i"], "comp": ["L", "R"]}], "initial": ["s"]}')
    lts = load_lts(doc)
    by_name = {r.name: r for r in validate_side_conditions(lts)}
    r3 = by_name["(3) comp images of cmp"]
    assert r3.checked and not r3.holds


def test_goal_component_at_needs_expressions():
    lts = load_lts(MUTEX_JSON)
    with pytest.raises(AnnotationError):
        goal_states(lts, GoalSpec.component_at("L", "0"))


def test_goal_state_is_needs_expressions():
    """A state_is goal on states without expressions is an error, as the
    README promises, not an empty goal that liveness under P answers `no`."""
    mutex_free = (resources.files("fairlab") / "corpus_data" / "ex-4.2-mutex-free.json")
    for lts in (load_lts(MUTEX_JSON), load_lts(mutex_free.read_text())):
        with pytest.raises(AnnotationError, match="carries no expression"):
            goal_states(lts, GoalSpec.state_is("0"))
        with pytest.raises(AnnotationError):  # the error repeats: nothing was kept
            goal_states(lts, GoalSpec.state_is("0"))


def test_goal_explicit_unknown_state_is_an_error():
    lts = load_lts(MUTEX_JSON)
    assert goal_states(lts, GoalSpec.explicit(["l2", "init"])) == {"l2", "init"}
    with pytest.raises(SchemaError, match="unknown state id nosuch"):
        goal_states(lts, GoalSpec.explicit(["l2", "nosuch"]))
    ex_13_1 = load_lts((resources.files("fairlab") / "corpus_data" / "ex-13.1.json").read_text())
    with pytest.raises(SchemaError, match="nosuch"):
        goal_states(ex_13_1, GoalSpec.explicit(["nosuch"]))
    # every explicit goal of the corpus names states of its own system
    for entry in corpus_entries():
        lts = build(entry).lts
        for goal in lts.goals.values():
            goal_states(lts, goal)


def _ring(k):
    return "X | done where X = " + ".".join(f"a{i}" for i in range(k)) + ".X"


def _grid(n):
    return (" | ".join(f"X{i}" for i in range(n)) + " where "
            + ", ".join(f"X{i} = a{i}.X{i} + b{i}.0" for i in range(n)))


def test_goal_sets_survive_save_and_load():
    """A reloaded system parses every state text again, so its goal sets must
    be those of the freshly explored system.  The texts need not print back
    unchanged: parsing drops the `where` definitions a state cannot reach."""
    systems = [(build(e).lts, e.goals) for e in corpus_entries() if e.kind == "ccs"]
    for k in (10, 12, 14):
        systems.append((from_exploration(explore(parse_ccs(_ring(k)))),
                        {"ring": GoalSpec.component_at("R", "0")}))
    for n in (5, 6, 7):
        systems.append((from_exploration(explore(parse_ccs(_grid(n)))),
                        {"grid": GoalSpec.state_is(" | ".join(["0"] * n))}))
    reprinted = 0
    for fresh, goals in systems:
        copy = load_lts(save_lts(fresh))
        for goal in goals.values():
            on_fresh, on_copy = (goal(lts) if callable(goal) else goal for lts in (fresh, copy))
            assert goal_states(fresh, on_fresh) == goal_states(copy, on_copy)
        # state_is compares printed terms: they must agree on every state
        printed = [print_expr(fresh.state_expr(s.id)) for s in fresh.states]
        assert printed == [print_expr(copy.state_expr(s.id)) for s in copy.states]
        reprinted += sum(p != s.expr for p, s in zip(printed, fresh.states))
        # a state_is goal per state: each state is printed once per system
        for s in fresh.states:
            goal = GoalSpec.state_is(s.expr)
            matched = goal_states(fresh, goal)
            assert s.id in matched and matched == goal_states(copy, goal)
    assert reprinted >= 12  # the clerk's states, at least


@pytest.mark.parametrize("source, count", [(_grid(7), 7), (_ring(14), 1)])
def test_each_group_text_is_parsed_once_per_system(monkeypatch, source, count):
    """Building every state term of a system, fresh or reloaded, parses each
    distinct where-group text once, the states holding a group share its
    node, and no state text is parsed whole."""
    calls: list[str] = []
    group = parser._group
    monkeypatch.setattr(parser, "_group", lambda text: calls.append(text) or group(text))

    def whole(text):
        pytest.fail(f"{text!r} was parsed whole")

    monkeypatch.setattr(parser, "parse_expression", whole)
    fresh = from_exploration(explore(parse_ccs(source)))
    for lts in (fresh, load_lts(save_lts(fresh))):
        calls.clear()
        held = [n for s in lts.states for n, _ in walk(lts.state_expr(s.id))
                if isinstance(n, Fix)]
        assert len(calls) == count
        assert sorted(calls) == sorted({print_expr(n) for n in held})
        assert len({id(n) for n in held}) == count


@pytest.mark.parametrize("n", [5, 6, 7])
def test_side_conditions_step_each_component_term_once(monkeypatch, n):
    """Validation asks what each distinct component term can fire once: a
    fresh grid(n) has n where-group components and the finished component
    0, so n + 1 `step` calls, not one per state and component."""
    calls = []
    step = lts_module.step
    monkeypatch.setattr(lts_module, "step", lambda e: calls.append(e) or step(e))
    reports = validate_side_conditions(from_exploration(explore(parse_ccs(_grid(n)))))
    assert all(r.holds for r in reports)
    assert len(calls) == n + 1


def test_liveness_builds_one_region_table_per_goal(monkeypatch):
    """The 28 assumptions the benchmark asks of a fresh grid(5) build the
    goal-avoiding region and its SCC partition once, walk the whole system
    once for the reachability rows, and build no path prefix per state."""
    calls = {"_scc_partition": 0, "reachable_states": 0, "classify_finite": 0}
    for module, name in ((verify, "_scc_partition"), (verify, "reachable_states"),
                         (paths, "classify_finite")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, name=name, real=real:
                            calls.update({name: calls[name] + 1}) or real(*args))
    monkeypatch.setattr(verify, "classify_finite", paths.classify_finite, raising=False)
    lts = from_exploration(explore(parse_ccs(_grid(5))))
    goal = goal_states(lts, GoalSpec.state_is(" | ".join(["0"] * 5)))
    matrix = (["P"] + [f"{x}:{y}" for x in "JWS" for y in NOTIONS]
              + ["just", "SWI", "ST", "Fu", "Pr"]
              + [f"{a},reactive" for a in ("P", "W:A", "S:C", "just")])
    for text in matrix:
        verify.liveness(lts, goal, parse_assumption(text))
    assert len(matrix) == 28
    assert calls == {"_scc_partition": 1, "reachable_states": 2, "classify_finite": 0}


def test_refined_rows_enumerate_no_subset_of_the_ring(monkeypatch):
    """ring(14)'s goal-avoiding SCC is its 14-state a-cycle, where done is
    enabled throughout and never occurs: S:y, SWI and justness delete every
    state before enumerating, so they test no subset for strong
    connectedness, while W:A, which is not refined, tests all 2^14 - 1."""
    calls = []
    real = verify._is_strongly_connected
    monkeypatch.setattr(verify, "_is_strongly_connected",
                        lambda *args: calls.append(1) or real(*args))
    lts = from_exploration(explore(parse_ccs(_ring(14))))
    goal = goal_states(lts, GoalSpec.component_at("R", "0"))
    for text in [f"S:{y}" for y in NOTIONS] + ["SWI", "just", "W:A"]:
        calls.clear()
        assert verify.liveness(lts, goal, parse_assumption(text)).holds == "yes"
        assert len(calls) == (2 ** 14 - 1 if text == "W:A" else 0), text


def test_side_conditions_on_a_component_nested_600_deep():
    """The request table keys a component by its printed text: hashing a
    term nested 600 deep would exhaust the stack."""
    source = "X | Y where X = " + " + ".join(f"a{i}.X" for i in range(600)) + ", Y = b.0"
    reports = validate_side_conditions(from_exploration(explore(parse_ccs(source))))
    assert all(r.holds for r in reports)
