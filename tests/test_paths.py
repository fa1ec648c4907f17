"""Path classification, enabledness, requestedness, certificates."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from families import _built

from fairlab.corpus import build_all, t_by
from fairlab.labels import parse_label
from fairlab.lts import (AnnotationError, AugmentedLTS, SchemaError, State, Task, Transition,
                         from_exploration, load_lts, named_goal, requested)
from fairlab.parser import parse_ccs
from fairlab.paths import (Assumption, Lasso, PathError, PathPrefix, classify_finite,
                           classify_lasso, enabled, enabled_during,
                           parse_assumption, path_from_json,
                           prefix_certificate)
from fairlab.semantics import explore
from fairlab.tasks import extract_tasks
from fairlab.verify import Bounds, hierarchy_check, liveness, rooted_walks, simple_cycles_at

DATA = Path(__file__).resolve().parent.parent / "src" / "fairlab" / "corpus_data"


def test_lasso_json_roundtrip():
    lasso = Lasso("s0", ("t1",), ("t2", "t3"))
    assert path_from_json(json.dumps(lasso.to_json())) == lasso
    prefix = PathPrefix("s0", ("t1", "t2"))
    assert path_from_json(json.dumps(prefix.to_json())) == prefix


def test_assumption_parsing():
    assert parse_assumption("P").kind == "P"
    assert parse_assumption("just").kind == "Just"
    a = parse_assumption("S:C,reactive")
    assert a.kind == "S" and a.notion == "C" and a.reactive
    with pytest.raises(ValueError):
        parse_assumption("banana")
    with pytest.raises(ValueError):
        Assumption("W", "custom")  # custom without tasks


def test_enabled_mutex_and_empty_task():
    built = _built("ex-4.2-mutex-mem")["ex-4.2-mutex-mem"]
    lts = built.lts
    task_l = lts.tasks["LM"].get("L")
    assert enabled(lts, task_l, "init")
    assert not enabled(lts, task_l, "cm")
    assert not enabled(lts, Task("none", frozenset()), "init")


def test_enabled_reactive_blocking_receive():
    lts = _built("ex-16-reactive")["ex-16-reactive"].lts
    a_task = extract_tasks(lts, "A").get("A:a")
    init = lts.initial[0]
    assert enabled(lts, a_task, init)
    assert not any(t.id in a_task.members for t in lts.outgoing(init, reactive=True))


def test_enabled_during_independent_and_self():
    lts = _built("ex-12.2-breakfast")["ex-12.2-breakfast"].lts
    b_loop = t_by(lts, source=lts.initial[0], label="b")
    c_task = extract_tasks(lts, "A").get("A:c")
    assert enabled_during(lts, c_task, b_loop)
    # interference is reflexive: a singleton task is never enabled during itself
    c_step = t_by(lts, label="c")
    assert not enabled_during(lts, Task("c", frozenset({c_step})), c_step)


def test_enabled_during_shared_component_blocks():
    lts = _built("ex-13.2-one-shot")["ex-13.2-one-shot"].lts
    # during a synchronisation involving the X relay, a task whose only
    # members also need X is not enabled
    tau_ab = next(t.id for t in lts.transitions
                  if t.comp == frozenset({"LLR", "R"}) and t.source == lts.initial[0])
    # the a-bar-instruction task needs component LLR, shared with the running sync
    abar = next(t for t in extract_tasks(lts, "I").tasks if t.name.startswith("I:a@"))
    assert not enabled_during(lts, abar, tau_ab)


def test_classify_mutex_weak_vs_strong():
    built = _built("ex-4.2-mutex-mem")["ex-4.2-mutex-mem"]
    lts = built.lts
    m_cycle = Lasso("init", (), ("m1", "m2", "m3"))
    ts = lts.tasks["LM"]
    assert classify_lasso(lts, m_cycle, Assumption("W", "custom", ts))
    assert not classify_lasso(lts, m_cycle, Assumption("S", "custom", ts))


def test_classify_rotation_and_pumping_invariance():
    built = _built("ex-4.2-mutex-mem")["ex-4.2-mutex-mem"]
    lts = built.lts
    ts = lts.tasks["LM"]
    base = Lasso("init", (), ("m1", "m2", "m3"))
    rotated = Lasso("cm", (), ("m2", "m3", "m1"))
    pumped = Lasso("init", ("m1", "m2", "m3"), ("m1", "m2", "m3"))
    for assumption in [Assumption("W", "custom", ts), Assumption("S", "custom", ts),
                       Assumption("P"), Assumption("Just"),
                       Assumption("W", "A"), Assumption("S", "A"), Assumption("J", "A")]:
        want = classify_lasso(lts, base, assumption)
        assert classify_lasso(lts, rotated, assumption) == want, assumption
        assert classify_lasso(lts, pumped, assumption) == want, assumption


def test_lasso_validation_errors_and_their_order():
    # s0 -t0-> s1 -t1-> s0, and a self-loop t2 on s1
    def t(tid, source, target):
        return Transition(tid, source, target, parse_label("a"), None, None, False)
    lts = AugmentedLTS([State("s0", None), State("s1", None)],
                       [t("t0", "s0", "s1"), t("t1", "s1", "s0"), t("t2", "s1", "s1")], ["s0"])
    Lasso("s0", ("t0",), ("t2",)).validate(lts)
    Lasso("s0", (), ("t0", "t2", "t1")).validate(lts)
    cases = [
        # each error alone, then with the ones after it in the walk
        (Lasso("s9", ("t9",), ("t1",)), SchemaError, "unknown state id 's9'"),
        (Lasso("s0", ("t0", "t9"), ("t1",)), SchemaError, "unknown transition id 't9'"),
        (Lasso("s0", ("t0",), ("t2", "t9")), SchemaError, "unknown transition id 't9'"),
        (Lasso("s0", ("t1", "t9"), ("t0",)), PathError,
         "transition t1 does not continue the path at s0"),
        (Lasso("s0", ("t0",), ("t2", "t0", "t9")), PathError,
         "transition t0 does not continue the path at s1"),
        (Lasso("s0", ("t0",), ("t1",)), PathError, "cycle does not close at the stem's end state"),
        (Lasso("s0", (), ("t0", "t2")), PathError, "cycle does not close at the stem's end state"),
    ]
    for lasso, error, text in cases:
        with pytest.raises(error, match=f"^{re.escape(text)}$"):
            lasso.validate(lts)


def test_liveness_level_assumptions_rejected_for_paths():
    lts = _built("ex-12.2-breakfast")["ex-12.2-breakfast"].lts
    lasso = Lasso(lts.initial[0], (), (t_by(lts, source=lts.initial[0], label="b"),))
    for kind in ("Fu", "ST", "Pr"):
        with pytest.raises(ValueError):
            classify_lasso(lts, lasso, Assumption(kind))
        with pytest.raises(ValueError):
            classify_finite(lts, PathPrefix(lts.initial[0]), Assumption(kind))


def test_classify_finite_two_step_program():
    lts = _built("ex-2.1-two-steps")["ex-2.1-two-steps"].lts
    s0 = lts.initial[0]
    first = lts.outgoing(s0)[0]
    second = lts.outgoing(first.target)[0]
    assert not classify_finite(lts, PathPrefix(s0, (first.id,)), Assumption("P"))
    assert classify_finite(lts, PathPrefix(s0, (first.id, second.id)), Assumption("P"))


def test_classify_finite_deadlock_under_every_assumption():
    lts = _built("ex-5.3-single-component")["ex-5.3-single-component"].lts
    dead = next(s.id for s in lts.states if not lts.outgoing(s.id))
    prefix = PathPrefix(dead)
    for a in [Assumption("P"), Assumption("Just"), Assumption("W", "A"),
              Assumption("S", "T"), Assumption("J", "C")]:
        assert classify_finite(lts, prefix, a)


def test_classify_finite_reactive_initial_stuck():
    lts = _built("ex-16-reactive")["ex-16-reactive"].lts
    empty = PathPrefix(lts.initial[0])
    assert classify_finite(lts, empty, Assumption("P", reactive=True))
    assert not classify_finite(lts, empty, Assumption("P"))


def test_strength_chain_on_enumerated_lassos():
    # S(y) implies W(y) implies J(y) on every cycle of small corpus systems
    for pattern in ("ex-5.1*", "ex-5.4*", "ex-12.1*", "ex-13.2*"):
        for built in build_all(pattern).__iter__():
            lts = built.lts
            lassos = _unit_lassos(lts)
            for y in ("A", "T", "I", "Z", "C", "G"):
                strong, weak, just_y = (Assumption("S", y), Assumption("W", y),
                                        Assumption("J", y))
                for lasso in lassos:
                    s, w, j = (classify_lasso(lts, lasso, a)
                               for a in (strong, weak, just_y))
                    assert (not s) or w, (built.entry.id, y, lasso)
                    assert (not w) or j, (built.entry.id, y, lasso)


def test_justness_bracket_on_enumerated_lassos():
    # a just path is J(y)-fair for y in {T,Z,G}; a J(y)-fair path is just for
    # y in {I,Z,C,G} (both under the side conditions, which hold here)
    for built in build_all("ex-13.2*"):
        lts = built.lts
        for lasso in _unit_lassos(lts):
            just = classify_lasso(lts, lasso, Assumption("Just"))
            for y in ("T", "Z", "G"):
                assert (not just) or classify_lasso(lts, lasso, Assumption("J", y)), \
                    (built.entry.id, y, lasso)
            for y in ("I", "Z", "C", "G"):
                jy = classify_lasso(lts, lasso, Assumption("J", y))
                assert (not jy) or just, (built.entry.id, y, lasso)


def test_swi_chain_on_ccs_systems():
    for pattern in ("ex-5.1*", "ex-7.1*"):
        for built in build_all(pattern):
            lts = built.lts
            for lasso in _unit_lassos(lts, cap=200):
                s_i = classify_lasso(lts, lasso, Assumption("S", "I"))
                swi = classify_lasso(lts, lasso, Assumption("SWI"))
                w_i = classify_lasso(lts, lasso, Assumption("W", "I"))
                s_c = classify_lasso(lts, lasso, Assumption("S", "C"))
                assert (not s_i) or swi, (built.entry.id, lasso)
                assert (not swi) or w_i, (built.entry.id, lasso)
                assert (not swi) or s_c, (built.entry.id, lasso)


def test_swi_needs_an_instruction_set_on_every_transition():
    # these files carry no instr: SWI reads the notion-I tasks and so raises
    # as S:I does, instead of calling prob-notagef's empty path at s0 complete
    for name, goal in (("prob-notagef.json", "win"), ("ex-4.2-mutex-free.json", "crit"),
                       ("ex-4.2-mutex-mem.json", "crit")):
        lts = load_lts((DATA / name).read_text())
        for reactive in (False, True):
            for a in (Assumption("SWI", reactive=reactive), Assumption("S", "I", reactive=reactive)):
                with pytest.raises(AnnotationError,
                                   match="^notion I needs instruction annotations$"):
                    liveness(lts, named_goal(lts, goal), a)
    lts = load_lts((DATA / "prob-notagef.json").read_text())
    with pytest.raises(AnnotationError, match="^notion I needs instruction annotations$"):
        classify_finite(lts, PathPrefix("s0"), Assumption("SWI"))


def test_swi_with_empty_instruction_sets_owes_nothing():
    # no transition names an instruction, so there is no I-task: every lasso
    # is SWI-fair, as it is S:I-fair, and the S:I -> SWI arrow is checked
    a = parse_label("a")
    lts = AugmentedLTS([State("s0", None), State("s1", None)],
                       [Transition("t0", "s0", "s1", a, frozenset(), frozenset({"L"}), True),
                        Transition("t1", "s1", "s0", a, frozenset(), frozenset({"L"}), True),
                        Transition("t2", "s0", "s0", a, frozenset(), frozenset({"R"}), True)],
                       ["s0"])
    for lasso in (Lasso("s0", (), ("t2",)), Lasso("s0", ("t0",), ("t1", "t2", "t0"))):
        assert classify_lasso(lts, lasso, Assumption("SWI"))
        assert classify_lasso(lts, lasso, Assumption("S", "I"))
    assert classify_finite(lts, PathPrefix("s1"), Assumption("SWI"))
    report = hierarchy_check(lts, Assumption("S", "I"), Assumption("SWI"), Bounds(2, 3))
    assert not report.skipped and report.checked > 0 and not report.violations


def test_swi_does_not_guess_what_a_handwritten_system_requests():
    # ex-13.1 carries instr and comp but no expressions, so nothing says
    # which instructions are requested: SWI raises where it must ask
    lts = build_all("ex-13.1-relabel-ring")[0].lts
    with pytest.raises(AnnotationError, match="^instruction projection needs a ccs-origin system$"):
        classify_lasso(lts, Lasso("s0", (), ("tyc0",)), Assumption("SWI"))
    walks = rooted_walks(lts, 3)
    lassos = [Lasso(start, steps, cycle) for entry in sorted(walks)
              for cycle in simple_cycles_at(lts, entry, 4) for start, steps in walks[entry]]
    assert len(lassos) > 256
    for lasso in lassos:  # each cycle leaves an instruction S:I would owe
        with pytest.raises(AnnotationError, match="needs a ccs-origin system"):
            classify_lasso(lts, lasso, Assumption("SWI"))
    # an S:I-fair cycle owes nothing, so the S:I -> SWI check never asks
    report = hierarchy_check(lts, Assumption("S", "I"), Assumption("SWI"), Bounds(5, 6))
    assert report.checked == 249_984 and not report.skipped and not report.violations


def _unit_lassos(lts, cap: int = 400) -> list[Lasso]:
    from fairlab.verify import simple_cycles_at
    out = []
    for sid in lts.state_ids():
        for cycle in simple_cycles_at(lts, sid, 4):
            out.append(Lasso(sid, (), cycle))
            if len(out) >= cap:
                return out
    return out


def test_requested_clerk_examples():
    built = _built("ex-7.1-clerk")["ex-7.1-clerk"]
    lts = built.lts
    # the window-2 offer is requested in every state of the system
    for sid in lts.state_ids():
        assert requested(lts, "c2@2", sid)
    # the shared window-3 offer is interrupted exactly when nobody queues
    from fairlab.syntax import Fix, project
    for sid in lts.state_ids():
        y3 = project(lts.state_expr(sid), "R")
        home = isinstance(y3, Fix) and y3.var in ("Y20", "Y10", "Y00")
        assert requested(lts, "c3w", sid) == (not home), sid


def test_requested_guarded_occurrence_false():
    spec = parse_ccs("a.b.0")
    lts = from_exploration(explore(spec))
    b_instr = next(n for n, (_, lab) in spec.name_table.items() if lab.base == "b")
    assert not requested(lts, b_instr, lts.initial[0])


def test_prefix_certificate_tr_task():
    lts = _built("ex-5.1-exit-loop")["ex-5.1-exit-loop"].lts
    [loop] = [t.id for t in lts.outgoing(lts.initial[0]) if t.target == lts.initial[0]]
    prefix = PathPrefix(lts.initial[0], (loop, loop))
    everything = Task("Tr", frozenset(t.id for t in lts.transitions))
    cert = prefix_certificate(lts, prefix, everything)
    assert cert.occurs and cert.enabled_everywhere and cert.length == 2
