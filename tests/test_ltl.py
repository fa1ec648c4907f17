"""The state-shifting conversion and LTL evaluation on lassos."""

from __future__ import annotations

import functools
import inspect
import random
import re
from collections import Counter

import pytest

from families import _built, _grid, _ring

from fairlab import ltl
from fairlab.corpus import build_all, t_by
from fairlab.labels import parse_label
from fairlab.lts import (AnnotationError, AugmentedLTS, State, Task, TaskSet, Transition,
                         from_exploration)
from fairlab.ltl import (FormulaError, Formula, G, atom, conj, convert_lasso, disj,
                         eval_ltl, implies, ltl_convert, neg, parse_formula,
                         strong_fairness_formula, weak_fairness_formula, F)
from fairlab.parser import parse_ccs
from fairlab.paths import Assumption, Lasso, classify_lasso, enabled
from fairlab.semantics import explore
from fairlab.tasks import extract_tasks
from fairlab.verify import rooted_walks, simple_cycles_at


def _holds(conv, converted_state, prop):
    """Whether the atom holds at the converted state; an unknown one is a
    FormulaError."""
    conv._check(prop)
    return prop in conv._row(converted_state)


def test_convert_two_state_one_transition():
    lts = from_exploration(explore(parse_ccs("a.0")))
    conv = ltl_convert(lts)
    assert len(conv.lts.states) == 2
    assert len(conv.lts.transitions) == 1


def test_convert_ex_5_1_counts():
    lts = _built("ex-5.1*")["ex-5.1-exit-loop"].lts
    conv = ltl_convert(lts)
    assert len(conv.lts.states) == 1 + 3  # one initial plus three transitions


def test_occurs_holds_exactly_at_member_copies():
    lts = _built("ex-5.1*")["ex-5.1-exit-loop"].lts
    lts.tasks["probe"] = extract_tasks(lts, "T")
    conv = ltl_convert(lts)
    for t in lts.transitions:
        for task in extract_tasks(lts, "T").tasks:
            expected = t.id in task.members
            assert _holds(conv, f"t/{t.id}", f"occurs:{task.name}") == expected
    init = lts.initial[0]
    assert not any(_holds(conv, f"s/{init}", f"occurs:{task.name}")
                   for task in extract_tasks(lts, "T").tasks)


def test_formula_parsing_and_printing():
    f = parse_formula("G(G(enabled:L) -> F(occurs:L))")
    assert str(f) == "G((G(enabled:L) -> F(occurs:L)))"
    assert parse_formula("true").op == "true"
    assert parse_formula("!p & q").op == "and"
    with pytest.raises(FormulaError):
        parse_formula("G(")


def test_g_true_everywhere():
    built = _built("ex-12.2*")["ex-12.2-breakfast"]
    lts = built.lts
    conv = ltl_convert(lts)
    lasso = convert_lasso(conv, Lasso(lts.initial[0], (),
                                      (t_by(lts, source=lts.initial[0], label="b"),)))
    assert eval_ltl(conv, lasso, parse_formula("true"))
    assert eval_ltl(conv, lasso, G(parse_formula("true")))


def test_fairness_formulas_on_mutex_m_cycle():
    # the m-cycle is weakly fair (the L task is enabled only at the recurring
    # initial state, not perpetually) but strongly unfair
    built = _built("ex-4.2-mutex-mem")["ex-4.2-mutex-mem"]
    lts = built.lts
    conv = ltl_convert(lts)
    base = Lasso("init", (), ("m1", "m2", "m3"))
    lasso = convert_lasso(conv, base)
    assert eval_ltl(conv, lasso, weak_fairness_formula(lts.tasks["LM"]))
    assert not eval_ltl(conv, lasso, strong_fairness_formula(lts.tasks["LM"]))
    # both agree with the direct classifier
    assert classify_lasso(lts, base, Assumption("W", "custom", lts.tasks["LM"]))
    assert not classify_lasso(lts, base, Assumption("S", "custom", lts.tasks["LM"]))
    # no task owes anything: both formulas are the empty conjunction, true
    empty = TaskSet("custom", ())
    assert weak_fairness_formula(empty) == strong_fairness_formula(empty) == Formula("true")
    assert eval_ltl(conv, lasso, weak_fairness_formula(empty))


def test_fg_gf_equivalence_on_random_lassos():
    # FG p -> GF q is equivalent to G(G p -> F q) over infinite paths
    rng = random.Random(99)
    built = _built("ex-10.1*")["ex-10.1-offset-cycles"]
    lts = built.lts
    lts.tasks.setdefault("probeA", extract_tasks(lts, "A"))
    conv = ltl_convert(lts)
    tasks = extract_tasks(lts, "A").tasks
    checked = 0
    attempts = 0
    while checked < 200 and attempts < 2000:
        attempts += 1
        # random rooted lasso: short stem, then walk back to a seen state
        at = lts.initial[0]
        steps = []
        for _ in range(rng.randint(1, 12)):
            t = rng.choice(lts.outgoing(at))
            steps.append(t.id)
            at = t.target
        visited = [lts.initial[0]]
        for tid in steps:
            visited.append(lts.transition(tid).target)
        try:
            k = visited.index(at)
        except ValueError:
            continue
        if k == len(visited) - 1:
            continue
        lasso = Lasso(lts.initial[0], tuple(steps[:k]), tuple(steps[k:]))
        classo = convert_lasso(conv, lasso)
        task = rng.choice(tasks)
        p, q = atom(f"enabled:{task.name}"), atom(f"occurs:{task.name}")
        lhs = implies(F(G(p)), G(F(q)))
        rhs = G(implies(G(p), F(q)))
        assert eval_ltl(conv, classo, lhs) == eval_ltl(conv, classo, rhs)
        checked += 1
    assert checked == 200


def test_unknown_atom_rejected():
    built = _built("ex-12.2*")["ex-12.2-breakfast"]
    lts = built.lts
    conv = ltl_convert(lts)
    lasso = convert_lasso(conv, Lasso(lts.initial[0], (),
                                      (t_by(lts, source=lts.initial[0], label="b"),)))
    with pytest.raises(FormulaError):
        eval_ltl(conv, lasso, parse_formula("occurs:nonexistent"))


def test_ltl_agreement_with_direct_classification():
    # weak and strong fairness formulas agree with the path classifier
    for pattern in ("ex-5.1*", "ex-5.4*", "ex-5.6*"):
        for built in build_all(pattern):
            lts = built.lts
            conv = ltl_convert(lts)
            walks = rooted_walks(lts, 3)
            for entry in sorted(walks):
                start, steps = walks[entry][0]
                for cycle in simple_cycles_at(lts, entry, 4):
                    lasso = Lasso(start, steps, cycle)
                    classo = convert_lasso(conv, lasso)
                    for notion in ("A", "T", "I", "Z", "C", "G"):
                        ts = extract_tasks(lts, notion)
                        lts.tasks.setdefault(f"probe{notion}", ts)
                        direct_w = classify_lasso(lts, lasso, Assumption("W", notion))
                        direct_s = classify_lasso(lts, lasso, Assumption("S", notion))
                        assert direct_w == eval_ltl(conv, classo,
                                                    weak_fairness_formula(ts))
                        assert direct_s == eval_ltl(conv, classo,
                                                    strong_fairness_formula(ts))


# ---------------------------------------------------------------------------
# Differential test: the linear evaluator against the per-class reachability
# evaluator it replaced, kept here as the oracle.
# ---------------------------------------------------------------------------

def _oracle_task(lts, name):
    """Task resolution by linear search: the system's task sets first, then
    the notion named by the prefix."""
    for ts in lts.tasks.values():
        for t in ts.tasks:
            if t.name == name:
                return t
    notion = name.partition(":")[0]
    if notion in ("A", "T", "I", "Z", "C", "G"):
        try:
            return extract_tasks(lts, notion).get(name)
        except (KeyError, AnnotationError):
            pass
    raise FormulaError(f"unknown task {name!r} in atomic proposition")


def _oracle_holds(lts, converted_state, prop):
    kind, _, arg = prop.partition(":")
    is_transition = converted_state.startswith("t/")
    underlying = converted_state[2:]
    state = lts.transition(underlying).target if is_transition else underlying
    if kind == "occurs":
        return is_transition and underlying in _oracle_task(lts, arg).members
    if kind == "enabled":
        return enabled(lts, _oracle_task(lts, arg), state)
    if kind == "state":
        return state == arg
    raise FormulaError(f"unknown atomic proposition {prop!r}")


def _oracle_eval(conv, lasso, formula):
    """One reachability set per suffix class; F and G quantify over it."""
    lasso.validate(conv.lts)
    stem_states = [lasso.start] + [conv.lts.transition(t).target for t in lasso.stem]
    cyc_states = [stem_states[-1]] + [conv.lts.transition(t).target
                                      for t in lasso.cycle[:-1]]
    classes = [("s", i) for i in range(len(lasso.stem))] + \
              [("c", j) for j in range(len(lasso.cycle))]
    state_of = {("s", i): stem_states[i] for i in range(len(lasso.stem))}
    state_of.update({("c", j): cyc_states[j] for j in range(len(lasso.cycle))})

    def nxt(cls):
        tag, k = cls
        if tag == "s":
            return ("s", k + 1) if k + 1 < len(lasso.stem) else ("c", 0)
        return ("c", (k + 1) % len(lasso.cycle))

    reach = {}
    for cls in classes:
        seen, cur = {cls}, nxt(cls)
        while cur not in seen:
            seen.add(cur)
            cur = nxt(cur)
        reach[cls] = seen

    def sat(f):
        if f.op in ("true", "false"):
            return {c: f.op == "true" for c in classes}
        if f.op == "atom":
            return {c: _oracle_holds(conv.base, state_of[c], f.atom) for c in classes}
        if f.op == "not":
            inner = sat(f.args[0])
            return {c: not inner[c] for c in classes}
        if f.op in ("and", "or", "implies"):
            # a chain node is its operands grouped to the left
            out, *rest = [sat(g) for g in f.args]
            for b in rest:
                if f.op == "and":
                    out = {c: out[c] and b[c] for c in classes}
                elif f.op == "or":
                    out = {c: out[c] or b[c] for c in classes}
                else:
                    out = {c: (not out[c]) or b[c] for c in classes}
            return out
        inner = sat(f.args[0])
        quantifier = any if f.op == "F" else all
        return {c: quantifier(inner[d] for d in reach[c]) for c in classes}

    return sat(formula)[("s", 0) if lasso.stem else ("c", 0)]


def _random_formula(rng, atoms, depth):
    if depth == 0 or rng.random() < 0.25:
        pick = rng.random()
        if pick < 0.1:
            return Formula(rng.choice(("true", "false")))
        return atom(rng.choice(atoms))
    build = rng.choice((neg, conj, disj, implies, F, G))
    if build in (neg, F, G):
        return build(_random_formula(rng, atoms, depth - 1))
    return build(_random_formula(rng, atoms, depth - 1), _random_formula(rng, atoms, depth - 1))


def test_linear_eval_matches_reachability_oracle():
    rng = random.Random(2018)
    compared = errors = empty_stems = unit_cycles = 0
    for built in build_all():
        lts = built.lts
        if lts.truncated:
            continue
        conv = ltl_convert(lts)
        names = {t.name for ts in lts.tasks.values() for t in ts.tasks} | {"T:missing"}
        for notion in ("A", "T", "I", "Z", "C", "G"):
            try:
                names.update(extract_tasks(lts, notion).names())
            except AnnotationError:
                pass
        names = sorted(names)
        atoms = ([f"{kind}:{n}" for kind in ("enabled", "occurs") for n in names]
                 + [f"state:{s}" for s in lts.state_ids()[:4]])
        walks = rooted_walks(lts, 3)
        lassos = [Lasso(start, steps, cycle)
                  for entry in sorted(walks)
                  for start, steps in walks[entry][:3]
                  for cycle in simple_cycles_at(lts, entry, 4)]
        for lasso in rng.sample(lassos, min(12, len(lassos))):
            empty_stems += not lasso.stem
            unit_cycles += len(lasso.cycle) == 1
            classo = convert_lasso(conv, lasso)
            for _ in range(8):
                formula = _random_formula(rng, atoms, 4)
                try:
                    expected = _oracle_eval(conv, classo, formula)
                except FormulaError as exc:
                    with pytest.raises(FormulaError, match=f"^{re.escape(str(exc))}$"):
                        eval_ltl(conv, classo, formula)
                    errors += 1
                    continue
                assert eval_ltl(conv, classo, formula) == expected, (lasso, str(formula))
                compared += 1
    assert compared > 1000 and errors > 0 and empty_stems > 0 and unit_cycles > 0


def _outcome(evaluate, conv, lasso, formula):
    """The value, or the text of the FormulaError raised."""
    try:
        return evaluate(conv, lasso, formula)
    except FormulaError as exc:
        return f"FormulaError: {exc}"


@functools.cache
def _long_cases():
    """Lassos of more than 64 suffix classes, so that masks span several
    machine words, each with drawn formulas over atoms that change along it.

    A 70-step ring gives a converted lasso with an empty stem and a 70-step
    cycle (not rooted: it starts at a transition copy), the rooted one with
    a one-step stem, and one entering the ring after five steps; a 70-step
    walk into a b-self-loop gives a 71-step stem and a unit cycle, rooted
    and starting at the walk's fifth transition."""
    n, rng, cases = 70, random.Random(2009), []
    chain = ".".join(f"a{i}" for i in range(n))
    ring = from_exploration(explore(parse_ccs(f"X where X = {chain}.X")))
    walk = from_exploration(explore(parse_ccs(f"{chain}.(Y where Y = b.Y)")))
    for lts in (ring, walk):
        conv = ltl_convert(lts)
        tids = [t.id for t in lts.transitions]  # in walk order from the root
        init = lts.initial[0]
        if lts is ring:
            lassos = [Lasso(f"t/{tids[-1]}", (), tuple(
                f"c/{a}/{b}" for a, b in zip(tids[-1:] + tids[:-1], tids))),
                convert_lasso(conv, Lasso(init, (), tuple(tids))),
                convert_lasso(conv, Lasso(init, tuple(tids[:5]), tuple(tids[5:] + tids[:5])))]
        else:
            rooted = convert_lasso(conv, Lasso(init, tuple(tids[:-1]), (tids[-1],)))
            lassos = [rooted, Lasso(f"t/{tids[4]}", rooted.stem[5:], rooted.cycle)]
        # actions at both ends of the walk, so that bits past 64 matter
        spread = [f"{kind}:A:a{i}" for kind in ("enabled", "occurs")
                  for i in (0, 3, 6, 62, 63, 64, 65, 67, 69)]
        atoms = spread + ["enabled:A:b", "occurs:A:b", f"state:{lts.state_ids()[66]}",
                          "bogus:x", "occurs:A:nosuch"]
        fixed = [op(atom(p)) for p in spread
                 for op in (F, G, lambda f: G(F(f)), lambda f: F(G(f)))]
        fixed += [G(atom("enabled:A:b")), F(atom("occurs:A:b")),
                  parse_formula("false & bogus:x"), parse_formula("F(true) | bogus:y")]
        for lasso in lassos:
            assert len(lasso.stem) + len(lasso.cycle) > 64
            cases += [(conv, lasso, f, _outcome(_oracle_eval, conv, lasso, f))
                      for f in fixed + [_random_formula(rng, atoms, 4) for _ in range(40)]]
    return cases


def _differences(evaluate):
    return [(str(lasso), str(formula)) for conv, lasso, formula, expected in _long_cases()
            if _outcome(evaluate, conv, lasso, formula) != expected]


def test_eval_matches_reachability_oracle_past_64_suffix_classes():
    cases = _long_cases()
    assert any(not lasso.stem for _, lasso, _, _ in cases)
    assert any(len(lasso.stem) >= 64 and len(lasso.cycle) == 1 for _, lasso, _, _ in cases)
    outcomes = [expected for *_, expected in cases]
    assert {True, False} <= set(outcomes)
    assert "FormulaError: unknown atomic proposition 'bogus:x'" in outcomes
    assert "FormulaError: unknown task 'A:nosuch' in atomic proposition" in outcomes
    assert _differences(eval_ltl) == []


@pytest.mark.parametrize("mutation", [
    # F that does not fold the stem: a stem class sees only itself
    ("full if v & cyc else (1 << v.bit_length()) - 1", "full if v & cyc else v"),
    # G that ignores a zero in the stem
    ("full & ~((1 << (stem & ~v).bit_length()) - 1) if", "full if"),
])
def test_mutant_kernels_fail_the_oracle(mutation):
    old, new = mutation
    source = inspect.getsource(ltl.eval_ltl)
    assert source.count(old) == 1
    namespace = dict(vars(ltl))
    exec(compile(source.replace(old, new), ltl.__file__, "exec"), namespace)
    assert _differences(namespace["eval_ltl"])


def test_weak_fairness_of_many_tasks_needs_no_deep_recursion():
    # grid(8): eight independent components X = a.X + b.0, 2,048 transitions,
    # so the T-notion conjunction is a chain of 2,048 conjuncts
    lts = from_exploration(explore(parse_ccs(_grid(8))))
    ts = extract_tasks(lts, "T")
    assert len(ts.tasks) == 2048
    conv = ltl_convert(lts)
    init = lts.initial[0]
    loop = t_by(lts, source=init, label="a0")
    lasso = convert_lasso(conv, Lasso(init, (), (loop,)))
    # the b-steps stay enabled along the a0 self-loop and never occur
    formula = weak_fairness_formula(ts)
    assert not eval_ltl(conv, lasso, formula)
    text = str(formula)
    assert text.startswith("(" * 2047 + "G((G(enabled:")
    assert text.count(" & G((G(enabled:") == 2047


def test_deep_negation_evaluates_without_recursion():
    # 5,000 nested `!`, built in code (the parser stops at MAX_NESTING): the
    # compiled program runs it on a flat stack
    lts = _built("ex-5.1*")["ex-5.1-exit-loop"].lts
    conv = ltl_convert(lts)
    [loop] = [t.id for t in lts.outgoing(lts.initial[0]) if t.target == lts.initial[0]]
    lasso = convert_lasso(conv, Lasso(lts.initial[0], (), (loop,)))
    f = base = atom("state:s0")
    for _ in range(5000):
        f = neg(f)
    assert eval_ltl(conv, lasso, base) and eval_ltl(conv, lasso, f)
    assert not eval_ltl(conv, lasso, neg(f))
    assert ltl.MAX_NESTING == 100


def test_long_chains_print_compare_and_hash_without_recursion():
    one, other = conj(*[atom("a")] * 2000), conj(*[atom("a")] * 2000)
    assert one is not other
    assert str(one) == "(" * 1999 + "a" + " & a)" * 1999
    assert one == other and hash(one) == hash(other)
    assert one != conj(*[atom("a")] * 1999, atom("b"))
    # equality stays structural: the grouping of a chain is part of it
    left, right = parse_formula("a & b & c"), parse_formula("a & (b & c)")
    assert (str(left), str(right)) == ("((a & b) & c)", "(a & (b & c))")
    assert left != right and left == conj(atom("a"), atom("b"), atom("c"))
    assert parse_formula(str(right)) == right
    assert parse_formula("(a | b) & c") != parse_formula("a | (b & c)")


def test_holds_memo_keeps_answers_not_errors():
    lts = _built("ex-5.1*")["ex-5.1-exit-loop"].lts
    conv = ltl_convert(lts)
    states = [s.id for s in conv.lts.states]
    task = extract_tasks(lts, "T").tasks[0].name
    props = [f"{kind}:{task}" for kind in ("enabled", "occurs")] + ["state:s0"]
    first = {(s, p): _holds(conv, s, p) for s in states for p in props}
    assert {(s, p): _holds(conv, s, p) for s in states for p in props} == first
    assert first == {(s, p): _holds(ltl_convert(lts), s, p) for s in states for p in props}
    for _ in range(2):
        with pytest.raises(FormulaError, match="unknown task"):
            _holds(conv, states[-1], "enabled:nosuch")
        with pytest.raises(FormulaError, match="unknown atomic proposition"):
            _holds(conv, states[-1], "bogus:x")


def test_unknown_task_or_state_raises_at_every_position():
    lts = _built("ex-5.1*")["ex-5.1-exit-loop"].lts
    assert "s9" not in lts.state_ids()
    conv = ltl_convert(lts)
    [loop] = [t.id for t in lts.outgoing(lts.initial[0]) if t.target == lts.initial[0]]
    for state in (f"s/{lts.initial[0]}", f"t/{loop}"):
        for prop in ("occurs:nosuch", "enabled:nosuch"):
            with pytest.raises(FormulaError,
                               match=r"^unknown task 'nosuch' in atomic proposition$"):
                _holds(conv, state, prop)
        with pytest.raises(FormulaError, match=r"^unknown state 's9' in atomic proposition$"):
            _holds(conv, state, "state:s9")
    lasso = convert_lasso(conv, Lasso(lts.initial[0], (), (loop,)))
    for text in ("state:s9", "false & state:s9", "state:s0 | state:s9"):
        with pytest.raises(FormulaError, match=r"^unknown state 's9' in atomic proposition$"):
            eval_ltl(conv, lasso, parse_formula(text))


# ---------------------------------------------------------------------------
# Differential test: the per-state truth table against the per-prop rule it
# replaced (`_oracle_holds` above).
# ---------------------------------------------------------------------------

def _strict_oracle_holds(lts, converted_state, prop):
    """`_oracle_holds`, where a task or state the system lacks is an error
    at every position, not only where it is read."""
    kind, _, arg = prop.partition(":")
    if kind == "occurs":
        _oracle_task(lts, arg)
    elif kind == "state" and arg not in lts.state_ids():
        raise FormulaError(f"unknown state {arg!r} in atomic proposition")
    return _oracle_holds(lts, converted_state, prop)


def _own_name_system():
    """s0 -a-> s1 -a-> s0 with an a-self-loop on s1.  Its own task set names
    `A:a` too, with the first a-step alone, while notion A's `A:a` holds
    every a-step."""
    def t(tid, source, target):
        return Transition(tid, source, target, parse_label("a"), None, None, False)
    own = TaskSet("custom", (Task("A:a", frozenset({"t0"})),))
    return AugmentedLTS([State("s0", None), State("s1", None)],
                        [t("t0", "s0", "s1"), t("t1", "s1", "s0"), t("t2", "s1", "s1")],
                        ["s0"], tasks={"own": own})


def test_truth_table_matches_the_per_prop_oracle():
    def ccs(source):
        return from_exploration(explore(parse_ccs(source)))
    systems = [b.lts for b in build_all() if not b.lts.truncated]
    systems += [ccs(_ring(10)), ccs(_grid(5)), _own_name_system()]
    outcomes = set()
    for lts in systems:
        conv = ltl_convert(lts)
        props = ([f"{kind}:{name}" for name in conv.tasks for kind in ("enabled", "occurs")]
                 + [f"state:{s}" for s in lts.state_ids()]
                 + ["enabled:T:nosuch", "occurs:T:nosuch", "state:nosuch", "bogus:x"])
        for state in conv.lts.state_ids():
            for prop in props:
                expected = _outcome(_strict_oracle_holds, lts, state, prop)
                assert _outcome(_holds, conv, state, prop) == expected, \
                    (state, prop)
                outcomes.add(expected)
    assert {True, False, "FormulaError: unknown task 'T:nosuch' in atomic proposition",
            "FormulaError: unknown state 'nosuch' in atomic proposition",
            "FormulaError: unknown atomic proposition 'bogus:x'"} == outcomes
    # the system's own A:a wins over notion A's, which differs from it
    own = ltl_convert(_own_name_system())
    assert own.tasks["A:a"].members == {"t0"} != extract_tasks(own.base, "A").get("A:a").members
    assert not _holds(own, "t/t0", "enabled:A:a") and not _holds(own, "t/t2", "occurs:A:a")


def _atom_names(formula):
    names, todo = set(), [formula]
    while todo:
        f = todo.pop()
        if f.op == "atom":
            names.add(f.atom)
        todo.extend(f.args)
    return names


@pytest.mark.parametrize("entry", ["ex-7.1-clerk", "ex-13.1-relabel-ring"])
def test_cross_check_keeps_one_atom_set_per_state_and_one_entry_per_atom(entry):
    # the criterion-5 replay, twice: the conversion keeps one atom set per
    # converted state, the second replay adds nothing, and the one lasso slot
    # holds the last lasso asked about with one mask per atom on it or in the
    # formulas, so nothing is kept per earlier lasso or per formula
    lts = _built(entry)[entry].lts
    conv = ltl_convert(lts)
    formulas = []
    for notion in ("A", "T", "I", "Z", "C", "G"):
        try:
            ts = extract_tasks(lts, notion)
        except AnnotationError:
            continue
        formulas += [weak_fairness_formula(ts), strong_fairness_formula(ts)]
    named = set().union(*map(_atom_names, formulas))
    walks = rooted_walks(lts, 5)
    lassos = [convert_lasso(conv, Lasso(*walks[at][0], cycle))
              for at in sorted(walks) for cycle in simple_cycles_at(lts, at, 6)]
    shapes = []
    for _ in range(2):
        for lasso in lassos:
            for formula in formulas:
                eval_ltl(conv, lasso, formula)
        last, _full, _stem, _cyc, masks = conv._lasso
        on_it = set().union(*(conv._row(s) for s in
                              [last.start] + [conv.lts.transition(t).target for t in last.stem]
                              + [conv.lts.transition(t).target for t in last.cycle]))
        assert last is lassos[-1] and set(masks) <= on_it | named
        shapes.append((len(conv._table), len(masks)))
    assert len(lassos) * len(formulas) > 100
    assert set(vars(conv)) == {"base", "lts", "tasks", "_names", "_table", "_states", "_lasso"}
    assert set(conv._table) <= set(conv.lts.state_ids())
    assert shapes[0] == shapes[1]


# ---------------------------------------------------------------------------
# Differential test: the compiled program and the lasso slot against the
# recursive evaluator they replaced, kept here as the oracle.
# ---------------------------------------------------------------------------

def _recursive_eval(conv, lasso, formula):
    """`eval_ltl` as it was: validates the lasso, reads one row per suffix
    class and recurses once per subformula, building no table."""
    lasso.validate(conv.lts)
    states = [lasso.start] + [conv.lts.transition(tid).target
                              for tid in lasso.stem + lasso.cycle[:-1]]
    full = (1 << len(states)) - 1
    stem = (1 << len(lasso.stem)) - 1
    cyc = full & ~stem
    classes = [(1 << i, conv._row(s)) for i, s in enumerate(states)]

    def sat(f):
        op = f.op
        if op in ("true", "false"):
            return full if op == "true" else 0
        if op == "atom":
            a = f.atom
            conv._check(a)
            out = 0
            for bit, row in classes:
                if a in row:
                    out |= bit
            return out
        if op == "not":
            return full & ~sat(f.args[0])
        if op in ("and", "or", "implies"):
            out, *rest = map(sat, f.args)
            for v in rest:
                out = out & v if op == "and" else out | v if op == "or" else (full & ~out) | v
            return out
        if op == "F":
            v = sat(f.args[0])
            return full if v & cyc else (1 << v.bit_length()) - 1
        if op == "G":
            v = sat(f.args[0])
            return full & ~((1 << (stem & ~v).bit_length()) - 1) if v & cyc == cyc else 0
        raise FormulaError(f"unknown operator {f.op}")

    return bool(sat(formula) & 1)


def _criterion_5(lts, conv):
    """The converted criterion-5 lassos (walks <= 5, one stem per entry,
    cycles <= 6) and the W and S formula of every notion the system supports."""
    formulas = []
    for notion in ("A", "T", "I", "Z", "C", "G"):
        try:
            ts = extract_tasks(lts, notion)
        except AnnotationError:
            continue
        formulas += [weak_fairness_formula(ts), strong_fairness_formula(ts)]
    walks = rooted_walks(lts, 5)
    lassos = [convert_lasso(conv, Lasso(*walks[at][0], cycle))
              for at in sorted(walks) for cycle in simple_cycles_at(lts, at, 6)]
    return lassos, formulas


def test_compiled_eval_matches_the_recursive_one_on_the_criterion_5_replay():
    compared = Counter()
    for built in build_all():
        lts = built.lts
        if lts.truncated:
            continue
        conv, fresh = ltl_convert(lts), ltl_convert(lts)
        lassos, formulas = _criterion_5(lts, conv)
        for lasso in lassos:
            for formula in formulas:
                got = _outcome(eval_ltl, conv, lasso, formula)
                assert got == _outcome(_recursive_eval, fresh, lasso, formula), \
                    (built.entry.id, str(lasso), str(formula)[:80])
                compared[got] += 1
    assert compared[True] > 1000 and compared[False] > 1000, compared


def _drawn_chain_formula(rng, atoms, depth):
    """Chains of two to five operands, `true`/`false`, and now and then a
    node of an unknown operator, with or without operands."""
    if depth == 0 or rng.random() < 0.2:
        pick = rng.random()
        if pick < 0.1:
            return Formula(rng.choice(("true", "false")))
        if pick < 0.12:
            return Formula("X")
        return atom(rng.choice(atoms))
    kind = "U" if rng.random() < 0.03 else rng.choice(("not", "F", "G", "and", "or", "implies"))
    if kind in ("not", "F", "G", "U"):
        return Formula(kind, args=(_drawn_chain_formula(rng, atoms, depth - 1),))
    return Formula(kind, args=tuple(_drawn_chain_formula(rng, atoms, depth - 1)
                                    for _ in range(rng.randint(2, 5))))


def test_compiled_eval_matches_the_recursive_one_on_drawn_formulas():
    # drawn formulas on the criterion-5 lassos of three systems and on the
    # lassos past 64 suffix classes; each formula is asked of two lassos in
    # turn and of the first again, so the slot is replaced and refilled
    rng = random.Random(2313)
    outcomes = Counter()
    groups = []
    for entry in ("ex-5.1-exit-loop", "ex-7.1-clerk", "ex-13.1-relabel-ring"):
        lts = _built(entry)[entry].lts
        conv = ltl_convert(lts)
        names = sorted(conv.tasks)[:12]
        atoms = ([f"{kind}:{n}" for kind in ("enabled", "occurs") for n in names]
                 + [f"state:{s}" for s in lts.state_ids()[:3]]
                 + ["enabled:T:nosuch", "state:nosuch", "bogus:x"])
        groups.append((conv, ltl_convert(lts), _criterion_5(lts, conv)[0][:20], atoms))
    long = {}  # id of the conversion -> (conversion, its lassos, atoms)
    for conv, lasso, formula, _ in _long_cases():
        _, lassos, atoms = long.setdefault(id(conv), (conv, [], set()))
        lassos.append(lasso)
        atoms |= _atom_names(formula)
    groups += [(conv, ltl_convert(conv.base), list(dict.fromkeys(lassos)), sorted(atoms))
               for conv, lassos, atoms in long.values()]
    for conv, fresh, lassos, atoms in groups:
        for _ in range(100):
            formula = _drawn_chain_formula(rng, atoms, 4)
            first, second = rng.sample(lassos, 2)
            for lasso in (first, second, first):
                got = _outcome(eval_ltl, conv, lasso, formula)
                assert got == _outcome(_recursive_eval, fresh, lasso, formula), \
                    (str(lasso), str(formula))
                outcomes[got if isinstance(got, bool) else got.split(" '")[0]] += 1
    assert outcomes[True] > 200 and outcomes[False] > 200, outcomes
    for error in ("unknown operator", "unknown task", "unknown state",
                  "unknown atomic proposition"):
        assert any(str(o).startswith(f"FormulaError: {error}") for o in outcomes), error


def test_criterion_5_replay_validates_each_lasso_once_and_compiles_each_formula_once(
        monkeypatch):
    validated, compiled = Counter(), Counter()
    validate, program = Lasso.validate, Formula.__dict__["program"].func

    def counted_validate(lasso, lts):
        validated[lasso, id(lts)] += 1
        return validate(lasso, lts)

    def counted_program(formula):
        compiled[id(formula)] += 1
        return program(formula)

    counted = functools.cached_property(counted_program)
    counted.__set_name__(Formula, "program")
    monkeypatch.setattr(Lasso, "validate", counted_validate)
    monkeypatch.setattr(Formula, "program", counted)
    lts = _built("ex-7.1-clerk")["ex-7.1-clerk"].lts
    conv = ltl_convert(lts)
    lassos, formulas = _criterion_5(lts, conv)
    validated.clear()
    for lasso in lassos:
        for formula in formulas:
            eval_ltl(conv, lasso, formula)
    assert len(formulas) == 12 and len(lassos) > 20
    assert validated == Counter({(lasso, id(conv.lts)): 1 for lasso in lassos})
    assert compiled == Counter({id(f): 1 for f in formulas})
