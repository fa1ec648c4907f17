"""The state-shifting conversion and LTL evaluation on lassos."""

from __future__ import annotations

import random

import pytest

from fairlab.corpus import build_all, t_by
from fairlab.lts import AnnotationError, from_exploration
from fairlab.ltl import (FormulaError, Formula, G, atom, conj, convert_lasso, disj,
                         eval_ltl, implies, ltl_convert, neg, parse_formula,
                         strong_fairness_formula, weak_fairness_formula, F)
from fairlab.parser import parse_ccs
from fairlab.paths import Assumption, Lasso, classify_lasso, enabled
from fairlab.semantics import explore
from fairlab.tasks import extract_tasks
from fairlab.verify import rooted_walks, simple_cycles_at


def _built(pattern):
    return {b.entry.id: b for b in build_all(pattern)}


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
            assert conv.holds(f"t/{t.id}", f"occurs:{task.name}") == expected
    init = lts.initial[0]
    assert not any(conv.holds(f"s/{init}", f"occurs:{task.name}")
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
                except FormulaError:
                    with pytest.raises(FormulaError):
                        eval_ltl(conv, classo, formula)
                    errors += 1
                    continue
                assert eval_ltl(conv, classo, formula) == expected, (lasso, str(formula))
                compared += 1
    assert compared > 1000 and errors > 0 and empty_stems > 0 and unit_cycles > 0


def test_weak_fairness_of_many_tasks_needs_no_deep_recursion():
    # grid(8): eight independent components X = a.X + b.0, 2,048 transitions,
    # so the T-notion conjunction is a chain of 2,048 conjuncts
    n = 8
    source = (" | ".join(f"X{i}" for i in range(n)) + " where "
              + ", ".join(f"X{i} = a{i}.X{i} + b{i}.0" for i in range(n)))
    lts = from_exploration(explore(parse_ccs(source)))
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
    first = {(s, p): conv.holds(s, p) for s in states for p in props}
    assert {(s, p): conv.holds(s, p) for s in states for p in props} == first
    assert first == {(s, p): ltl_convert(lts).holds(s, p) for s in states for p in props}
    for _ in range(2):
        with pytest.raises(FormulaError, match="unknown task"):
            conv.holds(states[-1], "enabled:nosuch")
        with pytest.raises(FormulaError, match="unknown atomic proposition"):
            conv.holds(states[-1], "bogus:x")
