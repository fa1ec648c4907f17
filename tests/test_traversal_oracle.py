"""Differential tests of the shared traversals.

The oracles are the hand-written traversals the shared ones replaced: the
recursive walks of CCS terms behind `iter_prefixes`, the component paths
`walk` yields and `instruction_paths`, and the two breadth-first stem
searches (`_stem_into` over states, the justness branch of `_find_stem`
over (state, pending obligations) pairs with its own obligation closure).  The stem oracles are
copied as they were, less `_find_stem`'s unused `cset` parameter; on
partly annotated systems they must raise the same AnnotationError, since
which transition is looked at first decides the message.
"""

from __future__ import annotations

import random

from fairlab.corpus import build_all
from fairlab.labels import parse_label
from fairlab.lts import AnnotationError, AugmentedLTS, State, Transition, named_goal
from fairlab.parser import parse_expression
from fairlab.paths import Assumption
from fairlab.syntax import (Choice, Fix, Nil, Par, Prefix, RecSpec, Relabel, Restrict,
                            Var, instruction_paths, iter_prefixes, walk)
from fairlab.verify import (Bounds, _find_stem, _stem_into, hierarchy_check,
                            simple_cycles_at)


# -- oracles ----------------------------------------------------------------

def _oracle_iter_prefixes(e):
    stack = [e]
    while stack:
        n = stack.pop()
        if isinstance(n, Prefix):
            yield n
            stack.append(n.body)
        elif isinstance(n, (Choice, Par)):
            stack.extend((n.right, n.left))
        elif isinstance(n, (Restrict, Relabel)):
            stack.append(n.body)
        elif isinstance(n, Fix):
            for _, b in reversed(n.spec.bindings):
                stack.append(b)


def _oracle_component_paths(e):
    out = {""}

    def walk(n, path):
        if isinstance(n, Par):
            out.add(path + "L")
            out.add(path + "R")
            walk(n.left, path + "L")
            walk(n.right, path + "R")
        elif isinstance(n, (Restrict, Relabel)):
            walk(n.body, path)
        elif isinstance(n, Prefix):
            walk(n.body, path)
        elif isinstance(n, Choice):
            walk(n.left, path)
            walk(n.right, path)
        elif isinstance(n, Fix):
            for _, b in n.spec.bindings:
                walk(b, path)

    walk(e, "")
    return out


def _oracle_instruction_paths(e):
    table = {}

    def walk(n, path):
        if isinstance(n, Prefix):
            table.setdefault(n.name, []).append(path)
            walk(n.body, path)
        elif isinstance(n, Par):
            walk(n.left, path + "L")
            walk(n.right, path + "R")
        elif isinstance(n, (Restrict, Relabel)):
            walk(n.body, path)
        elif isinstance(n, Choice):
            walk(n.left, path)
            walk(n.right, path)
        elif isinstance(n, Fix):
            for _, b in n.spec.bindings:
                walk(b, path)

    walk(e, "")
    return table


def _oracle_stem_into(lts, region, targets):
    inits = [s for s in lts.initial if s in region]
    for s in inits:
        if s in targets:
            return (s, ())
    seen = set(inits)
    frontier = [(s, s, ()) for s in inits]
    while frontier:
        nxt = []
        for start, sid, steps in frontier:
            for t in lts.outgoing(sid):
                if t.target not in region or t.target in seen:
                    continue
                path = steps + (t.id,)
                if t.target in targets:
                    return (start, path)
                seen.add(t.target)
                nxt.append((start, t.target, path))
        frontier = nxt
    return None


def _oracle_find_stem(lts, region, entry, cycle, assumption):
    if assumption.kind != "Just":
        found = _oracle_stem_into(lts, region, {entry})
        return found
    comp_u = set()
    for tid in cycle:
        comp_u |= lts.comp_of(tid)

    def obligations(sid):
        out = set()
        for t in lts.outgoing(sid, assumption.reactive):
            c = lts.comp_of(t.id)
            if not (c & comp_u):
                out.add(frozenset(c))
        return frozenset(out)

    inits = [s for s in lts.initial if s in region]
    start_nodes = [(s, obligations(s)) for s in inits]
    seen = set(start_nodes)
    frontier = [(s, n, ()) for s, n in zip(inits, start_nodes)]
    while frontier:
        nxt = []
        for start, (sid, pending), steps in frontier:
            if sid == entry and not pending:
                return (start, steps)
            for t in lts.outgoing(sid):
                if t.target not in region:
                    continue
                tcomp = lts.comp_of(t.id)
                new_pending = frozenset(o for o in pending if not (o & tcomp))
                new_pending = new_pending | obligations(t.target)
                node = (t.target, new_pending)
                if node in seen:
                    continue
                seen.add(node)
                nxt.append((start, node, steps + (t.id,)))
        frontier = nxt
    return None


def _outcome(fn, *args):
    try:
        return fn(*args)
    except AnnotationError as exc:
        return f"AnnotationError: {exc}"


# -- stem searches ----------------------------------------------------------

def _compare_stems(lts, regions, tally):
    assumptions = [Assumption("P")] + [Assumption("Just", reactive=r) for r in (False, True)]
    for region in regions:
        for entry in sorted(region):
            assert _stem_into(lts, region, {entry}) == _oracle_stem_into(lts, region, {entry})
            cycles = [()] + simple_cycles_at(lts, entry, 3)[:2]
            for cycle in cycles:
                for a in assumptions:
                    got = _outcome(_find_stem, lts, region, entry, list(cycle), a)
                    want = _outcome(_oracle_find_stem, lts, region, entry, list(cycle), a)
                    assert got == want, (entry, cycle, str(a))
                    tally["error" if isinstance(got, str) else got is not None] += 1


def test_stem_searches_match_the_parent_on_the_corpus():
    tally = {True: 0, False: 0, "error": 0}
    for built in build_all():
        lts = built.lts
        everything = set(lts.state_ids())
        # the whole system, and the goal-avoiding regions liveness searches
        regions = [everything] + [everything - named_goal(lts, g) for g in sorted(lts.goals)]
        _compare_stems(lts, regions, tally)
    assert tally[True] > 500 and tally[False] > 50 and tally["error"] > 50


def _random_system(rng, comp_missing):
    n = rng.randint(1, 5)
    states = [State(f"s{k}", None) for k in range(n)]
    transitions = []
    for k in range(rng.randint(1, 9)):
        comp = frozenset(rng.sample(["L", "R", "M"], rng.randint(1, 2)))
        transitions.append(Transition(
            f"t{k}", f"s{rng.randrange(n)}", f"s{rng.randrange(n)}",
            parse_label(rng.choice(["a", "'a", "tau"])), None,
            None if rng.random() < comp_missing else comp, rng.random() < 0.5))
    initial = rng.sample([s.id for s in states], rng.randint(1, min(2, n)))
    return AugmentedLTS(states, transitions, initial)


def test_stem_searches_match_the_parent_on_random_systems():
    rng = random.Random(1810)
    tally = {True: 0, False: 0, "error": 0}
    for comp_missing in (0, 0.1, 0.3):
        for _ in range(60):
            lts = _random_system(rng, comp_missing)
            ids = lts.state_ids()
            regions = [set(ids), set(rng.sample(ids, rng.randint(1, len(ids))))]
            _compare_stems(lts, regions, tally)
    assert tally[True] > 1000 and tally[False] > 500 and tally["error"] > 200


def test_hierarchy_check_skips_on_a_missing_comp_anywhere():
    # the transition lacking `comp` leaves an unreachable state, so no lasso
    # ever meets it: the check is skipped because the table covers every state
    lts = build_all("ex-12.1-phone")[0].lts
    bad = Transition("t-orphan", "orphan", lts.initial[0], parse_label("tau"),
                     frozenset(), None, False)
    lts = AugmentedLTS(lts.states + (State("orphan", None),), lts.transitions + (bad,),
                       lts.initial)
    want = "missing annotations: transition t-orphan carries no component set"
    for stronger, weaker in ((Assumption("Just"), Assumption("P")),
                             (Assumption("J", "T"), Assumption("Just", reactive=True))):
        report = hierarchy_check(lts, stronger, weaker, Bounds(2, 3))
        assert report.skipped == want and report.checked == 0 and not report.violations
    assert not hierarchy_check(lts, Assumption("S", "T"), Assumption("W", "T"),
                               Bounds(2, 3)).skipped


# -- walks of terms ---------------------------------------------------------

_LABELS = [parse_label(a) for a in ("a", "'a", "b", "tau")]
_FN = parse_expression("(a.0)[a -> b]").fn


def _random_term(rng, depth, scope, counter):
    pick = rng.random()
    if depth <= 0 or pick < 0.15:
        return Var(rng.choice(scope)) if scope and rng.random() < 0.5 else Nil()
    counter[0] += 1
    if pick < 0.45:
        name = f"n{rng.randint(0, counter[0])}"  # names may repeat: the table lists every place
        return Prefix(rng.choice(_LABELS), name, _random_term(rng, depth - 1, scope, counter))
    if pick < 0.6:
        return Choice(_random_term(rng, depth - 1, scope, counter),
                      _random_term(rng, depth - 1, scope, counter))
    if pick < 0.75:
        return Par(_random_term(rng, depth - 1, scope, counter),
                   _random_term(rng, depth - 1, scope, counter))
    if pick < 0.82:
        return Restrict(_random_term(rng, depth - 1, scope, counter), "a")
    if pick < 0.88:
        return Relabel(_random_term(rng, depth - 1, scope, counter), _FN)
    names = [f"X{counter[0]}_{k}" for k in range(rng.randint(1, 3))]
    inner = scope + names
    group = RecSpec(tuple((v, _random_term(rng, depth - 1, inner, counter)) for v in names))
    return Fix(rng.choice(names), group)


def _compare_walks(e):
    assert list(iter_prefixes(e)) == list(_oracle_iter_prefixes(e))
    assert {path for _, path in walk(e)} == _oracle_component_paths(e)
    got = instruction_paths(e)
    want = _oracle_instruction_paths(e)
    assert got == want and list(got) == list(want)


def test_walks_match_the_parent_on_corpus_specs():
    specs = [b.spec for b in build_all() if b.spec is not None]
    assert len(specs) > 15
    for spec in specs:
        _compare_walks(spec.root)


def test_walks_match_the_parent_on_random_terms():
    rng = random.Random(1810)
    sizes = []
    for _ in range(300):
        counter = [0]
        e = _random_term(rng, 7, [], counter)
        _compare_walks(e)
        sizes.append(counter[0])
    assert max(sizes) > 40 and sum(1 for s in sizes if s > 5) > 100


def test_instruction_paths_on_a_term_nested_10000_deep():
    # built without the parser, which refuses nesting this deep; mixed
    # wrappers and one parallel arm per 2,500 levels keep the paths short
    e = Nil()
    for k in range(10_000):
        kind = k % 4
        if kind == 0:
            e = Prefix(_LABELS[0], f"n{k}", e)
        elif kind == 1:
            e = Choice(e, Nil())
        elif kind == 2:
            e = Restrict(e, "b") if k % 2500 != 2 else Par(Nil(), e)
        else:
            e = Relabel(e, _FN)
    table = instruction_paths(e)
    assert len(table) == 2500
    assert table["n9996"] == [""] and table["n0"] == ["RRRR"]
    assert {path for _, path in walk(e)} == {"", "L", "R", "RL", "RR", "RRL", "RRR", "RRRL", "RRRR"}
    assert sum(1 for _ in iter_prefixes(e)) == 2500
