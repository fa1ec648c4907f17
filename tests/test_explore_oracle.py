"""Differential tests of hash-consed exploration against print-keyed exploration.

The oracle is the exploration that named every state by its canonical print:
each successor was printed to order the steps of a state and again to look
it up among the states found so far.  `explore` now dedups interned terms by
identity and prints each state once, and `step` prints targets only to order
and dedup steps that tie on (label, instruction set).  Both must give the
same state ids, transitions and `save_lts` bytes, and the same step lists.
"""

from __future__ import annotations

import random
from collections import Counter

from families import _grid, _ring

from fairlab.corpus import build_all
from fairlab.lts import from_exploration, save_lts
from fairlab.parser import parse_ccs, parse_expression
from fairlab.semantics import (ExplorationReport, ExploredState, ExploredTransition,
                               SemanticsError, Step, explore, step)
from fairlab.syntax import (Choice, Expr, Fix, Nil, Par, Prefix, ProcessSpec,
                            Relabel, Restrict, Var, cmp_table, print_expr)
from fairlab.labels import TAU


def _oracle_subst_fix(body: Expr, spec) -> Expr:
    dom = set(spec.domain())

    def sub(e: Expr) -> Expr:
        if isinstance(e, Var):
            return Fix(e.x, spec) if e.x in dom else e
        if isinstance(e, Prefix):
            return Prefix(e.action, e.name, sub(e.body))
        if isinstance(e, Choice):
            return Choice(sub(e.left), sub(e.right))
        if isinstance(e, Par):
            return Par(sub(e.left), sub(e.right))
        if isinstance(e, Restrict):
            return Restrict(sub(e.body), e.name)
        if isinstance(e, Relabel):
            return Relabel(sub(e.body), e.fn)
        if isinstance(e, Fix):
            if dom & set(e.spec.domain()):
                return e
            return Fix(e.var, type(e.spec)(tuple((v, sub(b)) for v, b in e.spec.bindings)))
        return e

    return sub(body)


def _oracle_derive(e: Expr, depth: int) -> list[Step]:
    if depth > 4096:
        raise SemanticsError("unguarded recursion: derivation does not terminate")
    if isinstance(e, (Nil, Var)):
        if isinstance(e, Var):
            raise SemanticsError(f"cannot step open expression (free {e.x})")
        return []
    if isinstance(e, Prefix):
        return [Step(e.action, frozenset([e.name]), e.body)]
    if isinstance(e, Choice):
        return _oracle_derive(e.left, depth) + _oracle_derive(e.right, depth)
    if isinstance(e, Par):
        left = _oracle_derive(e.left, depth)
        right = _oracle_derive(e.right, depth)
        out = [Step(s.label, s.instr, Par(s.target, e.right)) for s in left]
        out += [Step(s.label, s.instr, Par(e.left, s.target)) for s in right]
        for ls in left:
            if ls.label.is_tau:
                continue
            comp = ls.label.complement()
            for rs in right:
                if rs.label == comp:
                    out.append(Step(TAU, ls.instr | rs.instr, Par(ls.target, rs.target)))
        return out
    if isinstance(e, Restrict):
        return [Step(s.label, s.instr, Restrict(s.target, e.name))
                for s in _oracle_derive(e.body, depth)
                if s.label.is_tau or s.label.base != e.name]
    if isinstance(e, Relabel):
        return [Step(e.fn.apply(s.label), s.instr, Relabel(s.target, e.fn))
                for s in _oracle_derive(e.body, depth)]
    if isinstance(e, Fix):
        return _oracle_derive(_oracle_subst_fix(e.spec.body(e.var), e.spec), depth + 1)
    raise TypeError(f"unknown node {e!r}")


def _oracle_step(state: Expr) -> list[Step]:
    """Every step keyed by (label, sorted instructions, target print)."""
    out: dict[tuple, Step] = {}
    for s in _oracle_derive(state, 0):
        key = (str(s.label), tuple(sorted(s.instr)), print_expr(s.target))
        out.setdefault(key, s)
    return [out[k] for k in sorted(out)]


def _oracle_explore(spec: ProcessSpec, state_cap: int = 512,
                    depth_cap: int = 256) -> ExplorationReport:
    """Breadth-first exploration naming each state by its canonical print."""
    states: list[ExploredState] = []
    transitions: list[ExploredTransition] = []
    by_key: dict[str, str] = {}
    truncated = False

    def admit(e: Expr) -> str | None:
        nonlocal truncated
        key = print_expr(e)
        if key in by_key:
            return by_key[key]
        if len(states) >= state_cap:
            truncated = True
            return None
        sid = f"s{len(states)}"
        by_key[key] = sid
        states.append(ExploredState(sid, e, key))
        return sid

    root_id = admit(spec.root)
    frontier = [(root_id, spec.root, 0)]
    expanded: set[str] = set()
    while frontier:
        next_frontier = []
        for sid, expr, depth in frontier:
            if sid in expanded:
                continue
            if depth >= depth_cap:
                truncated = True
                continue
            expanded.add(sid)
            for s in _oracle_step(expr):
                tid = admit(s.target)
                if tid is None:
                    continue
                comp = frozenset(spec.cmp_of(i) for i in s.instr)
                blocking = (not s.label.is_tau) and s.label.base not in spec.nonblocking
                transitions.append(ExploredTransition(
                    f"t{len(transitions)}", sid, tid, s.label, s.instr, comp, blocking))
                if tid not in expanded:
                    next_frontier.append((tid, s.target, depth + 1))
        frontier = next_frontier
    if len(expanded) < len(states):
        truncated = True
    return ExplorationReport(states, transitions, root_id, truncated)


def _printed(steps: list[Step]) -> list[tuple]:
    return [(str(s.label), tuple(sorted(s.instr)), print_expr(s.target)) for s in steps]


def _compare(spec: ProcessSpec, state_cap: int, depth_cap: int) -> Counter:
    """Equal save_lts bytes and equal step lists on every state of both
    explorations; counts the states, truncations and tied step groups."""
    tally: Counter = Counter()
    report = explore(spec, state_cap, depth_cap)
    oracle = _oracle_explore(spec, state_cap, depth_cap)
    assert save_lts(from_exploration(report)) == save_lts(from_exploration(oracle))
    for mine, theirs in zip(report.states, oracle.states):
        assert mine.key == print_expr(mine.expr) == theirs.key
        expected = _printed(_oracle_step(theirs.expr))
        assert _printed(step(mine.expr)) == expected
        assert _printed(step(theirs.expr)) == expected
        groups = Counter(key[:2] for key in expected)
        tally["tied groups"] += sum(n > 1 for n in groups.values())
    tally["states"] += len(report.states)
    tally["truncated"] += report.truncated
    return tally


def test_explore_matches_print_keyed_oracle_on_the_corpus():
    tally: Counter = Counter()
    for built in build_all():
        if built.spec is not None:
            tally += _compare(built.spec, built.entry.state_cap, built.entry.depth_cap)
            tally["systems"] += 1
    assert tally["systems"] >= 19 and tally["truncated"] >= 2


def test_explore_matches_print_keyed_oracle_on_ring_and_grid():
    for source in [_ring(k) for k in range(1, 7)] + [_grid(n) for n in range(1, 5)]:
        _compare(parse_ccs(source), 512, 256)
    # truncated by either cap
    _compare(parse_ccs(_grid(4)), 7, 256)
    _compare(parse_ccs(_ring(6)), 512, 3)


# Random closed terms.  Explicit instruction names come from a small pool
# per action, so one name can label several occurrences and a state can
# have steps that tie on (label, instruction set); parse_expression, unlike
# parse_ccs, does not reject such terms.  A definition body may name a
# variable only under a prefix, so every derivation terminates.

_ACTIONS = ("a", "'a", "b", "'b", "c", "tau", "d#1", "'d#2")
_RELABELLINGS = ("[a -> b, b -> a]", "[a -> c]", "[d#i -> d#(i+1)]", "[b -> d#2]")


def _random_prefix(rng: random.Random) -> str:
    action = rng.choice(_ACTIONS)
    tag = action.replace("'", "co").replace("#", "")
    return f"{action}{{{tag}{rng.randint(1, 2)}}}" if rng.random() < 0.8 else action


def _random_term(rng: random.Random, scope: list[str], allowed: list[str],
                 depth: int, fresh: list[int]) -> str:
    """A term over the variables of `scope`, naming unguarded only `allowed`.
    Twins (two prefixes before copies of one text) reach equal terms built
    from distinct parser nodes, labels and relabellings."""
    pick = rng.random()
    if depth <= 0 or pick < 0.2:
        return rng.choice(allowed) if allowed and rng.random() < 0.85 else "0"
    if pick < 0.5:
        return f"{_random_prefix(rng)}.{_random_term(rng, scope, scope, depth - 1, fresh)}"
    if pick < 0.58:
        twin = _random_term(rng, scope, scope, depth - 1, fresh)
        return f"({_random_prefix(rng)}.{twin} + {_random_prefix(rng)}.{twin})"
    if pick < 0.9:
        left = _random_term(rng, scope, allowed, depth - 1, fresh)
        right = _random_term(rng, scope, allowed, depth - 1, fresh)
        if pick < 0.72:
            return f"({left} + {right})"
        if pick < 0.8:
            return f"({left} | {right})"
        if pick < 0.85:
            return f"({left})\\{rng.choice('abcd')}"
        return f"({left}){rng.choice(_RELABELLINGS)}"
    return _random_group(rng, scope, allowed, depth, fresh)


def _random_group(rng, scope, allowed, depth, fresh) -> str:
    """A where group with fresh variables, so that no group shadows another."""
    names = []
    for _ in range(rng.randint(1, 3)):
        fresh[0] += 1
        names.append(f"Y{fresh[0]}")
    inner = scope + names
    body = _random_term(rng, inner, allowed + names, depth - 1, fresh)
    defs = ", ".join(f"{v} = {_random_term(rng, inner, [], depth - 1, fresh)}"
                     for v in names)
    return f"({body} where {defs})"


def test_explore_matches_print_keyed_oracle_on_random_terms():
    rng = random.Random(1810)
    tally: Counter = Counter()
    for _ in range(150):
        fresh = [0]
        text = _random_group(rng, [], [], 6, fresh)
        root = parse_expression(text)
        spec = ProcessSpec(root, {}, cmp_table(root),
                           nonblocking=frozenset(rng.sample("abc", rng.randint(0, 1))))
        tally += _compare(spec, rng.randint(1, 40), rng.randint(1, 12))
    assert tally["states"] > 1000 and tally["tied groups"] > 20 and tally["truncated"] > 20
