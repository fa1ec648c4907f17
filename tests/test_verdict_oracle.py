"""Liveness verdicts against an exact oracle on systems of at most 7 states.

A property fails under a pathwise assumption exactly when some rooted run
that avoids the goal is complete and fair.  On a finite system such a run
either stops, where the assumption lets it stop, or stays for ever inside
a reachable, goal-avoiding, strongly connected set of states.  A walk
through every transition inside the set is then as fair as any run that
stays there, since each task that can occur there does.  So the oracle
says no when a rooted goal-avoiding finite run is complete, judged by
`_oracle_finite`, or when some such set's covering walk, written here, is
fair, judged by `_oracle_lasso`.  The sets come from the eager partition
and subset lists of `test_scc_oracle`; under justness the lasso's stem is
the parent's obligation search, `_oracle_find_stem`.  Under P a finite run
is complete where nothing can move, as under justness, and every infinite
run is fair.
"""

from __future__ import annotations

import random
from collections import Counter

from families import random_lts, witness_problem
from test_classify_oracle import _oracle_finite, _oracle_lasso
from test_scc_oracle import _scc_partition, _strongly_connected_subsets
from test_traversal_oracle import _oracle_find_stem

from fairlab.paths import Assumption, Lasso, PathPrefix, parse_assumption
from fairlab.verify import liveness

ASSUMPTIONS = [parse_assumption(text + reactive)
               for text in ["P", "just"] + [f"{x}:{y}" for x in "JWS" for y in "ATIC"]
               for reactive in ("", ",reactive")]


def _rooted_walks(lts, goal) -> dict[str, tuple]:
    """A rooted goal-avoiding walk (start, steps) to each state that has one,
    by extending walks along every transition until none is new."""
    walks = {s: (s, ()) for s in lts.initial if s not in goal}
    grown = True
    while grown:
        grown = False
        for t in lts.transitions:
            if t.source in walks and t.target not in walks and t.target not in goal:
                start, steps = walks[t.source]
                walks[t.target] = (start, steps + (t.id,))
                grown = True
    return walks


def _path(edges, frm, to) -> tuple:
    """Some path from frm to to along `edges`, by depth-first search; the
    edges span a strongly connected set holding both."""
    paths, stack = {frm: ()}, [frm]
    while to not in paths:
        at = stack.pop()
        for t in edges:
            if t.source == at and t.target not in paths:
                paths[t.target] = paths[at] + (t.id,)
                stack.append(t.target)
    return paths[to]


def _covering_walk(edges, entry) -> tuple:
    """A closed walk from entry that takes each of `edges` in turn."""
    walk, at = (), entry
    for t in edges:
        walk += _path(edges, at, t.source) + (t.id,)
        at = t.target
    return walk + _path(edges, at, entry)


def _cycles(lts, region) -> list[tuple[str, tuple]]:
    """(entry, covering walk) for each strongly connected subset of the region."""
    succ = {s: sorted({t.target for t in lts.outgoing(s) if t.target in region})
            for s in region}
    out = []
    for scc in _scc_partition(set(region), succ.__getitem__):
        for states in _strongly_connected_subsets(scc, succ.__getitem__):
            edges = [t for t in lts.transitions if t.source in states and t.target in states]
            out.append((states[0], _covering_walk(edges, states[0])))
    return out


def _oracle_no(lts, walks, cycles, a) -> bool:
    finite = Assumption("Just", reactive=a.reactive) if a.kind == "P" else a
    if any(_oracle_finite(lts, PathPrefix(*walks[s]), finite) for s in sorted(walks)):
        return True
    for entry, cycle in cycles:
        stem = (_oracle_find_stem(lts, set(walks), entry, list(cycle), a)
                if a.kind == "Just" else walks[entry])
        if stem is not None and (a.kind == "P" or _oracle_lasso(
                lts, Lasso(stem[0], tuple(stem[1]), cycle), a)):
            return True
    return False


def test_verdicts_match_the_exact_oracle_on_small_random_systems():
    rng, tally, problems = random.Random(3016), Counter(), []
    for k in range(1000):
        lts = random_lts(rng, states=(1, 7), transitions=(1, 10), initial=2)
        goal = frozenset(s.id for s in lts.states if rng.random() < 0.3)
        walks = _rooted_walks(lts, goal)
        cycles = _cycles(lts, walks)
        for a in ASSUMPTIONS:
            verdict = liveness(lts, goal, a)
            want = "no" if _oracle_no(lts, walks, cycles, a) else "yes"
            tally[verdict.holds] += 1
            tally["lasso"] += isinstance(verdict.witness, Lasso)
            if verdict.holds != want:
                problems.append((k, str(a), verdict.holds, want))
            elif problem := witness_problem(lts, goal, a, verdict):
                problems.append((k, str(a), verdict.witness, problem))
    assert not problems, problems[:5]
    assert tally["yes"] > 8000 and tally["no"] > 19000 and tally["lasso"] > 8000, tally
