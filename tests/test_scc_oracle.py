"""The fair-cycle probe's graph helpers against the eager versions they
replaced, which this module keeps verbatim as oracles: a Tarjan partition
that tracks an `advanced` flag and a `counter` cell, a list of every
strongly connected subset built before any is judged, and a strong
connectivity test that sorts the set and scans every member's successor
list on each backward step.  The partitions and the subset sequences must
be equal, in order, since the first fair subset is the witness."""

from __future__ import annotations

import itertools
import json
import random

from fairlab import verify
from fairlab.corpus import build_all
from fairlab.labels import parse_label
from fairlab.lts import AugmentedLTS, State, Transition, named_goal
from fairlab.paths import Assumption


def _scc_partition(nodes: set[str], succ) -> list[list[str]]:
    """Tarjan over an explicit successor function (iterative)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on: set[str] = set()
    stack: list[str] = []
    out: list[list[str]] = []
    counter = [0]

    for root in sorted(nodes):
        if root in index:
            continue
        work = [(root, iter(sorted(succ(root))))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on.add(w)
                    work.append((w, iter(sorted(succ(w)))))
                    advanced = True
                    break
                if w in on:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                out.append(sorted(comp))
    return out


def _strongly_connected_subsets(scc: list[str], succ) -> list[list[str]]:
    """All nonempty subsets of one SCC whose induced subgraph is strongly
    connected (single states only when they carry a self-loop)."""
    out = []
    for r in range(1, len(scc) + 1):
        for combo in itertools.combinations(scc, r):
            cset = set(combo)
            if _is_strongly_connected(cset, succ):
                out.append(list(combo))
    return out


def _is_strongly_connected(cset: set[str], succ) -> bool:
    start = next(iter(sorted(cset)))
    seen = {start}
    frontier = [start]
    edges = False
    while frontier:
        v = frontier.pop()
        for w in succ(v):
            if w in cset:
                edges = True
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
    if seen != cset:
        return False
    # reverse reachability
    rseen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for u in cset:
            if v in succ(u) and u not in rseen:
                rseen.add(u)
                frontier.append(u)
    if rseen != cset:
        return False
    if len(cset) == 1:
        return start in succ(start)  # needs a self-loop
    return edges


def _compare(nodes: set[str], succ, tally) -> None:
    """The partition of `nodes` under `succ`, and the subset sequence of each
    of its SCCs with successors that may leave the SCC, as the region's do."""
    sccs = verify._scc_partition(nodes, succ)
    assert sccs == _scc_partition(nodes, succ)
    for scc in sccs:
        subsets = list(verify._strongly_connected_subsets(scc, succ))
        assert subsets == _strongly_connected_subsets(scc, succ), scc
        tally["sccs"] += 1
        tally["subsets"] += len(subsets)
        tally["big"] += len(scc) >= 6 and len(subsets) > 1


def test_partitions_and_subsets_match_the_oracle_on_random_graphs():
    rng = random.Random(28)
    tally = {"sccs": 0, "subsets": 0, "big": 0}
    for _ in range(600):
        names = rng.sample("abcdefghijklmnopqrstuvwxyz", rng.randint(1, 9))
        density = rng.choice((0.1, 0.2, 0.35, 0.6))
        succ = {v: sorted(w for w in names if rng.random() < density) for v in names}
        _compare(set(names), succ.__getitem__, tally)
        # `_fair_states` partitions what is left of an SCC after a cut
        rest = set(rng.sample(names, rng.randint(1, len(names))))
        assert (verify._scc_partition(rest, lambda v: rest.intersection(succ[v]))
                == _scc_partition(rest, lambda v: rest.intersection(succ[v])))
    assert tally["sccs"] > 1000 and tally["subsets"] > 10_000 and tally["big"] > 80, tally


def test_partitions_and_subsets_match_the_oracle_on_every_corpus_region():
    tally = {"sccs": 0, "subsets": 0, "big": 0}
    for built in build_all():
        lts = built.lts
        if lts.truncated:
            continue
        for goal_name in sorted(lts.goals):
            region = verify._region(lts, named_goal(lts, goal_name))
            assert region.sccs == _scc_partition(region.states, region.succ.__getitem__)
            _compare(region.states, region.succ.__getitem__, tally)
    assert tally["sccs"] > 20 and tally["big"] > 0, tally


def _ring_with_a_self_loop(n: int, loop_at: int) -> AugmentedLTS:
    """States s00 ... s(n-1) on one a-cycle, with a b-loop at s(loop_at)."""
    ids = [f"s{k:02d}" for k in range(n)]
    transitions = [Transition(f"t{k}", ids[k], ids[(k + 1) % n], parse_label("a"),
                              None, None, True) for k in range(n)]
    transitions.append(Transition("loop", ids[loop_at], ids[loop_at], parse_label("b"),
                                  None, None, True))
    return AugmentedLTS([State(s, None) for s in ids], transitions, [ids[0]])


def test_a_no_row_stops_at_its_witness(monkeypatch):
    """On a 12-state cycle with one self-loop, P's `no` row tests the single
    states up to the looping one, whose self-loop is its witness, and not
    every one of the 2^12 - 1 subsets; the witness is the eager one's."""
    lts = _ring_with_a_self_loop(12, 5)
    calls = []
    real = verify._is_strongly_connected
    monkeypatch.setattr(verify, "_is_strongly_connected",
                        lambda cset, *args: calls.append(cset) or real(cset, *args))
    verdict = verify.liveness(lts, frozenset(), Assumption("P"))
    assert verdict.holds == "no" and verdict.witness.cycle == ("loop",)
    assert calls == [{f"s{k:02d}"} for k in range(6)]
    monkeypatch.setattr(verify, "_strongly_connected_subsets", _strongly_connected_subsets)
    eager = verify.liveness(lts, frozenset(), Assumption("P"))
    assert json.dumps(eager.to_json()) == json.dumps(verdict.to_json())
