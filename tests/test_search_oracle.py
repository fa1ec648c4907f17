"""The breadth-first search layer of `verify` against fixpoint distances.

The oracle knows nothing of frontiers: it relaxes every edge of a list
until no distance shrinks.  Forward over the transitions it gives what
`reachable_states` must reach, with and without the goal filter `_region`
applies; backward, over the non-blocking transitions only under
,reactive, it gives the distances `_co_reachable` must return.  A stem
from `_stem_into` must be a rooted walk inside its region whose length is
the oracle's distance to the targets, and `_covering_cycle` must close at
its entry after taking every induced transition of a strongly connected
set.  The systems are random ones with blocking steps, up to three
initial states and random goals, and every corpus system under each of
its goals and the empty one.
"""

from __future__ import annotations

import math
import random
from collections import Counter

from families import random_lts

from fairlab import verify
from fairlab.corpus import build_all
from fairlab.lts import named_goal


def _distances(sources, edges) -> dict[str, int]:
    """Fewest edges from any of `sources` to each node, by relaxing every
    (from, to) pair of `edges` until nothing changes."""
    dist = dict.fromkeys(sources, 0)
    changed = True
    while changed:
        changed = False
        for u, v in edges:
            if u in dist and dist[u] + 1 < dist.get(v, math.inf):
                dist[v] = dist[u] + 1
                changed = True
    return dist


def _walk_end(lts, start, steps, region):
    """The state a walk ends at, checking that each step leaves the state
    the walk is at and stays in the region."""
    at = start
    for tid in steps:
        t = lts.transition(tid)
        assert t.source == at and t.target in region, (start, steps)
        at = t.target
    return at


def _check_reachability(lts, goal, tally) -> None:
    forward = [(t.source, t.target) for t in lts.transitions]
    assert verify.reachable_states(lts) == set(_distances(lts.initial, forward))
    outside = [s for s in lts.initial if s not in goal]
    avoiding = _distances(outside, [(u, v) for u, v in forward if v not in goal])
    assert verify.reachable_states(lts, set(outside), lambda t: t.target not in goal) \
        == set(avoiding)
    assert verify._region(lts, goal).states == set(avoiding)
    for reactive in (False, True):
        backward = [(t.target, t.source) for t in lts.transitions
                    if not (reactive and t.blocking)]
        assert verify._co_reachable(lts, goal, reactive) == _distances(goal, backward)
    tally["reach"] += 1


def _check_stems(lts, region, rng, tally) -> None:
    """Every state of the region alone as the target, and one drawn set."""
    inside = [(t.source, t.target) for t in lts.transitions
              if t.source in region and t.target in region]
    starts = [s for s in lts.initial if s in region]
    dist = _distances(starts, inside)
    for targets in [{s} for s in sorted(region)] + [set(rng.sample(sorted(region),
                                                                   rng.randint(1, len(region))))]:
        want = min((dist[s] for s in targets if s in dist), default=None)
        found = verify._stem_into(lts, region, targets)
        if want is None:
            assert found is None, targets
            tally["no stem"] += 1
            continue
        start, steps = found
        assert start in starts and len(steps) == want, (targets, found, want)
        assert _walk_end(lts, start, steps, region) in targets
        tally["stem"] += 1


def _check_cycles(lts, region, tally) -> None:
    """Each strongly connected subset of the region's SCCs of at most 7
    states, and each larger SCC whole, from every entry."""
    for scc in region.sccs:
        subsets = (verify._strongly_connected_subsets(scc, region.succ.__getitem__)
                   if len(scc) <= 7 else [scc])
        for cset in subsets:
            edges = [t for s in cset for t in region.out[s] if t.target in cset]
            for entry in cset:
                walk = verify._covering_cycle(edges, entry)
                assert set(walk) == {t.id for t in edges}, (cset, entry, walk)
                assert _walk_end(lts, entry, walk, cset) == entry
                tally["cycle"] += 1


def _check(lts, goal, rng, tally) -> None:
    _check_reachability(lts, goal, tally)
    region = verify._region(lts, goal)
    # liveness's regions, and the whole system as the Fu/ST/Pr witnesses search it
    for states in (region.states, set(lts.state_ids())):
        if states:
            _check_stems(lts, states, rng, tally)
    _check_cycles(lts, region, tally)


def test_searches_match_fixpoint_distances_on_random_systems():
    rng, tally = random.Random(30), Counter()
    for _ in range(1500):
        lts = random_lts(rng, states=(1, 7), transitions=(1, 12), initial=3)
        _check(lts, frozenset(s.id for s in lts.states if rng.random() < 0.3), rng, tally)
    assert tally["reach"] == 1500, tally
    assert tally["stem"] > 8000 and tally["no stem"] > 1500 and tally["cycle"] > 1500, tally


def test_searches_match_fixpoint_distances_on_the_corpus():
    rng, tally = random.Random(30), Counter()
    for built in build_all():
        lts = built.lts
        for goal in [frozenset()] + [named_goal(lts, g) for g in sorted(lts.goals)]:
            _check(lts, goal, rng, tally)
    assert tally["reach"] > 40 and tally["stem"] > 1200 and tally["cycle"] > 600, tally
