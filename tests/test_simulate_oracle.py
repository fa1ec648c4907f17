"""Differential tests of `simulate` against the walk-every-step simulation.

The oracle is the simulation that re-summed a state's weights at every step
and walked each unreached run to its horizon.  `simulate` now builds each
state's weight rows once and stops a run as soon as its fewest steps to the
goal exceed the steps it has left.  Every run draws from its own stream, so
both must give the same `ProbEstimate` on every input.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import example, given, strategies as st

from fairlab.corpus import _data, build_all
from fairlab.labels import parse_label
from fairlab.lts import AugmentedLTS, State, Transition, named_goal
from fairlab.verify import ProbEstimate, parse_weights, simulate


def _oracle_simulate(lts, goal, weights=None, horizon=200, runs=2000,
                     seed=0xC0FFEE) -> ProbEstimate:
    out_weights = {}
    for s in lts.states:
        rows = []
        for t in lts.outgoing(s.id):
            w = float(weights[t.id]) if weights and t.id in weights else 1.0
            rows.append((t.id, w, t.target))
        out_weights[s.id] = rows
    reached = 0
    for run in range(runs):
        rng = random.Random((seed << 32) ^ run)
        at = lts.initial[0] if len(lts.initial) == 1 else rng.choice(sorted(lts.initial))
        hit = at in goal
        for _ in range(horizon):
            if hit:
                break
            rows = out_weights[at]
            if not rows:
                break
            total = sum(w for _, w, _ in rows)
            x = rng.random() * total
            for _, w, target in rows:
                x -= w
                if x <= 0:
                    at = target
                    break
            else:
                at = rows[-1][2]
            if at in goal:
                hit = True
        if hit:
            reached += 1
    return ProbEstimate(runs, horizon, reached, Fraction(reached, runs), seed)


def _system(n, edges, initial):
    states = [State(f"s{k}", None) for k in range(n)]
    transitions = [Transition(f"t{k}", f"s{a}", f"s{b}", parse_label("a"),
                              None, None, False)
                   for k, (a, b) in enumerate(edges)]
    return AugmentedLTS(states, transitions, [f"s{k}" for k in initial])


@st.composite
def _cases(draw):
    n = draw(st.integers(1, 6))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=12))
    initial = draw(st.lists(node, min_size=1, max_size=2, unique=True))
    goal = draw(st.frozensets(node))
    weights = None
    if edges and draw(st.booleans()):
        weighted = draw(st.lists(st.integers(0, len(edges) - 1), unique=True, min_size=1))
        weights = {f"t{k}": Fraction(draw(st.integers(1, 30)), draw(st.integers(1, 7)))
                   for k in weighted}
    horizon = draw(st.sampled_from([0, 1, 2, 3, 5, 20]))
    runs = draw(st.integers(1, 50))
    seed = draw(st.integers(0, 2**20))
    return n, edges, initial, goal, weights, horizon, runs, seed


# a trap beside the goal, a deadlock, an initial state in the goal, an empty
# goal, two initial states with a self-loop
@example((3, [(0, 1), (0, 2), (2, 2)], [0], frozenset({1}), {"t1": Fraction(19)}, 20, 50, 1))
@example((3, [(0, 1), (0, 2)], [0], frozenset({2}), None, 5, 50, 2))
@example((2, [(0, 1)], [0, 1], frozenset({0}), None, 3, 20, 3))
@example((2, [(0, 1), (1, 0)], [0], frozenset(), None, 20, 10, 4))
@example((4, [(0, 0), (0, 3), (1, 2), (2, 3)], [0, 1], frozenset({3}), None, 2, 50, 5))
@given(_cases())
def test_simulate_matches_oracle_on_random_systems(case):
    n, edges, initial, goal, weights, horizon, runs, seed = case
    lts = _system(n, edges, initial)
    goal = frozenset(f"s{k}" for k in goal)
    want = _oracle_simulate(lts, goal, weights, horizon, runs, seed)
    assert simulate(lts, goal, weights, horizon, runs, seed).to_json() == want.to_json()


def test_simulate_matches_oracle_on_corpus_estimates():
    checked = 0
    for built in build_all():
        for goal_name, weights_file, horizon, runs, _, _ in built.entry.estimates:
            goal = named_goal(built.lts, goal_name)
            weights = parse_weights(_data(weights_file)) if weights_file else None
            want = _oracle_simulate(built.lts, goal, weights, horizon, runs)
            got = simulate(built.lts, goal, weights, horizon, runs)
            assert got.to_json() == want.to_json(), built.entry.id
            checked += 1
    assert checked == 3


def test_trapped_runs_stop_without_drawing(monkeypatch):
    draws = 0

    class Counting(random.Random):
        def random(self):
            nonlocal draws
            draws += 1
            return super().random()

    built = next(b for b in build_all("prob-notagef"))
    lts = built.lts
    weights = parse_weights(_data("weights-notagef.json"))
    monkeypatch.setattr(random, "Random", Counting)
    est = simulate(lts, named_goal(lts, "win"), weights, horizon=10_000, runs=50)
    assert est.reached < 50  # some runs are trapped
    assert draws <= 20 * 50
