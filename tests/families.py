"""What the test modules share.

The generated system families, as CCS source: `_ring(k)` is a component on a
k-step cycle beside one that can do `done` once, and `_grid(n)` is n
independent components that each loop on a_i or stop with b_i, 2^n states
in all.  `random_lts` draws a small handwritten system, each test module
passing the distribution it needs.  `witness_problem` judges a liveness
verdict's witness by what it is, not by its bytes.  `_built` indexes corpus
builds by entry id, and `_outcome` turns an AnnotationError into a
comparable text.
"""

from __future__ import annotations

from fairlab.corpus import build_all
from fairlab.labels import parse_label
from fairlab.lts import AnnotationError, AugmentedLTS, State, Transition
from fairlab.paths import Lasso, classify_finite, classify_lasso


def _ring(k: int) -> str:
    return "X | done where X = " + ".".join(f"a{i}" for i in range(k)) + ".X"


def _grid(n: int) -> str:
    return (" | ".join(f"X{i}" for i in range(n)) + " where "
            + ", ".join(f"X{i} = a{i}.X{i} + b{i}.0" for i in range(n)))


def _built(pattern):
    return {b.entry.id: b for b in build_all(pattern)}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except AnnotationError as exc:
        return f"AnnotationError: {exc}"


def random_lts(rng, states=(1, 4), transitions=(1, 7), labels=("a", "b", "'a", "tau"),
               instr=("i1", "i2", "i3"), instr_sizes=(1, 2), instr_missing=0.0,
               comp=("L", "R", "M"), comp_sizes=(1, 2), comp_missing=0.0,
               initial=1, truncated=0.0) -> AugmentedLTS:
    """A handwritten system on states s0, s1, ... and transitions t0, t1, ...

    `states`, `transitions` and the `*_sizes` are inclusive (least, most)
    counts.  Each transition draws its source, target, label, instr set,
    comp set and blocking flag, in that order.  An annotation is missing
    with its `*_missing` share (a share of 0 draws nothing) and on every
    transition when its pool is None.  `initial` > 1 draws 1 to that many
    initial states; otherwise s0 alone is initial.  The system is marked
    truncated with the `truncated` share.
    """
    n = rng.randint(*states)

    def annotation(pool, sizes, missing):
        if pool is None or (missing and rng.random() < missing):
            return None
        return frozenset(rng.sample(pool, rng.randint(*sizes)))

    steps = [Transition(f"t{k}", f"s{rng.randrange(n)}", f"s{rng.randrange(n)}",
                        parse_label(rng.choice(labels)),
                        annotation(instr, instr_sizes, instr_missing),
                        annotation(comp, comp_sizes, comp_missing), rng.random() < 0.5)
             for k in range(rng.randint(*transitions))]
    ids = [f"s{k}" for k in range(n)]
    first = ids[:1] if initial <= 1 else rng.sample(ids, rng.randint(1, min(initial, n)))
    return AugmentedLTS([State(s, None) for s in ids], steps, first,
                        truncated=truncated > 0 and rng.random() < truncated)


def witness_problem(lts, goal, assumption, verdict) -> str | None:
    """What is wrong with a liveness verdict's witness, or None.

    A `no` under a pathwise assumption needs a witness that validates,
    starts at an initial state, never enters the goal and is fair: a lasso
    by `classify_lasso`, a finite path by `classify_finite`.  A `no` under
    Fu, ST or Pr needs a rooted prefix whose last state cannot reach the
    goal, along non-blocking steps only under ,reactive.  Any other verdict
    needs no witness.
    """
    w = verdict.witness
    if verdict.holds != "no":
        return None
    if w is None:
        return "a no verdict without a witness"
    try:
        w.validate(lts)
    except ValueError as exc:
        return f"the witness does not validate: {exc}"
    if w.start not in lts.initial:
        return f"the witness starts at {w.start!r}, which is not initial"
    lasso = isinstance(w, Lasso)
    if not assumption.pathwise():
        if lasso:
            return "a reachability witness must be a finite prefix"
        seen = {w.end(lts)}
        frontier = list(seen)
        while frontier:
            for t in lts.outgoing(frontier.pop()):
                if not (assumption.reactive and t.blocking) and t.target not in seen:
                    seen.add(t.target)
                    frontier.append(t.target)
        return "the goal is reachable from the witness's end" if seen & goal else None
    steps = w.stem + w.cycle if lasso else w.steps
    entered = goal & {w.start, *(lts.transition(tid).target for tid in steps)}
    if entered:
        return f"the witness enters the goal at {min(entered)!r}"
    fair = classify_lasso(lts, w, assumption) if lasso else classify_finite(lts, w, assumption)
    return None if fair else f"the witness is not {assumption}-fair"
