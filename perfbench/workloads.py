"""The benchmark's workloads and their oracles.

Every workload runs one pipeline per system: build (source -> queryable
transition system), verify (a matrix of `liveness` calls) and analyze (the
other user-facing analyses).  Calls into fairlab go through a `Recorder`
(see spans.py), which charges them to a phase and a layer.  Results are
checked against oracles written here, not computed by the code under test:
hand-derived verdict tables for the generated families, and the recorded
expectations for the bundled corpus.

The seed only permutes the order of systems and queries: the work done and
the outputs are the same for every seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from fairlab import (Assumption, Bounds, GoalSpec, Lasso, PathPrefix, Task,
                     TaskSet, check_fragment, classify_finite, classify_lasso,
                     explore, extract_tasks, from_exploration, hierarchy_check,
                     liveness, load_lts, loopfree_witness, named_goal,
                     parse_assumption, parse_ccs, save_lts, simulate,
                     validate_side_conditions)
from fairlab.corpus import corpus_entries
from fairlab.lts import AnnotationError
from fairlab.ltl import (convert_lasso, eval_ltl, ltl_convert,
                         strong_fairness_formula, weak_fairness_formula)
from fairlab.paths import prefix_certificate
from fairlab.verify import figure2_arrows, rooted_walks, simple_cycles_at

NOTIONS = ("A", "T", "I", "Z", "C", "G")

# The 28-assumption matrix both generated families are verified under.
MATRIX = (["P"] + [f"{x}:{y}" for x in "JWS" for y in NOTIONS]
          + ["just", "SWI", "ST", "Fu", "Pr"]
          + [f"{a},reactive" for a in ("P", "W:A", "S:C", "just")])

# Explicit caps far above the family sizes, so no generated system is truncated.
FAMILY_CAPS = (100_000, 100_000)

# Lasso bounds of the corpus hierarchy check and LTL cross-check.  The
# families run the hierarchy check on their smallest size only, with small
# bounds: it belongs to the corpus workload, and on grid it would dominate.
HIERARCHY_BOUNDS = Bounds(2, 4)
LTL_BOUNDS = Bounds(2, 3)
FAMILY_HIERARCHY_BOUNDS = Bounds(1, 2)

REACTIVE_ROWS = ("P,reactive", "W:A,reactive", "S:C,reactive", "just,reactive")
AGEF_ROWS = ("ST", "Fu", "Pr")


def _table(rows) -> dict[str, tuple[str, str]]:
    """Expand (assumptions, expected, reason) rows; every matrix entry once."""
    out: dict[str, tuple[str, str]] = {}
    for assumptions, expected, reason in rows:
        for a in assumptions:
            if a in out:
                raise ValueError(f"oracle row {a} given twice")
            out[a] = (expected, reason)
    if sorted(out) != sorted(MATRIX):
        raise ValueError("oracle table does not cover the matrix exactly")
    return out


# ring(k): X | done where X = a0.a1. ... .a(k-1).X, goal "done has happened".
# The goal-avoiding region is the k-state a-cycle, one SCC.
RING_ORACLE = _table([
    (["P"], "no", "progress lets the a-cycle run forever"),
    (["J:T", "W:T"], "no",
     "each done transition leaves one cycle state only, so none stays enabled"),
    ([f"J:{y}" for y in "AIZCG"], "yes",
     "the done task is enabled at every cycle state, concurrent with every a-step"),
    ([f"W:{y}" for y in "AIZCG"], "yes",
     "the done task is enabled at every cycle state and never occurs"),
    ([f"S:{y}" for y in NOTIONS], "yes",
     "some done transition is enabled infinitely often and none occurs"),
    (["just"], "yes", "done is concurrent with the cycle, which never interferes with it"),
    (["SWI"], "yes", "done's instruction is requested and enabled all along the cycle"),
    (AGEF_ROWS, "yes", "done is reachable from every reachable state"),
    (REACTIVE_ROWS, "no", "every transition blocks, so reactive rows promise nothing"),
])

# grid(n): X0 | ... | X(n-1) where Xi = ai.Xi + bi.0, goal "all components are 0".
# Every ai is a self-loop, so the goal-avoiding region is 2^n - 1 states,
# each its own SCC with n' self-loops.
GRID_ORACLE = _table([
    (["P"], "no", "progress lets an ai self-loop repeat forever"),
    ([f"J:{y}" for y in NOTIONS], "no",
     "ai shares its component with bi, so a round robin of a-loops interrupts every task"),
    (["W:C", "W:G", "S:C", "S:G"], "no",
     "a round robin of a-loops serves every component and group task"),
    ([f"W:{y}" for y in "ATIZ"] + [f"S:{y}" for y in "ATIZ"], "yes",
     "bi stays enabled at the loop state and never occurs"),
    (["just"], "no", "ai interferes with bi, so a round robin of a-loops is just"),
    (["SWI"], "yes", "bi's instruction is requested and enabled throughout and never occurs"),
    (AGEF_ROWS, "yes", "the all-0 state is reachable from every reachable state"),
    (REACTIVE_ROWS, "no", "every transition blocks, so reactive rows promise nothing"),
])


def ring_source(k: int) -> str:
    return "X | done where X = " + ".".join(f"a{i}" for i in range(k)) + ".X"


def grid_source(n: int) -> str:
    return (" | ".join(f"X{i}" for i in range(n)) + " where "
            + ", ".join(f"X{i} = a{i}.X{i} + b{i}.0" for i in range(n)))


@dataclass(frozen=True)
class Family:
    """A generated family: sources, goal, oracle and size-dependent facts."""

    name: str
    sizes: tuple[int, ...]
    source: object  # size -> CCS text
    goal: object  # size -> GoalSpec
    oracle: dict
    states: object  # size -> number of states
    transitions: object  # size -> number of transitions
    task_counts: object  # size -> {notion: number of tasks}
    loopfree_longest: object  # size -> longest loop-free goal-avoiding rooted path
    lap: object  # size -> action labels of a goal-avoiding walk from the root
    certificates: tuple  # (action task, enabled everywhere, occurs) along the lap


RING = Family(
    name="ring", sizes=(10, 12, 14), source=ring_source,
    goal=lambda k: GoalSpec.component_at("R", "0"), oracle=RING_ORACLE,
    states=lambda k: 2 * k, transitions=lambda k: 3 * k,
    task_counts=lambda k: {"A": k + 1, "T": 3 * k, "I": k + 1, "Z": k + 1,
                           "C": 2, "G": 2},
    loopfree_longest=lambda k: k - 1,
    lap=lambda k: [f"a{i}" for i in range(k)],
    certificates=(("done", True, False), ("a0", False, True)),
)

GRID = Family(
    name="grid", sizes=(5, 6, 7), source=grid_source,
    goal=lambda n: GoalSpec.state_is(" | ".join(["0"] * n)), oracle=GRID_ORACLE,
    states=lambda n: 2 ** n, transitions=lambda n: n * 2 ** n,
    task_counts=lambda n: {"A": 2 * n, "T": n * 2 ** n, "I": 2 * n, "Z": 2 * n,
                           "C": n, "G": n},
    loopfree_longest=lambda n: n - 1,
    lap=lambda n: [f"a{i}" for i in range(n)],
    certificates=(("b0", True, False), ("a0", True, True)),
)


# ---------------------------------------------------------------------------
# Inputs (generated during set-up, before the first timed call).
# ---------------------------------------------------------------------------

@dataclass
class FamilyInput:
    family: Family
    size: int
    name: str
    text: str
    small: bool  # the smallest size also runs the LTL and hierarchy checks


def family_inputs(family: Family) -> list[FamilyInput]:
    return [FamilyInput(family, n, f"{family.name}({n})", family.source(n),
                        n == min(family.sizes))
            for n in family.sizes]


def _corpus_file(name: str) -> str:
    return resources.files("fairlab.corpus_data").joinpath(name).read_text()


@dataclass
class CorpusInput:
    entry: object  # fairlab.corpus.CorpusEntry
    text: str
    weights: dict


def corpus_inputs() -> list[CorpusInput]:
    out = []
    for entry in corpus_entries():
        weights = {}
        for _, weights_file, *_ in entry.estimates:
            if weights_file:
                raw = json.loads(_corpus_file(weights_file))["weights"]
                weights[weights_file] = {k: Fraction(v) for k, v in raw.items()}
        out.append(CorpusInput(entry, _corpus_file(entry.source), weights))
    return out


# ---------------------------------------------------------------------------
# Shared pipeline steps.
# ---------------------------------------------------------------------------

def _path_states(lts, start: str, steps) -> list[str]:
    states = [start]
    for tid in steps:
        states.append(lts.transition(tid).target)
    return states


def _walk_labels(lts, labels) -> PathPrefix:
    """The path from the initial state taking the one transition per label."""
    at, steps = lts.initial[0], []
    for label in labels:
        hits = [t for t in lts.outgoing(at) if str(t.label) == label]
        if len(hits) != 1:
            raise LookupError(f"{len(hits)} {label}-transitions at {at}")
        steps.append(hits[0].id)
        at = hits[0].target
    return PathPrefix(lts.initial[0], tuple(steps))


def _attach_goals(rec, lts, goals) -> None:
    """Goals are GoalSpecs or builders over the system (corpus explicit goals)."""
    for goal_name, goal in goals.items():
        lts.goals[goal_name] = (rec.call("build", "lts.goal", goal, lts)
                                if callable(goal) else goal)


def _save_and_goals(rec, name: str, lts, reload: bool):
    """Save the system (and reload it, as `fairlab ccs2lts` followed by
    `fairlab liveness` would), then evaluate its goals."""
    saved = rec.call("build", "lts.save", save_lts, lts)
    if reload:
        lts = rec.call("build", "lts.load", load_lts, saved)
    rec.output(f"lts {name}", saved)
    size = len(saved.encode())
    rec.sizes[name] = (len(lts.states), len(lts.transitions), size)
    rec.counts["lts.json_bytes"] += size
    goals = {g: rec.call("build", "lts.goal", named_goal, lts, g) for g in sorted(lts.goals)}
    return lts, goals


def build_ccs(rec, name: str, text: str, caps, goals):
    spec = rec.call("build", "parser.parse", parse_ccs, text)
    rec.counts["parser.chars"] += len(text)
    diagnostics = rec.call("build", "syntax.check_fragment", check_fragment, spec)
    rec.check(not diagnostics, f"{name}: fragment diagnostics {diagnostics}")
    report = rec.call("build", "semantics.explore", explore, spec, *caps)
    rec.counts["semantics.states"] += len(report.states)
    rec.counts["semantics.transitions"] += len(report.transitions)
    lts = rec.call("build", "lts.from_exploration", from_exploration, report)
    _attach_goals(rec, lts, goals)
    return _save_and_goals(rec, name, lts, reload=True)


def build_json(rec, name: str, text: str, goals):
    lts = rec.call("build", "lts.load", load_lts, text)
    _attach_goals(rec, lts, goals)
    return _save_and_goals(rec, name, lts, reload=False)


def extract_all(rec, lts) -> dict[str, TaskSet]:
    """Task sets of every notion the system's annotations support."""
    out = {}
    for notion in NOTIONS:
        try:
            out[notion] = rec.call("analyze", "tasks.extract", extract_tasks, lts, notion)
        except AnnotationError:
            continue  # handwritten systems without instr/comp annotations
        rec.counts["tasks.count"] += len(out[notion].tasks)
    return out


def run_query(rec, name: str, lts, goal, goal_name: str, text: str,
              assumption: Assumption):
    """One `liveness` call, its output recorded; then its witness checked:
    a `no` needs a goal-avoiding witness that is fair under the assumption."""
    verdict = rec.call("verify", "verify.liveness", liveness, lts, goal, assumption,
                       goal_name=goal_name)
    rec.counts["verify.liveness.calls"] += 1
    rec.counts[f"verify.liveness.{verdict.holds}"] += 1
    rec.output(f"verdict {name} {text} {goal_name}",
               json.dumps(verdict.to_json(), sort_keys=True))
    if verdict.holds != "no":
        return verdict
    witness = verdict.witness
    if isinstance(witness, Lasso):
        fair = rec.call("analyze", "paths.classify", classify_lasso, lts, witness, assumption)
        rec.counts["paths.classify_calls"] += 1
        states = _path_states(lts, witness.start, witness.stem + witness.cycle)
    elif isinstance(witness, PathPrefix):
        fair = True  # Fu/ST/Pr witnesses end where the goal is unreachable
        if assumption.pathwise():
            fair = rec.call("analyze", "paths.classify", classify_finite, lts, witness,
                            assumption)
            rec.counts["paths.classify_calls"] += 1
        states = _path_states(lts, witness.start, witness.steps)
    else:
        rec.check(False, f"{name} {text} {goal_name}: 'no' without a witness")
        return verdict
    rec.check(fair and not goal.intersection(states),
              f"{name} {text} {goal_name}: witness fair={fair}, "
              f"avoids goal={not goal.intersection(states)}")
    return verdict


def ltl_formulas(rec, tasksets: dict[str, TaskSet]):
    return {notion: (rec.call("analyze", "ltl.convert", weak_fairness_formula, ts),
                     rec.call("analyze", "ltl.convert", strong_fairness_formula, ts))
            for notion, ts in tasksets.items()}


def ltl_agreement(rec, name: str, lts, conv, formulas, lasso: Lasso) -> None:
    """Direct classification and the LTL encodings agree under W:y and S:y."""
    classo = rec.call("analyze", "ltl.convert", convert_lasso, conv, lasso)
    for notion, (weak, strong) in formulas.items():
        for kind, formula in (("W", weak), ("S", strong)):
            direct = rec.call("analyze", "paths.classify", classify_lasso, lts, lasso,
                              Assumption(kind, notion))
            encoded = rec.call("analyze", "ltl.eval", eval_ltl, conv, classo, formula)
            rec.counts["paths.classify_calls"] += 1
            rec.counts["ltl.eval_calls"] += 1
            rec.check(direct == encoded,
                      f"{name} {kind}:{notion} {lasso}: direct={direct} ltl={encoded}")


def convert(rec, lts):
    conv = rec.call("analyze", "ltl.convert", ltl_convert, lts)
    rec.counts["ltl.converted_transitions"] += len(conv.lts.transitions)
    return conv


def ltl_crosscheck(rec, name: str, lts, tasksets, bounds: Bounds) -> None:
    """Acceptance criterion 5: over every rooted lasso within the bounds (one
    stem per cycle entry), the LTL encodings agree with the classifier."""
    conv = convert(rec, lts)
    formulas = ltl_formulas(rec, tasksets)
    walks = rec.call("analyze", "verify.enumerate", rooted_walks, lts, bounds.stem)
    for entry in sorted(walks):
        start, steps = walks[entry][0]
        for cycle in rec.call("analyze", "verify.enumerate", simple_cycles_at,
                              lts, entry, bounds.cycle):
            ltl_agreement(rec, name, lts, conv, formulas, Lasso(start, steps, cycle))


def hierarchy(rec, name: str, lts, arrows, bounds: Bounds) -> None:
    """Fig. 2: no lasso within the bounds is fair under the stronger
    assumption and unfair under the weaker one, wherever the arrow's side
    conditions validate."""
    for stronger, weaker, conditions in arrows:
        report = rec.call("analyze", "verify.hierarchy", hierarchy_check, lts,
                          stronger, weaker, bounds, conditions)
        rec.counts["verify.hierarchy.runs"] += 1
        if report.skipped:
            rec.counts["verify.hierarchy.skipped"] += 1
            continue
        rec.counts["verify.hierarchy.checked"] += report.checked
        rec.check(not report.violations,
                  f"{name} {stronger} -> {weaker}: {report.violations[:1]}")


def validate(rec, name: str, lts) -> None:
    """Every side condition of an explored (non-truncated) CCS system holds.
    Other systems have no such oracle, so they are not validated."""
    if lts.origin != "ccs" or lts.truncated:
        return
    reports = rec.call("analyze", "lts.validate", validate_side_conditions, lts)
    bad = [r.name for r in reports if not (r.checked and r.holds)]
    rec.check(not bad, f"{name}: side conditions fail {bad}")


def guarded(rec, what: str, fn, *args) -> None:
    """Run one step of a pipeline; an exception counts as a failed result and
    the round goes on with the next step."""
    try:
        fn(*args)
    except Exception as exc:  # the benchmark must report, not stop
        rec.error(what, exc)


# ---------------------------------------------------------------------------
# Generated families.
# ---------------------------------------------------------------------------

def run_family_system(rec, item: FamilyInput, rng: random.Random) -> None:
    fam, n, name = item.family, item.size, item.name
    lts, goals = build_ccs(rec, name, item.text, FAMILY_CAPS, {"goal": fam.goal(n)})
    goal = goals["goal"]
    rec.check((len(lts.states), len(lts.transitions)) == (fam.states(n), fam.transitions(n)),
              f"{name}: {len(lts.states)} states, {len(lts.transitions)} transitions")
    tasksets = extract_all(rec, lts)
    counts = {y: len(ts.tasks) for y, ts in tasksets.items()}
    rec.check(counts == fam.task_counts(n), f"{name}: task counts {counts}")

    witnesses = []
    queries = list(MATRIX)
    rng.shuffle(queries)
    for text in queries:
        expected, reason = fam.oracle[text]
        with rec.in_query(text):
            try:
                verdict = run_query(rec, name, lts, goal, "goal", text, parse_assumption(text))
            except Exception as exc:  # counted, and the matrix goes on
                rec.error(f"{name} {text}", exc)
                continue
        rec.check(verdict.holds == expected,
                  f"{name} {text}: {verdict.holds}, expected {expected} ({reason})")
        if text[:2] in ("W:", "S:") and "," not in text and isinstance(verdict.witness, Lasso):
            witnesses.append((text, verdict.witness))

    guarded(rec, f"{name} validate", validate, rec, name, lts)
    guarded(rec, f"{name} certificates", _family_certificates, rec, item, lts,
            tasksets["A"])
    guarded(rec, f"{name} simulate", _family_simulate, rec, name, lts, goal)
    guarded(rec, f"{name} loopfree", _family_loopfree, rec, item, lts, goal)
    if item.small:
        guarded(rec, f"{name} ltl", _family_ltl, rec, name, lts, tasksets, witnesses)
        arrows = [a for a in figure2_arrows() if not a[2]]
        guarded(rec, f"{name} hierarchy", hierarchy, rec, name, lts, arrows,
                FAMILY_HIERARCHY_BOUNDS)


def _family_certificates(rec, item: FamilyInput, lts, actions: TaskSet) -> None:
    lap = _walk_labels(lts, item.family.lap(item.size))
    for label, everywhere, occurs in item.family.certificates:
        cert = rec.call("analyze", "paths.certificate", prefix_certificate, lts, lap,
                        actions.get(f"A:{label}"))
        rec.check((cert.enabled_everywhere, cert.occurs) == (everywhere, occurs),
                  f"{item.name} certificate A:{label}: {cert}")


def _family_simulate(rec, name: str, lts, goal) -> None:
    # at every goal-avoiding state half the transitions make progress (done,
    # or some bi), ring needs one such step and grid(n) n of them: 64
    # uniform steps miss the goal with negligible probability
    est = rec.call("analyze", "verify.simulate", simulate, lts, goal, None, 64, 64)
    rec.check(est.estimate >= Fraction(99, 100), f"{name}: estimate {est.estimate}")


def _family_loopfree(rec, item: FamilyInput, lts, goal) -> None:
    longest = item.family.loopfree_longest(item.size)
    lengths = [longest, longest + 1] if item.small else [longest]
    for length in lengths:
        found = rec.call("analyze", "verify.loopfree", loopfree_witness, lts, goal, length)
        rec.check((found is not None) == (length == longest),
                  f"{item.name}: loop-free path of length {length}: {found}")


def _family_ltl(rec, name: str, lts, tasksets, witnesses) -> None:
    """The LTL encoding of a W:y or S:y row holds on that row's witness."""
    conv = convert(rec, lts)
    for text, lasso in witnesses:
        kind, _, notion = text.partition(":")
        encode = weak_fairness_formula if kind == "W" else strong_fairness_formula
        formula = rec.call("analyze", "ltl.convert", encode, tasksets[notion])
        classo = rec.call("analyze", "ltl.convert", convert_lasso, conv, lasso)
        fair = rec.call("analyze", "ltl.eval", eval_ltl, conv, classo, formula)
        rec.counts["ltl.eval_calls"] += 1
        rec.check(fair, f"{name} {text}: the LTL encoding rejects the witness {lasso}")


def run_family(items: list[FamilyInput], rec, rng: random.Random) -> None:
    order = list(items)
    rng.shuffle(order)
    for item in order:
        with rec.pipeline(item.name):
            guarded(rec, f"{item.name} pipeline", run_family_system, rec, item, rng)


# ---------------------------------------------------------------------------
# The bundled corpus, replayed layer by layer.
# ---------------------------------------------------------------------------

def corpus_assumption(lts, text: str) -> Assumption:
    """The corpus's assumption syntax: x:custom=NAME names a task set of the
    system, or `zonly`, the local-fairness task holding just the z-steps."""
    if ":custom=" not in text:
        return parse_assumption(text)
    kind, _, rest = text.partition(":custom=")
    name, _, flag = rest.partition(",")
    if name == "zonly":
        zs = frozenset(t.id for t in lts.transitions if str(t.label) == "z")
        taskset = TaskSet("custom", (Task("z", zs),))
    else:
        taskset = lts.tasks[name]
    return Assumption(kind, "custom", taskset, flag == "reactive")


def run_corpus_entry(rec, item: CorpusInput, rng: random.Random) -> None:
    entry = item.entry
    name = entry.id
    if entry.kind == "ccs":
        lts, goals = build_ccs(rec, name, item.text,
                               (entry.state_cap, entry.depth_cap), entry.goals)
    else:
        lts, goals = build_json(rec, name, item.text, entry.goals)
    tasksets = extract_all(rec, lts)

    queries = list(entry.verdicts)
    rng.shuffle(queries)
    for text, goal_name, expected in queries:
        with rec.in_query(text):
            try:
                verdict = run_query(rec, name, lts, goals[goal_name], goal_name, text,
                                    corpus_assumption(lts, text))
            except Exception as exc:  # counted, and the entry goes on
                rec.error(f"{name} {text} {goal_name}", exc)
                continue
        rec.check(verdict.holds == expected,
                  f"{name} {text} {goal_name}: {verdict.holds}, expected {expected}")

    guarded(rec, f"{name} validate", validate, rec, name, lts)
    guarded(rec, f"{name} expectations", _corpus_expectations, rec, item, lts, goals,
            tasksets)
    if not lts.truncated:
        guarded(rec, f"{name} ltl", ltl_crosscheck, rec, name, lts, tasksets, LTL_BOUNDS)
        guarded(rec, f"{name} hierarchy", hierarchy, rec, name, lts, figure2_arrows(),
                HIERARCHY_BOUNDS)


def _corpus_task(lts, tasksets, spec):
    if spec[0] == "custom":
        return lts.tasks[spec[1]].get(spec[2])
    notion, task = spec
    return tasksets[notion].get(f"{notion}:{task}")


def _corpus_expectations(rec, item: CorpusInput, lts, goals, tasksets) -> None:
    """Every recorded expectation besides the verdicts, each in its layer.
    Building the entry's named lassos and prefixes is the benchmark's own
    overhead, not a layer."""
    entry, name = item.entry, item.entry.id
    for lasso_name, text, expected in entry.classifications:
        lasso = entry.lassos[lasso_name](lts)
        got = rec.call("analyze", "paths.classify", classify_lasso, lts, lasso,
                       corpus_assumption(lts, text))
        rec.counts["paths.classify_calls"] += 1
        rec.check(got == expected, f"{name} classify {lasso_name} {text}: {got}")
    for prefix_name, spec, expect_ee, expect_occ in entry.certificates:
        prefix = entry.prefixes[prefix_name](lts)
        if spec == ("T-singletons",):
            certs = [rec.call("analyze", "paths.certificate", prefix_certificate,
                              lts, prefix, task)
                     for task in tasksets["T"].tasks]
            got = any(c.enabled_everywhere for c in certs)
            rec.check(got == expect_ee, f"{name} certificate {prefix_name} T: {got}")
            continue
        cert = rec.call("analyze", "paths.certificate", prefix_certificate, lts, prefix,
                        _corpus_task(lts, tasksets, spec))
        rec.check((cert.enabled_everywhere, cert.occurs) == (expect_ee, expect_occ),
                  f"{name} certificate {prefix_name} {spec}: {cert}")
    for goal_name, bound, present in entry.loopfree:
        found = rec.call("analyze", "verify.loopfree", loopfree_witness, lts,
                         goals[goal_name], bound)
        rec.check((found is not None) == present, f"{name} loopfree {goal_name} {bound}")
    for goal_name, weights_file, horizon, runs, lo, hi in entry.estimates:
        est = rec.call("analyze", "verify.simulate", simulate, lts, goals[goal_name],
                       item.weights.get(weights_file), horizon, runs)
        value = float(est.estimate)
        rec.check((lo is None or value >= lo) and (hi is None or value <= hi),
                  f"{name} estimate {goal_name}: {value}")


def run_corpus(items: list[CorpusInput], rec, rng: random.Random) -> None:
    order = list(items)
    rng.shuffle(order)
    for item in order:
        with rec.pipeline(item.entry.id):
            guarded(rec, f"{item.entry.id} pipeline", run_corpus_entry, rec, item, rng)


# ---------------------------------------------------------------------------
# Registry: name -> (input generator, round runner).
# ---------------------------------------------------------------------------

WORKLOADS = {
    "ring": (lambda: family_inputs(RING), run_family),
    "grid": (lambda: family_inputs(GRID), run_family),
    "corpus": (corpus_inputs, run_corpus),
}
