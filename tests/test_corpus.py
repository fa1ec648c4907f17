"""Corpus-wide consistency properties beyond the per-entry expectations."""

from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path

from families import witness_problem
from test_verify import _MATRIX

from fairlab.corpus import CorpusEntry, build_all, run_entry
from fairlab.lts import load_lts, named_goal, save_lts
from fairlab.paths import parse_assumption
from fairlab.syntax import walk
from fairlab.tasks import load_custom_tasks
from fairlab.verify import liveness

DATA = Path(__file__).resolve().parent.parent / "src" / "fairlab" / "corpus_data"


def test_roundtrip_isomorphism_all_corpus_systems():
    for built in build_all():
        again = load_lts(save_lts(built.lts))
        assert save_lts(built.lts) == save_lts(again), built.entry.id


def test_cmp_map_images_are_prefix_closed():
    for built in build_all():
        if built.spec is None:
            continue
        paths = {path for _, path in walk(built.spec.root)}
        for path in built.spec.cmp_map.values():
            assert path in paths, built.entry.id
            for k in range(len(path)):
                assert path[:k] in paths


def test_custom_task_file_matches_handwritten_map():
    built = {b.entry.id: b for b in build_all("ex-4.2-mutex-mem")}["ex-4.2-mutex-mem"]
    lts = built.lts
    loaded = load_custom_tasks(lts, (DATA / "tasks-lm.json").read_text())
    embedded = lts.tasks["LM"]
    assert {t.name: t.members for t in loaded.tasks} == \
           {t.name: t.members for t in embedded.tasks}


def test_no_verdict_witnesses_are_sound():
    checked = 0
    for built in build_all():
        lts = built.lts
        for assume_text, goal_name, expected in built.entry.verdicts:
            if expected != "no":
                continue
            assumption = parse_assumption(assume_text, built.custom_tasks)
            goal = named_goal(lts, goal_name)
            verdict = liveness(lts, goal, assumption, goal_name=goal_name)
            assert verdict.holds == "no"
            problem = witness_problem(lts, goal, assumption, verdict)
            assert problem is None, (built.entry.id, assume_text, goal_name, problem)
            checked += 1
    assert checked >= 40


def _renamed(doc, rng):
    """The saved system with its state and transition ids renamed in a seeded
    random order, its initial states, explicit goals and task members too."""
    states, steps = ({x["id"]: f"{prefix}{k}" for k, x in enumerate(rng.sample(xs, len(xs)))}
                     for prefix, xs in (("q", doc["states"]), ("u", doc["transitions"])))
    for s in doc["states"]:
        s["id"] = states[s["id"]]
    for t in doc["transitions"]:
        t["id"], t["source"], t["target"] = (steps[t["id"]], states[t["source"]],
                                             states[t["target"]])
    doc["initial"] = [states[s] for s in doc["initial"]]
    for goal in doc["goals"].values():
        for d in goal["disjuncts"]:
            if d["kind"] == "explicit":
                d["states"] = [states[s] for s in d["states"]]
    for taskset in doc["tasks"].values():
        for task in taskset["tasks"]:
            task["members"] = [steps[t] for t in task["members"]]
    return load_lts(json.dumps(doc))


def _shuffled(doc, rng):
    rng.shuffle(doc["states"])
    rng.shuffle(doc["transitions"])
    return load_lts(json.dumps(doc))


def _verdict(lts, goal_name, assumption):
    """(the goal, the verdict or None, the outcome: `holds` or the error class)."""
    goal = named_goal(lts, goal_name) if goal_name else frozenset()
    try:
        verdict = liveness(lts, goal, assumption)
    except ValueError as exc:
        return goal, None, type(exc).__name__
    return goal, verdict, verdict.holds


def test_verdicts_survive_renaming_shuffling_and_reloading():
    """Every non-truncated corpus system, under each of its named goals (the
    empty goal where it has none) and every built-in assumption, plain and
    ,reactive, has the same outcome after a seeded renaming of its ids, after
    a seeded shuffle of its states and transitions lists, and after a plain
    reload; every no witness on a changed system is a witness there."""
    rng = random.Random(2018)
    compared, problems = Counter(), []
    for built in build_all():
        lts = built.lts
        if lts.truncated:
            continue
        text = save_lts(lts)
        changed = [_renamed(json.loads(text), rng), _shuffled(json.loads(text), rng),
                   load_lts(text)]
        for goal_name in sorted(lts.goals) or [""]:
            for a in _MATRIX:
                want = _verdict(lts, goal_name, a)[2]
                for other in changed:
                    goal, verdict, got = _verdict(other, goal_name, a)
                    compared[got] += 1
                    problem = (f"{want} became {got}" if got != want else
                               verdict and witness_problem(other, goal, a, verdict))
                    if problem:
                        problems.append((built.entry.id, goal_name, str(a), problem))
    assert not problems, problems[:5]
    assert sum(compared.values()) >= 3000 and compared["no"] > 1000, compared


def test_every_entry_note_is_informative():
    for entry in (b.entry for b in build_all()):
        assert entry.note and len(entry.note) > 10


def test_corrupted_expectation_reported(capsys):
    # an entry with a wrong expectation yields a FAIL line and a False flag
    broken = CorpusEntry(
        id="broken-probe", source="ex-5.3.ccs",
        note="deliberately wrong expectation for the runner's diff path",
        goals={"done": __import__("fairlab.lts", fromlist=["GoalSpec"]).GoalSpec.state_is("0")},
        verdicts=[("S:A", "done", "no")],  # the true verdict is yes
    )
    from fairlab.corpus import build
    results = run_entry(build(broken))
    assert len(results) == 1 and not results[0].ok
    assert "FAIL" in results[0].line()
