"""Corpus-wide consistency properties beyond the per-entry expectations."""

from __future__ import annotations

import json
from pathlib import Path

from fairlab.corpus import CorpusEntry, build_all, run_entry
from fairlab.lts import load_lts, named_goal, save_lts
from fairlab.paths import classify_lasso, Lasso, parse_assumption, PathPrefix
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
            witness = verdict.witness
            assert witness is not None, (built.entry.id, assume_text, goal_name)
            if not assumption.pathwise():
                # reachability counterexample: the goal is unreachable from
                # the witness prefix's end state
                from fairlab.verify import reachable_states
                end = witness.end(lts)
                assert not (reachable_states(lts, {end}) & goal)
                checked += 1
                continue
            if isinstance(witness, Lasso):
                assert classify_lasso(lts, witness, assumption)
                touched = {witness.start}
                for tid in witness.stem + witness.cycle:
                    touched.add(lts.transition(tid).target)
            else:
                assert isinstance(witness, PathPrefix)
                from fairlab.paths import classify_finite
                assert classify_finite(lts, witness, assumption)
                touched = set(witness.states(lts))
            assert not (touched & goal), (built.entry.id, assume_text, goal_name)
            checked += 1
    assert checked >= 40


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
