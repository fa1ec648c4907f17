"""Command-line interface: exit codes, file plumbing, determinism."""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from fairlab.cli import build_parser, main
from fairlab.lts import (AnnotationError, from_exploration, load_lts, named_goal, requested,
                         save_lts)
from fairlab.parser import parse_ccs
from fairlab.paths import Assumption, Lasso, PathPrefix, classify_lasso, parse_assumption
from fairlab.semantics import explore
from fairlab.tasks import NOTIONS
from fairlab.verify import Bounds, hierarchy_check, liveness, simple_cycles_at, simulate

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = SRC / "fairlab" / "corpus_data"


def _ccs2lts(tmp_path: Path, name: str, *extra: str) -> Path:
    out = tmp_path / (name + ".json")
    code = main(["ccs2lts", str(DATA / name), str(out), *extra])
    assert code == 0
    return out


def test_ccs2lts_ex_5_1(tmp_path, capsys):
    out = _ccs2lts(tmp_path, "ex-5.1.ccs")
    doc = json.loads(out.read_text())
    assert len(doc["states"]) == 2 and len(doc["transitions"]) == 3
    assert doc["origin"] == "ccs" and doc["truncated"] is False


def test_ccs2lts_malformed_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.ccs"
    bad.write_text("a.")
    code = main(["ccs2lts", str(bad), str(tmp_path / "out.json")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_ccs2lts_fragment_diagnostic_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.ccs"
    bad.write_text("X where X = X + a.0")
    code = main(["ccs2lts", str(bad), str(tmp_path / "out.json")])
    assert code == 1
    assert "unguarded" in capsys.readouterr().err


# the unguarded recursions `explore` rejects are refused before exploring
_UNGUARDED = ("X where X = X + a", "X where X = (X)[a -> b] + c",
              "X where X = Y + a, Y = X + b", "X | c where X = X\\a + b")


@pytest.mark.parametrize("src", _UNGUARDED)
def test_ccs2lts_unguarded_recursion_is_a_fragment_diagnostic(tmp_path, capsys, src):
    bad = tmp_path / "bad.ccs"
    bad.write_text(src)
    assert main(["ccs2lts", str(bad), str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "unguarded occurrence of variable" in err


def test_ccs2lts_missing_input_exits_2(tmp_path, capsys):
    code = main(["ccs2lts", str(tmp_path / "absent.ccs"), str(tmp_path / "o.json")])
    assert code == 2


def test_ccs2lts_truncation_warning(tmp_path, capsys):
    out = tmp_path / "out.json"
    code = main(["ccs2lts", str(DATA / "ex-5.2.ccs"), str(out), "--state-cap", "64"])
    assert code == 0
    assert "truncated" in capsys.readouterr().err
    assert json.loads(out.read_text())["truncated"] is True


def test_liveness_mutex_custom_tasks(tmp_path, capsys):
    lts = DATA / "ex-4.2-mutex-mem.json"
    tasks = DATA / "tasks-lm.json"
    code = main(["liveness", str(lts), "--goal", "crit",
                 "--assume", f"S:custom={tasks}"])
    strong = json.loads(capsys.readouterr().out)
    assert code == 0 and strong["holds"] == "yes"
    code = main(["liveness", str(lts), "--goal", "crit",
                 "--assume", f"W:custom={tasks}"])
    weak = json.loads(capsys.readouterr().out)
    assert code == 1 and weak["holds"] == "no"
    assert weak["witness"]["cycle"]
    # liveness is exact and takes no bounds: the flag is a usage error
    assert main(["liveness", str(lts), "--goal", "crit", "--assume", "P",
                 "--bounds", "x"]) == 2


@pytest.mark.parametrize("disjunct, message", [
    ({"kind": "state_is", "expr": "0"}, "error: state init carries no expression"),
    ({"kind": "explicit", "states": ["nosuch"]},
     "error: explicit goal names unknown state id 'nosuch'")])
def test_liveness_goal_errors(tmp_path, capsys, disjunct, message):
    """A goal the system cannot evaluate is one error line, not a verdict:
    the mutex file's states carry no expression, and it has no state nosuch."""
    doc = json.loads((DATA / "ex-4.2-mutex-free.json").read_text())
    doc["goals"]["bad"] = {"disjuncts": [disjunct]}
    path = tmp_path / "bad-goal.json"
    path.write_text(json.dumps(doc))
    assert main(["liveness", str(path), "--goal", "bad", "--assume", "P"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == message + "\n"


def test_liveness_phone_justness(tmp_path, capsys):
    out = _ccs2lts(tmp_path, "ex-12.1-phone.ccs")
    # attach the goal by hand: the callee component spent
    doc = json.loads(out.read_text())
    doc["goals"] = {"conn": {"disjuncts": [{"kind": "component_at",
                                            "path": "R", "expr": "0"}]}}
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["liveness", str(out), "--goal", "conn", "--assume", "just"])
    verdict = json.loads(capsys.readouterr().out)
    assert code == 1 and verdict["holds"] == "no"
    assert len(verdict["witness"]["cycle"]) == 1  # the a-loop


def test_tasks_and_classify_roundtrip(tmp_path, capsys):
    out = _ccs2lts(tmp_path, "ex-5.5.ccs")
    capsys.readouterr()
    assert main(["tasks", str(out), "--notion", "Z"]) == 0
    tasks = json.loads(capsys.readouterr().out)
    assert tasks["notion"] == "Z" and len(tasks["tasks"]) == 3
    doc = json.loads(out.read_text())
    labels = {t["id"]: t["label"] for t in doc["transitions"]}
    a_ = next(t for t, l in labels.items() if l == "a")
    abar = next(t for t, l in labels.items() if l == "'a")
    lasso = tmp_path / "lasso.json"
    start = doc["initial"][0]
    lasso.write_text(json.dumps({"start": start, "stem": [], "cycle": [a_, abar]}))
    assert main(["classify", str(out), str(lasso), "--assume", "S:I"]) == 0
    assert json.loads(capsys.readouterr().out)["fair"] is True
    assert main(["classify", str(out), str(lasso), "--assume", "S:Z"]) == 0
    assert json.loads(capsys.readouterr().out)["fair"] is False


def test_extend_and_validate(tmp_path, capsys):
    lts = DATA / "ex-4.2-mutex-mem.json"
    tasks = DATA / "tasks-lm.json"
    assert main(["extend", str(lts), "--custom", str(tasks), "--steps", "6"]) == 0
    path = json.loads(capsys.readouterr().out)
    assert path["steps"] == ["l1", "l2", "l3", "m1", "m2", "m3"]
    # an empty --start names no state; it does not fall back to the initial one
    assert main(["extend", str(lts), "--custom", str(tasks), "--start", ""]) == 1
    assert _one_line_error(capsys) == "error: unknown state id ''"
    assert main(["validate", str(lts)]) == 0
    report = capsys.readouterr().out
    assert "[pass]" in report and "[skip]" in report


def test_hierarchy_cli(tmp_path, capsys):
    out = _ccs2lts(tmp_path, "ex-5.6.ccs")
    capsys.readouterr()
    code = main(["hierarchy", str(out), "--stronger", "S:A", "--weaker", "S:T",
                 "--bounds", "2,4"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1 and doc["violations"]
    code = main(["hierarchy", str(out), "--stronger", "S:T", "--weaker", "W:T"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and not doc["violations"]


def test_hierarchy_malformed_bounds_is_usage_error(tmp_path, capsys):
    out = _ccs2lts(tmp_path, "ex-5.6.ccs")
    capsys.readouterr()
    for bounds in ("x", "2,x", ","):
        code = main(["hierarchy", str(out), "--stronger", "S:A", "--weaker", "S:T",
                     "--bounds", bounds])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out, bounds
        assert captured.err.startswith("error: --bounds") and captured.err.count("\n") == 1


def test_hierarchy_empty_or_one_sided_bounds_are_usage_errors(tmp_path, capsys):
    """An empty --bounds does not fall back to the default, and a missing
    number on either side of the comma is not filled in from the other."""
    out = _ccs2lts(tmp_path, "ex-5.6.ccs")
    capsys.readouterr()
    for bounds in ("", "3,", ",3"):
        code = main(["hierarchy", str(out), "--stronger", "S:A", "--weaker", "S:T",
                     f"--bounds={bounds}"])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out, bounds
        assert captured.err == (f"error: --bounds needs STEM[,CYCLE] integers, "
                                f"not {bounds!r}\n"), bounds


def test_hierarchy_requires_exact_condition_tags(tmp_path, capsys):
    """--requires takes a condition's exact tag; any other text is a usage
    error naming the known tags, even after a condition that fails."""
    known = "known: (1), (2), (3), (4), (5), (#), (6), interference"
    five_six = ["hierarchy", str(_ccs2lts(tmp_path, "ex-5.6.ccs")), "--stronger", "S:A",
                "--weaker", "S:T", "--bounds", "2,4"]
    mutex_free = ["hierarchy", str(DATA / "ex-4.2-mutex-free.json"), "--stronger", "S:A",
                  "--weaker", "S:T", "--bounds", "2,3"]
    capsys.readouterr()
    for argv, tag in ((five_six + ["--requires", ""], ""),
                      (five_six + ["--requires", "("], "("),
                      (five_six + ["--requires", "(7)"], "(7)"),
                      (five_six + ["--requires", "(1) unique"], "(1) unique"),
                      (five_six + ["--requires", "(1)", "inter"], "inter"),
                      (mutex_free + ["--requires", "(#)", "(7)"], "(7)")):
        assert main(argv) == 2, argv
        assert _one_line_error(capsys) == f"error: unknown side condition {tag!r}; {known}"
    assert main(five_six + ["--requires", "(1)", "(#)", "(6)", "interference"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["skipped"] == "" and doc["violations"]
    assert main(mutex_free + ["--requires", "interference", "(#)"]) == 1
    assert json.loads(capsys.readouterr().out)["skipped"] == (
        "side condition (#) does not validate")
    # a condition that was not checked does not validate either
    assert main(mutex_free + ["--requires", "(6)"]) == 1
    assert json.loads(capsys.readouterr().out)["skipped"] == (
        "side condition (6) does not validate")
    lts = load_lts((DATA / "ex-4.2-mutex-free.json").read_text())
    with pytest.raises(ValueError, match="unknown side condition '7'"):
        hierarchy_check(lts, Assumption("S", "A"), Assumption("S", "T"), Bounds(1, 1), ("7",))


def _validate_lines(path: Path, capsys, code: int) -> list[str]:
    assert main(["validate", str(path)]) == code, path
    return capsys.readouterr().out.splitlines()


def test_validate_skips_what_it_cannot_check(tmp_path, capsys):
    """An unchecked condition prints [skip], never [pass]; (#) and (6) are
    skipped on a truncated exploration, whose unexpanded states have no
    successors; (#) names the first failing pair."""
    skip6 = "[skip] (6) persistence of instructions  (no instr)"
    cut = "persistence of {}  (exploration truncated)"
    second = _validate_lines(DATA / "ex-4.1-second-ts.json", capsys, 0)
    assert skip6 in second and "[skip] (#) " + cut.format("components") in second
    assert skip6 in _validate_lines(DATA / "ex-4.2-mutex-mem.json", capsys, 0)
    free = _validate_lines(DATA / "ex-4.2-mutex-free.json", capsys, 1)
    assert skip6 in free
    assert "[FAIL] (#) persistence of components  ((#) fails for t=l1, u=m1)" in free
    spec = tmp_path / "two.ccs"
    spec.write_text("a.0 | b.0")
    whole, cut_lts = tmp_path / "whole.json", tmp_path / "cut.json"
    assert main(["ccs2lts", str(spec), str(whole)]) == 0
    assert main(["ccs2lts", str(spec), str(cut_lts), "--depth-cap", "1"]) == 0
    assert all(line.startswith("[pass]") for line in _validate_lines(whole, capsys, 0))
    lines = _validate_lines(cut_lts, capsys, 0)
    assert [line for line in lines if not line.startswith("[pass]")] == [
        "[skip] (#) " + cut.format("components"), "[skip] (6) " + cut.format("instructions")]


@pytest.mark.parametrize("kind, item, key, value, failures, query, error", [
    ("transitions", "t0", "instr", ["zz@9"],
     ["[FAIL] (4) enabled implies requested  (instruction zz@9 enabled but not requested in s0)"],
     ("zz@9", "s0"), "unknown instruction 'zz@9'"),
    ("states", "s1", "expr", "0",
     ["[FAIL] (4) enabled implies requested  (instruction c@1 enabled but not requested in s1)",
      "[FAIL] (5) requested persists  (instruction c@1 requested in s0 but not after t1)"],
     ("c@1", "s1"), "component 'R' absent in state s1"),
])
def test_validate_reports_what_is_not_requested(tmp_path, capsys, kind, item, key, value,
                                                failures, query, error):
    """An instruction cmp does not know, or a component a state lacks, is
    not requested: (4) and (5) fail with their first failure, the other
    lines print as on the intact system, and `--requires (4)` skips.  The
    library's `requested` still raises on such a query."""
    spec, path = tmp_path / "xy.ccs", tmp_path / "xy.json"
    spec.write_text("(X | Y) where X = a.X + b.0, Y = c.Y")
    assert main(["ccs2lts", str(spec), str(path)]) == 0
    intact = _validate_lines(path, capsys, 0)
    doc = json.loads(path.read_text())
    next(x for x in doc[kind] if x["id"] == item)[key] = value
    path.write_text(json.dumps(doc))
    lines = _validate_lines(path, capsys, 1)
    assert len(lines) == len(intact) == 8
    assert [line for line in lines if line not in intact] == failures
    assert main(["hierarchy", str(path), "--stronger", "S:A", "--weaker", "S:T",
                 "--requires", "(4)"]) == 1
    assert json.loads(capsys.readouterr().out)["skipped"] == (
        "side condition (4) does not validate")
    with pytest.raises(AnnotationError, match=re.escape(error)):
        requested(load_lts(path.read_text()), *query)


def test_cli_defaults_are_the_library_defaults(tmp_path, capsys, monkeypatch):
    """Omitted caps, bounds, horizon, runs and seed take the defaults of
    `explore`, `Bounds` and `simulate`."""
    monkeypatch.delenv("FAIRLAB_SEED", raising=False)
    out = tmp_path / "out.json"
    assert main(["ccs2lts", str(DATA / "ex-5.2.ccs"), str(out)]) == 0
    assert out.read_text() == save_lts(from_exploration(explore(parse_ccs(
        (DATA / "ex-5.2.ccs").read_text()))))
    capsys.readouterr()
    lts = load_lts((DATA / "prob-notagef.json").read_text())
    assert main(["simulate", str(DATA / "prob-notagef.json"), "--goal", "win"]) == 0
    assert json.loads(capsys.readouterr().out) == simulate(lts, named_goal(lts, "win")).to_json()
    five_six = _ccs2lts(tmp_path, "ex-5.6.ccs")
    capsys.readouterr()
    assert main(["hierarchy", str(five_six), "--stronger", "S:T", "--weaker", "W:T"]) == 0
    lts = load_lts(five_six.read_text())
    assert json.loads(capsys.readouterr().out)["checked"] == hierarchy_check(
        lts, Assumption("S", "T"), Assumption("W", "T")).checked


def test_ltl_deeply_nested_formula_is_one_line_error(tmp_path, capsys):
    lts = DATA / "ex-4.2-mutex-mem.json"
    lasso = tmp_path / "lasso.json"
    lasso.write_text(json.dumps({"start": "init", "stem": [],
                                 "cycle": ["m1", "m2", "m3"]}))
    for formula in ("!" * 3000 + "enabled:L", "(" * 3000 + "enabled:L" + ")" * 3000,
                    " -> ".join(["enabled:L"] * 3000)):
        code = main(["ltl", str(lts), "--lasso", str(lasso), "--formula", formula])
        captured = capsys.readouterr()
        assert code == 1 and not captured.out
        assert captured.err.startswith("error: formula nested deeper than")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    # nesting within the bound (99 levels) still evaluates: an even number of negations
    code = main(["ltl", str(lts), "--lasso", str(lasso),
                 "--formula", "!" * 94 + "G(G(enabled:L) -> F(occurs:L))"])
    assert code == 0 and json.loads(capsys.readouterr().out)["holds"] is True


def test_ltl_cli(tmp_path, capsys):
    lts = DATA / "ex-4.2-mutex-mem.json"
    lasso = tmp_path / "lasso.json"
    lasso.write_text(json.dumps({"start": "init", "stem": [],
                                 "cycle": ["m1", "m2", "m3"]}))
    code = main(["ltl", str(lts), "--lasso", str(lasso),
                 "--formula", "G(G(enabled:L) -> F(occurs:L))"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["holds"] is True


@pytest.mark.parametrize("formula, error", [
    ("false & bogus:x", "unknown atomic proposition 'bogus:x'"),
    ("true | occurs:A:nosuch", "unknown task 'A:nosuch' in atomic proposition"),
    ("F(true) | bogus:y", "unknown atomic proposition 'bogus:y'"),
    ("false & state:s9", "unknown state 's9' in atomic proposition"),
])
def test_ltl_evaluates_every_operand_of_a_chain(tmp_path, capsys, formula, error):
    # the first operand decides the chain, and the bad atom after it still raises
    lasso = tmp_path / "lasso.json"
    lasso.write_text(json.dumps({"start": "init", "stem": [],
                                 "cycle": ["m1", "m2", "m3"]}))
    code = main(["ltl", str(DATA / "ex-4.2-mutex-mem.json"), "--lasso", str(lasso),
                 "--formula", formula])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", f"error: {error}\n")


def test_python_dash_m_fairlab_runs_the_command_line(tmp_path):
    lasso = tmp_path / "lasso.json"
    lasso.write_text(json.dumps({"start": "init", "stem": [],
                                 "cycle": ["m1", "m2", "m3"]}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
        str(SRC), os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-m", "fairlab", "ltl",
                          str(DATA / "ex-4.2-mutex-mem.json"), "--lasso", str(lasso),
                          "--formula", "G(G(enabled:L) -> F(occurs:L))"],
                         env=env, capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stderr) == (0, "")
    assert json.loads(run.stdout)["holds"] is True


def test_readme_ltl_example_runs_on_a_saved_corpus_system(tmp_path, capsys):
    # the README's command line, verbatim, on ex-4.1 (z | X where X = i.X)
    readme = (SRC.parent / "README.md").read_text()
    line = next(ln for ln in readme.splitlines() if ln.startswith("fairlab ltl "))
    argv = shlex.split(line)[1:]
    assert argv[:4] == ["ltl", "out.json", "--lasso", "lasso.json"]
    out = _ccs2lts(tmp_path, "ex-4.1.ccs")
    argv[1:4] = [str(out), "--lasso", str(tmp_path / "lasso.json")]
    # z stays enabled along the i-loop at s0 and never occurs; after it, fine
    for stem, cycle, holds in (([], ["t0"], False), (["t1"], ["t2"], True)):
        (tmp_path / "lasso.json").write_text(json.dumps(
            {"start": "s0", "stem": stem, "cycle": cycle}))
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["holds"] is holds


def test_readme_command_lines_parse():
    """Every `fairlab ...` line of the README's Command line block parses, so
    a renamed flag fails here instead of leaving the README stale."""
    readme = (SRC.parent / "README.md").read_text()
    block = readme.split("## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    lines = [words[1:] for words in lines if words[:1] == ["fairlab"]]
    assert len(lines) == 12
    for argv in lines:
        assert build_parser().parse_args(argv).command == argv[0]


def test_simulate_cli_deterministic(tmp_path, capsys, monkeypatch):
    lts = DATA / "prob-notagef.json"
    weights = DATA / "weights-notagef.json"
    argv = ["simulate", str(lts), "--goal", "win", "--weights", str(weights),
            "--horizon", "5", "--runs", "400"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert json.loads(first)["value"] <= 0.9
    monkeypatch.setenv("FAIRLAB_SEED", "12345")
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 12345


def test_loopfree_cli(capsys):
    lts = DATA / "ex-11.2-counters.json"
    assert main(["loopfree", str(lts), "--goal", "zero", "--length", "30"]) == 0
    assert json.loads(capsys.readouterr().out)["found"] is True


def test_config_file_sets_default_caps(tmp_path, capsys):
    config = tmp_path / "fairlab.conf"
    config.write_text("# default caps\nstate_cap = 64\ndepth_cap = 256\n")
    out = tmp_path / "out.json"
    code = main(["ccs2lts", str(DATA / "ex-5.2.ccs"), str(out),
                 "--config", str(config)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["truncated"] is True and len(doc["states"]) == 64


def test_corpus_filter_and_exit(capsys):
    code = main(["corpus", "--filter", "ex-5.1*"])
    out = capsys.readouterr().out
    assert code == 0
    assert "ex-5.1-exit-loop" in out and "expectations met" in out
    assert "[FAIL]" not in out


# SHA-256 of `fairlab corpus`'s stdout, the report of every corpus verdict,
# witness and check, so a change to any of those bytes fails here (as the
# benchmark's output digests do in test_perfbench_smoke.py).
CORPUS_DIGEST = "8a48e38bfd37280f30eb5cc5ace6c037caf67ebc1ba3cd96218101a4da5cd787"


def test_corpus_full_determinism(capsys):
    assert main(["corpus"]) == 0
    first = capsys.readouterr().out
    assert main(["corpus"]) == 0
    assert capsys.readouterr().out == first
    assert hashlib.sha256(first.encode()).hexdigest() == CORPUS_DIGEST


def _one_line_error(capsys) -> str:
    captured = capsys.readouterr()
    err = captured.err.strip()
    assert captured.out == "" and "\n" not in err and "Traceback" not in err
    assert err.startswith("error: ")
    return err


def test_simulate_bad_flags_are_usage_errors(capsys, monkeypatch):
    base = ["simulate", str(DATA / "prob-notagef.json"), "--goal", "win"]
    for extra in (["--runs", "0"], ["--runs", "-3"], ["--horizon", "-5"]):
        assert main(base + extra) == 2, extra
        assert "--runs >= 1 and --horizon >= 0" in _one_line_error(capsys)
    assert main(base + ["--horizon", "0", "--runs", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["reached"] == 0
    monkeypatch.setenv("FAIRLAB_SEED", "abc")
    assert main(base) == 2
    assert "FAIRLAB_SEED" in _one_line_error(capsys)


def test_simulate_bad_weights_files_name_file_and_key(tmp_path, capsys):
    cases = {
        "list": ({"weights": [1, 2]}, '"weights" object'),
        "nested": ({"weights": {"tg": [1]}}, "'tg' is not a number"),
        "text": ({"weights": {"tg": "x"}}, "'tg' is not a number"),
        "bool": ({"weights": {"tg": True, "tb": False}}, "'tg' is not a number"),
        "missing": ({"weight": {"tg": 1}}, '"weights" object'),
        "typo": ({"weights": {"tgg": 1}}, "unknown transition 'tgg'"),
        "zero": ({"weights": {"tb": 0}}, "non-positive weight for transition tb"),
    }
    for name, (doc, want) in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        code = main(["simulate", str(DATA / "prob-notagef.json"), "--goal", "win",
                     "--weights", str(path), "--runs", "5"])
        assert code == 1, name
        err = _one_line_error(capsys)
        assert str(path) in err and want in err, (name, err)
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["simulate", str(DATA / "prob-notagef.json"), "--goal", "win",
                 "--weights", str(bad)]) == 1
    assert "not valid JSON" in _one_line_error(capsys)


def test_ccs2lts_too_deep_nesting_is_one_line(tmp_path, capsys):
    deep = tmp_path / "deep.ccs"
    deep.write_text("X | done where X = " + ".".join(f"a{i}" for i in range(1000)) + ".X")
    assert main(["ccs2lts", str(deep), str(tmp_path / "out.json")]) == 1
    assert "nesting too deep" in _one_line_error(capsys)


def test_ccs2lts_caps_below_1_are_usage_errors(tmp_path, capsys):
    out = tmp_path / "out.json"
    for flag, value in (("--state-cap", "0"), ("--depth-cap", "0"), ("--state-cap", "-3")):
        assert main(["ccs2lts", str(DATA / "ex-5.1.ccs"), str(out), flag, value]) == 2
        key = flag[2:].replace("-", "_")
        assert f"{key} must be at least 1, got {value}" in _one_line_error(capsys)
    assert not out.exists()


def test_ccs2lts_bad_config_caps_are_usage_errors(tmp_path, capsys):
    config = tmp_path / "fairlab.conf"
    for text, want in (("state_cap = x\n", "config state_cap must be an integer, not 'x'"),
                       ("depth_cap = 0\n", "depth_cap must be at least 1, got 0"),
                       ("statecap = 2\n",
                        "unknown config key 'statecap'; known: state_cap, depth_cap")):
        config.write_text(text)
        assert main(["ccs2lts", str(DATA / "ex-5.1.ccs"), str(tmp_path / "out.json"),
                     "--config", str(config)]) == 2, text
        assert want in _one_line_error(capsys)


def test_malformed_path_and_task_files_are_one_line_errors(tmp_path, capsys):
    lts = str(DATA / "ex-4.2-mutex-mem.json")
    cases = []
    for k, (doc, want) in enumerate((
            ([1], 'a path must be an object with a "start" state id'),
            ({"cycle": ["t0"]}, 'a path must be an object with a "start" state id'),
            ({"start": "s0", "steps": [{"a": 1}]}, '"steps" must be a list of transition ids'),
            ({"start": "s0", "cycle": "t0"}, '"cycle" must be a list of transition ids'),
            ({"start": "s0", "cycle": {"t0": 1}}, '"cycle" must be a list of transition ids'))):
        path = tmp_path / f"path{k}.json"
        path.write_text(json.dumps(doc))
        cases += [(["classify", lts, str(path), "--assume", "P"], want),
                  (["ltl", lts, "--lasso", str(path), "--formula", "enabled:L"], want),
                  (["extend", lts, "--notion", "T", "--prefix", str(path)], want),
                  (["certify", lts, "--prefix", str(path), "--task", "T:l1",
                    "--notion", "T"], want)]
    lasso, prefix = tmp_path / "lasso.json", tmp_path / "prefix.json"
    lasso.write_text(json.dumps({"start": "init", "cycle": ["m1", "m2", "m3"]}))
    prefix.write_text(json.dumps({"start": "init", "steps": ["l1"]}))
    cases += [(["ltl", lts, "--lasso", str(prefix), "--formula", "enabled:L"], "not a lasso"),
              (["extend", lts, "--notion", "T", "--prefix", str(lasso)], "not a finite prefix"),
              (["certify", lts, "--prefix", str(lasso), "--task", "T:l1", "--notion", "T"],
               "not a finite prefix"),
              (["certify", lts, "--prefix", str(prefix), "--task", "nope", "--notion", "T"],
               "error: unknown task 'nope' in the T tasks")]
    tasks = tmp_path / "tasks.json"
    tasks.write_text(json.dumps({"tasks": [{"name": "L"}]}))
    broken = json.loads((DATA / "ex-4.2-mutex-mem.json").read_text())
    broken["tasks"]["LM"]["tasks"][0].pop("members")
    broken_lts = tmp_path / "broken.json"
    broken_lts.write_text(json.dumps(broken))
    want = 'each task needs a "name" and a "members" list of transition ids'
    cases += [(["tasks", lts, "--custom", str(tasks)], want),
              (["liveness", lts, "--goal", "crit", "--assume", f"W:custom={tasks}"], want),
              (["validate", str(broken_lts)], want)]
    twice, twice_lts, only_tr = (tmp_path / f"{n}.json" for n in ("twice", "twice-lts", "tr"))
    twice.write_text(json.dumps({"tasks": [{"name": "L", "members": ["m1"]},
                                           {"name": "L", "members": ["l1"]}]}))
    only_tr.write_text(json.dumps({"tasks": [{"name": "Tr", "members": ["l1"]}]}))
    broken = json.loads((DATA / "ex-4.2-mutex-mem.json").read_text())
    broken["tasks"]["LM"]["tasks"][1]["name"] = "L"
    twice_lts.write_text(json.dumps(broken))
    want = "task 'L' is named twice"
    cases += [(["tasks", lts, "--custom", str(twice)], want),
              (["extend", lts, "--custom", str(twice)], want),
              (["certify", lts, "--prefix", str(prefix), "--task", "L", "--custom", str(twice)],
               want),
              (["liveness", lts, "--goal", "crit", "--assume", f"S:custom={twice}"], want),
              (["validate", str(twice_lts)], want),
              (["tasks", lts, "--custom", str(only_tr), "--with-progress"],
               "task 'Tr' is named twice")]
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    want = "not valid JSON: nested too deeply"
    cases += [(["validate", str(deep)], want),
              (["classify", lts, str(deep), "--assume", "P"], want),
              (["liveness", lts, "--goal", "crit", "--assume", f"W:custom={deep}"], want),
              (["simulate", str(DATA / "prob-notagef.json"), "--goal", "win",
                "--weights", str(deep)], want)]
    for k, (mutate, want) in enumerate((
            (lambda d: d.update(states=[1]), '"states" must be a list of objects'),
            (lambda d: d.update(states="x"), '"states" must be a list of objects'),
            (lambda d: d.update(transitions=[1]), '"transitions" must be a list of objects'),
            (lambda d: d["transitions"][0].update(instr=5),
             "transition l1 field 'instr' must be a list of strings"),
            (lambda d: d["transitions"][0].update(label=5),
             "transition field 'label' must be a string"),
            (lambda d: d["transitions"][0].update(blocking="no"),
             "transition l1 field 'blocking' must be true or false"),
            (lambda d: d["goals"]["crit"]["disjuncts"].append(1),
             "goal disjuncts must be a list of objects"),
            (lambda d: d.update(goals=[]), '"goals" must be an object'),
            (lambda d: d.update(tasks=[]), '"tasks" must be an object'),
            (lambda d: d.update(initial="init"), '"initial" must be a list of strings'),
            (lambda d: d.update(initial=["init", "init"]), "initial state init listed twice"),
            (lambda d: d["goals"]["crit"]["disjuncts"].append(
                {"kind": "component_at", "path": "l", "expr": "0"}),
             "component path 'l' is not a word over L and R"),
            (lambda d: d.update(truncated="false"), '"truncated" must be true or false'),
            (lambda d: d.update(origin=5), '"origin" must be "ccs" or "handwritten"'),
            (lambda d: d.update(origin="CCS"), '"origin" must be "ccs" or "handwritten"'),
            (lambda d: d["tasks"]["LM"].update(notion=["T"]),
             "task set 'LM' field 'notion' must be a string"))):
        doc = json.loads((DATA / "ex-4.2-mutex-mem.json").read_text())
        mutate(doc)
        path = tmp_path / f"lts{k}.json"
        path.write_text(json.dumps(doc))
        cases += [(["validate", str(path)], want),
                  (["liveness", str(path), "--goal", "crit", "--assume", "P"], want)]
    for argv, want in cases:
        assert main(argv) == 1, argv
        assert want in _one_line_error(capsys), argv


def test_custom_tasks_apply_to_j_w_s_only(capsys):
    lts, tasks = str(DATA / "ex-4.2-mutex-mem.json"), DATA / "tasks-lm.json"
    assert main(["liveness", lts, "--goal", "crit", "--assume", f"P:custom={tasks}"]) == 1
    assert "cannot parse assumption" in _one_line_error(capsys)
    # the task file is named before the flag; the mutex's blocking steps
    # promise nothing under ,reactive
    assert main(["liveness", lts, "--goal", "crit",
                 "--assume", f"S:custom={tasks},reactive"]) == 1
    assert json.loads(capsys.readouterr().out)["assumption"] == "S:custom,reactive"


def test_unknown_notion_is_named_with_the_known_ones(capsys):
    lts = str(DATA / "ex-4.2-mutex-mem.json")
    for assume, notion in (("W:Q", "'Q'"), ("S:,reactive", "''"), ("J:a", "'a'")):
        assert main(["liveness", lts, "--goal", "crit", "--assume", assume]) == 1
        assert _one_line_error(capsys) == (f"error: unknown notion {notion} for {assume[0]}; "
                                           "known: A, T, I, Z, C, G, custom=FILE")


def test_swi_errors_where_it_cannot_judge(tmp_path, capsys):
    # prob-notagef has no instr: SWI needs the instruction tasks, so s0's
    # empty path is not called a complete run
    assert main(["liveness", str(DATA / "prob-notagef.json"), "--goal", "win",
                 "--assume", "SWI"]) == 1
    assert _one_line_error(capsys) == "error: notion I needs instruction annotations"
    # ex-13.1 is handwritten: what its components request is unknown
    lasso = tmp_path / "lasso.json"
    lasso.write_text(json.dumps({"start": "s0", "cycle": ["tyc0"]}))
    assert main(["classify", str(DATA / "ex-13.1.json"), str(lasso), "--assume", "SWI"]) == 1
    assert _one_line_error(capsys) == ("error: instruction projection needs a "
                                       "ccs-origin system")


def test_justness_judges_every_rotation_of_a_cycle_alike(tmp_path, capsys):
    # s0's self-loop t1 has no component set; justness reads every cycle
    # state's obligations, so both rotations of the cycle t2 t4 raise, where
    # reading s1 first used to call one of them unjust
    edges = [("t0", "s1", "s1", ["M", "R"], True), ("t1", "s0", "s0", None, False),
             ("t2", "s0", "s1", ["M"], False), ("t3", "s1", "s0", ["R"], True),
             ("t4", "s1", "s0", ["M"], False)]
    system = tmp_path / "system.json"
    system.write_text(json.dumps({
        "states": [{"id": "s0"}, {"id": "s1"}],
        "transitions": [{"id": tid, "source": src, "target": dst, "label": "a",
                         "blocking": blocking, **({"comp": comp} if comp else {})}
                        for tid, src, dst, comp, blocking in edges],
        "initial": ["s0"]}))
    lts = load_lts(system.read_text())
    want = "transition t1 carries no component set"
    for start, cycle in (("s0", ["t2", "t4"]), ("s1", ["t4", "t2"])):
        lasso = tmp_path / f"{start}.json"
        lasso.write_text(json.dumps({"start": start, "cycle": cycle}))
        for assume in ("just", "just,reactive"):
            with pytest.raises(AnnotationError, match=want):
                classify_lasso(lts, Lasso(start, (), tuple(cycle)), parse_assumption(assume))
            assert main(["classify", str(system), str(lasso), "--assume", assume]) == 1
            assert _one_line_error(capsys) == f"error: {want}"


def test_out_of_range_steps_length_and_bounds_are_usage_errors(tmp_path, capsys):
    mutex, counters = str(DATA / "ex-4.2-mutex-mem.json"), str(DATA / "ex-11.2-counters.json")
    hierarchy = ["hierarchy", str(_ccs2lts(tmp_path, "ex-5.6.ccs")),
                 "--stronger", "S:A", "--weaker", "S:T"]
    capsys.readouterr()
    ranges = "--bounds needs STEM >= 0 and CYCLE >= 1, got"
    for argv, want in (
            (["extend", mutex, "--notion", "T", "--steps", "-3"],
             "extend needs --steps >= 0, got -3"),
            (["loopfree", counters, "--goal", "zero", "--length", "-1"],
             "loopfree needs --length >= 0, got -1"),
            (hierarchy + ["--bounds", "0"], f"{ranges} 0,0"),
            (hierarchy + ["--bounds=-1,-2"], f"{ranges} -1,-2"),
            (hierarchy + ["--bounds", "2,0"], f"{ranges} 2,0"),
            # argparse's own errors keep the one-line contract too
            (["extend", mutex, "--notion", "T", "--steps", "x"],
             "fairlab extend: argument --steps: invalid int value: 'x'"),
            (hierarchy + ["--bounds", "-1,-2"],
             "fairlab hierarchy: argument --bounds: expected one argument"),
            (["bogus"], "fairlab: argument command: invalid choice: 'bogus'"),
            (["corpus", "--filter", "nope*"], "error: no corpus entry matches 'nope*'"),
            (["extend", mutex, "--notion", "T", "--start", "init", "--prefix", "p.json"],
             "fairlab extend: argument --prefix: not allowed with argument --start")):
        assert main(argv) == 2, argv
        assert want in _one_line_error(capsys), argv
    assert main(["extend", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: fairlab extend")
    # the least values in range still run: --steps 0 appends nothing
    assert main(["extend", mutex, "--notion", "T", "--steps", "0"]) == 0
    assert json.loads(capsys.readouterr().out) == {"start": "init", "steps": []}
    assert main(["loopfree", counters, "--goal", "zero", "--length", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["steps"] == []
    assert main(hierarchy + ["--bounds", "0,1"]) in (0, 1)
    assert json.loads(capsys.readouterr().out)["checked"] > 0


@functools.lru_cache(maxsize=None)
def _json_systems() -> dict[str, str]:
    """The bundled JSON transition systems (not task or weight files), by name."""
    texts = {p.name: p.read_text() for p in sorted(DATA.glob("*.json"))}
    return {name: text for name, text in texts.items() if '"states"' in text}


@functools.lru_cache(maxsize=None)
def _path_text(name: str) -> str:
    """A path of the unmutated system: the witness of P-liveness of no goal,
    or its first initial state when exploration was truncated."""
    lts = load_lts(_json_systems()[name])
    witness = liveness(lts, frozenset(), Assumption("P")).witness
    return json.dumps((witness or PathPrefix(lts.initial[0])).to_json())


_DEEP = "@deep@"
_WRONG = st.sampled_from((None, True, 0, -1, 2.5, "", "no-such-id", [], {}, [1],
                          ["no-such-id"], [[]], [{}], {"x": 1}, _DEEP))


def _places(doc, parent=None, key=None):
    """Every (container, key) pair of a JSON document, the root as (None, None)."""
    yield parent, key
    if isinstance(doc, (dict, list)):
        for k, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _places(value, doc, k)


def _mutate(data, doc):
    """The document with one drawn mutation at a drawn place: a dropped key
    or item, a wrong type, a value wrapped in a list, a dangling id, or deep
    nesting."""
    parent, key = data.draw(st.sampled_from(list(_places(doc))))
    value = doc if parent is None else parent[key]
    op = data.draw(st.sampled_from(("drop", "retype", "listify", "dangle")))
    if op == "drop" and parent is not None:  # the root cannot be dropped: retype it
        del parent[key]
        return doc
    if op == "listify":
        new = [value]
    elif op == "dangle" and isinstance(value, list):
        new = value + ["no-such-id"]
    elif op == "dangle":
        new = "no-such-id"
    else:
        new = data.draw(_WRONG)
    if parent is None:
        return new
    parent[key] = new
    return doc


@given(st.data())
def test_cli_survives_mutated_corpus_files(data):
    """A mutated bundled system gives its command's output or one error line
    with exit 1 or 2, never an exception."""
    name = data.draw(st.sampled_from(sorted(_json_systems())))
    doc = json.loads(_json_systems()[name])
    goal = next(iter(sorted(doc["goals"])), "none")
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(data, doc)
    depth = data.draw(st.sampled_from((50, 5_000, 100_000)))
    text = json.dumps(doc).replace(json.dumps(_DEEP), "[" * depth + "]" * depth)
    assume = data.draw(st.sampled_from(("P", "just", "J:T", "W:Z", "S:I", "SWI", "ST",
                                        "S:C,reactive", "just,reactive")))
    notion = data.draw(st.sampled_from(NOTIONS))
    with tempfile.TemporaryDirectory() as tmp:
        lts, path = str(Path(tmp, "lts.json")), str(Path(tmp, "path.json"))
        Path(lts).write_text(text)
        Path(path).write_text(_path_text(name))
        argv = data.draw(st.sampled_from((
            ["validate", lts],
            ["liveness", lts, "--goal", goal, "--assume", assume],
            ["classify", lts, path, "--assume", assume],
            ["tasks", lts, "--notion", notion],
            ["simulate", lts, "--goal", goal, "--runs", "20", "--horizon", "10"],
            ["loopfree", lts, "--goal", goal, "--length", "3"],
            ["extend", lts, "--notion", notion, "--steps", "5"])))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    lines = err.getvalue().splitlines()
    if lines:
        assert code in (1, 2) and not out.getvalue(), (argv, lines)
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
    else:
        assert code in (0, 1) and out.getvalue(), argv


# Runs each argv list given as JSON through `main`, marking each exit code on
# both streams so that the outputs of the commands stay apart.
_DRIVER = """
import json, sys
from fairlab.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    for stream in (sys.stdout, sys.stderr):
        print(f"-- exit {code}", file=stream, flush=True)
"""


def test_output_is_byte_identical_across_hash_seeds(tmp_path):
    # a cycle s0 -> s1 -> s2 -> s0 whose states s1 and s2 each have a
    # self-loop without a component set: justness names x1, the first met
    repro, lasso = tmp_path / "repro.json", tmp_path / "lasso.json"
    repro.write_text(json.dumps({
        "states": [{"id": f"s{k}"} for k in range(3)],
        "transitions": [{"id": f"t{k}", "source": f"s{k}", "target": f"s{(k + 1) % 3}",
                         "label": "a", "comp": ["L"]} for k in range(3)]
        + [{"id": f"x{k}", "source": f"s{k}", "target": f"s{k}", "label": "b"}
           for k in (1, 2)],
        "initial": ["s0"]}))
    lasso.write_text(json.dumps({"start": "s0", "cycle": ["t0", "t1", "t2"]}))
    argvs = [["corpus"]]
    for name, text in _json_systems().items():
        for goal in sorted(json.loads(text)["goals"]):
            argvs += [["liveness", str(DATA / name), "--goal", goal, "--assume", a]
                      for a in ("P", "just", "J:T", "W:I", "S:Z", "SWI", "ST",
                                "just,reactive")]
    clerk = tmp_path / "clerk.json"
    assert main(["ccs2lts", str(DATA / "ex-7.1-clerk.ccs"), str(clerk)]) == 0
    clerk_lts = load_lts(clerk.read_text())
    clerk_lasso = tmp_path / "clerk-lasso.json"
    clerk_lasso.write_text(json.dumps(Lasso(
        clerk_lts.initial[0], (), simple_cycles_at(clerk_lts, clerk_lts.initial[0], 4)[0])
        .to_json()))
    argvs += [["classify", str(clerk), str(clerk_lasso), "--assume", a]
              for a in ("SWI", "SWI,reactive")]
    argvs += [["tasks", str(path), "--notion", y]
              for path in (clerk, DATA / "ex-13.1.json") for y in ("I", "C")]
    argvs.append(["classify", str(repro), str(lasso), "--assume", "just"])
    runs = []
    for seed in ("0", "4"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, (str(SRC),
                                                            os.environ.get("PYTHONPATH")))))
        runs.append(subprocess.run([sys.executable, "-c", _DRIVER, json.dumps(argvs)],
                                   env=env, capture_output=True, timeout=300))
    assert runs[0].stdout == runs[1].stdout and runs[0].stderr == runs[1].stderr
    assert runs[0].stderr.endswith(b"error: transition x1 carries no component set\n"
                                   b"-- exit 1\n")
    assert runs[0].stdout.count(b"-- exit") == len(argvs)


def test_closed_stdout_is_one_io_error(tmp_path):
    """A reader of stdout that exits early is an I/O error, whether a write
    fails (large output, or unbuffered) or only the final flush does."""
    clerk = tmp_path / "clerk.json"
    assert main(["ccs2lts", str(DATA / "ex-7.1-clerk.ccs"), str(clerk)]) == 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
        str(SRC), os.environ.get("PYTHONPATH")))))
    env.pop("PYTHONUNBUFFERED", None)
    for argv, extra in ((["tasks", str(clerk), "--notion", "T"], {}),
                        (["tasks", str(clerk), "--notion", "T"], {"PYTHONUNBUFFERED": "1"}),
                        (["validate", str(clerk)], {}),
                        (["corpus", "--filter", "ex-2.1*"], {}),
                        (["--help"], {})):
        read, write = os.pipe()
        os.close(read)
        try:
            run = subprocess.run(
                [sys.executable, "-c", "import sys; from fairlab.cli import main; "
                                       "sys.exit(main())", *argv],
                stdout=write, stderr=subprocess.PIPE, env={**env, **extra}, timeout=120)
        finally:
            os.close(write)
        assert (run.returncode, run.stderr) == (2, b"error: stdout closed\n"), argv
