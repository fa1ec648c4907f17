"""Command-line interface: exit codes, file plumbing, determinism."""

from __future__ import annotations

import json
from pathlib import Path

from fairlab.cli import main

DATA = Path(__file__).resolve().parent.parent / "src" / "fairlab" / "corpus_data"


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


def test_ltl_cli(tmp_path, capsys):
    lts = DATA / "ex-4.2-mutex-mem.json"
    lasso = tmp_path / "lasso.json"
    lasso.write_text(json.dumps({"start": "init", "stem": [],
                                 "cycle": ["m1", "m2", "m3"]}))
    code = main(["ltl", str(lts), "--lasso", str(lasso),
                 "--formula", "G(G(enabled:L) -> F(occurs:L))"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["holds"] is True


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


def test_corpus_full_determinism(capsys):
    assert main(["corpus"]) == 0
    first = capsys.readouterr().out
    assert main(["corpus"]) == 0
    assert capsys.readouterr().out == first
