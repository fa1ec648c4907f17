"""Command-line front end.

Exit codes: 0 success/pass, 1 domain failure (diagnostics, failed checks,
property violations), 2 usage or I/O errors.  Output is deterministic for
identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .corpus import run_corpus
from .lts import (AugmentedLTS, from_exploration, load_lts, named_goal,
                  save_lts, validate_side_conditions)
from .ltl import convert_lasso, eval_ltl, ltl_convert, parse_formula
from .parser import ParseError, parse_ccs
from .paths import (Assumption, PathPrefix, classify_finite, classify_lasso,
                    lasso_from_json, parse_assumption, prefix_certificate)
from .semantics import explore
from .syntax import Diagnostic, check_fragment
from .tasks import NOTIONS, extract_tasks, load_custom_tasks, with_progress_task
from .verify import (Bounds, fair_extend, hierarchy_check, liveness,
                     loopfree_witness, simulate)

DEFAULT_SEED = 0xC0FFEE


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise SystemExit2(f"cannot read {path}: {exc}") from None


class SystemExit2(Exception):
    """I/O or usage failure (exit code 2)."""


class DomainFailure(Exception):
    """Check or diagnostic failure (exit code 1)."""


def _load_config(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    out: dict[str, str] = {}
    for line in _read(path).splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise SystemExit2(f"bad config line {line!r}")
        out[key.strip()] = value.strip()
    return out


def _load_lts_file(path: str) -> AugmentedLTS:
    return load_lts(_read(path))


def _assumption(lts: AugmentedLTS, text: str) -> Assumption:
    if ":custom=" in text:
        kind, _, rest = text.partition(":custom=")
        name, _, flag = rest.partition(",")
        reactive = flag == "reactive"
        ts = load_custom_tasks(lts, _read(name))
        return Assumption(kind, "custom", ts, reactive)
    return parse_assumption(text)


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("FAIRLAB_SEED")
    return int(env, 0) if env else DEFAULT_SEED


def cmd_ccs2lts(args) -> int:
    config = _load_config(args.config)
    state_cap = args.state_cap or int(config.get("state_cap", 512))
    depth_cap = args.depth_cap or int(config.get("depth_cap", 256))
    try:
        spec = parse_ccs(_read(args.input))
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    diagnostics: list[Diagnostic] = check_fragment(spec)
    if diagnostics:
        for d in diagnostics:
            print(f"error: {d}", file=sys.stderr)
        return 1
    report = explore(spec, state_cap, depth_cap)
    if report.truncated:
        print(f"warning: exploration truncated at state cap {state_cap} / "
              f"depth cap {depth_cap}", file=sys.stderr)
    text = save_lts(from_exploration(report))
    try:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise SystemExit2(f"cannot write {args.output}: {exc}") from None
    return 0


def cmd_liveness(args) -> int:
    lts = _load_lts_file(args.lts)
    assumption = _assumption(lts, args.assume)
    verdict = liveness(lts, named_goal(lts, args.goal), assumption, goal_name=args.goal)
    print(json.dumps(verdict.to_json(), indent=2))
    return 0 if verdict.holds == "yes" else 1


def cmd_tasks(args) -> int:
    lts = _load_lts_file(args.lts)
    if args.notion:
        ts = extract_tasks(lts, args.notion)
    else:
        ts = load_custom_tasks(lts, _read(args.custom))
    if args.with_progress:
        ts = with_progress_task(ts, lts)
    doc = {"notion": ts.notion,
           "tasks": [{"name": t.name, "members": sorted(t.members)} for t in ts.tasks]}
    print(json.dumps(doc, indent=2))
    return 0


def cmd_classify(args) -> int:
    lts = _load_lts_file(args.lts)
    assumption = _assumption(lts, args.assume)
    doc = json.loads(_read(args.path))
    if "cycle" in doc:
        lasso = lasso_from_json(json.dumps(doc))
        result = classify_lasso(lts, lasso, assumption)
    else:
        prefix = PathPrefix(doc["start"], tuple(doc.get("steps", ())))
        result = classify_finite(lts, prefix, assumption)
    print(json.dumps({"assumption": str(assumption), "fair": result}))
    return 0


def cmd_extend(args) -> int:
    lts = _load_lts_file(args.lts)
    if args.notion:
        ts = extract_tasks(lts, args.notion)
    else:
        ts = load_custom_tasks(lts, _read(args.custom))
    if args.prefix:
        doc = json.loads(_read(args.prefix))
        prefix = PathPrefix(doc["start"], tuple(doc.get("steps", ())))
    else:
        prefix = PathPrefix(args.start or lts.initial[0])
    path = fair_extend(lts, prefix, ts, args.steps)
    print(json.dumps({"start": path.start, "steps": list(path.steps)}))
    return 0


def cmd_hierarchy(args) -> int:
    lts = _load_lts_file(args.lts)
    stronger = _assumption(lts, args.stronger)
    weaker = _assumption(lts, args.weaker)
    stem, _, cycle = (args.bounds or "5,6").partition(",")
    report = hierarchy_check(lts, stronger, weaker, Bounds(int(stem), int(cycle or stem)),
                             tuple(args.requires or ()))
    doc = {"stronger": report.stronger, "weaker": report.weaker,
           "checked": report.checked, "skipped": report.skipped,
           "violations": [{"start": v.start, "stem": list(v.stem),
                           "cycle": list(v.cycle)} for v in report.violations]}
    print(json.dumps(doc, indent=2))
    if report.skipped:
        return 1
    return 1 if report.violations else 0


def cmd_ltl(args) -> int:
    lts = _load_lts_file(args.lts)
    conv = ltl_convert(lts)
    lasso = lasso_from_json(_read(args.lasso))
    converted = convert_lasso(conv, lasso)
    result = eval_ltl(conv, converted, parse_formula(args.formula))
    print(json.dumps({"formula": args.formula, "holds": result}))
    return 0


def cmd_simulate(args) -> int:
    lts = _load_lts_file(args.lts)
    weights = None
    if args.weights:
        raw = json.loads(_read(args.weights))["weights"]
        weights = {k: Fraction(v) for k, v in raw.items()}
    est = simulate(lts, named_goal(lts, args.goal), weights,
                   args.horizon, args.runs, _seed(args))
    print(json.dumps(est.to_json(), indent=2))
    return 0


def cmd_validate(args) -> int:
    lts = _load_lts_file(args.lts)
    reports = validate_side_conditions(lts)
    okay = True
    for r in reports:
        status = "pass" if r.holds else ("skip" if not r.checked else "FAIL")
        if r.checked and not r.holds:
            okay = False
        detail = f"  ({r.detail})" if r.detail else ""
        print(f"[{status}] {r.name}{detail}")
    return 0 if okay else 1


def cmd_loopfree(args) -> int:
    lts = _load_lts_file(args.lts)
    witness = loopfree_witness(lts, named_goal(lts, args.goal), args.length)
    if witness is None:
        print(json.dumps({"found": False, "length": args.length}))
        return 1
    print(json.dumps({"found": True, "start": witness.start,
                      "steps": list(witness.steps)}))
    return 0


def cmd_certify(args) -> int:
    lts = _load_lts_file(args.lts)
    doc = json.loads(_read(args.prefix))
    prefix = PathPrefix(doc["start"], tuple(doc.get("steps", ())))
    if args.notion:
        ts = extract_tasks(lts, args.notion)
    else:
        ts = load_custom_tasks(lts, _read(args.custom))
    task = ts.get(args.task)
    cert = prefix_certificate(lts, prefix, task)
    print(json.dumps({"task": cert.task, "enabledEverywhere": cert.enabled_everywhere,
                      "occurs": cert.occurs, "length": cert.length}))
    return 0


def cmd_corpus(args) -> int:
    results, okay = run_corpus(args.filter)
    for r in results:
        print(r.line())
    verdicts = [r for r in results if r.kind == "verdict"]
    if verdicts:
        print()
        print(_verdict_matrix(verdicts))
    passed = sum(1 for r in results if r.ok)
    print(f"{passed}/{len(results)} expectations met")
    return 0 if okay else 1


def _verdict_matrix(verdicts) -> str:
    """Rows are corpus entries, columns assumptions; cells show the actual
    verdict (y/n/?) with a trailing ! where it missed the expectation."""
    short = {"yes": "y", "no": "n", "bounded-unknown": "?"}
    cells: dict[tuple[str, str], str] = {}
    rows: list[str] = []
    columns: list[str] = []
    for r in verdicts:
        assume, _, goal = r.subject.rpartition(" ")
        column = assume.split("=")[0]
        row = f"{r.entry}:{goal}"
        if row not in rows:
            rows.append(row)
        if column not in columns:
            columns.append(column)
        mark = short.get(r.actual, "?") + ("" if r.ok else "!")
        cells[(row, column)] = mark
    width = max(len(c) for c in columns) + 1
    name_width = max(len(r) for r in rows)
    lines = [" " * name_width + "".join(c.rjust(width) for c in columns)]
    for row in rows:
        line = row.ljust(name_width)
        for c in columns:
            line += cells.get((row, c), ".").rjust(width)
        lines.append(line)
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairlab",
        description="transition systems from a CCS fragment, and liveness "
                    "checking under progress/justness/fairness assumptions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ccs2lts", help="parse, check, explore, and save")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--state-cap", type=int, default=None)
    p.add_argument("--depth-cap", type=int, default=None)
    p.add_argument("--config", default=None, help="key=value defaults file")
    p.set_defaults(func=cmd_ccs2lts)

    p = sub.add_parser("liveness", help="decide a liveness property")
    p.add_argument("lts")
    p.add_argument("--goal", required=True)
    p.add_argument("--assume", required=True,
                   help="P | just | J:y | W:y | S:y | SWI | Fu | ST | Pr | "
                        "x:custom=<tasks.json>, optionally ,reactive")
    p.set_defaults(func=cmd_liveness)

    p = sub.add_parser("tasks", help="extract or load a task collection")
    p.add_argument("lts")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--notion", choices=NOTIONS)
    group.add_argument("--custom", help="custom task JSON file")
    p.add_argument("--with-progress", action="store_true")
    p.set_defaults(func=cmd_tasks)

    p = sub.add_parser("classify", help="classify a lasso or finite path")
    p.add_argument("lts")
    p.add_argument("path", help="lasso or prefix JSON file")
    p.add_argument("--assume", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("extend", help="fair-scheduler extension of a path")
    p.add_argument("lts")
    p.add_argument("--start", default=None)
    p.add_argument("--prefix", default=None, help="prefix JSON file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--notion", choices=NOTIONS)
    group.add_argument("--custom")
    p.add_argument("--steps", type=int, default=20)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("hierarchy", help="check one hierarchy arrow")
    p.add_argument("lts")
    p.add_argument("--stronger", required=True)
    p.add_argument("--weaker", required=True)
    p.add_argument("--bounds", default=None)
    p.add_argument("--requires", nargs="*", help="side conditions, e.g. (1)")
    p.set_defaults(func=cmd_hierarchy)

    p = sub.add_parser("ltl", help="evaluate an LTL formula on a lasso")
    p.add_argument("lts")
    p.add_argument("--lasso", required=True)
    p.add_argument("--formula", required=True)
    p.set_defaults(func=cmd_ltl)

    p = sub.add_parser("simulate", help="estimate goal reachability")
    p.add_argument("lts")
    p.add_argument("--goal", required=True)
    p.add_argument("--weights", default=None)
    p.add_argument("--horizon", type=int, default=200)
    p.add_argument("--runs", type=int, default=2000)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("validate", help="structural side conditions")
    p.add_argument("lts")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("loopfree", help="search a loop-free goal-avoiding path")
    p.add_argument("lts")
    p.add_argument("--goal", required=True)
    p.add_argument("--length", type=int, required=True)
    p.set_defaults(func=cmd_loopfree)

    p = sub.add_parser("certify", help="prefix certificate for a task")
    p.add_argument("lts")
    p.add_argument("--prefix", required=True)
    p.add_argument("--task", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--notion", choices=NOTIONS)
    group.add_argument("--custom")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("corpus", help="replay the bundled example corpus")
    p.add_argument("--filter", default="*", help="id glob")
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, ValueError, KeyError, LookupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
