"""Command-line front end.

Exit codes: 0 success/pass, 1 domain failure (diagnostics, failed checks,
property violations), 2 usage or I/O errors.  Output is deterministic for
identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import fnmatch
import inspect
import json
import os
import sys
from functools import partial

from .corpus import corpus_entries, run_corpus
from .lts import (AugmentedLTS, TaskSet, from_exploration, load_lts, named_goal,
                  save_lts, validate_side_conditions)
from .ltl import convert_lasso, eval_ltl, ltl_convert, parse_formula
from .parser import ParseError, parse_ccs
from .paths import (Lasso, PathError, PathPrefix, classify_finite, classify_lasso,
                    parse_assumption, path_from_json, prefix_certificate)
from .semantics import explore
from .syntax import Diagnostic, check_fragment
from .tasks import NOTIONS, extract_tasks, load_custom_tasks, with_progress_task
from .verify import (Bounds, UnknownCondition, fair_extend, hierarchy_check, liveness,
                     loopfree_witness, parse_weights, simulate)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise SystemExit2(f"cannot read {path}: {exc}") from None


class SystemExit2(Exception):
    """I/O or usage failure (exit code 2)."""


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
        key = key.strip()
        if key not in ("state_cap", "depth_cap"):
            raise SystemExit2(f"unknown config key {key!r}; known: state_cap, depth_cap")
        out[key] = value.strip()
    return out


def _load_lts_file(path: str) -> AugmentedLTS:
    return load_lts(_read(path))


def _default(fn, name: str):
    """The default of parameter `name` of library function `fn`."""
    return inspect.signature(fn).parameters[name].default


def _cap(flag: int | None, config: dict[str, str], key: str) -> int:
    """An exploration cap: the flag, else the config file, else `explore`'s."""
    value = flag if flag is not None else config.get(key, _default(explore, key))
    try:
        value = int(value)
    except ValueError:
        raise SystemExit2(f"config {key} must be an integer, not {value!r}") from None
    if value < 1:
        raise SystemExit2(f"{key} must be at least 1, got {value}")
    return value


def _task_file(lts: AugmentedLTS, path: str) -> TaskSet:
    return load_custom_tasks(lts, _read(path))


def _taskset(lts: AugmentedLTS, args) -> TaskSet:
    """The task collection chosen by --notion or --custom."""
    return extract_tasks(lts, args.notion) if args.notion else _task_file(lts, args.custom)


def _path_file(path: str, kind: type):
    """The lasso or the finite prefix a path file holds, which must be a `kind`."""
    found = path_from_json(_read(path))
    if not isinstance(found, kind):
        raise PathError(f"{path}: not a {'lasso' if kind is Lasso else 'finite prefix'}")
    return found


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("FAIRLAB_SEED")
    try:
        return int(env, 0) if env else _default(simulate, "seed")
    except ValueError:
        raise SystemExit2(f"FAIRLAB_SEED must be an integer, got {env!r}") from None


def cmd_ccs2lts(args) -> int:
    config = _load_config(args.config)
    state_cap = _cap(args.state_cap, config, "state_cap")
    depth_cap = _cap(args.depth_cap, config, "depth_cap")
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
    assumption = parse_assumption(args.assume, partial(_task_file, lts))
    verdict = liveness(lts, named_goal(lts, args.goal), assumption, goal_name=args.goal)
    print(json.dumps(verdict.to_json(), indent=2))
    return 0 if verdict.holds == "yes" else 1


def cmd_tasks(args) -> int:
    lts = _load_lts_file(args.lts)
    ts = _taskset(lts, args)
    if args.with_progress:
        ts = with_progress_task(ts, lts)
    print(json.dumps(ts.to_json(), indent=2))
    return 0


def cmd_classify(args) -> int:
    lts = _load_lts_file(args.lts)
    assumption = parse_assumption(args.assume, partial(_task_file, lts))
    path = path_from_json(_read(args.path))
    if isinstance(path, Lasso):
        result = classify_lasso(lts, path, assumption)
    else:
        result = classify_finite(lts, path, assumption)
    print(json.dumps({"assumption": str(assumption), "fair": result}))
    return 0


def cmd_extend(args) -> int:
    if args.steps < 0:
        raise SystemExit2(f"extend needs --steps >= 0, got {args.steps}")
    lts = _load_lts_file(args.lts)
    ts = _taskset(lts, args)
    if args.prefix:
        prefix = _path_file(args.prefix, PathPrefix)
    else:
        prefix = PathPrefix(args.start or lts.initial[0])
    print(json.dumps(fair_extend(lts, prefix, ts, args.steps).to_json()))
    return 0


def cmd_hierarchy(args) -> int:
    lts = _load_lts_file(args.lts)
    stronger = parse_assumption(args.stronger, partial(_task_file, lts))
    weaker = parse_assumption(args.weaker, partial(_task_file, lts))
    bounds = Bounds()
    if args.bounds is not None:
        stem, comma, cycle = args.bounds.partition(",")
        try:
            stem, cycle = int(stem), int(cycle if comma else stem)
        except ValueError:
            raise SystemExit2(f"--bounds needs STEM[,CYCLE] integers, "
                              f"not {args.bounds!r}") from None
        try:
            bounds = Bounds(stem, cycle)
        except ValueError as exc:
            raise SystemExit2(f"--bounds {exc}") from None
    report = hierarchy_check(lts, stronger, weaker, bounds, tuple(args.requires or ()))
    doc = {"stronger": report.stronger, "weaker": report.weaker,
           "checked": report.checked, "skipped": report.skipped,
           "violations": [v.to_json() for v in report.violations]}
    print(json.dumps(doc, indent=2))
    if report.skipped:
        return 1
    return 1 if report.violations else 0


def cmd_ltl(args) -> int:
    lts = _load_lts_file(args.lts)
    conv = ltl_convert(lts)
    converted = convert_lasso(conv, _path_file(args.lasso, Lasso))
    result = eval_ltl(conv, converted, parse_formula(args.formula))
    print(json.dumps({"formula": args.formula, "holds": result}))
    return 0


def cmd_simulate(args) -> int:
    if args.runs < 1 or args.horizon < 0:
        raise SystemExit2("simulate needs --runs >= 1 and --horizon >= 0")
    lts = _load_lts_file(args.lts)
    goal = named_goal(lts, args.goal)
    try:
        weights = parse_weights(_read(args.weights)) if args.weights else None
        est = simulate(lts, goal, weights, args.horizon, args.runs, _seed(args))
    except ValueError as exc:  # runs and horizon are checked: the weights are wrong
        raise ValueError(f"{args.weights}: {exc}") from None
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
    if args.length < 0:
        raise SystemExit2(f"loopfree needs --length >= 0, got {args.length}")
    lts = _load_lts_file(args.lts)
    witness = loopfree_witness(lts, named_goal(lts, args.goal), args.length)
    if witness is None:
        print(json.dumps({"found": False, "length": args.length}))
        return 1
    print(json.dumps({"found": True, **witness.to_json()}))
    return 0


def cmd_certify(args) -> int:
    lts = _load_lts_file(args.lts)
    prefix = _path_file(args.prefix, PathPrefix)
    tasks = _taskset(lts, args)
    if args.task not in tasks.names():
        raise LookupError(f"unknown task {args.task!r} in the {tasks.notion} tasks")
    cert = prefix_certificate(lts, prefix, tasks.get(args.task))
    print(json.dumps({"task": cert.task, "enabledEverywhere": cert.enabled_everywhere,
                      "occurs": cert.occurs, "length": cert.length}))
    return 0


def cmd_corpus(args) -> int:
    if not any(fnmatch.fnmatch(e.id, args.filter) for e in corpus_entries()):
        raise SystemExit2(f"no corpus entry matches {args.filter!r}")
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


def _taskset_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--notion", choices=NOTIONS)
    group.add_argument("--custom", help="custom task JSON file")


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):  # one line, like every other error (subparsers too)
        self.exit(2, f"error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
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
    _taskset_flags(p)
    p.add_argument("--with-progress", action="store_true")
    p.set_defaults(func=cmd_tasks)

    p = sub.add_parser("classify", help="classify a lasso or finite path")
    p.add_argument("lts")
    p.add_argument("path", help="lasso or prefix JSON file")
    p.add_argument("--assume", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("extend", help="fair-scheduler extension of a path")
    p.add_argument("lts")
    origin = p.add_mutually_exclusive_group()
    origin.add_argument("--start", default=None)
    origin.add_argument("--prefix", default=None, help="prefix JSON file")
    _taskset_flags(p)
    p.add_argument("--steps", type=int, default=20)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("hierarchy", help="check one hierarchy arrow")
    p.add_argument("lts")
    p.add_argument("--stronger", required=True)
    p.add_argument("--weaker", required=True)
    p.add_argument("--bounds", default=None)
    p.add_argument("--requires", nargs="*", help="side condition tags, e.g. (1) (#)")
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
    p.add_argument("--horizon", type=int, default=_default(simulate, "horizon"))
    p.add_argument("--runs", type=int, default=_default(simulate, "runs"))
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
    _taskset_flags(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("corpus", help="replay the bundled example corpus")
    p.add_argument("--filter", default="*", help="id glob")
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        code = _dispatch(argv)
        sys.stdout.flush()  # so that a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout exited early: point stdout at devnull, so the
        # flush at exit has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout closed", file=sys.stderr)
        return 2


def _dispatch(argv: list[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (SystemExit2, UnknownCondition) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, ValueError, KeyError, LookupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
