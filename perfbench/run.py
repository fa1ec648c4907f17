"""fairlab benchmark: one workload, timed end to end or per layer.

    python3 perfbench/run.py --workload ring --seed 1 --seconds 40 --trace 0

Run from the repository root; fairlab is imported from ./src.  The run
repeats the workload's whole pipeline (one round) until --seconds would be
exceeded.  A phase time is the sum over the parts of a round of each part's
median over rounds.  With --trace 0 it prints the end-to-end metrics; with
--trace 1 it alternates untraced and traced rounds and prints the per-layer
metrics, derived from the spans of the traced rounds, and the tracing
overhead.  Times other than set-up are scaled to the reference host's speed
(see spans.Speedometer).  Metric names and units come from BENCHMARK.json.
The last line of stdout is the JSON result; the lines before it are the run
header, the output digest, failures and the unscaled times.  Traced spans
are written to perfbench/out/<workload>.trace.json.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import PHASES, Recorder, Speedometer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_PROBES = 9
MIN_ROUNDS = 3  # with tracing, rounds alternate untraced/traced: >= 1 traced
NOTIONS = ("A", "T", "I", "Z", "C", "G")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="import and generate inputs, print the time, exit")
    return p.parse_args(argv)


def load_program(workload: str):
    """Import fairlab from ./src and generate the workload's inputs."""
    sys.path.insert(0, str(ROOT / "src"))
    import fairlab
    if not Path(fairlab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"fairlab imported from {fairlab.__file__}, not from ./src")
    import workloads  # needs fairlab on the path
    make_inputs, run_round = workloads.WORKLOADS[workload]
    return make_inputs(), run_round


# ---------------------------------------------------------------------------
# Set-up time: each probe is a fresh interpreter that imports fairlab and
# generates the inputs, then reports the monotonic clock (system-wide on
# Linux); set-up is that reading minus the parent's reading before launch.
# ---------------------------------------------------------------------------

def measure_setup(args) -> float:
    """Median set-up time over the probes.  It is not speed-scaled: process
    start and imports do not track the calibration loop."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        launched = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              cwd=ROOT, check=True)
        samples.append(float(done.stdout.split()[-1]) - launched)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# Run header and the cross-run output digest.
# ---------------------------------------------------------------------------

def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None  # not a git checkout: code_sha256 identifies the code
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def code_digest() -> str:
    """SHA-256 of the program (src/) and of this benchmark's own files."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and not {"__pycache__", "out"} & set(path.relative_to(ROOT).parts):
                h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def compare_digest(workload: str, code: str, digest: str) -> str | None:
    """Compare with the digest an earlier run of the same code recorded (any
    seed); record it if there is none.  Returns a mismatch message."""
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    seen = known.setdefault(workload, {}).get(code)
    if seen is not None:
        return None if seen == digest else f"output digest {digest} differs from {seen}"
    known[workload][code] = digest
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return None


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

def liveness_family(assumption: str) -> tuple[str, str | None]:
    """(row family, notion) of a matrix entry, for the per-family times."""
    if assumption.endswith(",reactive"):
        return "reactive", None
    head, _, notion = assumption.partition(":")
    if head in ("J", "W", "S"):
        return head, (notion if notion in NOTIONS else None)  # not custom task sets
    return {"ST": "agef", "Fu": "agef", "Pr": "agef"}.get(head, head), None


def layer_metrics(rec) -> dict[str, float]:
    """Per-layer values of one traced round."""
    self_s = rec.self_times()
    out = {f"{layer}_s": self_s.get(layer, 0.0) for layer in (
        "verify.liveness", "semantics.explore", "parser.parse", "syntax.check_fragment",
        "lts.from_exploration", "lts.save", "lts.load", "lts.goal", "lts.validate",
        "tasks.extract", "ltl.convert", "ltl.eval", "verify.enumerate",
        "verify.hierarchy", "paths.classify", "paths.certificate", "verify.simulate",
        "verify.loopfree", "bench.system")}
    for key in ("P", "J", "W", "S", "just", "SWI", "agef", "reactive"):
        out[f"verify.liveness.{key}_s"] = 0.0
    for notion in NOTIONS:
        out[f"verify.liveness.notion.{notion}_s"] = 0.0
    for query, seconds in rec.query_times("verify.liveness").items():
        family, notion = liveness_family(rec.queries[query])
        out[f"verify.liveness.{family}_s"] += seconds
        if notion:
            out[f"verify.liveness.notion.{notion}_s"] += seconds
    for name in ("verify.liveness.calls", "verify.liveness.yes", "verify.liveness.no",
                 "semantics.states", "semantics.transitions", "parser.chars",
                 "lts.json_bytes", "tasks.count", "ltl.converted_transitions",
                 "ltl.eval_calls", "verify.hierarchy.runs", "verify.hierarchy.checked",
                 "verify.hierarchy.skipped", "paths.classify_calls"):
        out[name] = rec.counts[name]
    out["semantics.states_per_s"] = rec.counts["semantics.states"] / out["semantics.explore_s"]
    out["bench.spans"] = len(rec.spans)
    return out


def median_of(rows: list[dict[str, float]], key: str) -> float:
    return statistics.median(row[key] for row in rows)


def sum_of_medians(totals: list[dict[tuple, float]]) -> dict[str, float]:
    """Per phase, and for "wall", the sum over keys (system, layer, query)
    of the key's median over rounds: a burst of host noise that slows one
    part of one round moves no median."""
    out = dict.fromkeys((*PHASES, "wall"), 0.0)
    for key in set().union(*totals):
        out[key[0]] += statistics.median(t.get(key, 0.0) for t in totals)
    return out


# ---------------------------------------------------------------------------
# The run.
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        inputs, run_round = load_program(args.workload)
    except (ImportError, KeyError, OSError) as exc:
        print(f"error: cannot set up workload {args.workload!r}: {exc!r}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(time.monotonic())
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    declared = spec["per_layer" if args.trace else "end_to_end"]
    setup_s = measure_setup(args)
    header = {"workload": args.workload, "why": why.get(args.workload),
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "python": platform.python_version(), "nproc": os.cpu_count(),
              "git_commit": git_commit(), "code_sha256": code_digest()}
    print("header " + json.dumps(header, sort_keys=True))

    rng = random.Random(args.seed)
    speed = Speedometer()
    speed.warm_up()
    rounds = []  # (tracing, recorder, scaled wall seconds, raw wall seconds)
    started = time.perf_counter()
    while True:
        tracing = bool(args.trace) and len(rounds) % 2 == 1
        gc.collect()
        rec = Recorder(tracing, speed)
        speed.sample()
        sampling, t0 = speed.sampling_s, time.perf_counter()
        run_round(inputs, rec, rng)
        t1 = time.perf_counter()
        wall = t1 - t0 - (speed.sampling_s - sampling)
        speed.sample()  # closes the round's last stretch
        rec.close()
        rounds.append((tracing, rec, speed.scale(t0, t1), wall))
        elapsed = time.perf_counter() - started
        typical = statistics.median(r[3] for r in rounds)
        if len(rounds) >= MIN_ROUNDS and elapsed + typical > args.seconds:
            break

    attempted = sum(r[1].attempted for r in rounds)
    failures = [f for r in rounds for f in r[1].failures]
    digests = {r[1].digest() for r in rounds}
    first = rounds[0][1]
    if len(digests) != 1:
        failures.append(f"output digest differs between rounds: {sorted(digests)}")
    else:
        mismatch = compare_digest(args.workload, header["code_sha256"], digests.pop())
        if mismatch:
            failures.append(mismatch)
    attempted += 1  # the digest comparison
    print("digest " + json.dumps({"digest": first.digest(), "outputs": len(first.outputs),
                                  "systems": {name: dict(zip(("states", "transitions",
                                                              "json_bytes"), size))
                                              for name, size in sorted(first.sizes.items())}},
                                 sort_keys=True))
    for failure in failures[:20]:
        print("FAIL " + failure)
    print(f"errors {len(failures)} of {attempted} results, "
          f"error_rate {len(failures) / attempted} over {len(rounds)} rounds")

    untraced = [rec for tracing, rec, _, _ in rounds if not tracing]
    scaled = sum_of_medians([rec.scaled for rec in untraced])
    raw = sum_of_medians([rec.raw for rec in untraced])
    print("raw " + json.dumps({**{f"{k}_s": v for k, v in raw.items()},
                               "round_speed_factors": [r[2] / r[3] for r in rounds]}))
    if args.trace:
        traced = [rec for tracing, rec, _, _ in rounds if tracing]
        rows = [layer_metrics(rec) for rec in traced]
        values = {key: median_of(rows, key) for key in rows[0]}
        values["trace.overhead_s"] = (sum_of_medians([rec.scaled for rec in traced])["wall"]
                                      - scaled["wall"])
        OUT.mkdir(parents=True, exist_ok=True)
        (OUT / f"{args.workload}.trace.json").write_text(json.dumps(
            {"header": header, "fields": ["name", "start", "end", "parent", "query"],
             "speed_samples": speed.samples,
             "rounds": [{"queries": rec.queries, "spans": rec.spans} for rec in traced]}))
    else:
        values = {f"{k}_s": v for k, v in scaled.items()}
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                                  for m in declared}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
