"""Timing, spans and result bookkeeping for one benchmark round.

The benchmark never instruments fairlab itself: every call into a fairlab
module goes through `Recorder.call`, which adds the call's duration to its
pipeline phase (build, verify or analyze).  With tracing on, each call also
leaves a span (name, start, end, parent, query id) in memory; `self_times`
turns the spans into per-layer self time after the round.  All reported
times are scaled by a `Speedometer` (see there).
"""

from __future__ import annotations

import hashlib
import statistics
from bisect import bisect_right
from collections import Counter, defaultdict, deque
from contextlib import contextmanager
from time import perf_counter

PHASES = ("build", "verify", "analyze")

# Time of one `calibration_work()` on the reference host (x86-64, 2 vCPUs,
# CPython 3.11.7) at its usual speed.
REFERENCE_CALIBRATION_S = 0.009
SAMPLE_EVERY_S = 0.2


def calibration_work() -> int:
    """Fixed work, independent of fairlab, with fairlab's mix of operations:
    string building, dict and set lookups, tuples and small calls."""
    table: dict[str, set] = {}
    total = 0
    for i in range(8_000):
        key = f"t{i % 613}"
        bucket = table.setdefault(key, set())
        bucket.add((key, i & 31))
        total += len(bucket) + abs(-i).bit_length()
    return total + len(sorted(table))


class Speedometer:
    """How fast this host runs Python, sampled over time.

    The hosts this benchmark runs on share CPU cores with other tenants, and
    the speed of pure-Python code drifts by +-30% over seconds to minutes,
    more than a run can average out.  So a short fixed calibration loop is
    timed every SAMPLE_EVERY_S seconds, between calls into fairlab.  Each
    sample gives a factor: the reference calibration time over the median of
    the last three samples.  `scale` turns a measured interval into seconds
    at the reference host's usual speed: the stretch between two samples
    counts at the mean of their factors, time after the last sample at its
    factor, and time spent sampling not at all.
    """

    def __init__(self) -> None:
        self.recent: deque[float] = deque(maxlen=3)
        self.samples: list[tuple[float, float, float]] = []  # (start, end, factor)
        self._starts: list[float] = []
        self.sampling_s = 0.0
        self.due = 0.0  # perf_counter() reading at which the next sample is due

    def sample(self) -> None:
        start = perf_counter()
        calibration_work()
        end = perf_counter()
        self.recent.append(end - start)
        factor = REFERENCE_CALIBRATION_S / statistics.median(self.recent)
        self.samples.append((start, end, factor))
        self._starts.append(start)
        self.sampling_s += end - start
        self.due = end + SAMPLE_EVERY_S

    def warm_up(self) -> None:
        for _ in range(self.recent.maxlen):
            self.sample()

    def scale(self, start: float, end: float) -> float:
        samples = self.samples
        k = max(bisect_right(self._starts, start) - 1, 0)
        total, t = 0.0, start
        while t < end:
            _, sample_end, factor = samples[k]
            if t < sample_end:  # inside sample k: not counted
                t = min(end, sample_end)
            elif k + 1 < len(samples):
                next_start, _, next_factor = samples[k + 1]
                stop = min(end, next_start)
                total += (stop - t) * (factor + next_factor) / 2
                t = stop
                k += 1
            else:
                total += (end - t) * factor
                t = end
        return total


class Recorder:
    """Everything one round measures and checks."""

    def __init__(self, tracing: bool, speed: Speedometer) -> None:
        self.tracing = tracing
        self.speed = speed
        self.calls: list[tuple[str, str, str, str | None, float, float]] = []
        self.system_walls: list[tuple[str, float, float]] = []
        self.system = ""  # the system whose pipeline runs now
        self.query_text: str | None = None
        self.spans: list[tuple[str, float, float, int, int | None]] = []
        self.counts: Counter = Counter()
        self.attempted = 0
        self.failures: list[str] = []
        self.outputs: dict[str, str] = {}  # output key -> sha256 of its bytes
        # system -> (states, transitions, JSON bytes)
        self.sizes: dict[str, tuple[int, int, int]] = {}
        self.queries: dict[int, str] = {}  # query id -> assumption text
        self.query: int | None = None
        self._pipeline = -1  # index of the open "bench.system" span

    # -- timing ------------------------------------------------------------

    def call(self, phase: str, layer: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs), charging its time to `phase` and, when
        tracing, to a span named `layer`."""
        if perf_counter() >= self.speed.due:
            self.speed.sample()
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.calls.append((phase, self.system, layer, self.query_text, start, end))
            if self.tracing:
                self.spans.append((layer, start, end, self._pipeline, self.query))

    @contextmanager
    def pipeline(self, system: str):
        """One system's pipeline.  Its wall time is recorded; when tracing it
        is also a span, "bench.system", whose self time is the benchmark's
        own checking overhead."""
        self.system = system
        start = perf_counter()
        if self.tracing:
            self._pipeline = len(self.spans)
            self.spans.append(("bench.system", start, 0.0, -1, None))
        try:
            yield
        finally:
            end = perf_counter()
            self.system_walls.append((system, start, end))
            if self.tracing:
                self.spans[self._pipeline] = ("bench.system", start, end, -1, None)
                self._pipeline = -1

    @contextmanager
    def in_query(self, assumption: str):
        """Tag the spans of one liveness query and its witness checks."""
        self.query = len(self.queries)
        self.queries[self.query] = assumption
        self.query_text = assumption
        try:
            yield
        finally:
            self.query = self.query_text = None

    # -- results -----------------------------------------------------------

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def error(self, what: str, exc: BaseException) -> None:
        """An exception where a result was expected: one attempted, one failed."""
        self.attempted += 1
        self.failures.append(f"{what}: {type(exc).__name__}: {exc}")

    def output(self, key: str, text: str) -> None:
        """Record one output document for the order-independent digest."""
        if key in self.outputs:
            raise ValueError(f"output key {key!r} recorded twice")
        self.outputs[key] = hashlib.sha256(text.encode()).hexdigest()

    def digest(self) -> str:
        lines = "".join(f"{k}\t{v}\n" for k, v in sorted(self.outputs.items()))
        return hashlib.sha256(lines.encode()).hexdigest()

    # -- analysis after the round (scaled seconds) --------------------------

    def close(self) -> None:
        """Fix the round's times once its closing speed sample is taken, and
        drop the call log, so that kept rounds do not inflate peak RSS.

        `scaled` and `raw` map (phase, system, layer, query) to time, and
        ("wall", system) to each system's whole pipeline.  The keys are the
        same in every round, whatever order the seed gave the work."""
        self.scaled = self._totals(self.speed.scale)
        self.raw = self._totals(lambda start, end: end - start)
        self.calls = []

    def _totals(self, length) -> dict[tuple, float]:
        out: dict[tuple, float] = defaultdict(float)
        for phase, system, layer, query, start, end in self.calls:
            out[phase, system, layer, query] += length(start, end)
        for system, start, end in self.system_walls:
            out["wall", system] += length(start, end)
        return dict(out)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: a span's duration minus the time
        its child spans cover (children never overlap: calls are sequential)."""
        covered = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += self.speed.scale(start, end)
        out: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += self.speed.scale(start, end) - covered[index]
        return dict(out)

    def query_times(self, layer: str) -> dict[int, float]:
        """Time of the `layer` spans of each tagged query."""
        out: dict[int, float] = defaultdict(float)
        for name, start, end, _, query in self.spans:
            if name == layer and query is not None:
                out[query] += self.speed.scale(start, end)
        return dict(out)
