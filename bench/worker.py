"""One workload run in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Imports the library, generates the inputs and warms up, then prints
"ready" so that run.py can time the set-up.  With --setup-only it stops
there.  Otherwise it runs the ops in a closed loop with one client and
prints one JSON line of raw results.

Each op's output is checked outside the timed interval: the first output
of an op is verified by a route other than the closed form under test, and
every later output of that op must equal the first.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
from array import array
from time import perf_counter

import hostspeed
import workloads
from tracer import LAYERS, Tracer

_UNSET = object()
MAX_ERRORS_SHOWN = 5
SAMPLES_PER_OP = 128


class Runner:
    """Runs ops by index and tallies attempts and failures per op."""

    def __init__(self, ops: list[tuple]):
        self.ops = ops
        self.refs = [_UNSET] * len(ops)
        self.runs = [0] * len(ops)
        self.bad = [0] * len(ops)
        self.errors: list[str] = []

    def fill_refs(self) -> None:
        for j, op in enumerate(self.ops):
            try:
                self.refs[j] = workloads.run(op)
            except Exception as exc:  # counted when the op runs timed
                self.note(f"{op!r} raised {exc!r}")

    def call(self, j: int, paused=lambda: 0.0) -> float:
        """Runs op j once and returns its latency in seconds, less the time
        `paused()` advanced by meanwhile.  The pause is read inside the
        timed interval, so no pause is subtracted that was not timed."""
        op = self.ops[j]
        error = None
        start = perf_counter()
        before = paused()
        try:
            out = workloads.run(op)
        except Exception as exc:  # a failed op, not a failed benchmark
            error = exc
        after = paused()
        latency = perf_counter() - start - (after - before)
        self.runs[j] += 1
        if error is not None:
            self.bad[j] += 1
            self.note(f"{op!r} raised {error!r}")
        elif self.refs[j] is _UNSET:
            self.refs[j] = out
        elif out != self.refs[j]:
            self.bad[j] += 1
            self.note(f"{op!r} gave a different output on a repeat")
        return latency

    def run_pass(self) -> float:
        return sum(self.call(j) for j in range(len(self.ops)))

    def tally(self) -> tuple[int, int]:
        """(attempted, failed); an op whose output fails verification fails
        on every run."""
        verdicts: dict[tuple, str | None] = {}
        failed = 0
        for j, op in enumerate(self.ops):
            if not self.runs[j] or self.refs[j] is _UNSET:
                failed += self.runs[j]
                continue
            if op not in verdicts:
                try:
                    verdicts[op] = workloads.verify(op, self.refs[j])
                except Exception as exc:  # a malformed output
                    verdicts[op] = f"verification raised {exc!r}"
                if verdicts[op]:
                    self.note(f"{op!r}: {verdicts[op]}")
            failed += self.runs[j] if verdicts[op] else self.bad[j]
        return sum(self.runs), failed

    def note(self, message: str) -> None:
        self.errors.append(message[:300])


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _summary(per_op: list[array], kept: list[int]) -> dict:
    """Latency percentiles over the op list of each op's median sample."""
    latencies = sorted(statistics.median(a[:k]) for a, k in zip(per_op, kept) if k)
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_p99_ms": 1e3 * _percentile(latencies, 0.99),
    }


def timed(runner: Runner, seconds: float) -> dict:
    """Cycles through the op list until the time is up, at least once.

    Each latency is scaled by the host speed the reference probes show
    around and during it (see hostspeed).  The unscaled figures go to the
    context line.
    """
    n = len(runner.ops)
    # Sample storage is allocated up front and bounded, so the benchmark's
    # own memory is the same on every run and peak_rss_mb follows the
    # library's.  After the first pass, only every stride-th repeat of an op
    # is kept, which spreads its samples over the run.
    starts = [array("d", bytes(8 * SAMPLES_PER_OP)) for _ in range(n)]
    raw = [array("d", bytes(8 * SAMPLES_PER_OP)) for _ in range(n)]
    kept = [0] * n
    stride = 1
    calls = 0
    with hostspeed.Probe() as probe:
        begin = perf_counter()
        end = begin + seconds
        while calls < n or perf_counter() < end:
            repeat, j = divmod(calls, n)
            start = perf_counter()
            latency = runner.call(j, probe.paused)
            if repeat % stride == 0 and kept[j] < SAMPLES_PER_OP:
                starts[j][kept[j]] = start
                raw[j][kept[j]] = latency
                kept[j] += 1
            calls += 1
            if calls == n:
                passes = seconds / (perf_counter() - begin)
                stride = max(1, math.ceil(passes / SAMPLES_PER_OP))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scaled = [array("d", (lat * probe.scale(t, t + lat) for t, lat in zip(ts, lats)))
              for ts, lats in zip(starts, raw)]
    attempted, failed = runner.tally()
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {**_summary(scaled, kept), "peak_rss_mb": peak_rss_mb},
        "raw": _summary(raw, kept),
        "samples": calls,
    }


def traced(runner: Runner, workload: str, seconds: float) -> dict:
    """Alternates an untraced and a traced pass over the op list until the
    time is up.  Counts come from the first traced pass (every pass does
    the same work); self times and the overhead ratio are medians."""
    tracers: list[Tracer] = []
    ratios: list[float] = []
    end = perf_counter() + seconds
    while not tracers or perf_counter() < end:
        plain = runner.run_pass()
        with Tracer() as tracer:
            ratios.append(runner.run_pass() / plain)
        tracers.append(tracer)
    attempted, failed = runner.tally()

    first = tracers[0].stats
    metrics: dict[str, float] = {}
    covered = True
    for name, (_, _, stats, serves) in LAYERS.items():
        if workload in serves and first[name][0] == 0:
            runner.note(f"span {name} recorded no calls on {workload}")
            covered = False
        for stat in stats:
            if stat == "self_s":
                metrics[f"{name}.self_s"] = statistics.median(t.stats[name][1] for t in tracers)
            else:
                metrics[f"{name}.{stat}"] = first[name][0 if stat == "calls" else 2]
    reports = [ref for op, ref in zip(runner.ops, runner.refs) if op[0] == "certify"]
    metrics["oracle.checks"] = sum(len(r.checks) for r in reports)
    metrics["oracle.checks_failed"] = sum(len(r.failures) for r in reports)
    if workload == "certify-default" and not metrics["oracle.checks"]:
        runner.note("certify reported no checks")
        covered = False
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    return {"attempted": attempted, "failed": failed, "covered": covered,
            "metrics": metrics, "samples": len(tracers)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    runner = Runner(workloads.generate(args.workload, args.seed))
    if args.workload == "certify-default":
        workloads.warm_up_certify()
    else:
        runner.fill_refs()  # one untimed pass; its outputs are verified later
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        result = traced(runner, args.workload, args.seconds)
    else:
        result = timed(runner, args.seconds)
    result["ops_in_list"] = len(runner.ops)
    result["errors"] = runner.errors[:MAX_ERRORS_SHOWN]
    result["error_count"] = len(runner.errors)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
