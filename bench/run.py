"""The zeckblocks benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the library is taken from its `src/`.
NAME is certify-default, query-small, query-large, or `all` for every
workload in turn.  Each run starts fresh interpreters (bench/worker.py):
one that sets up and measures, between SETUP_SAMPLES - 1 that only set up.
`setup_s` is the median set-up time over all of them.  Times are scaled
to a reference host speed (see hostspeed.py).  With --trace 1 one
interpreter runs the traced passes and reports the per-layer metrics.

Prints a context line, then, as the last line, one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
Exits 1 when an output is wrong and 2 when the run cannot be made.
See bench/README.md for the design.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("certify-default", "query-small", "query-large")
SETUP_SAMPLES = 7
TIME_LIMIT_S = 170  # per workload; a hung op must not outlive the run

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


class RunError(Exception):
    """The run could not be made; no result is printed."""


def _unit(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric.endswith(".self_s"):
        return "s"
    return "ratio" if metric == "trace.overhead_ratio" else "count"


def _worker(workload: str, seed: int, seconds: float, trace: int,
            setup_only: bool, live: list) -> tuple[float, dict | None]:
    """Runs one worker; returns its set-up time, scaled to the reference
    host speed, and its result line."""
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    before = hostspeed.reference()
    start = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    live.append(proc)
    ready = proc.stdout.readline()
    setup_s = (perf_counter() - start) * hostspeed.scale([before, hostspeed.reference()])
    out = proc.stdout.read()
    proc.wait()
    live.remove(proc)
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RunError(f"worker for {workload} exited with code {proc.returncode}")
    return setup_s, (json.loads(out.splitlines()[-1]) if out.strip() else None)


def _lines(path: Path) -> int:
    return sum(len(f.read_text().splitlines()) for f in sorted(path.rglob("*.py")))


def measure(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(context, result) for one run of one workload."""
    live: list[subprocess.Popen] = []

    def expire(signum, frame):
        raise RunError(f"{workload} ran past {TIME_LIMIT_S} s")

    signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIME_LIMIT_S)
    try:
        # set-up samples straddle the measuring worker, so that a slow spell
        # of the host at the start of a run does not decide the median
        extra = 0 if trace else SETUP_SAMPLES - 1
        samples = [_worker(workload, seed, seconds, trace, True, live)[0]
                   for _ in range(extra // 2)]
        setup_s, raw = _worker(workload, seed, seconds, trace, False, live)
        samples.append(setup_s)
        samples += [_worker(workload, seed, seconds, trace, True, live)[0]
                    for _ in range(extra - extra // 2)]
    finally:
        signal.alarm(0)
        for proc in live:
            proc.kill()
            proc.wait()
    if raw is None:
        raise RunError(f"worker for {workload} printed no result")

    metrics = dict(raw["metrics"])
    if not trace:
        metrics["setup_s"] = statistics.median(samples)
    context = {
        "workload": workload,
        "seed": seed,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": _lines(SRC / "zeckblocks"),
        "ops_in_list": raw["ops_in_list"],
        "samples": raw["samples"],
        "setup_samples_s": samples,
        "unscaled": raw.get("raw"),
        "errors": raw["errors"],
        "error_count": raw["error_count"],
    }
    result = {
        "correct": raw["failed"] == 0 and raw.get("covered", True),
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in metrics.items()},
    }
    return context, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "zeckblocks" / "__init__.py").is_file():
        print(f"error: no zeckblocks sources under {SRC}", file=sys.stderr)
        return 2

    correct = True
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            context, result = measure(workload, args.seed, args.seconds, args.trace)
        except RunError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for message in context["errors"]:
            print(f"{workload}: {message}", file=sys.stderr)
        print(json.dumps({"context": context}))
        print(json.dumps(result), flush=True)
        correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
