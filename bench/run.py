"""Runs one smstilt benchmark workload and prints its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs repetitions of one workload (see bench/README.md), each in a fresh
interpreter started by this process, one after another, until the next one
would end after S seconds, but at least MIN_REPS times.  Every smstilt memo
cache is per process, so each repetition pays to fill them, as every CLI
invocation does.  The seed permutes the order of the workload's calls and
is otherwise only recorded.

Every call's canonical JSON is checked against bench/golden.json, traced
or not.  With --trace 0 the result carries the end-to-end metrics, as
medians over the repetitions; with --trace 1 it alternates untraced and
traced repetitions and carries the per-layer metrics (medians of the
traced ones), the tracing overhead, and fails unless every count repeats
exactly between traced repetitions.

Prints one metadata JSON line, then, as the last line, the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exits 2 without a result when the smstilt sources or the benchmark's
files are missing.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
GOLDEN = os.path.join(HERE, "golden.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

sys.path.insert(0, HERE)
from worker import WORKLOADS, call_id  # noqa: E402

MIN_REPS = 3
TIME_LIMIT_S = 170  # the whole run, warm-up included, ends well inside 180 s
# One compute thread per numpy/BLAS pool (only threads2 runs two), and a
# fixed string hash seed, so set iteration order and with it every call
# count is the same in each worker.
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}


class Run:
    """Start, time and check the repetitions of one run."""

    def __init__(self, workload: str, order: list[int], golden: dict[str, str]):
        self.workload = workload
        self.order = order
        self.golden = golden
        self.started = time.perf_counter()
        self.env = dict(os.environ, **WORKER_ENV)
        self.attempted = 0
        self.failed = 0
        self.isolated = True
        self.errors: list[str] = []

    def left(self) -> float:
        return TIME_LIMIT_S - (time.perf_counter() - self.started)

    def rep(self, traced: bool) -> dict | None:
        """One repetition in a fresh interpreter; None if it crashed."""
        calls = WORKLOADS[self.workload]["calls"]
        self.attempted += len(calls)
        spawn_t = time.perf_counter()
        cmd = [sys.executable, WORKER, self.workload, ",".join(map(str, self.order)),
               repr(spawn_t), "1" if traced else "0"]
        proc, report = None, None
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=max(self.left(), 1.0))
            if proc.returncode == 0:
                report = json.loads(proc.stdout.splitlines()[-1])
        except (subprocess.TimeoutExpired, IndexError, ValueError):
            pass
        if report is None:
            self.failed += len(calls)
            why = "timed out" if proc is None else f"exit {proc.returncode}: {proc.stderr[-2000:]}"
            self.errors.append(f"repetition {why}")
            return None
        for c in report["calls"]:
            want = self.golden.get(c["call"])
            if not c["ok"] or c["sha256"] != want:
                self.failed += 1
                self.errors.append(f"{c['call']}: ok={c['ok']} sha256={c['sha256']} "
                                   f"expected {want} {c['error'] or ''}".rstrip())
        self.isolated &= report["cold"]
        return report


def _median(values):
    return statistics.median(values) if values else 0.0


def _spec_metrics(kind: str) -> list[dict]:
    with open(SPEC) as fh:
        return json.load(fh)[kind]


def run(workload: str, seed: int, seconds: float, trace: bool,
        golden: dict[str, dict[str, str]]) -> tuple[dict, dict]:
    """Run one workload; return (metadata, result)."""
    order = list(range(len(WORKLOADS[workload]["calls"])))
    random.Random(seed).shuffle(order)
    r = Run(workload, order, golden.get(workload, {}))
    plain: list[dict] = []
    traced: list[dict] = []
    longest = 0.0  # seconds of the longest repetition (a traced run: pair) so far
    while True:
        done = len(traced) if trace else len(plain)
        spent = time.perf_counter() - r.started
        if done >= MIN_REPS and spent + longest > seconds or r.left() < longest:
            break
        t = time.perf_counter()
        rep = r.rep(traced=False)
        if rep is not None:
            plain.append(rep)
            if trace:
                rep = r.rep(traced=True)
                if rep is not None:
                    traced.append(rep)
        if rep is None:
            break
        longest = max(longest, time.perf_counter() - t)

    counts_repeat = True
    if trace:
        counts = [{k: v for k, v in t["layers"].items() if not k.endswith("_s")} for t in traced]
        counts_repeat = len(counts) >= 2 and all(c == counts[0] for c in counts)
        if not counts_repeat:
            r.errors.append("call counts differ between traced repetitions")
        metrics = {}
        for m in _spec_metrics("per_layer"):
            name = m["name"]
            if name == "trace.overhead_s":
                value = _median([t["wall_s"] for t in traced]) - _median([p["wall_s"] for p in plain])
            elif name == "process.cpu_s":
                value = _median([t["cpu_s"] for t in traced])
            elif name.endswith("_s"):
                value = _median([t["layers"].get(name, 0) for t in traced])
            else:  # a count or share, the same in every traced repetition
                value = counts[0].get(name, 0) if counts else 0
            metrics[name] = {"value": value, "unit": m["unit"]}
    else:
        values = {
            "wall_s": _median([p["wall_s"] for p in plain]),
            "setup_s": _median([p["setup_s"] for p in plain]),
            "peak_rss_mib": _median([p["peak_rss_mib"] for p in plain]),
            "ok_ops_frac": (r.attempted - r.failed) / r.attempted,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in _spec_metrics("end_to_end")}

    correct = r.failed == 0 and r.isolated and counts_repeat
    reps = plain + traced
    meta = {
        "workload": workload,
        "seed": seed,
        "call_order": [call_id(WORKLOADS[workload]["calls"][i]) for i in order],
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "pids": [p["pid"] for p in reps],
        "caches_cold_at_start": r.isolated,
        "wall_s": [p["wall_s"] for p in plain],
        "setup_s": [p["setup_s"] for p in plain],
        "traced_wall_s": [t["wall_s"] for t in traced],
        "errors": r.errors[:20],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": reps[0]["numpy"] if reps else None,
        "commit": _commit(),
        "src_lines": _src_lines(),
    }
    result = {"correct": correct, "attempted": r.attempted, "failed": r.failed, "metrics": metrics}
    return meta, result


def _commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _src_lines() -> int:
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "smstilt", "*.py")):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def warm_up() -> str | None:
    """Import the package once so every repetition finds its bytecode
    compiled; return an error message if it cannot be imported."""
    code = "import sys; sys.path.insert(0, 'src'); import smstilt.cli"
    try:
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=60, env=dict(os.environ, **WORKER_ENV))
    except subprocess.TimeoutExpired:
        return "importing smstilt timed out"
    return None if proc.returncode == 0 else proc.stderr.strip()[-2000:]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "smstilt", "__init__.py")):
        print(f"bench: no smstilt sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    for path in (GOLDEN, SPEC):
        if not os.path.isfile(path):
            print(f"bench: missing {path}", file=sys.stderr)
            return 2
    error = warm_up()
    if error is not None:
        print(f"bench: cannot import smstilt: {error}", file=sys.stderr)
        return 2
    with open(GOLDEN) as fh:
        golden = json.load(fh)

    meta, result = run(args.workload, args.seed, args.seconds, bool(args.trace), golden)
    for line in meta["errors"]:
        print(f"bench: {line}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
