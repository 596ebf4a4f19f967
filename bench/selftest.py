"""Self-test of bench/run.py on the seconds-long A_3^6 workload.

    python3 -m pytest -q bench/selftest.py

Checks the golden-digest check, that every repetition runs in a fresh
interpreter with cold memo caches, that every metric BENCHMARK.json lists
is emitted, that traced counts repeat, and that run.py refuses to run
without the smstilt sources.  Not collected by the repository's own
`pytest` run (the file name does not match test_*.py), so Tier-1 stays fast.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def _golden():
    with open(run.GOLDEN) as fh:
        return json.load(fh)


def _names(kind):
    return {m["name"] for m in run._spec_metrics(kind)}


def test_untraced_run_is_correct_isolated_and_complete():
    meta, result = run.run("smoke", seed=7, seconds=0, trace=False, golden=_golden())
    reps = meta["repetitions"]["untraced"]
    assert reps == run.MIN_REPS
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3 * reps
    assert meta["caches_cold_at_start"]
    assert len(set(meta["pids"])) == reps
    assert set(result["metrics"]) == _names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert meta["src_lines"] > 0 and meta["nproc"] >= 1


def test_digest_mismatch_counts_as_failed():
    golden = _golden()
    call = "verify mutation-compat 3 6 1"
    golden["smoke"][call] = "0" * 64
    meta, result = run.run("smoke", seed=7, seconds=0, trace=False, golden=golden)
    reps = meta["repetitions"]["untraced"]
    assert not result["correct"]
    assert result["failed"] == reps
    assert result["metrics"]["ok_ops_frac"]["value"] == (3 * reps - reps) / (3 * reps)
    assert any(call in e for e in meta["errors"])


def test_traced_run_emits_every_layer_metric_with_repeatable_counts():
    meta, result = run.run("smoke", seed=7, seconds=0, trace=True, golden=_golden())
    assert result["correct"], meta["errors"]
    assert meta["repetitions"]["traced"] == run.MIN_REPS
    metrics = result["metrics"]
    assert set(metrics) == _names("per_layer")
    for name in ("gf.rref.calls", "gf.rref.cells", "modcat.min_left_approx.calls",
                 "complexes.HomSet.calls", "complexes.two_term_mutate_tracked.calls",
                 "smscfg.sms_mutate_tracked.calls", "transport.fmap_tracked.calls",
                 "brauer.psi.calls", "transport.verify.mutation-compat.total_s",
                 "cli.main.self_s", "process.cpu_s"):
        assert metrics[name]["value"] > 0, name
    assert 0 < metrics["transport.fmap_tracked.distinct_frac"]["value"] < 1


def test_refuses_to_run_without_sources():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(run.SPEC, tmp)
        shutil.copytree(HERE, os.path.join(tmp, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "transport",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=tmp, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
