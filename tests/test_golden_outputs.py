import json
from pathlib import Path

from record_golden_outputs import GOLDEN, calls, run_call

BENCH_GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden.json"


def test_pinned_cli_outputs_are_unchanged():
    # every pinned call's stdout digest and exit code, recorded by
    # record_golden_outputs.py; a mismatch names the call
    golden = json.loads(GOLDEN.read_text())
    pinned = calls()
    assert sorted(name for name, _, _ in pinned) == sorted(golden)
    changed = []
    for name, argv, text in pinned:
        digest, code = run_call(argv, text)
        if golden[name] != {"sha256": digest, "exit": code}:
            changed.append(name)
    assert changed == []


def test_pinned_digests_agree_with_the_benchmark():
    # the benchmark hashes the same stdout for its `verify` calls
    golden = json.loads(GOLDEN.read_text())
    shared = 0
    for workload in json.loads(BENCH_GOLDEN.read_text()).values():
        for call, digest in workload.items():
            verb, suite, n, ell = call.split()[:4]
            name = f"verify --suite {suite} --n {n} --ell {ell} --json"
            if verb == "verify" and name in golden:
                assert golden[name]["sha256"] == digest, call
                shared += 1
    assert shared == 8
