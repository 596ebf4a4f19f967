"""Record the sha256 of every benchmark call's canonical JSON.

    python3 bench/record_golden.py

Runs each workload once, untraced, in a fresh interpreter, and rewrites
bench/golden.json.  Refuses if any call fails.  The digests are meant to
be recorded once, at the commit the benchmark was defined on; a change
that alters a call's output on purpose re-records them and says why.
"""

from __future__ import annotations

import json
import sys

from run import GOLDEN, Run, warm_up
from worker import WORKLOADS


def main() -> int:
    error = warm_up()
    if error is not None:
        print(f"record_golden: cannot import smstilt: {error}", file=sys.stderr)
        return 2
    golden = {}
    for name, spec in WORKLOADS.items():
        r = Run(name, list(range(len(spec["calls"]))), {})
        report = r.rep(traced=False)
        if report is None or not all(c["ok"] for c in report["calls"]):
            print(f"record_golden: {name} failed: {r.errors}", file=sys.stderr)
            return 1
        golden[name] = {c["call"]: c["sha256"] for c in report["calls"]}
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
