"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 bench/worker.py WORKLOAD ORDER SPAWN_T TRACE

ORDER is a comma-separated permutation of the workload's call indices,
SPAWN_T the parent's `time.perf_counter()` just before it started this
process (a system-wide monotonic clock on Linux), TRACE 0 or 1.  Prints
one JSON object on stdout: the sha256 and status of each call's canonical
JSON, set-up and measured seconds, CPU seconds, peak RSS, whether every
memo cache was empty before set-up and, when traced, the layer metrics.

Importing this module only defines `WORKLOADS`; `run.py` reads it without
importing smstilt.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Every workload is an exhaustive, deterministic sweep.  "setup" names the
# domains enumerated before timing starts, as ((n, ell), "2tilt" | "sms");
# "calls" are ("verify", suite, n, ell, threads), run through the CLI entry
# point, or ("exchange_quiver", kind, n, ell), a library call.
WORKLOADS = {
    # Bijective case, sms side, GF(2)-bound, 280 fmap_tracked calls on 70
    # complexes: where caching and the GF(2) kernel show.
    "transport": {
        "setup": [((4, 8), "2tilt"), ((4, 8), "sms")],
        "calls": [("verify", "bijection", 4, 8, 1),
                  ("verify", "mutation-compat", 4, 8, 1)],
    },
    # Complex side only: HomSet construction and the approximation prune.
    # Bypasses every sms-side change.
    "quiver-2tilt": {
        "setup": [((5, 10), "2tilt")],
        "calls": [("exchange_quiver", "2tilt", 5, 10)],
    },
    # Covering case n != gcd: extension closures, little reuse, and the
    # only GF(3) path (functors).
    "covering": {
        "setup": [((6, 9), "2tilt"), ((6, 9), "sms")],
        "calls": [("verify", "bijection", 6, 9, 1),
                  ("verify", "embedding", 6, 9, 1),
                  ("verify", "functors", 6, 9, 1)],
    },
    # The thread-pool path of verify.
    "threads2": {
        "setup": [((4, 8), "2tilt")],
        "calls": [("verify", "mutation-compat", 4, 8, 2)],
    },
    # Seconds-long A_3^6 sweep for bench/selftest.py; not in BENCHMARK.json.
    "smoke": {
        "setup": [((3, 6), "2tilt"), ((3, 6), "sms")],
        "calls": [("verify", "bijection", 3, 6, 1),
                  ("verify", "mutation-compat", 3, 6, 1),
                  ("exchange_quiver", "2tilt", 3, 6)],
    },
}


def call_id(call) -> str:
    return " ".join(str(x) for x in call)


def _quiver_json(Q) -> str:
    """The bytes `smstilt exchange-quiver --json` prints."""
    payload = {
        "kind": Q.kind,
        "objects": [o.to_json() for o in Q.objects],
        "arrows": [{"source": s, "target": t,
                    "label": [x.to_json() if hasattr(x, "to_json") else list(x) for x in lab]}
                   for s, t, lab in Q.arrows],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def run_call(call) -> dict:
    """Run one call; return its status and the sha256 of its canonical JSON."""
    from smstilt import cli, transport
    from smstilt.modcat import Algebra

    try:
        if call[0] == "verify":
            _, suite, n, ell, threads = call
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["verify", "--suite", suite, "--n", str(n), "--ell", str(ell),
                                 "--threads", str(threads), "--json"])
            text = out.getvalue()
            ok = code == 0 and json.loads(text)["status"] == "pass"
            error = None if ok else f"exit {code}"
        else:
            _, kind, n, ell = call
            text = _quiver_json(transport.exchange_quiver(kind, Algebra(n, ell)))
            ok, error = True, None
    except SystemExit as exc:
        return {"ok": False, "sha256": None, "error": f"SystemExit {exc.code}"}
    except Exception as exc:  # a failing call is a result, not a crash
        return {"ok": False, "sha256": None, "error": f"{type(exc).__name__}: {exc}"}
    return {"ok": ok, "sha256": hashlib.sha256(text.encode()).hexdigest(), "error": error}


def _memo_entries(modules) -> int:
    return sum(obj.cache_info().currsize
               for mod in modules for obj in vars(mod).values()
               if hasattr(obj, "cache_info"))


def main(argv: list[str]) -> int:
    workload, order, spawn_t, trace = argv
    spec = WORKLOADS[workload]
    calls = [spec["calls"][int(i)] for i in order.split(",")]

    sys.path.insert(0, SRC)
    import numpy

    import layers
    import smstilt
    from smstilt import smscfg, transport
    from smstilt.modcat import Algebra

    if not os.path.abspath(smstilt.__file__).startswith(SRC + os.sep):
        print(f"worker: smstilt imported from {smstilt.__file__}, not {SRC}", file=sys.stderr)
        return 2
    cold = _memo_entries(importlib.import_module(f"smstilt.{m}") for m in layers.LAYERS) == 0

    tracer = layers.Tracer().install() if trace == "1" else None

    for (n, ell), domain in spec["setup"]:
        A = Algebra(n, ell)
        if domain == "2tilt":
            transport.two_term_objects(A)
        else:
            smscfg.enumerate_configurations(A)
    setup_s = time.perf_counter() - float(spawn_t)

    cpu0 = os.times()
    t0 = time.perf_counter()
    results = [dict(run_call(c), call=call_id(c)) for c in calls]
    wall_s = time.perf_counter() - t0
    cpu1 = os.times()

    report = {
        "pid": os.getpid(),
        "cold": cold,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": numpy.__version__,
        "calls": results,
    }
    if tracer is not None:
        report["layers"] = tracer.report()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
