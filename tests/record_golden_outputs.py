"""Record the sha256 of the stdout and the exit code of each pinned
in-process `cli.main` call.

    PYTHONPATH=src python3 tests/record_golden_outputs.py

Rewrites tests/golden_outputs.json, which `test_golden_outputs.py` replays.
The calls are all eight `verify` suites and both exchange quivers on A_3^6,
A_4^4, A_6^9, A_4^8 and A_5^10, and `fmap` on every two-term tilting
complex of A_3^6 and A_6^9, all with --json.  `stable-equivalence` is the
one suite that still walks the canonical-sequence tree, so its pins guard
complex mutation (`two_term_mutate_tracked`) and its cones.  The digests
pin the output contract; a change that alters an output on purpose
re-records them and says why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from smstilt import cli, transport
from smstilt.modcat import Algebra

GOLDEN = Path(__file__).with_name("golden_outputs.json")
LADDER = [(3, 6), (4, 4), (6, 9), (4, 8), (5, 10)]
SUITES = ["bijection", "counts", "embedding", "functors", "mutation-compat", "stable-equivalence",
          "tilde", "types"]
FMAP_ALGEBRAS = [(3, 6), (6, 9)]


def calls():
    """(name, argv, stdin text) of every pinned call, in a fixed order."""
    out = []
    for n, ell in LADDER:
        algebra = ["--n", str(n), "--ell", str(ell), "--json"]
        out += [(["verify", "--suite", suite] + algebra, None) for suite in SUITES]
        out += [(["exchange-quiver", "--kind", kind] + algebra, None) for kind in ("2tilt", "sms")]
    for n, ell in FMAP_ALGEBRAS:
        for T in transport.two_term_objects(Algebra(n, ell)):
            text = cli._dump(T.to_json())
            out.append((["fmap", "--n", str(n), "--ell", str(ell), "--json", "--in", "-"], text))
    return [(" ".join(argv) + (f" < {text}" if text else ""), argv, text) for argv, text in out]


def run_call(argv, text) -> tuple[str, int]:
    """(sha256 of stdout, exit code) of one in-process `cli.main` call."""
    stdout = io.StringIO()
    stdin = io.StringIO(text or "")
    old_stdin, sys.stdin = sys.stdin, stdin
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
    finally:
        sys.stdin = old_stdin
    return hashlib.sha256(stdout.getvalue().encode()).hexdigest(), code


def main() -> int:
    golden = {}
    for name, argv, text in calls():
        digest, code = run_call(argv, text)
        golden[name] = {"sha256": digest, "exit": code}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
