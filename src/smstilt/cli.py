"""Command-line front end: enumeration, mutation, map evaluation,
verification suites, and JSON/DOT emission.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
All JSON is emitted canonically (sorted keys, compact separators) so
that any output can be fed back into the consuming verb byte-for-byte.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import brauer, complexes, disc, smscfg, transport
from .modcat import Algebra, _json_pairs


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _read_json(path: str):
    if path == "-":
        return json.loads(sys.stdin.read())
    with open(path) as fh:
        return json.load(fh)


def _emit(args, payload, human: str) -> None:
    text = _dump(payload) if args.json else human
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _algebra(args) -> Algebra:
    return Algebra(args.n, args.ell)


def _config(args, A: Algebra, checked: bool = True) -> smscfg.Configuration:
    """The configuration read from --in; unless checked is False, points that
    do not form a configuration are an input error."""
    C = smscfg.config_from_json(_read_json(args.infile))
    if C.algebra != A:
        raise ValueError("configuration algebra does not match --n/--ell")
    if checked and not smscfg.is_configuration(C, A):
        raise ValueError(f"{args.infile}: the points are not a configuration of A_{A.n}^{A.ell}")
    return C


def _write_dot(args, text: str) -> None:
    if getattr(args, "dot", None):
        with open(args.dot, "w") as fh:
            fh.write(text)


def _tri_human(X: disc.Triangulation) -> str:
    return f"e={X.e}: " + " ".join(str(a) for a in X.arcs)


def cmd_enumerate_triangulations(args) -> int:
    tris = disc.enumerate_triangulations(args.e)
    if args.count:
        _emit(args, {"e": args.e, "count": len(tris)}, str(len(tris)))
        return 0
    payload = [X.to_json() for X in tris]
    _emit(args, payload, "\n".join(_tri_human(X) for X in tris))
    return 0


def cmd_flip(args) -> int:
    X = disc.triangulation_from_json(_read_json(args.infile))
    a = disc.parse_arc(args.arc, X.e)
    Y, b = disc.flip(X, a)
    payload = {"triangulation": Y.to_json(), "removed": a.to_json(), "added": b.to_json()}
    _emit(args, payload, f"{_tri_human(Y)}\nremoved {a}, added {b}")
    return 0


def cmd_unfold(args) -> int:
    X = disc.triangulation_from_json(_read_json(args.infile))
    Y = disc.unfold(X, args.n)
    _emit(args, Y.to_json(), _tri_human(Y))
    return 0


def cmd_fold(args) -> int:
    Y = disc.triangulation_from_json(_read_json(args.infile))
    X = disc.fold(Y, args.e)
    _emit(args, X.to_json(), _tri_human(X))
    return 0


def cmd_psi(args) -> int:
    X = disc.triangulation_from_json(_read_json(args.infile))
    G = brauer.psi(X, args.sign, args.m)
    _write_dot(args, brauer.to_dot(G))
    edges = ", ".join(f"{lab}:{u}-{v}" for lab, (u, v) in G.edges)
    _emit(args, G.to_json(), f"Brauer tree (m={G.multiplicity}, exceptional {G.exceptional}): {edges}")
    return 0


def cmd_phi(args) -> int:
    A = _algebra(args)
    X = disc.triangulation_from_json(_read_json(args.infile))
    T = complexes.phi(X, args.sign, A)
    human = " ".join(transport._summand_str(s) for s in T.summands)
    _emit(args, T.to_json(), human)
    return 0


def cmd_kauer(args) -> int:
    G = brauer.tree_from_json(_read_json(args.infile))
    label = args.edge
    if label not in {lab for lab, _ in G.edges}:
        try:
            label = int(args.edge)
        except ValueError:
            pass
    H = brauer.kauer_mutate(G, label, args.sign)
    _write_dot(args, brauer.to_dot(H))
    edges = ", ".join(f"{lab}:{u}-{v}" for lab, (u, v) in H.edges)
    _emit(args, H.to_json(), f"Brauer tree (m={H.multiplicity}, exceptional {H.exceptional}): {edges}")
    return 0


def cmd_enumerate_sms(args) -> int:
    A = _algebra(args)
    cfgs = smscfg.enumerate_configurations(A)
    if args.count:
        _emit(args, {"n": A.n, "ell": A.ell, "count": len(cfgs)}, str(len(cfgs)))
        return 0
    payload = [C.to_json() for C in cfgs]
    human = "\n".join(" ".join(f"({x},{y})" for x, y in C.points) for C in cfgs)
    _emit(args, payload, human)
    return 0


def cmd_is_config(args) -> int:
    A = _algebra(args)
    C = _config(args, A, checked=False)
    ok = smscfg.is_configuration(C, A)
    _emit(args, {"is_configuration": ok}, "configuration" if ok else "not a configuration")
    return 0


def cmd_sms_mutate(args) -> int:
    A = _algebra(args)
    C = _config(args, A)
    try:
        at = json.loads(args.at)
    except json.JSONDecodeError as exc:
        raise ValueError(f"--at: {exc}") from None
    K = _json_pairs(at, "--at")
    D = smscfg.sms_mutate(C, K, args.sign)
    _emit(args, D.to_json(), " ".join(f"({x},{y})" for x, y in D.points))
    return 0


def cmd_prune(args) -> int:
    A = _algebra(args)
    C = _config(args, A)
    if A.ell % A.n != 0:
        raise ValueError("tree pruning needs the symmetric case ell = n*m")
    kind = smscfg.prune_type(C, A.n, A.ell // A.n)
    _emit(args, {"type": kind}, kind)
    return 0


def cmd_tilde(args) -> int:
    A = _algebra(args)
    C = _config(args, A)
    D = smscfg.tilde(C)
    _emit(args, D.to_json(), " ".join(f"({x},{y})" for x, y in D.points))
    return 0


def cmd_fmap(args) -> int:
    A = _algebra(args)
    T = complexes.twoterm_from_json(_read_json(args.infile))
    if T.algebra != A:
        raise ValueError("complex algebra does not match --n/--ell")
    if not complexes.is_tilting(T):
        raise ValueError(transport._NOT_TILTING)
    C = transport.fmap(T)
    _emit(args, C.to_json(), " ".join(f"({x},{y})" for x, y in C.points))
    return 0


def cmd_exchange_quiver(args) -> int:
    A = _algebra(args)
    Q = transport.exchange_quiver(args.kind, A)
    annotations = None
    if args.kind == "2tilt":
        annotations = {i: " ".join(f"({x},{y})" for x, y in transport.fmap(T).points)
                       for i, T in enumerate(Q.objects)}
    _write_dot(args, transport.quiver_to_dot(Q, annotations))
    payload = {
        "kind": Q.kind,
        "objects": [o.to_json() for o in Q.objects],
        "arrows": [{"source": s, "target": t,
                    "label": [x.to_json() if hasattr(x, "to_json") else list(x) for x in lab]}
                   for s, t, lab in Q.arrows],
    }
    _emit(args, payload, f"{len(Q.objects)} objects, {len(Q.arrows)} arrows")
    return 0


def cmd_verify(args) -> int:
    A = _algebra(args)
    report = transport.verify(args.suite, A)
    human = f"suite {report['suite']}: {report['status']} {_dump(report['details'])}"
    _emit(args, report, human)
    return 0 if report["status"] == "pass" else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="smstilt",
        description="Triangulations, Brauer trees, two-term tilting complexes and "
                    "simple-minded systems of self-injective Nakayama algebras.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, algebra=False, infile=False, sign=False, dot=False):
        p.add_argument("--json", action="store_true", help="emit canonical JSON")
        p.add_argument("--out", help="write output to a file instead of stdout")
        if algebra:
            p.add_argument("--n", type=int, required=True, help="number of simples")
            p.add_argument("--ell", type=int, required=True, help="Loewy length minus one")
        if infile:
            p.add_argument("--in", dest="infile", required=True, help="input JSON file, or - for stdin")
        if sign:
            p.add_argument("--sign", choices=("minus", "plus"), required=True)
        if dot:
            p.add_argument("--dot", help="also write a DOT rendering to this path")

    p = sub.add_parser("enumerate-triangulations", help="list triangulations of the punctured e-gon")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--count", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_enumerate_triangulations)

    p = sub.add_parser("flip", help="exchange one arc of a triangulation")
    p.add_argument("--arc", required=True, help='arc to flip, e.g. "<*,2>" or "<4,2>"')
    common(p, infile=True)
    p.set_defaults(fn=cmd_flip)

    p = sub.add_parser("unfold", help="lift to a rotation-symmetric triangulation")
    p.add_argument("--n", type=int, required=True, help="target rank")
    common(p, infile=True)
    p.set_defaults(fn=cmd_unfold)

    p = sub.add_parser("fold", help="quotient a rotation-symmetric triangulation")
    p.add_argument("--e", type=int, required=True, help="target rank")
    common(p, infile=True)
    p.set_defaults(fn=cmd_fold)

    p = sub.add_parser("psi", help="Brauer tree of a triangulation")
    p.add_argument("--m", type=int, default=1, help="exceptional multiplicity")
    common(p, infile=True, sign=True, dot=True)
    p.set_defaults(fn=cmd_psi)

    p = sub.add_parser("phi", help="two-term tilting complex of a triangulation")
    common(p, algebra=True, infile=True, sign=True)
    p.set_defaults(fn=cmd_phi)

    p = sub.add_parser("kauer", help="mutate a Brauer tree at an edge")
    p.add_argument("--edge", required=True, help="edge label")
    common(p, infile=True, sign=True, dot=True)
    p.set_defaults(fn=cmd_kauer)

    p = sub.add_parser("enumerate-sms", help="list all configurations")
    p.add_argument("--count", action="store_true")
    common(p, algebra=True)
    p.set_defaults(fn=cmd_enumerate_sms)

    p = sub.add_parser("is-config", help="validate a configuration")
    common(p, algebra=True, infile=True)
    p.set_defaults(fn=cmd_is_config)

    p = sub.add_parser("sms-mutate", help="mutate a configuration at a subset")
    p.add_argument("--at", required=True, help='mutation subset, e.g. "[[1,1]]"')
    common(p, algebra=True, infile=True, sign=True)
    p.set_defaults(fn=cmd_sms_mutate)

    p = sub.add_parser("prune", help="bottom/top type by tree pruning")
    common(p, algebra=True, infile=True)
    p.set_defaults(fn=cmd_prune)

    p = sub.add_parser("tilde", help="multiplicity collapse of a configuration")
    common(p, algebra=True, infile=True)
    p.set_defaults(fn=cmd_tilde)

    p = sub.add_parser("fmap", help="configuration of a two-term tilting complex")
    common(p, algebra=True, infile=True)
    p.set_defaults(fn=cmd_fmap)

    p = sub.add_parser("exchange-quiver", help="exchange quiver of 2tilt or sms")
    p.add_argument("--kind", choices=("2tilt", "sms"), required=True)
    common(p, algebra=True, dot=True)
    p.set_defaults(fn=cmd_exchange_quiver)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True,
                   choices=sorted(transport._SUITES))
    p.add_argument("--threads", type=_positive_int, default=1)
    common(p, algebra=True)
    p.set_defaults(fn=cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except disc.FoldSymmetryError as exc:
        print(f"smstilt: not rotation symmetric: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"smstilt: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
