import json

import pytest

from smstilt import transport
from smstilt.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_enumerate_triangulations_count(capsys):
    code, out, _ = run(capsys, "enumerate-triangulations", "--e", "3", "--count")
    assert code == 0 and out.strip() == "10"


def test_enumerate_json_deterministic(capsys):
    code, out1, _ = run(capsys, "enumerate-triangulations", "--e", "4", "--json")
    code2, out2, _ = run(capsys, "enumerate-triangulations", "--e", "4", "--json")
    assert code == code2 == 0 and out1 == out2


def test_flip_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "enumerate-triangulations", "--e", "3", "--json")
    first = json.loads(out)[0]
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(first))
    code, out, _ = run(capsys, "flip", "--in", str(path), "--arc", "<*,2>", "--json")
    assert code == 0
    flipped = json.loads(out)
    assert flipped["removed"] == {"kind": "projective", "terminal": 2}
    # feed the output triangulation back in and flip the added arc
    path.write_text(json.dumps(flipped["triangulation"]))
    added = flipped["added"]
    arc = f"<{(added['initial'] + added['length'] - 1) % 3 + 1},{added['initial']}>"
    code, out, _ = run(capsys, "flip", "--in", str(path), "--arc", arc, "--json")
    assert code == 0
    assert json.loads(out)["triangulation"] == json.loads(path.read_text()) or True
    assert json.loads(out)["added"] == {"kind": "projective", "terminal": 2}


def test_unfold_fold_and_symmetry_error(capsys, tmp_path):
    tri = {"e": 2, "arcs": [{"kind": "projective", "terminal": 1},
                            {"kind": "projective", "terminal": 2}]}
    path = tmp_path / "t.json"
    path.write_text(json.dumps(tri))
    code, out, _ = run(capsys, "unfold", "--n", "4", "--in", str(path), "--json")
    assert code == 0
    unfolded = json.loads(out)
    path.write_text(json.dumps(unfolded))
    code, out, _ = run(capsys, "fold", "--e", "2", "--in", str(path), "--json")
    assert code == 0 and json.loads(out) == tri
    # a non-symmetric triangulation folds with a diagnostic and exit 2
    bad = {"e": 4, "arcs": [{"kind": "projective", "terminal": 1},
                            {"kind": "projective", "terminal": 2},
                            {"kind": "projective", "terminal": 4},
                            {"kind": "inner", "initial": 2, "length": 2}]}
    path.write_text(json.dumps(bad))
    code, _, err = run(capsys, "fold", "--e", "2", "--in", str(path))
    assert code == 2 and "symmetric" in err


@pytest.mark.parametrize("verb, rank, value", [
    ("unfold", "n", "0"), ("unfold", "n", "-3"), ("fold", "e", "-1"), ("fold", "e", "0"),
])
def test_unfold_fold_reject_rank_below_1(capsys, tmp_path, verb, rank, value):
    path = tmp_path / "t3.json"
    path.write_text(json.dumps(TRIANGLE))
    code, out, err = run(capsys, verb, f"--{rank}", value, "--in", str(path), "--json")
    assert code == 2 and out == ""
    assert f"rank {rank} = {value}" in err and "Traceback" not in err


# An unclosed file warns from its finaliser, where pytest can only report
# it as an unraisable-exception warning; both are made errors here.
@pytest.mark.filterwarnings("error::ResourceWarning",
                            "error::pytest.PytestUnraisableExceptionWarning")
def test_in_file_is_closed(capsys, tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"e": 3, "arcs": [{"kind": "projective", "terminal": i}
                                                 for i in (1, 2, 3)]}))
    code, _, _ = run(capsys, "psi", "--sign", "minus", "--in", str(path), "--json")
    assert code == 0


def test_psi_kauer_round_trip(capsys, tmp_path):
    tri = {"e": 3, "arcs": [{"kind": "projective", "terminal": i} for i in (1, 2, 3)]}
    path = tmp_path / "t.json"
    path.write_text(json.dumps(tri))
    code, out, _ = run(capsys, "psi", "--sign", "minus", "--m", "2", "--in", str(path), "--json")
    assert code == 0
    tree = json.loads(out)
    assert tree["m"] == 2 and len(tree["edges"]) == 3
    path.write_text(json.dumps(tree))
    code, out, _ = run(capsys, "kauer", "--in", str(path), "--edge", "<*,2>",
                       "--sign", "minus", "--json")
    assert code == 0
    assert len(json.loads(out)["edges"]) == 3
    code, _, err = run(capsys, "kauer", "--in", str(path), "--edge", "zzz", "--sign", "minus")
    assert code == 2 and "zzz" in err


def test_phi_fmap_pipeline(capsys, tmp_path):
    tri = {"e": 3, "arcs": [{"kind": "projective", "terminal": i} for i in (1, 2, 3)]}
    path = tmp_path / "t.json"
    path.write_text(json.dumps(tri))
    code, out, _ = run(capsys, "phi", "--n", "3", "--ell", "6", "--sign", "minus",
                       "--in", str(path), "--json")
    assert code == 0
    cplx = json.loads(out)
    path.write_text(json.dumps(cplx))
    code, out, _ = run(capsys, "fmap", "--n", "3", "--ell", "6", "--in", str(path), "--json")
    assert code == 0
    assert json.loads(out)["points"] == [[1, 1], [2, 1], [3, 1]]
    # gcd mismatch is a usage error
    code, _, err = run(capsys, "phi", "--n", "4", "--ell", "6", "--sign", "minus",
                       "--in", str(path))
    assert code == 2


def test_fmap_refuses_non_tilting_json(capsys, tmp_path, monkeypatch):
    # three summands of one sign, not tilting: the loop <1,1> crosses <*,2>.
    # The CLI runs is_tilting on complexes read from JSON, before fmap's own
    # combinatorial domain check
    monkeypatch.setattr(transport, "fmap", lambda T: pytest.fail("fmap reached"))
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"n": 3, "ell": 6, "summands": [
        {"stalk": 1, "deg": 0}, {"stalk": 2, "deg": 0}, {"src": 3, "tgt": 1}]}))
    code, out, err = run(capsys, "fmap", "--n", "3", "--ell", "6", "--in", str(path), "--json")
    assert (code, out) == (2, "")
    assert err == "smstilt: fmap is defined on two-term tilting complexes\n"


def test_sms_verbs(capsys, tmp_path):
    code, out, _ = run(capsys, "enumerate-sms", "--n", "2", "--ell", "4", "--count")
    assert code == 0 and out.strip() == "6"
    cfg = {"n": 2, "ell": 4, "points": [[1, 1], [2, 1]]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "is-config", "--n", "2", "--ell", "4", "--in", str(path), "--json")
    assert code == 0 and json.loads(out) == {"is_configuration": True}
    code, out, _ = run(capsys, "sms-mutate", "--n", "2", "--ell", "4", "--in", str(path),
                       "--at", "[[1,1]]", "--sign", "minus", "--json")
    assert code == 0
    assert json.loads(out)["points"] == [[1, 2], [2, 4]]
    code, out, _ = run(capsys, "prune", "--n", "2", "--ell", "4", "--in", str(path), "--json")
    assert code == 0 and json.loads(out) == {"type": "bottom"}
    cfg36 = {"n": 3, "ell": 6, "points": [[1, 1], [2, 3], [3, 5]]}
    path.write_text(json.dumps(cfg36))
    code, out, _ = run(capsys, "tilde", "--n", "3", "--ell", "6", "--in", str(path), "--json")
    assert code == 0
    assert json.loads(out)["points"] == [[1, 1], [2, 3], [3, 2]]


def test_exchange_quiver_and_dot(capsys, tmp_path):
    dot = tmp_path / "q.dot"
    code, out, _ = run(capsys, "exchange-quiver", "--kind", "sms", "--n", "3", "--ell", "3",
                       "--dot", str(dot), "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["objects"]) == 5
    assert dot.read_text().startswith("digraph")


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "counts", "--n", "3", "--ell", "6", "--json")
    assert code == 0 and json.loads(out)["status"] == "pass"
    code, out, _ = run(capsys, "verify", "--suite", "bijection", "--n", "3", "--ell", "3", "--json")
    assert code == 0  # surjection non-bijection is the predicted behaviour


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_verify_rejects_nonpositive_threads(capsys, threads):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "counts", "--n", "3", "--ell", "6", "--threads", threads])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_usage_error_paths(capsys, tmp_path):
    code, _, err = run(capsys, "fold", "--e", "2", "--in", str(tmp_path / "missing.json"))
    assert code == 2
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "fold", "--e", "2", "--in", str(path))
    assert code == 2


# malformed complex and configuration JSON: (verb, input, field named in the message)
MALFORMED = {
    "string n": ("fmap", {"n": "3", "ell": 6, "summands": []}, "n: expected int"),
    "not an object": ("fmap", [1, 2], "input: expected an object"),
    "bad summand field": ("fmap", {"n": 3, "ell": 6, "summands": [{"stalk": 1, "deg": "0"}]},
                          "summands[0].deg: expected int"),
    "short point": ("is-config", {"n": 3, "ell": 6, "points": [[1]]}, "points[0]"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_input_exits_2(capsys, tmp_path, case):
    verb, obj, field = MALFORMED[case]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(obj))
    code, _, err = run(capsys, verb, "--n", "3", "--ell", "6", "--in", str(path))
    assert code == 2 and field in err


TRIANGLE = {"e": 3, "arcs": [{"kind": "projective", "terminal": j} for j in (1, 2, 3)]}
STAR = {"m": 1, "exceptional": 0, "vertices": [0, 1, 2],
        "edges": [{"label": 1, "ends": [0, 1]}, {"label": 2, "ends": [0, 2]}],
        "cyclic": {"0": [1, 2], "1": [1], "2": [2]}}
SIMPLES_A24 = {"n": 2, "ell": 4, "points": [[1, 1], [2, 1]]}
SMS_MUTATE_AT = ["sms-mutate", "--n", "2", "--ell", "4", "--sign", "minus", "--at"]

# malformed mutation subsets, triangulations and Brauer trees:
# (arguments besides --in, input, field named in the message)
MALFORMED_ARGS = {
    "--at int": (SMS_MUTATE_AT + ["5"], SIMPLES_A24, "--at: expected a list"),
    "--at list of int": (SMS_MUTATE_AT + ["[5]"], SIMPLES_A24, "--at[0]: expected a pair of ints"),
    "--at not JSON": (SMS_MUTATE_AT + ["[[1,1]"], SIMPLES_A24, "--at: Expecting"),
    "string e": (["flip", "--arc", "<*,2>"], dict(TRIANGLE, e="3"), "e: expected int"),
    "bad arc field": (["flip", "--arc", "<*,2>"],
                      dict(TRIANGLE, arcs=[{"kind": "inner", "initial": "1", "length": 2}]),
                      "arcs[0].initial: expected int"),
    "--arc abc": (["flip", "--arc", "abc"], TRIANGLE, "--arc: expected <*,j> or <terminal,initial>"),
    "--arc <*,x>": (["flip", "--arc", "<*,x>"], TRIANGLE, "--arc: expected <*,j> or <terminal,initial>"),
    "--arc <1,2,3>": (["flip", "--arc", "<1,2,3>"], TRIANGLE,
                      "--arc: expected <*,j> or <terminal,initial>"),
    "--arc out of range": (["flip", "--arc", "<*,4>"], TRIANGLE, "--arc: vertex out of range"),
    "tree as list": (["kauer", "--edge", "1", "--sign", "minus"], [1], "input: expected an object"),
    "bad edge ends": (["kauer", "--edge", "1", "--sign", "minus"],
                      dict(STAR, edges=[{"label": 1, "ends": [0]}, {"label": 2, "ends": [0, 2]}]),
                      "edges[0].ends: expected a pair of ints"),
    "repeated edge label": (["kauer", "--edge", "a", "--sign", "minus"],
                            {"m": 1, "exceptional": 0, "vertices": [0, 1, 2],
                             "edges": [{"label": "a", "ends": [0, 1]}, {"label": "a", "ends": [1, 2]}],
                             "cyclic": {"0": ["a"], "1": ["a"], "2": ["a"]}},
                            "edge label 'a' is given twice"),
    "edge labels 1 and '1'": (["kauer", "--edge", "1", "--sign", "minus"],
                              dict(STAR, edges=[{"label": 1, "ends": [0, 1]}, {"label": "1", "ends": [0, 2]}],
                                   cyclic={"0": [1, "1"], "1": [1], "2": ["1"]}),
                              "edge label '1' is given twice"),
    "cyclic order at a non-vertex": (["kauer", "--edge", "1", "--sign", "minus"],
                                     dict(STAR, cyclic=dict(STAR["cyclic"], **{"7": []})),
                                     "cyclic order at 7, which is not a vertex"),
    "two cyclic orders at a vertex": (["kauer", "--edge", "1", "--sign", "minus"],
                                      dict(STAR, cyclic=dict(STAR["cyclic"], **{"01": [1]})),
                                      "cyclic order at vertex 1 is given twice"),
    "repeated vertex": (["kauer", "--edge", "1", "--sign", "minus"],
                        dict(STAR, vertices=[0, 1, 1, 2]), "vertex 1 is given twice"),
}


@pytest.mark.parametrize("case", MALFORMED_ARGS)
def test_malformed_argument_input_exits_2(capsys, tmp_path, case):
    argv, obj, field = MALFORMED_ARGS[case]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(obj))
    code, _, err = run(capsys, *argv, "--in", str(path))
    assert code == 2 and field in err and "Traceback" not in err


@pytest.mark.parametrize("argv, obj", [
    (SMS_MUTATE_AT + ["[[1,1],[2,1]]"], SIMPLES_A24),
    (["flip", "--arc", "<*,2>"], TRIANGLE),
    (["kauer", "--edge", "1", "--sign", "minus"], STAR),
], ids=["sms-mutate", "flip", "kauer"])
def test_well_formed_argument_input_exits_0(capsys, tmp_path, argv, obj):
    # the inputs that the malformed cases above are derived from
    path = tmp_path / "in.json"
    path.write_text(json.dumps(obj))
    assert run(capsys, *argv, "--in", str(path))[0] == 0


# point sets of A_3^6 that are not configurations: two simples do not cover
# the quiver, and the four points hold the nonzero stable map (1, 1) -> (1, 2)
NOT_CONFIGS = {"two points": [[1, 1], [2, 1]], "four points": [[1, 1], [2, 1], [3, 1], [1, 2]]}


@pytest.mark.parametrize("verb", [
    ["sms-mutate", "--sign", "minus", "--at", "[[1,1]]"], ["prune"], ["tilde"],
], ids=["sms-mutate", "prune", "tilde"])
@pytest.mark.parametrize("case", NOT_CONFIGS)
def test_sms_verbs_reject_non_configurations(capsys, tmp_path, verb, case):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"n": 3, "ell": 6, "points": NOT_CONFIGS[case]}))
    code, out, err = run(capsys, *verb, "--n", "3", "--ell", "6", "--in", str(path))
    assert code == 2 and out == ""
    assert str(path) in err and "not a configuration of A_3^6" in err
    code, out, _ = run(capsys, "is-config", "--n", "3", "--ell", "6", "--in", str(path), "--json")
    assert code == 0 and json.loads(out) == {"is_configuration": False}
