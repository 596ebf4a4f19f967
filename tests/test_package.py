import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import smstilt

SRC = Path(smstilt.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

# module-level definitions and methods that no code in src/ refers to, kept on
# purpose
KEPT = {
    "brauer.star": "the star tree that star_reduction returns, built directly",
}


def _uncalled_definitions():
    defined = []
    referred = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((node.name, f"{path.stem}.{node.name}"))
            if isinstance(node, ast.ClassDef):
                defined += [(m.name, f"{path.stem}.{node.name}.{m.name}") for m in node.body
                            if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referred.add(node.id)
            elif isinstance(node, ast.Attribute):
                referred.add(node.attr)
            elif isinstance(node, ast.alias):
                referred.add(node.name)
    return {qual for name, qual in defined
            if name not in referred and name not in smstilt.__all__}


def test_no_uncalled_definitions():
    assert _uncalled_definitions() == set(KEPT)


# every memo cache in src/, each named in README.md; a new cache is added here
# and documented there on purpose
MEMO_CACHES = [
    "complexes._mutate_summand", "complexes._summand_complex", "complexes._summand_hom_in_frame",
    "disc.enumerate_triangulations",
    "modcat._stable_hom_core", "modcat.closure_inds",
    "smscfg._mutate_point_in_frame", "smscfg._stable_table",
    "smscfg.enumerate_configurations",
    "transport._derived_columns", "transport._derived_fmap", "transport._fmap_cached",
    "transport.two_term_objects",
]


def _memo_caches():
    """module.name of every decorated module-level function; each decorator
    on a function in src/ is an lru_cache."""
    return sorted(f"{path.stem}.{node.name}" for path in SRC.glob("*.py")
                  for node in ast.parse(path.read_text()).body
                  if isinstance(node, ast.FunctionDef) and node.decorator_list)


# In a fresh interpreter: per memo cache, whether it has cache_info and
# cache_clear and its currsize; then the currsize of every module attribute
# with a cache_info, which is how the benchmark checks that caches start cold.
COLD_CACHE_SCRIPT = """
import importlib, json, sys
names = json.loads(sys.argv[1])
mods = {m: importlib.import_module("smstilt." + m) for m in {q.split(".")[0] for q in names}}
report = {}
for q in names:
    mod, attr = q.split(".")
    obj = getattr(mods[mod], attr)
    info = getattr(obj, "cache_info", None)
    report[q] = [callable(info), callable(getattr(obj, "cache_clear", None)),
                 info().currsize if callable(info) else None]
scanned = {f"{m}.{a}": o.cache_info().currsize for m, mod in mods.items()
           for a, o in vars(mod).items() if hasattr(o, "cache_info")}
print(json.dumps([report, scanned]))
"""


def test_memo_caches_expose_cache_info_and_start_cold():
    names = _memo_caches()
    assert names == MEMO_CACHES
    readme = (ROOT / "README.md").read_text()
    assert [q for q in names if f"`{q.split('.')[1]}`" not in readme] == []
    stated = re.findall(r"There\s+are\s+(\d+)\s+memo\s+caches", readme)
    assert stated == [str(len(MEMO_CACHES))]
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", COLD_CACHE_SCRIPT, json.dumps(names)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    report, scanned = json.loads(done.stdout)
    assert report == {q: [True, True, 0] for q in names}
    # the attribute scan sees every memo cache, each empty
    assert set(names) <= set(scanned) and not any(scanned.values())


def test_package_imports_no_numpy():
    # the package is pure Python: importing it and its command line loads no
    # numpy, so a stray import anywhere on that path fails here
    script = ("import sys, smstilt, smstilt.cli\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_bench_records_parse_with_required_fields():
    # each committed benchmark record names itself, its machine and the
    # line count of src/smstilt/*.py before and after its change
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        rec = json.loads(path.read_text())
        assert rec["label"] == path.stem.removeprefix("BENCH_"), path.name
        assert type(rec["machine"]["nproc"]) is int, path.name
        lines = rec["src_smstilt_py_lines"]
        assert type(lines["parent"]) is int and type(lines["change"]) is int, path.name


def test_canonical_tree_bench_record():
    # the tree-transport record: alternating pairs on every gated workload,
    # and fresh-process timings of the three scale runs against their gates
    rec = json.loads((ROOT / "BENCH_canonical-tree.json").read_text())
    assert rec["machine"]["nproc"] == 2
    assert rec["src_smstilt_py_lines"]["parent"] == 3180
    gated = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    assert set(rec["workloads"]) == gated
    for name, w in rec["workloads"].items():
        assert w["pairs"] >= 10 and w["all_correct"], name
        for metric, m in w["metrics"].items():
            assert len(m["parent_runs"]) == len(m["change_runs"]) == w["pairs"], (name, metric)
    runs = rec["scale_fresh_process_s"]["runs"]
    assert set(runs) == {"A_7^14 bijection", "A_7^14 mutation-compat", "A_8^16 bijection"}
    for name, r in runs.items():
        assert r["parent"] and r["change"] and r["gate_met"] == (max(r["change"]) <= r["gate_s"]), name
