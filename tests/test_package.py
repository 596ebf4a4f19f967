import ast
from pathlib import Path

import smstilt

SRC = Path(smstilt.__file__).parent

# module-level definitions that no code in src/ refers to, kept on purpose
KEPT = {
    "transport.bfs_sequence": "breadth-first route of the transport confluence check",
    "transport.transport_along": "replays a breadth-first path for the confluence check",
    "complexes.end_quiver": "End(T)-quiver check that psi(X) is the Brauer tree of End(phi(X))",
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
