"""Brauer trees with cyclic edge orderings and an exceptional vertex.

Cyclic orders are stored counter-clockwise.  The tree built from a
triangulation (psi) sorts the edges around each vertex by the index of
the opposite vertex, with the edge towards the exceptional vertex taking
the vertex's own index as its key; mutation, star reduction and leaf
pruning all preserve edge labels, which is what lets mutation sequences
be replayed on the module side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .disc import Triangulation
from .modcat import _bar


def _label_key(label):
    return str(label)


@dataclass(frozen=True)
class BrauerTree:
    vertices: tuple[int, ...]
    edges: tuple[tuple, ...]          # ((label, (u, v)), ...) sorted by label
    cyclic: tuple[tuple, ...]         # ((vertex, (labels...)), ...) sorted by vertex
    exceptional: int
    multiplicity: int
    _ends: dict = field(init=False, compare=False, repr=False)
    _cyc: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        edges = tuple(sorted(((lab, tuple(uv)) for lab, uv in self.edges),
                             key=lambda t: _label_key(t[0])))
        cyclic = tuple(sorted(((v, tuple(labels)) for v, labels in self.cyclic)))
        object.__setattr__(self, "vertices", tuple(sorted(self.vertices)))
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "cyclic", cyclic)
        object.__setattr__(self, "_ends", {lab: uv for lab, uv in edges})
        object.__setattr__(self, "_cyc", {v: list(labels) for v, labels in cyclic})
        self._validate()

    def _validate(self):
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be >= 1")
        if self.exceptional not in self.vertices:
            raise ValueError("exceptional vertex missing from vertex list")
        if len(self.edges) != len(self.vertices) - 1:
            raise ValueError("edge count does not match a tree")
        incident: dict[int, set] = {v: set() for v in self.vertices}
        for lab, (u, v) in self.edges:
            if u == v or u not in incident or v not in incident:
                raise ValueError(f"bad edge {lab}: ({u}, {v})")
            incident[u].add(lab)
            incident[v].add(lab)
        for v in self.vertices:
            if set(self._cyc.get(v, ())) != incident[v] or len(self._cyc.get(v, ())) != len(incident[v]):
                raise ValueError(f"cyclic order at {v} is not a permutation of its edges")
        # connectivity
        if self.vertices:
            seen = {self.vertices[0]}
            stack = [self.vertices[0]]
            while stack:
                w = stack.pop()
                for lab in incident[w]:
                    x = self.far(lab, w)
                    if x not in seen:
                        seen.add(x)
                        stack.append(x)
            if len(seen) != len(self.vertices):
                raise ValueError("tree is not connected")

    # -- accessors ---------------------------------------------------------

    def ends(self, label) -> tuple[int, int]:
        try:
            return self._ends[label]
        except KeyError:
            raise ValueError(f"unknown edge label {label!r}") from None

    def far(self, label, v: int) -> int:
        u, w = self.ends(label)
        return w if v == u else u

    def cyclic_at(self, v: int) -> tuple:
        return tuple(self._cyc.get(v, ()))

    def valency(self, v: int) -> int:
        return len(self._cyc.get(v, ()))

    def labels(self) -> list:
        return [lab for lab, _ in self.edges]

    def to_json(self):
        return {
            "m": self.multiplicity,
            "exceptional": self.exceptional,
            "vertices": list(self.vertices),
            "edges": [{"label": lab, "ends": [u, v]} for lab, (u, v) in self.edges],
            "cyclic": {str(v): list(labels) for v, labels in self.cyclic},
        }


def tree_from_json(obj) -> BrauerTree:
    edges = tuple((ed["label"], tuple(ed["ends"])) for ed in obj["edges"])
    cyclic = tuple((int(v), tuple(labels)) for v, labels in obj["cyclic"].items())
    return BrauerTree(tuple(obj["vertices"]), edges, cyclic,
                      obj["exceptional"], obj["m"])


def star(e: int, m: int = 1) -> BrauerTree:
    """Brauer star: edges i = (0, i) around the exceptional centre 0."""
    edges = tuple((i, (0, i)) for i in range(1, e + 1))
    cyclic = ((0, tuple(range(1, e + 1))),) + tuple((i, (i,)) for i in range(1, e + 1))
    return BrauerTree(tuple(range(e + 1)), edges, cyclic, 0, m)


def psi(X: Triangulation, sign: str, m: int = 1) -> BrauerTree:
    """Brauer tree of the endomorphism ring of the two-term complex of X.

    Projective arcs give the edges at the exceptional vertex v_0; an inner
    arc with initial point i and terminal point j gives the edge
    v_i -- v_{j-1} for sign "minus" and v_j -- v_{i+1} for sign "plus".
    Edges are labelled by their arcs (str form).
    """
    if sign not in ("minus", "plus"):
        raise ValueError(f"sign must be minus or plus, got {sign!r}")
    e = X.e
    edges = []
    for a in X.arcs:
        if a.kind == "projective":
            edges.append((str(a), (0, a.terminal)))
        elif sign == "minus":
            edges.append((str(a), (a.initial, _bar(a.terminal - 1, e))))
        else:
            edges.append((str(a), (a.terminal, _bar(a.initial + 1, e))))
    incident: dict[int, list] = {v: [] for v in range(e + 1)}
    for lab, (u, v) in edges:
        incident[u].append((lab, v))
        incident[v].append((lab, u))
    cyclic = []
    for v in range(e + 1):
        if v == 0:
            order = sorted(incident[0], key=lambda t: t[1])
        else:
            order = sorted(incident[v], key=lambda t: v if t[1] == 0 else t[1])
        cyclic.append((v, tuple(lab for lab, _ in order)))
    return BrauerTree(tuple(range(e + 1)), tuple(edges), tuple(cyclic), 0, m)


def kauer_mutate(G: BrauerTree, label, sign: str) -> BrauerTree:
    """Kauer move at an edge: each end slides over the neighbouring edge.

    For the left move ("minus") the ends slide over the cyclic
    predecessors, for the right move over the successors; an end at an
    extremal vertex stays put.  The new edge keeps the old label.
    """
    if sign not in ("minus", "plus"):
        raise ValueError(f"sign must be minus or plus, got {sign!r}")
    u, v = G.ends(label)
    cyc = {w: list(labels) for w, labels in G.cyclic}

    moves = []
    for w in (u, v):
        order = cyc[w]
        if len(order) == 1:
            moves.append((w, None))
            continue
        pos = order.index(label)
        ref = order[pos - 1] if sign == "minus" else order[(pos + 1) % len(order)]
        moves.append((G.far(ref, w), ref))

    cyc[u].remove(label)
    cyc[v].remove(label)
    (nu_, ref_u), (nv_, ref_v) = moves
    if nu_ == nv_:
        raise RuntimeError("mutation would create a loop")
    for w, ref in ((nu_, ref_u), (nv_, ref_v)):
        if ref is None:
            cyc[w].append(label)
        else:
            at = cyc[w].index(ref)
            if sign == "minus":
                cyc[w].insert(at, label)
            else:
                cyc[w].insert(at + 1, label)

    edges = tuple((lab, uv) if lab != label else (lab, (nu_, nv_)) for lab, uv in G.edges)
    cyclic = tuple((w, tuple(order)) for w, order in cyc.items())
    return BrauerTree(G.vertices, edges, cyclic, G.exceptional, G.multiplicity)


def prune_leaf(G: BrauerTree, label) -> BrauerTree:
    """Remove a leaf edge together with its non-exceptional extremal vertex."""
    u, v = G.ends(label)
    drop = None
    for w in (u, v):
        if G.valency(w) == 1 and w != G.exceptional:
            drop = w
            break
    if drop is None:
        raise ValueError(f"edge {label!r} is not a leaf at a non-exceptional extremal vertex")
    edges = tuple((lab, uv) for lab, uv in G.edges if lab != label)
    cyclic = tuple((w, tuple(x for x in order if x != label))
                   for w, order in G.cyclic if w != drop)
    vertices = tuple(w for w in G.vertices if w != drop)
    return BrauerTree(vertices, edges, cyclic, G.exceptional, G.multiplicity)


# -- isomorphism via canonical ribbon-tree encodings ------------------------

def _encode(G: BrauerTree, v: int, parent_label) -> tuple:
    order = list(G.cyclic_at(v))
    if parent_label is not None:
        at = order.index(parent_label)
        order = order[at + 1:] + order[:at]
    return tuple(_encode(G, G.far(lab, v), lab) for lab in order)


def canonical_form(G: BrauerTree) -> tuple:
    root = G.exceptional
    order = list(G.cyclic_at(root))
    if not order:
        return (G.multiplicity, 0, ())
    best = None
    for r in range(len(order)):
        rot = order[r:] + order[:r]
        enc = tuple(_encode(G, G.far(lab, root), lab) for lab in rot)
        if best is None or enc < best:
            best = enc
    return (G.multiplicity, len(G.edges), best)


def brauer_iso(G: BrauerTree, H: BrauerTree) -> bool:
    """Isomorphism preserving cyclic orders, exceptional vertex and multiplicity."""
    return canonical_form(G) == canonical_form(H)


# -- star reduction ----------------------------------------------------------

def _peel_sign(sign: str) -> str:
    return "plus" if sign == "minus" else "minus"


def star_reduction(G: BrauerTree, sign: str = "minus") -> tuple[list, BrauerTree]:
    """Peel G down to the Brauer star.

    Each step mutates (right move for sign "minus", left move for "plus")
    at the smallest-labelled edge that gains the exceptional vertex as an
    endpoint, raising the exceptional valency by one.  Returns the peel
    order and the resulting star; replaying the reversed sequence with
    mutations of the given sign from the star rebuilds G.
    """
    peel: list = []
    H = G
    exc = G.exceptional
    while H.valency(exc) < len(H.edges):
        step = None
        for lab in sorted(H.labels(), key=_label_key):
            if exc in H.ends(lab):
                continue
            K = kauer_mutate(H, lab, _peel_sign(sign))
            if K.valency(exc) == H.valency(exc) + 1:
                step = (lab, K)
                break
        if step is None:
            raise RuntimeError("star reduction is stuck; not a valid Brauer tree?")
        peel.append(step[0])
        H = step[1]
    return peel, H


def star_mutation_sequence(G: BrauerTree, sign: str = "minus") -> list:
    """Edge labels, in replay order, reaching G from the star.

    Applying mutations of the given sign at the listed labels, in order,
    starting from the star returned by star_reduction, reproduces G; the
    length is the edge count minus the exceptional valency.
    """
    peel, _ = star_reduction(G, sign)
    return list(reversed(peel))


def to_dot(G: BrauerTree) -> str:
    lines = ["graph brauer {", "  node [shape=circle];"]
    for v in G.vertices:
        if v == G.exceptional:
            lines.append(f'  v{v} [shape=doublecircle, label="{v} (m={G.multiplicity})"];')
        else:
            lines.append(f'  v{v} [label="{v}"];')
    lines.append("  // cyclic orders (counter-clockwise, used as port order)")
    for v, labels in G.cyclic:
        lines.append(f"  // v{v}: " + ", ".join(str(x) for x in labels))
    seen = set()
    for v, labels in G.cyclic:
        for lab in labels:
            if lab in seen:
                continue
            seen.add(lab)
            u, w = G.ends(lab)
            lines.append(f'  v{u} -- v{w} [label="{lab}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
