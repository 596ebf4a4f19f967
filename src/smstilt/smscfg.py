"""Configurations of the stable AR-quiver Z A_ell / <tau^n>.

A vertex (x, y) stands for the uniserial module with socle x and Loewy
length y; mesh-category Homs are evaluated as stable Homs of modules.
A configuration is a set of vertices that is pairwise stably orthogonal
(each a stable brick) and covers every vertex, and corresponds to a
simple-minded system of A_n^ell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import modcat
from .modcat import Algebra, Ind

Point = tuple[int, int]

BOTTOM = "bottom"
TOP = "top"


@dataclass(frozen=True)
class Configuration:
    algebra: Algebra
    points: tuple[Point, ...]

    def __post_init__(self):
        pts = tuple(sorted({(int(x), int(y)) for x, y in self.points}))
        object.__setattr__(self, "points", pts)
        for x, y in pts:
            if not (1 <= x <= self.algebra.n and 1 <= y <= self.algebra.ell):
                raise ValueError(f"point ({x},{y}) outside Z A_{self.algebra.ell}/<tau^{self.algebra.n}>")

    def to_json(self):
        return {"n": self.algebra.n, "ell": self.algebra.ell,
                "points": [list(p) for p in self.points]}


def config_from_json(obj) -> Configuration:
    A = Algebra(obj["n"], obj["ell"])
    return Configuration(A, tuple((p[0], p[1]) for p in obj["points"]))


def ind_of(p: Point) -> Ind:
    return Ind(p[0], p[1])


def point_of(M: Ind) -> Point:
    return (M.socle, M.length)


def all_points(A: Algebra) -> list[Point]:
    return [(x, y) for y in range(1, A.ell + 1) for x in range(1, A.n + 1)]


@lru_cache(maxsize=None)
def _stable_table(A: Algebra, p: int = 2):
    pts = all_points(A)
    idx = {q: k for k, q in enumerate(pts)}
    table = [[modcat.stable_hom_dim(ind_of(a), ind_of(b), A, p) for b in pts] for a in pts]
    return idx, table


def stable_hom_points(a: Point, b: Point, A: Algebra, p: int = 2) -> int:
    idx, table = _stable_table(A, p)
    return table[idx[a]][idx[b]]


def is_configuration(C, A: Algebra, p: int = 2) -> bool:
    """Pairwise stable orthogonality plus coverage of every vertex."""
    pts = C.points if isinstance(C, Configuration) else Configuration(A, tuple(C)).points
    for a in pts:
        for b in pts:
            want = 1 if a == b else 0
            if stable_hom_points(a, b, A, p) != want:
                return False
    for v in all_points(A):
        if not any(stable_hom_points(v, q, A, p) for q in pts):
            return False
    return True


@lru_cache(maxsize=None)
def enumerate_configurations(A: Algebra) -> tuple[Configuration, ...]:
    """All configurations, by backtracking over the orthogonality graph."""
    verts = all_points(A)
    cands = sorted((q for q in verts if stable_hom_points(q, q, A) == 1),
                   key=lambda q: (q[1], q[0]))
    found: list[tuple[Point, ...]] = []

    def orthogonal(q: Point, chosen: list[Point]) -> bool:
        return all(stable_hom_points(q, c, A) == 0 and stable_hom_points(c, q, A) == 0
                   for c in chosen)

    def covered(chosen: list[Point]) -> bool:
        return all(any(stable_hom_points(v, q, A) for q in chosen) for v in verts)

    def search(start: int, chosen: list[Point]) -> None:
        if covered(chosen):
            found.append(tuple(sorted(chosen)))
            return  # configurations admit no orthogonal extension
        avail = [j for j in range(start, len(cands)) if orthogonal(cands[j], chosen)]
        pool = chosen + [cands[j] for j in avail]
        for v in verts:
            if not any(stable_hom_points(v, q, A) for q in pool):
                return
        for j in avail:
            search(j + 1, chosen + [cands[j]])

    search(0, [])
    return tuple(Configuration(A, pts) for pts in sorted(set(found)))


def simples(A: Algebra) -> Configuration:
    return Configuration(A, tuple((i, 1) for i in range(1, A.n + 1)))


# -- pointwise functors -------------------------------------------------------

def config_shift(C: Configuration, op: str, k: int = 1) -> Configuration:
    A = C.algebra
    if op == "tau":
        pts = [point_of(_iterate(modcat.tau, ind_of(p), A, k)) for p in C.points]
    elif op == "omega":
        pts = [point_of(modcat.omega(ind_of(p), A)) for p in C.points]
    elif op == "omega_inv":
        pts = [point_of(modcat.omega_inv(ind_of(p), A)) for p in C.points]
    else:
        raise ValueError(f"unknown shift {op!r}")
    return Configuration(A, tuple(pts))


def _iterate(f, M: Ind, A: Algebra, k: int) -> Ind:
    for _ in range(k % A.n if f is modcat.tau else k):
        M = f(M, A)
    return M


def nu_point(p: Point, A: Algebra) -> Point:
    return point_of(modcat.nu(ind_of(p), A))


def nu_orbits_points(C: Configuration) -> list[frozenset]:
    return modcat._orbits(C.points, lambda q: nu_point(q, C.algebra),
                          "configuration is not Nakayama-stable")


# -- mutation -----------------------------------------------------------------

def sms_mutate_tracked(C: Configuration, K, sign: str):
    """Mutation at a Nakayama-stable subset, with the positional replacement map.

    Members of K are (co)syzygy-shifted; every other point is replaced by
    the cone over the minimal approximation into the extension closure of
    K, following the triangle Omega X -> X' -> Y -> X.  Results are
    memoised per process; the returned map is a fresh dict.
    """
    result, mapping = _sms_mutate_cached(C, frozenset(tuple(q) for q in K), sign)
    return result, dict(mapping)


@lru_cache(maxsize=None)
def _sms_mutate_cached(C: Configuration, Kset: frozenset, sign: str):
    if sign not in ("minus", "plus"):
        raise ValueError(f"sign must be minus or plus, got {sign!r}")
    A = C.algebra
    if not Kset <= set(C.points):
        raise ValueError("mutation subset is not contained in the configuration")
    if {nu_point(q, A) for q in Kset} != Kset:
        raise ValueError("mutation subset is not Nakayama-stable")

    closure = modcat.closure_inds(tuple(sorted(ind_of(q) for q in Kset)), A)
    mapping: dict[Point, Point] = {}
    for pt in C.points:
        M = ind_of(pt)
        if pt in Kset:
            shifted = modcat.omega_inv(M, A) if sign == "minus" else modcat.omega(M, A)
            mapping[pt] = point_of(shifted)
            continue
        if sign == "minus":
            Z = modcat.omega(M, A)
            g = modcat.min_left_approx(Z, closure, A)
            cone = modcat.cone_of_stable_map(g, A)
            if len(cone) != 1:
                raise RuntimeError(f"mutation cone of {pt} is not indecomposable: {cone}")
            mapping[pt] = point_of(cone[0])
        else:
            Z = modcat.omega_inv(M, A)
            g = modcat.min_right_approx(closure, Z, A)
            cone = modcat.cone_of_stable_map(g, A)
            if len(cone) != 1:
                raise RuntimeError(f"mutation cocone of {pt} is not indecomposable: {cone}")
            mapping[pt] = point_of(modcat.omega(cone[0], A))
    result = Configuration(A, tuple(mapping.values()))
    if not is_configuration(result, A):
        raise RuntimeError("mutation produced an invalid configuration")
    return result, tuple(mapping.items())


def sms_mutate(C: Configuration, K, sign: str) -> Configuration:
    return sms_mutate_tracked(C, K, sign)[0]


# -- Riedtmann insertion, tree pruning, multiplicity collapse -----------------

def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def omega_insert(C: Configuration, m: int) -> Configuration:
    """Insert a rim vertex: configurations of rank e map to rank e + 1.

    Each point (x, y) shifts to (x, y + lam) for the band index
    lam = ceil((y - x)/e), and the new point (e+1, 1) is appended.
    """
    A = C.algebra
    e = A.n
    if A.ell != e * m:
        raise ValueError(f"configuration algebra is not A_{e}^{e*m}")
    if not is_configuration(C, A):
        raise ValueError("input is not a configuration")
    B = Algebra(e + 1, (e + 1) * m)
    pts = [(x, y + _ceil_div(y - x, e)) for x, y in C.points]
    pts.append((e + 1, 1))
    return Configuration(B, tuple(pts))


def _delete_and_deinsert(C: Configuration, m: int) -> Configuration:
    """Inverse of omega_insert for a configuration containing (h, 1)."""
    h = C.algebra.n
    assert (h, 1) in C.points
    pts = []
    for x, y in C.points:
        if (x, y) == (h, 1):
            continue
        if x == h:
            raise RuntimeError("unexpected second point on the inserted column")
        lam = _ceil_div(y - x, h)
        ny = y - lam
        if not 1 <= ny <= (h - 1) * m:
            raise RuntimeError("de-insertion left the quiver")
        pts.append((x, ny))
    return Configuration(Algebra(h - 1, (h - 1) * m), tuple(pts))


def prune_type(C: Configuration, e: int, m: int, rng=None) -> str:
    """Bottom/top type by iterated rim pruning.

    Rim points on the top row are first moved to the bottom row by an
    inverse Heller shift; each such odd shift swaps the running type
    parity, which is compensated at the end.  The answer is independent
    of the rim choices; pass rng to randomise them.
    """
    A = C.algebra
    if m <= 1:
        raise ValueError("tree pruning needs multiplicity m > 1")
    if (A.n, A.ell) != (e, e * m):
        raise ValueError(f"configuration is not over A_{e}^{e*m}")
    D = C
    parity = 0
    h = e
    while True:
        ys = {y for _, y in D.points}
        if ys == {1}:
            result = BOTTOM
            break
        if ys == {h * m}:
            result = TOP
            break
        rim = [p for p in D.points if p[1] in (1, h * m)]
        if not rim:
            raise RuntimeError("no rim point available before reaching a star")
        if rng is None:
            bottoms = [p for p in rim if p[1] == 1]
            pick = min(bottoms) if bottoms else min(rim)
        else:
            pick = rim[rng.randrange(len(rim))]
        x, y = pick
        if y == h * m:
            D = config_shift(D, "omega_inv")
            parity ^= 1
            x, y = point_of(modcat.omega_inv(Ind(x, y), D.algebra))
        D = config_shift(D, "tau", (h - x) % h)
        D = _delete_and_deinsert(D, m)
        h -= 1
    if parity:
        result = TOP if result == BOTTOM else BOTTOM
    return result


def tilde(C: Configuration) -> Configuration:
    """Multiplicity collapse sms(A_e^{em}) -> sms(A_e^e)."""
    A = C.algebra
    e = A.e
    if A.n != e or A.ell % e != 0:
        raise ValueError(f"tilde needs a configuration over A_e^{{em}}, got A_{A.n}^{A.ell}")
    return Configuration(Algebra(e, e), tuple(tilde_point(p, A) for p in C.points))


def tilde_point(p: Point, A: Algebra) -> Point:
    e = A.e
    m = A.ell // e
    x, y = p
    if 1 <= y <= e:
        return (x, y)
    if e * (m - 1) + 1 <= y <= e * m:
        return (x, y - e * (m - 1))
    raise ValueError(f"point ({x},{y}) outside the admissible bands")


def to_dot(C: Configuration) -> str:
    A = C.algebra
    marked = set(C.points)
    lines = ["digraph ar_quiver {", "  rankdir=LR;", "  node [shape=plaintext];"]
    for x, y in all_points(A):
        style = ' style=filled shape=ellipse fillcolor="gray75"' if (x, y) in marked else ""
        lines.append(f'  p{x}_{y} [label="({x},{y})"{style}];')
    for x, y in all_points(A):
        if y < A.ell:
            lines.append(f"  p{x}_{y} -> p{x}_{y + 1};")
        if y > 1:
            nx = (x - 2) % A.n + 1
            lines.append(f"  p{x}_{y} -> p{nx}_{y - 1};")
    lines.append("}")
    return "\n".join(lines) + "\n"
