"""Configurations of the stable AR-quiver Z A_ell / <tau^n>.

A vertex (x, y) stands for the uniserial module with socle x and Loewy
length y; mesh-category Homs are evaluated as stable Homs of modules.
A configuration is a set of vertices that is pairwise stably orthogonal
(each a stable brick) and covers every vertex, and corresponds to a
simple-minded system of A_n^ell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import or_

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
    A = Algebra(*modcat._json_ints(obj, ("n", "ell")))
    return Configuration(A, tuple(modcat._json_pairs(obj.get("points"), "points")))


def ind_of(p: Point) -> Ind:
    return Ind(p[0], p[1])


def point_of(M: Ind) -> Point:
    return (M.socle, M.length)


def all_points(A: Algebra) -> list[Point]:
    return [(x, y) for y in range(1, A.ell + 1) for x in range(1, A.n + 1)]


@lru_cache(maxsize=None)
def _stable_table(A: Algebra, p: int = 2):
    """(idx, table, brick, out, into): the row of each point of all_points(A),
    the stable Hom dimensions between them, and per point a its brick flag
    and two masks, bit k for all_points(A)[k]: `out`, the b with stable
    Hom(a, b) != 0, and `into`, the v with stable Hom(v, a) != 0 (a covers v).

    Stable Hom((x, y), (u, v)) depends only on the rotation class
    (y, v, (u - x) mod n), so the table is read off one grid of classes."""
    pts = all_points(A)
    idx = {q: k for k, q in enumerate(pts)}
    grid = {(l, r, d): modcat._stable_hom_class(l, r, d, A, p)
            for l in range(1, A.ell + 1) for r in range(1, A.ell + 1) for d in range(A.n)}
    table = [[grid[y, v, (u - x) % A.n] for u, v in pts] for x, y in pts]
    rng = range(len(pts))
    return (idx, table, [table[a][a] == 1 for a in rng],
            [sum(1 << b for b in rng if table[a][b]) for a in rng],
            [sum(1 << v for v in rng if table[v][a]) for a in rng])


def is_configuration(C, A: Algebra, p: int = 2) -> bool:
    """Pairwise stable orthogonality, as out[a] & P == bit(a) for each brick
    a in P, plus coverage: the `into` masks of P cover every vertex."""
    pts = C.points if isinstance(C, Configuration) else Configuration(A, tuple(C)).points
    idx, _, brick, out, into = _stable_table(A, p)
    ks = [idx[q] for q in pts]
    P = sum(1 << k for k in ks)
    if not all(brick[k] and out[k] & P == 1 << k for k in ks):
        return False
    return reduce(or_, (into[k] for k in ks), 0) == (1 << len(brick)) - 1


@lru_cache(maxsize=None)
def enumerate_configurations(A: Algebra) -> tuple[Configuration, ...]:
    """All configurations, by backtracking on the masks of `_stable_table`.

    Candidates are the bricks, by (length, socle) as in all_points.  A
    branch adds only candidates whose `out` and `into` masks miss the chosen
    points, ends once the chosen points cover every vertex, and is cut when
    the chosen and available points together cannot.
    """
    pts = all_points(A)
    _, _, brick, out, into = _stable_table(A, 2)
    full = (1 << len(pts)) - 1
    cands = [k for k in range(len(pts)) if brick[k]]
    clash = [out[k] | into[k] for k in cands]
    found = []

    def search(start: int, chosen: int, covered: int) -> None:
        if covered == full:  # a configuration admits no orthogonal extension
            found.append(tuple(sorted(q for k, q in enumerate(pts) if chosen >> k & 1)))
            return
        avail = [j for j in range(start, len(cands)) if not clash[j] & chosen]
        if reduce(or_, (into[cands[j]] for j in avail), covered) == full:
            for j in avail:
                search(j + 1, chosen | 1 << cands[j], covered | into[cands[j]])

    search(0, 0, 0)
    return tuple(Configuration(A, c) for c in sorted(found))


def simples(A: Algebra) -> Configuration:
    return Configuration(A, tuple((i, 1) for i in range(1, A.n + 1)))


# -- pointwise functors -------------------------------------------------------

def config_shift(C: Configuration, op: str, k: int = 1) -> Configuration:
    A = C.algebra
    if op == "tau":
        pts = [_rotate(p, k, A) for p in C.points]
    elif op == "omega":
        pts = [point_of(modcat.omega(ind_of(p), A)) for p in C.points]
    elif op == "omega_inv":
        pts = [point_of(modcat.omega_inv(ind_of(p), A)) for p in C.points]
    else:
        raise ValueError(f"unknown shift {op!r}")
    return Configuration(A, tuple(pts))


def _rotate(p: Point, k: int, A: Algebra) -> Point:
    """sigma^k(p) for the rotation sigma: i -> i + 1 of the quiver; sigma = tau."""
    return (modcat._bar(p[0] + k, A.n), p[1])


def nu_point(p: Point, A: Algebra) -> Point:
    return _rotate(p, -A.ell, A)


def nu_orbits_points(C: Configuration) -> list[frozenset]:
    return modcat._orbits(C.points, lambda q: nu_point(q, C.algebra),
                          "configuration is not Nakayama-stable")


# -- mutation -----------------------------------------------------------------

def sms_mutate_tracked(C: Configuration, K, sign: str):
    """Mutation at a Nakayama-stable subset, with the positional replacement map.

    Members of K are (co)syzygy-shifted; every other point is replaced by
    the cone over the minimal approximation into the extension closure of
    K, following the triangle Omega X -> X' -> Y -> X.  Results are
    memoised per process, per point per rotation class (`_mutate_point`).
    """
    if sign not in ("minus", "plus"):
        raise ValueError(f"sign must be minus or plus, got {sign!r}")
    A = C.algebra
    Kset = frozenset(tuple(q) for q in K)
    if not Kset <= set(C.points):
        raise ValueError("mutation subset is not contained in the configuration")
    if {nu_point(q, A) for q in Kset} != Kset:
        raise ValueError("mutation subset is not Nakayama-stable")
    frames = _frames(Kset, A)
    mapping = {pt: _mutate_point(pt, frames, sign, A) for pt in C.points}
    result = Configuration(A, tuple(mapping.values()))
    if not is_configuration(result, A):
        raise RuntimeError("mutation produced an invalid configuration")
    return result, mapping


def _mutate_point(pt: Point, frames: tuple, sign: str, A: Algebra) -> Point:
    """The image of one point under mutation at a set K, given by its
    `frames = _frames(K, A)`; it depends on nothing else in the configuration.
    Mutation commutes with the rotation sigma, so it is memoised per rotation
    class: computed on sigma^k of (pt, K) for the k that puts (sorted
    sigma^k K, sigma^k pt) first, rotated back.  Of the frames that put
    sorted sigma^k K first, pt only breaks the tie."""
    Kc, ks = frames
    k = min(ks, key=lambda k: _rotate(pt, k, A))
    try:
        new = _mutate_point_in_frame(_rotate(pt, k, A), Kc, sign, A)
    except modcat.SplitCone as exc:
        kind = "cone" if sign == "minus" else "cocone"
        cone = tuple(sorted(_rotate(q, -k, A) for q in exc.args[0]))
        raise RuntimeError(f"mutation {kind} of {pt} is not indecomposable: {cone}") from None
    return _rotate(new, -k, A)


def _frames(Kset: frozenset, A: Algebra) -> tuple[frozenset, tuple[int, ...]]:
    """The canonical rotation sigma^k Kset, the one that sorts first, and
    every k in range(n) that gives it."""
    rotations = [sorted(_rotate(q, k, A) for q in Kset) for k in range(A.n)]
    first = min(rotations)
    return frozenset(first), tuple(k for k, r in enumerate(rotations) if r == first)


@lru_cache(maxsize=None)
def _mutate_point_in_frame(pt: Point, Kset: frozenset, sign: str, A: Algebra) -> Point:
    """`_mutate_point` computed directly in the frame it is given; raises
    SplitCone with the points of a cone that is not indecomposable."""
    M = ind_of(pt)
    if pt in Kset:
        return point_of(modcat.omega_inv(M, A) if sign == "minus" else modcat.omega(M, A))
    closure = modcat.closure_inds(tuple(sorted(ind_of(q) for q in Kset)), A)
    if sign == "minus":
        g = modcat.min_left_approx(modcat.omega(M, A), closure, A)
    else:
        g = modcat.min_right_approx(closure, modcat.omega_inv(M, A), A)
    cone = modcat.cone_of_stable_map(g, A)
    if len(cone) != 1:
        raise modcat.SplitCone(tuple(point_of(Y) for Y in cone))
    return point_of(cone[0] if sign == "minus" else modcat.omega(cone[0], A))


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
    if (h, 1) not in C.points:
        raise ValueError(f"configuration does not contain the inserted point ({h},1)")
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
    if A.n != e:
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
