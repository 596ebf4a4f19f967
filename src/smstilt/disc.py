"""Admissible arcs and triangulations of the punctured regular e-gon.

Vertices are labelled 1..e counter-clockwise.  An inner arc runs from its
initial vertex i to the terminal vertex i+l (mod e) along the boundary
direction, with 1 < l <= e; a projective arc joins the puncture to a
boundary vertex.  Crossing is decided combinatorially: each inner arc is
lifted to the integer intervals [i + ke, i + l + ke] and two inner arcs
cross iff some pair of lifts strictly interleaves; a projective arc
crosses an inner arc iff its endpoint lies in the open interior of the
arc.  This reproduces the forced triangulation counts C(2e, e)/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .modcat import _json_ints, _json_list


class FoldSymmetryError(Exception):
    """Raised when folding a triangulation that is not rotation symmetric."""


class NoExchangeError(ValueError):
    """Raised when an arc admits no exchange within the triangulation.

    This happens exactly for the projective arc to a vertex carrying the
    full loop: the loop cuts off a punctured monogon, and the
    corresponding mutation is not an arc exchange (on the silting side it
    crosses between the degree-0 and degree-(-1) stalk classes).
    """


@dataclass(frozen=True)
class Arc:
    kind: str               # "inner" | "projective"
    terminal: int
    initial: int | None = None
    length: int | None = None

    def sort_key(self):
        if self.kind == "projective":
            return (0, self.terminal, 0)
        return (1, self.initial, self.length)

    def __str__(self):
        if self.kind == "projective":
            return f"<*,{self.terminal}>"
        return f"<{self.terminal},{self.initial}>"

    def to_json(self):
        if self.kind == "projective":
            return {"kind": "projective", "terminal": self.terminal}
        return {"kind": "inner", "initial": self.initial, "length": self.length}


def projective_arc(j: int) -> Arc:
    return Arc("projective", j)


def inner_arc(initial: int, length: int, e: int) -> Arc:
    terminal = (initial + length - 1) % e + 1
    return Arc("inner", terminal, initial, length)


def arc_from_json(obj, e: int, where: str = "arc") -> Arc:
    if e < 1:
        raise ValueError(f"invalid rank e={e}")
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind == "projective":
        a = projective_arc(*_json_ints(obj, ("terminal",), where))
    elif kind == "inner":
        a = inner_arc(*_json_ints(obj, ("initial", "length"), where), e)
    else:
        raise ValueError(f"{where}: unrecognised arc {obj!r}")
    check_arc(a, e)
    return a


def parse_arc(text: str, e: int) -> Arc:
    """Parse the --arc form "<*,j>" or "<terminal,initial>"."""
    forms = f"expected <*,j> or <terminal,initial> with vertices 1..{e}, got {text!r}"
    try:
        first, second = text.strip().lstrip("<").rstrip(">").split(",")
        ends = [int(second)] if first.strip() == "*" else [int(first), int(second)]
    except ValueError:
        raise ValueError(f"--arc: {forms}") from None
    if not all(1 <= v <= e for v in ends):
        raise ValueError(f"--arc: vertex out of range; {forms}")
    if len(ends) == 1:
        return projective_arc(ends[0])
    terminal, initial = ends
    length = (terminal - initial - 1) % e + 1
    if length == 1:
        raise ValueError(f"--arc: a boundary edge is not an arc; {forms}")
    return inner_arc(initial, length, e)


def check_arc(a: Arc, e: int) -> None:
    if e < 1:
        raise ValueError(f"invalid rank e={e}")
    if a.kind == "projective":
        if not (1 <= a.terminal <= e and a.initial is None and a.length is None):
            raise ValueError(f"invalid projective arc {a} for e={e}")
    elif a.kind == "inner":
        if not (1 <= a.initial <= e and 1 < a.length <= e):
            raise ValueError(f"invalid inner arc {a} for e={e}")
        if a.terminal != (a.initial + a.length - 1) % e + 1:
            raise ValueError(f"inconsistent terminal point in {a}")
    else:
        raise ValueError(f"unrecognised arc kind {a.kind!r}")


def all_arcs(e: int) -> list[Arc]:
    """All e^2 admissible arcs: e projective and e(e-1) inner ones."""
    if e < 1:
        raise ValueError(f"invalid rank e={e}")
    arcs = [projective_arc(j) for j in range(1, e + 1)]
    arcs.extend(inner_arc(i, l, e) for i in range(1, e + 1) for l in range(2, e + 1))
    return sorted(arcs, key=Arc.sort_key)


def _interleaves(p: int, q: int, p2: int, q2: int) -> bool:
    return (p < p2 < q < q2) or (p2 < p < q2 < q)


def compatible(a: Arc, b: Arc, e: int) -> bool:
    """True iff the two arcs can be drawn without crossing."""
    check_arc(a, e)
    check_arc(b, e)
    if a.kind == "projective" and b.kind == "projective":
        return True
    if a.kind == "projective":
        a, b = b, a
    if b.kind == "projective":
        # interior vertices of a are initial+1 .. initial+length-1 (mod e)
        return not 0 < (b.terminal - a.initial) % e < a.length
    p, q = a.initial, a.initial + a.length
    # lengths are <= e, so only the adjacent lifts can meet
    for k in (-e, 0, e):
        if _interleaves(p, q, b.initial + k, b.initial + b.length + k):
            return False
    return True


@dataclass(frozen=True)
class Triangulation:
    e: int
    arcs: tuple[Arc, ...]

    def __post_init__(self):
        object.__setattr__(self, "arcs", tuple(sorted(set(self.arcs), key=Arc.sort_key)))
        for a in self.arcs:
            check_arc(a, self.e)

    def __contains__(self, a: Arc) -> bool:
        return a in self.arcs

    def to_json(self):
        return {"e": self.e, "arcs": [a.to_json() for a in self.arcs]}


def triangulation_from_json(obj) -> Triangulation:
    (e,) = _json_ints(obj, ("e",))
    arcs = _json_list(obj, "arcs")
    X = Triangulation(e, tuple(arc_from_json(a, e, f"arcs[{k}]") for k, a in enumerate(arcs)))
    if not is_triangulation(set(X.arcs), e):
        raise ValueError("arc set is not a triangulation")
    return X


def _pairwise_compatible(arcs, e: int) -> bool:
    arcs = list(arcs)
    return all(compatible(arcs[i], arcs[j], e)
               for i in range(len(arcs)) for j in range(i + 1, len(arcs)))


def is_triangulation(S, e: int) -> bool:
    """Pairwise compatible and maximal among admissible arcs.

    Every maximal compatible set has exactly e arcs, so maximality is a
    count and costs no sweep over all_arcs(e).
    """
    if e < 1:
        raise ValueError(f"invalid rank e={e}")
    S = set(S)
    for a in S:
        check_arc(a, e)
    return len(S) == e and _pairwise_compatible(S, e)


@lru_cache(maxsize=None)
def enumerate_triangulations(e: int) -> tuple[Triangulation, ...]:
    """All triangulations of the punctured e-gon, in canonical order."""
    arcs = all_arcs(e)
    n = len(arcs)
    # bit j of mask[i]: arc j differs from arc i and can be drawn beside it
    mask = [sum(1 << j for j in range(n) if j != i and compatible(arcs[i], arcs[j], e))
            for i in range(n)]
    found: set[tuple[int, ...]] = set()

    def extend(chosen: list[int], avail: int, start: int) -> None:
        if not avail:
            found.add(tuple(chosen))
            return
        for k in range(start, n):
            if avail >> k & 1:
                chosen.append(k)
                extend(chosen, avail & mask[k], k + 1)
                chosen.pop()

    extend([], (1 << n) - 1, 0)
    return tuple(Triangulation(e, tuple(arcs[k] for k in c)) for c in sorted(found))


def flip(X: Triangulation, a: Arc) -> tuple[Triangulation, Arc]:
    """Exchange the arc a for the unique other arc completing X \\ {a}."""
    if a not in X:
        raise ValueError(f"arc {a} is not in the triangulation")
    rest = [x for x in X.arcs if x != a]
    replacements = []
    for b in all_arcs(X.e):
        if b == a or b in rest:
            continue
        if all(compatible(x, b, X.e) for x in rest):
            Y = set(rest) | {b}
            if is_triangulation(Y, X.e):
                replacements.append(b)
    if not replacements:
        raise NoExchangeError(f"arc {a} has no exchange in {[str(x) for x in X.arcs]}")
    if len(replacements) > 1:
        raise RuntimeError(f"flip of {a} produced {len(replacements)} exchanges")
    b = replacements[0]
    return Triangulation(X.e, tuple(rest) + (b,)), b


def rotate_arc(a: Arc, k: int, e: int) -> Arc:
    if a.kind == "projective":
        return projective_arc((a.terminal + k - 1) % e + 1)
    return inner_arc((a.initial + k - 1) % e + 1, a.length, e)


def unfold(X: Triangulation, n: int) -> Triangulation:
    """Lift a rank-e triangulation to the rotation-symmetric one of rank n."""
    e = X.e
    if n < 1 or n % e != 0:
        raise ValueError(f"rank n = {n} is not a positive multiple of {e}")
    lifted = []
    for a in X.arcs:
        for k in range(n // e):
            if a.kind == "projective":
                lifted.append(projective_arc((a.terminal + k * e - 1) % n + 1))
            else:
                lifted.append(inner_arc((a.initial + k * e - 1) % n + 1, a.length, n))
    return Triangulation(n, tuple(lifted))


def fold(Y: Triangulation, e: int) -> Triangulation:
    """Inverse of unfold; fails on inputs without the rotation symmetry."""
    n = Y.e
    if e < 1 or n % e != 0:
        raise ValueError(f"rank e = {e} is not a positive divisor of {n}")
    rotated = {rotate_arc(a, e, n) for a in Y.arcs}
    if rotated != set(Y.arcs):
        raise FoldSymmetryError(f"triangulation is not invariant under rotation by {e}")
    arcs = []
    for a in Y.arcs:
        if a.kind == "projective":
            if a.terminal <= e:
                arcs.append(projective_arc(a.terminal))
        else:
            if a.length > e:
                raise FoldSymmetryError("symmetric triangulation with an arc longer than the period")
            if a.initial <= e:
                arcs.append(inner_arc(a.initial, a.length, e))
    return Triangulation(e, tuple(arcs))
