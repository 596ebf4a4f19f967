"""Two-term complexes of projectives over A_n^ell and their mutation.

Morphisms between projectives are polynomials in the radical generator:
Hom(P_a, P_b) has basis x^s for 0 <= s <= ell with s = a - b (mod n),
composition adds exponents and truncates above ell.  Complexes are kept
as summand lists with polynomial differential entries, and all of the
work is exact GF(2) linear algebra on Python ints: a polynomial is the int
whose bit k is its coefficient of x^k, so a product is a carry-less
multiply masked to ell + 1 bits, and a vector of Hom-complex coordinates
is the int whose bit j is coordinate j.  Hom_K(T, U) is read off the Hom
complex, whose differential `_hom_differential` gives both the chain maps
(its kernel in degree 0, by `gf._kernel2`) and the null-homotopic maps
(its image from degree -1).  Mutation takes the cone of the universal
approximation, every basis map into (or out of) the other summands, and
`normalize` reduces it in one elimination pass, cancelling contractible
pairs and splitting the rest into stalks and arrows; the one summand that
is not an approximation target replaces the mutated one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import disc, gf
from .modcat import Algebra, SplitCone, _bar, _json_ints, _json_list, _orbits


@dataclass(frozen=True, order=True)
class Stalk:
    idx: int
    deg: int

    def sort_key(self):
        return (0, self.deg, self.idx)

    def to_json(self):
        return {"stalk": self.idx, "deg": self.deg}


@dataclass(frozen=True, order=True)
class Arrow:
    src: int   # projective index in degree -1
    tgt: int   # projective index in degree 0

    def sort_key(self):
        return (1, self.src, self.tgt)

    def to_json(self):
        return {"src": self.src, "tgt": self.tgt}


Summand = Stalk | Arrow


def _min_pos_degree(a: int, b: int, A: Algebra) -> int:
    s = (a - b) % A.n
    return s if s else A.n


@dataclass(frozen=True)
class TwoTerm:
    algebra: Algebra
    summands: tuple[Summand, ...]

    def __post_init__(self):
        object.__setattr__(self, "summands",
                           tuple(sorted(self.summands, key=lambda s: s.sort_key())))
        n, L = self.algebra.n, self.algebra.ell
        for s in self.summands:
            if isinstance(s, Stalk):
                if not (1 <= s.idx <= n and s.deg in (0, -1)):
                    raise ValueError(f"bad stalk summand {s}")
            else:
                if not (1 <= s.src <= n and 1 <= s.tgt <= n):
                    raise ValueError(f"bad arrow summand {s}")
                if _min_pos_degree(s.src, s.tgt, self.algebra) > L:
                    raise ValueError(f"no nonzero non-iso map P_{s.src} -> P_{s.tgt}")

    def to_json(self):
        return {"n": self.algebra.n, "ell": self.algebra.ell,
                "summands": [s.to_json() for s in self.summands]}


def twoterm_from_json(obj) -> TwoTerm:
    A = Algebra(*_json_ints(obj, ("n", "ell")))
    summands = []
    for k, s in enumerate(_json_list(obj, "summands")):
        stalk = isinstance(s, dict) and "stalk" in s
        fields = _json_ints(s, ("stalk", "deg") if stalk else ("src", "tgt"), f"summands[{k}]")
        summands.append(Stalk(*fields) if stalk else Arrow(*fields))
    return TwoTerm(A, tuple(summands))


# -- polynomial arithmetic mod 2, truncated above x^ell ----------------------
# A polynomial is an int: bit k is its coefficient of x^k.

def _pmul(a: int, b: int, A: Algebra) -> int:
    """a * b truncated above x^ell: a carry-less product."""
    out = 0
    while b:
        low = b & -b
        out ^= a * low   # a * x^k for the bit k of b
        b ^= low
    return out & (1 << A.ell + 1) - 1


def _pinv(a: int, A: Algebra) -> int:
    """a^-1 for a unit a = 1 + r: the product of the 1 + r^(2^j), since
    (1 + r)(1 + r)(1 + r^2)...(1 + r^(2^(m-1))) = 1 + r^(2^m) in
    characteristic 2, and r^(2^m) vanishes once 2^m > ell."""
    if not a & 1:
        raise ValueError("_pinv: the constant term is not 1, so the polynomial is not a unit")
    inv, r = 1, a ^ 1
    while r:
        inv = _pmul(inv, r ^ 1, A)
        r = _pmul(r, r, A)
    return inv


def _pdivide(num: int, s: int, inv: int, A: Algebra) -> int:
    """num / (x^s * u) for inv = u^-1, where num is divisible by x^s."""
    if num & (1 << s) - 1:
        raise ValueError(f"_pdivide: the numerator is not divisible by x^{s}")
    return _pmul(num >> s, inv, A)


# -- raw complexes of projectives --------------------------------------------

@dataclass
class ProjComplex:
    """A bounded complex of indecomposable projectives.

    summands[k] = (degree, projective index); diff maps position pairs
    (target, source) with deg(target) = deg(source) + 1 to nonzero
    polynomials.
    """

    algebra: Algebra
    summands: list[tuple[int, int]]
    diff: dict[tuple[int, int], int]


def from_twoterm(T: TwoTerm) -> ProjComplex:
    A = T.algebra
    summands: list[tuple[int, int]] = []
    diff: dict[tuple[int, int], int] = {}
    for s in T.summands:
        if isinstance(s, Stalk):
            summands.append((s.deg, s.idx))
        else:
            summands.append((-1, s.src))
            summands.append((0, s.tgt))
            diff[(len(summands) - 1, len(summands) - 2)] = 1 << _min_pos_degree(s.src, s.tgt, A)
    return ProjComplex(A, summands, diff)


def shift(C: ProjComplex, k: int) -> ProjComplex:
    """C[k]: content in degree d moves to degree d - k."""
    return ProjComplex(C.algebra, [(d - k, i) for d, i in C.summands], dict(C.diff))


def direct_sum(A: Algebra, blocks: list[ProjComplex]) -> tuple[ProjComplex, list[int]]:
    summands: list[tuple[int, int]] = []
    diff: dict[tuple[int, int], int] = {}
    offsets = []
    for B in blocks:
        off = len(summands)
        offsets.append(off)
        summands.extend(B.summands)
        for (r, c), p in B.diff.items():
            diff[(r + off, c + off)] = p
    return ProjComplex(A, summands, diff), offsets


def normalize(C: ProjComplex) -> TwoTerm | None:
    """The minimal two-term complex homotopic to C, or None when C does not
    fit in degrees {-1, 0}.

    Each step pivots on an entry of least lowest degree s, ties broken by
    position, and clears its row and column by automorphisms of the
    degreewise sums.  Clearing against a pivot of least degree creates no
    unit, so every unit pivot comes first: a unit cancels a contractible
    pair, and once none is left the window is checked and each pivot of
    degree s >= 1 splits off an arrow of canonical degree.  Entries out of
    a cancelled pair's target or into its source vanish after the basis
    change (char 2), so dropping them needs no correction.
    """
    A = C.algebra
    summands: list = list(C.summands)
    diff = dict(C.diff)
    out: list[Summand] = []

    def in_window():
        return all(e is None or e[0] in (-1, 0) for e in summands)

    while diff:
        low, (r, c) = min((p & -p, k) for k, p in diff.items())
        s = low.bit_length() - 1
        if s and not in_window():
            return None
        inv = _pinv(diff.pop((r, c)) >> s, A)
        lams = [(i, _pdivide(p, s, inv, A)) for (i, j), p in diff.items() if j == c]
        row = [(j, p) for (i, j), p in diff.items() if i == r]
        for i, lam in lams:
            for j, p in row:
                q = diff.get((i, j), 0) ^ _pmul(lam, p, A)
                if q:
                    diff[(i, j)] = q
                else:
                    diff.pop((i, j), None)
        diff = {k: p for k, p in diff.items() if r not in k and c not in k}
        if s:
            a, b = summands[c][1], summands[r][1]
            if s != _min_pos_degree(a, b, A):
                raise ValueError(f"normalize: non-canonical degree x^{s} on P_{a} -> P_{b}")
            out.append(Arrow(a, b))
        summands[r] = summands[c] = None
    if not in_window():
        return None
    return TwoTerm(A, tuple(out) + tuple(Stalk(i, d) for d, i in filter(None, summands)))


# -- rotation ------------------------------------------------------------------

def _rotate(s: Summand, k: int, A: Algebra) -> Summand:
    """sigma^k(s) for the rotation sigma: i -> i + 1 of the quiver; it keeps
    every polynomial degree, and every position in a one-summand complex.
    s itself when n divides k, as nu = sigma^-ell is on A_e^{em}."""
    if not k % A.n:
        return s
    if isinstance(s, Stalk):
        return Stalk(_bar(s.idx + k, A.n), s.deg)
    return Arrow(_bar(s.src + k, A.n), _bar(s.tgt + k, A.n))


def _anchor(s: Summand, A: Algebra) -> int:
    """The k in range(n) that puts sigma^k s at vertex 1 (its stalk, or the
    source of its arrow): the one k that minimises the `sort_key` of
    sigma^k s, since its kind and degree do not rotate."""
    return (1 - (s.idx if isinstance(s, Stalk) else s.src)) % A.n


def _frame_key(s: Summand, k: int, A: Algebra) -> tuple[int, int, int]:
    """`sort_key` of sigma^k s, computed without building sigma^k s."""
    if isinstance(s, Stalk):
        return (0, s.deg, _bar(s.idx + k, A.n))
    return (1, _bar(s.src + k, A.n), _bar(s.tgt + k, A.n))


# -- homotopy-category Hom spaces --------------------------------------------

def _hom_coords(T: ProjComplex, U: ProjComplex, k: int) -> list:
    """Coordinates (slot, s) of the degree-k maps T -> U: the component x^s
    in the slot (ui, ti) from T's summand ti to U's summand ui, which sits
    k degrees higher; ui outer, ti inner, then s."""
    A = T.algebra
    return [((ui, ti), s)
            for ui, (du, b) in enumerate(U.summands)
            for ti, (dt, a) in enumerate(T.summands) if du == dt + k
            for s in range((a - b) % A.n, A.ell + 1, A.n)]


def _hom_differential(T: ProjComplex, U: ProjComplex, k: int) -> list[int]:
    """The Hom-complex differential f -> d_U f + f d_T from degree-k to
    degree-(k + 1) maps over GF(2), as one packed column per `_hom_coords`
    of degree k: bit r of a column is its entry in row r, the r-th
    coordinate of degree k + 1.  Over an odd characteristic the second term
    takes the sign -(-1)^k."""
    full = (1 << T.algebra.ell + 1) - 1
    rows = {co: 1 << r for r, co in enumerate(_hom_coords(T, U, k + 1))}
    cols = []
    for (ui, ti), s in _hom_coords(T, U, k):
        terms = [((u2, ti), p) for (u2, u1), p in U.diff.items() if u1 == ui]
        terms += [((ui, t2), p) for (t1, t2), p in T.diff.items() if t1 == ti]
        col = 0
        for slot, p in terms:
            p = p << s & full
            while p:
                low = p & -p
                col ^= rows[(slot, low.bit_length() - 1)]
                p ^= low
        cols.append(col)
    return cols


class HomSet:
    """Chain maps T -> U modulo homotopy, as packed GF(2) coordinate
    vectors: bit j of a vector is its coordinate j.

    `unknowns` are the `_hom_coords` of degree 0; `cycles` spans the chain
    maps, the kernel of the Hom-complex differential, and `boundaries` the
    null-homotopic ones, its nonzero columns from degree -1.
    """

    def __init__(self, T: ProjComplex, U: ProjComplex):
        self.A = T.algebra
        self.unknowns = _hom_coords(T, U, 0)
        self.cycles = tuple(gf._kernel2(_hom_differential(T, U, 0)))
        self.boundaries = tuple(filter(None, _hom_differential(T, U, -1)))
        self.dim = len(self.cycles) - len(gf._basis2(self.boundaries))

    def basis(self) -> tuple[int, ...]:
        """Cycle representatives spanning Hom_K, independent mod boundaries,
        in `cycles` order."""
        span = gf._basis2(self.boundaries)
        return tuple(z for z in self.cycles if gf._insert2(span, z))

    def to_map(self, vec: int) -> dict[tuple[int, int], int]:
        f: dict[tuple[int, int], int] = {}
        while vec:
            low = vec & -vec
            slot, s = self.unknowns[low.bit_length() - 1]
            f[slot] = f.get(slot, 0) | 1 << s
            vec ^= low
        return f


def cone(f: dict, X: ProjComplex, Y: ProjComplex) -> ProjComplex:
    """Mapping cone of the chain map f: X -> Y."""
    A = X.algebra
    summands = [(d - 1, i) for d, i in X.summands] + list(Y.summands)
    off = len(X.summands)
    diff = dict(X.diff)
    diff.update(((r + off, c + off), p) for (r, c), p in Y.diff.items())
    diff.update(((ui + off, ti), p) for (ui, ti), p in f.items())
    return ProjComplex(A, summands, diff)


def hom_complex_dim(T: TwoTerm, U: TwoTerm, k: int) -> int:
    """dim Hom_K(T, U[k]); zero automatically for |k| >= 2."""
    if T.algebra != U.algebra:
        raise ValueError("complexes live over different algebras")
    if abs(k) >= 2:
        return 0
    return sum(_summand_hom(a, b, k, T.algebra)[0].dim for a in T.summands for b in U.summands)


# -- silting / tilting --------------------------------------------------------

def is_silting(T: TwoTerm) -> bool:
    """n distinct summands and Hom_K(T, T[1]) = 0: a two-term presilting
    complex with n summands is silting (Adachi-Iyama-Reiten)."""
    return (len(set(T.summands)) == len(T.summands) == T.algebra.n
            and hom_complex_dim(T, T, 1) == 0)


def nu_summand(s: Summand, A: Algebra) -> Summand:
    return _rotate(s, -A.ell, A)


def nu_complex(T: TwoTerm) -> TwoTerm:
    """nu T, summand by summand; T itself when n divides ell."""
    A = T.algebra
    return TwoTerm(A, tuple(nu_summand(s, A) for s in T.summands)) if A.ell % A.n else T


def is_tilting(T: TwoTerm) -> bool:
    """Silting and nu-stable.  Serre duality Hom_K(X, Y) = D Hom_K(Y, nu X)
    makes Hom_K(T, T[-1]) dual to Hom_K(T, T[1]) once nu T = T."""
    return is_silting(T) and nu_complex(T) == T


def nu_orbits(T: TwoTerm) -> list[frozenset]:
    """Partition of the summands into Nakayama orbits."""
    return _orbits(T.summands, lambda s: nu_summand(s, T.algebra),
                   "complex is not Nakayama-stable")


# -- the maps phi from triangulations ----------------------------------------

def phi_with_labels(X: disc.Triangulation, sign: str, A: Algebra):
    """phi and the arc -> summand assignment at full rank n."""
    if sign not in ("minus", "plus"):
        raise ValueError(f"sign must be minus or plus, got {sign!r}")
    if A.e % X.e != 0:
        raise ValueError(f"rank {X.e} does not divide gcd(n, ell) = {A.e}")
    Y = disc.unfold(X, A.n) if X.e < A.n else X
    n = A.n
    assignment: dict[disc.Arc, Summand] = {}
    for a in Y.arcs:
        if a.kind == "projective":
            assignment[a] = Stalk(a.terminal, 0 if sign == "minus" else -1)
        elif sign == "minus":
            assignment[a] = Arrow(_bar(a.terminal - 1, n), a.initial)
        else:
            assignment[a] = Arrow(a.terminal, _bar(a.initial + 1, n))
    return TwoTerm(A, tuple(assignment.values())), assignment


def phi(X: disc.Triangulation, sign: str, A: Algebra) -> TwoTerm:
    return phi_with_labels(X, sign, A)[0]


def part_of(T: TwoTerm) -> str:
    degs = {s.deg for s in T.summands if isinstance(s, Stalk)}
    if degs == {0}:
        return "minus"
    if degs == {-1}:
        return "plus"
    raise ValueError("cannot classify complex: stalk degrees are mixed or absent")


def phi_inv(T: TwoTerm) -> tuple[disc.Triangulation, str]:
    """Triangulation of rank gcd(n, ell) with phi(X, sign) = T."""
    A = T.algebra
    sign = part_of(T)
    n = A.n
    arcs = []
    for s in T.summands:
        if isinstance(s, Stalk):
            arcs.append(disc.projective_arc(s.idx))
        elif sign == "minus":
            j, i = _bar(s.src + 1, n), s.tgt
            arcs.append(disc.inner_arc(i, (j - i - 1) % n + 1, n))
        else:
            j, i = s.src, _bar(s.tgt - 1, n)
            arcs.append(disc.inner_arc(i, (j - i - 1) % n + 1, n))
    Y = disc.Triangulation(n, tuple(arcs))
    return disc.fold(Y, A.e), sign


# -- mutation ------------------------------------------------------------------

@lru_cache(maxsize=None)
def _summand_complex(s: Summand, A: Algebra) -> ProjComplex:
    """The one-summand complex s; callers must not mutate it."""
    return from_twoterm(TwoTerm(A, (s,)))


def _summand_hom(a: Summand, b: Summand, k: int, A: Algebra) -> tuple[HomSet, tuple[int, ...]]:
    """Hom_K(a, b[k]) between two single-summand complexes, and coordinate
    rows in it, reduced modulo the boundaries, of chain maps that form a
    basis; Hom_K is additive over summands.  For k = 0 and a != b, as every
    mutation call has, each map is a non-isomorphism, so the rows span the
    radical.  Memoised once per rotation class of (a, b) by
    `_summand_hom_in_frame`; callers must not mutate the answer."""
    j = _anchor(a, A)
    return _summand_hom_in_frame(_frame_key(a, j, A), _frame_key(b, j, A), k, A)


@lru_cache(maxsize=None)
def _summand_hom_in_frame(key_a, key_b, k: int, A: Algebra) -> tuple[HomSet, tuple[int, ...]]:
    """`_summand_hom` in the frame that anchors a, keyed on the `sort_key`s
    of a and b there: plain ints that hash fast, computed without building
    the rotated summands.  The answer is made of positions and polynomial
    degrees only, which rotation keeps, so it serves every frame."""
    a, b = (Arrow(x, y) if kind else Stalk(y, x) for kind, x, y in (key_a, key_b))
    HS = HomSet(_summand_complex(a, A), shift(_summand_complex(b, A), k))
    span = gf._basis2(HS.boundaries)
    return HS, tuple(gf._reduce2(span, z) for z in HS.basis())


@lru_cache(maxsize=None)
def _mutate_summand(s: Summand, targets: tuple, sign: str, A: Algebra) -> Summand | None:
    """The summand that replaces s in its left (sign minus) or right (plus)
    mutation, or None when the mutation leaves the two-term window.
    `targets` are the summands m of the rest, in `sort_key` order, with
    Hom_K(s, m) (or Hom_K(m, s)) nonzero; the cone depends on nothing else.

    The approximation is the universal one: every row of `_summand_hom(s, m)`
    (or `_summand_hom(m, s)`) for each target m, as a chain map.  In a
    Krull-Schmidt category any add(rest)-approximation is f = (f', 0) from s
    into M' + M'', with f' the minimal one and M'' in add(targets), so
    cone(f) = cone(f') + M''.  M'' lies in the two-term window, so `normalize`
    gives None exactly when cone(f') leaves it; otherwise cone(f') is the one
    summand of the reduced cone that is not a target.  Any other count raises
    SplitCone with the summands that are not targets."""
    left = sign == "minus"
    items = []
    for m in targets:
        HS, rows = _summand_hom(*((s, m) if left else (m, s)), 0, A)
        items += [(m, HS.to_map(z)) for z in rows]
    Mc, offs = direct_sum(A, [_summand_complex(m, A) for m, _ in items])
    gmap: dict[tuple[int, int], int] = {}
    for (_, f), off in zip(items, offs):
        for (ui, ti), p in f.items():
            gmap[(ui + off, ti) if left else (ui, ti + off)] = p
    Xc = _summand_complex(s, A)
    if left:
        U = normalize(cone(gmap, Xc, Mc))
    else:
        U = normalize(shift(cone(gmap, Mc, Xc), -1))
    if U is None:
        return None
    new = tuple(x for x in U.summands if x not in targets)
    if len(new) != 1:
        raise SplitCone(new)
    return new[0]


def two_term_mutate_tracked(T: TwoTerm, orbit, sign: str):
    """Mutate at a minimal Nakayama-stable summand set.

    Returns (mutated complex, {orbit summand: replacement}) or (None, None)
    when the mutation leaves the two-term window.

    Mutation commutes with the rotation sigma, so each s in the orbit is
    mutated, and memoised, in the frame sigma^k that puts sigma^k s at
    vertex 1 (`_anchor`).  Since `sort_key` compares vertices after kind
    and degree, that k alone puts (sigma^k s, sorted sigma^k rest) first.
    The replacement is cached on sigma^k s and its approximation targets
    there, in `sort_key` order (see `_mutate_summand`).
    """
    if sign not in ("minus", "plus"):
        raise ValueError(f"sign must be minus or plus, got {sign!r}")
    A = T.algebra
    orbit = frozenset(orbit)
    if not orbit or not orbit <= set(T.summands):
        raise ValueError("orbit is not a set of summands of the complex")
    if len(_orbits(orbit, lambda s: nu_summand(s, A), "orbit is not Nakayama-stable")) != 1:
        raise ValueError("orbit is not minimal Nakayama-stable")
    left = sign == "minus"
    rest = [s for s in T.summands if s not in orbit]
    replaced: dict[Summand, Summand] = {}
    for s in sorted(orbit, key=lambda x: x.sort_key()):
        k = _anchor(s, A)
        targets = tuple(sorted((_rotate(m, k, A) for m in rest
                                if len(_summand_hom(*((s, m) if left else (m, s)), 0, A)[1])),
                               key=lambda x: x.sort_key()))
        try:
            new = _mutate_summand(_rotate(s, k, A), targets, sign, A)
        except SplitCone as exc:
            raise RuntimeError(f"mutation of {s} produced {len(exc.args[0])} summands") from None
        if new is None:
            return None, None
        replaced[s] = _rotate(new, -k, A)
    result = TwoTerm(A, tuple(rest) + tuple(replaced.values()))
    if len(set(result.summands)) != len(T.summands):
        raise RuntimeError("mutation produced a non-basic complex")
    return result, replaced


def two_term_mutate(T: TwoTerm, orbit, sign: str) -> TwoTerm | None:
    return two_term_mutate_tracked(T, orbit, sign)[0]
