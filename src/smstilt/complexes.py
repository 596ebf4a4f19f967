"""Two-term complexes of projectives over A_n^ell and their mutation.

Morphisms between projectives are polynomials in the radical generator:
Hom(P_a, P_b) has basis x^s for 0 <= s <= ell with s = a - b (mod n),
composition adds exponents and truncates above ell.  Complexes are kept
as summand lists with polynomial differential entries; homotopy-category
Hom spaces, cones, minimisation and mutation are exact GF(2) linear
algebra on the polynomial coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import disc, gf
from .modcat import Algebra, _bar, _orbits


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
    A = Algebra(obj["n"], obj["ell"])
    summands = []
    for s in obj["summands"]:
        if "stalk" in s:
            summands.append(Stalk(s["stalk"], s["deg"]))
        else:
            summands.append(Arrow(s["src"], s["tgt"]))
    return TwoTerm(A, tuple(summands))


# -- polynomial arithmetic mod 2, truncated above x^ell ----------------------

def _pzero(A: Algebra) -> np.ndarray:
    return np.zeros(A.ell + 1, dtype=np.int64)


def _pmono(s: int, A: Algebra) -> np.ndarray:
    p = _pzero(A)
    p[s] = 1
    return p


def _pmul(a: np.ndarray, b: np.ndarray, A: Algebra) -> np.ndarray:
    return np.convolve(a, b)[:A.ell + 1] % 2


def _pinv(a: np.ndarray, A: Algebra) -> np.ndarray:
    assert a[0] == 1
    L = A.ell + 1
    b = _pzero(A)
    b[0] = 1
    for k in range(1, L):
        b[k] = int(a[1:k + 1] @ b[k - 1::-1]) % 2
    return b


def _pdivide(num: np.ndarray, den: np.ndarray, A: Algebra) -> np.ndarray:
    """num / den where den = x^s * unit and num is divisible by x^s."""
    s = int(np.nonzero(den)[0][0])
    assert not num[:s].any()
    unit = np.concatenate([den[s:], np.zeros(s, dtype=np.int64)])
    shifted = np.concatenate([num[s:], np.zeros(s, dtype=np.int64)])
    return _pmul(shifted, _pinv(unit, A), A)


# -- raw complexes of projectives --------------------------------------------

@dataclass
class ProjComplex:
    """A bounded complex of indecomposable projectives.

    summands[k] = (degree, projective index); diff maps position pairs
    (target, source) with deg(target) = deg(source) + 1 to polynomials.
    """

    algebra: Algebra
    summands: list[tuple[int, int]]
    diff: dict[tuple[int, int], np.ndarray]

    def degrees(self) -> set[int]:
        return {d for d, _ in self.summands}


def from_twoterm(T: TwoTerm) -> ProjComplex:
    A = T.algebra
    summands: list[tuple[int, int]] = []
    diff: dict[tuple[int, int], np.ndarray] = {}
    for s in T.summands:
        if isinstance(s, Stalk):
            summands.append((s.deg, s.idx))
        else:
            summands.append((-1, s.src))
            summands.append((0, s.tgt))
            diff[(len(summands) - 1, len(summands) - 2)] = \
                _pmono(_min_pos_degree(s.src, s.tgt, A), A)
    return ProjComplex(A, summands, diff)


def shift(C: ProjComplex, k: int) -> ProjComplex:
    """C[k]: content in degree d moves to degree d - k."""
    return ProjComplex(C.algebra, [(d - k, i) for d, i in C.summands], dict(C.diff))


def direct_sum(A: Algebra, blocks: list[ProjComplex]) -> tuple[ProjComplex, list[int]]:
    summands: list[tuple[int, int]] = []
    diff: dict[tuple[int, int], np.ndarray] = {}
    offsets = []
    for B in blocks:
        off = len(summands)
        offsets.append(off)
        summands.extend(B.summands)
        for (r, c), p in B.diff.items():
            diff[(r + off, c + off)] = p
    return ProjComplex(A, summands, diff), offsets


def _schur_update(diff: dict, r: int, c: int, A: Algebra, exact_divide: bool) -> None:
    """Clear row r and column c against the pivot (r, c), in place."""
    prc = diff[(r, c)]
    rows_i = [i for (i, cc) in diff if cc == c and i != r]
    cols_j = [j for (rr, j) in diff if rr == r and j != c]
    for i in rows_i:
        if exact_divide:
            lam = _pdivide(diff[(i, c)], prc, A)
        else:
            lam = _pmul(diff[(i, c)], _pinv(prc, A), A)
        for j in cols_j:
            q = (diff.get((i, j), _pzero(A)) + _pmul(lam, diff[(r, j)], A)) % 2
            if q.any():
                diff[(i, j)] = q
            elif (i, j) in diff:
                diff.pop((i, j))
    for key in [k for k in diff if k[0] == r or k[1] == c]:
        if key != (r, c):
            diff.pop(key)


def minimize(C: ProjComplex) -> ProjComplex:
    """Strip contractible pairs: cancel unit differential entries."""
    A = C.algebra
    summands = list(C.summands)
    diff = {k: v.copy() for k, v in C.diff.items()}
    while True:
        pivot = next((k for k in sorted(diff) if diff[k][0] == 1), None)
        if pivot is None:
            break
        r, c = pivot
        _schur_update(diff, r, c, A, exact_divide=False)
        diff.pop((r, c))
        keep = [k for k in range(len(summands)) if k not in (r, c)]
        remap = {old: new for new, old in enumerate(keep)}
        summands = [summands[k] for k in keep]
        # entries out of r or into c across degrees vanish after the basis
        # change (char 2), so dropping them needs no correction
        diff = {(remap[i], remap[j]): p for (i, j), p in diff.items()
                if i in remap and j in remap and p.any()}
    return ProjComplex(A, summands, diff)


def decompose_two_term(C: ProjComplex) -> tuple[Summand, ...] | None:
    """Split a minimal complex into stalks and arrows.

    Returns None when the complex does not fit in degrees {-1, 0}.
    Splitting pivots on a globally minimal-degree entry, whose row and
    column can always be cleared by automorphisms of the degreewise sums.
    """
    A = C.algebra
    if not C.degrees() <= {-1, 0}:
        return None
    summands: list = list(C.summands)
    diff = {k: v.copy() for k, v in C.diff.items()}
    out: list[Summand] = []
    while diff:
        (r, c), prc = min(diff.items(),
                          key=lambda kv: (int(np.nonzero(kv[1])[0][0]), kv[0]))
        s = int(np.nonzero(prc)[0][0])
        assert s >= 1, "minimize before decomposing"
        _schur_update(diff, r, c, A, exact_divide=True)
        diff.pop((r, c))
        a, b = summands[c][1], summands[r][1]
        assert s == _min_pos_degree(a, b, A), "non-canonical differential degree"
        out.append(Arrow(a, b))
        summands[r] = summands[c] = None
    for entry in summands:
        if entry is None:
            continue
        d, i = entry
        out.append(Stalk(i, d))
    return tuple(out)


def normalize(C: ProjComplex) -> TwoTerm | None:
    parts = decompose_two_term(minimize(C))
    if parts is None:
        return None
    return TwoTerm(C.algebra, parts)


# -- homotopy-category Hom spaces --------------------------------------------

class HomSet:
    """Chain maps T -> U modulo homotopy, as GF(2) coordinate vectors.

    Unknown coordinates run over (same-degree summand pair, valid
    polynomial degree); `cycles` spans the chain maps and `boundaries`
    the null-homotopic ones.
    """

    def __init__(self, T: ProjComplex, U: ProjComplex):
        A = T.algebra
        self.A, self.T, self.U = A, T, U
        L = A.ell + 1
        self.slots = [(ui, ti)
                      for ui, (du, _) in enumerate(U.summands)
                      for ti, (dt, _) in enumerate(T.summands) if du == dt]
        self.sidx = {st: k for k, st in enumerate(self.slots)}

        unknowns = []
        for k, (ui, ti) in enumerate(self.slots):
            a, b = T.summands[ti][1], U.summands[ui][1]
            for s in range((a - b) % A.n, L, A.n):
                unknowns.append((k, s))
        self.unknowns = unknowns
        self._colof = {ks: col for col, ks in enumerate(unknowns)}

        eqpairs = [(ti, ui) for ti, (dt, _) in enumerate(T.summands)
                   for ui, (du, _) in enumerate(U.summands) if du == dt + 1]
        eidx = {tp: k for k, tp in enumerate(eqpairs)}

        cond = np.zeros((L * len(eqpairs), len(unknowns)), dtype=np.int64)
        for col, (k, s) in enumerate(unknowns):
            ui, ti = self.slots[k]
            for (u2, u1), p in U.diff.items():
                if u1 != ui or (ti, u2) not in eidx:
                    continue
                base = eidx[(ti, u2)] * L
                for t in range(s, L):
                    if p[t - s]:
                        cond[base + t, col] ^= 1
            for (t1, t2), p in T.diff.items():
                if t1 != ti or (t2, ui) not in eidx:
                    continue
                base = eidx[(t2, ui)] * L
                for t in range(s, L):
                    if p[t - s]:
                        cond[base + t, col] ^= 1
        if unknowns:
            self.cycles = gf.nullspace(cond)
        else:
            self.cycles = np.zeros((0, 0), dtype=np.int64)

        hslots = [(ui, ti) for ui, (du, _) in enumerate(U.summands)
                  for ti, (dt, _) in enumerate(T.summands) if du == dt - 1]
        brows = []
        for (ui, ti) in hslots:
            a, b = T.summands[ti][1], U.summands[ui][1]
            for s in range((a - b) % A.n, L, A.n):
                vec = np.zeros(len(unknowns), dtype=np.int64)
                for (u2, u1), p in U.diff.items():
                    if u1 == ui and (u2, ti) in self.sidx:
                        self._add_poly(vec, (u2, ti), p, s)
                for (t1, t2), p in T.diff.items():
                    if t1 == ti and (ui, t2) in self.sidx:
                        self._add_poly(vec, (ui, t2), p, s)
                if vec.any():
                    brows.append(vec)
        self.boundaries = (np.array(brows, dtype=np.int64) if brows
                           else np.zeros((0, len(unknowns)), dtype=np.int64))
        self._br, self._bpiv = gf.rref(self.boundaries)
        self.dim = self.cycles.shape[0] - gf.rank(self.boundaries)

    def _add_poly(self, vec, slot, p, s):
        """vec += x^s * p in the coordinates of the given slot."""
        k = self.sidx[slot]
        for t in range(s, self.A.ell + 1):
            if p[t - s]:
                vec[self._colof[(k, t)]] ^= 1

    def basis(self) -> list[np.ndarray]:
        """Cycle representatives spanning Hom_K, independent mod boundaries."""
        return [self.cycles[k] for k in gf.independent_mod(self.boundaries, self.cycles)]

    def reduce(self, vec: np.ndarray) -> np.ndarray:
        return gf.reduce_rows(self._br, self._bpiv, vec)

    def to_map(self, vec: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
        f: dict[tuple[int, int], np.ndarray] = {}
        for col, (k, s) in enumerate(self.unknowns):
            if vec[col]:
                slot = self.slots[k]
                if slot not in f:
                    f[slot] = _pzero(self.A)
                f[slot][s] = 1
        return f

    def from_map(self, f: dict[tuple[int, int], np.ndarray]) -> np.ndarray:
        vec = np.zeros(len(self.unknowns), dtype=np.int64)
        for (ui, ti), p in f.items():
            k = self.sidx[(ui, ti)]
            for s in np.nonzero(p)[0]:
                vec[self._colof[(k, int(s))]] ^= 1
        return vec


def compose_maps(g: dict, f: dict, A: Algebra) -> dict:
    """Composite of chain maps f: F -> G and g: G -> H (position-indexed)."""
    out: dict[tuple[int, int], np.ndarray] = {}
    for (hi, gi), pg in g.items():
        for (gi2, fi), pf in f.items():
            if gi2 != gi:
                continue
            q = (out.get((hi, fi), _pzero(A)) + _pmul(pg, pf, A)) % 2
            if q.any():
                out[(hi, fi)] = q
            elif (hi, fi) in out:
                out.pop((hi, fi))
    return out


def cone(f: dict, X: ProjComplex, Y: ProjComplex) -> ProjComplex:
    """Mapping cone of the chain map f: X -> Y."""
    A = X.algebra
    summands = [(d - 1, i) for d, i in X.summands] + list(Y.summands)
    off = len(X.summands)
    diff: dict[tuple[int, int], np.ndarray] = {}
    for (r, c), p in X.diff.items():
        diff[(r, c)] = p.copy()
    for (r, c), p in Y.diff.items():
        diff[(r + off, c + off)] = p.copy()
    for (ui, ti), p in f.items():
        diff[(ui + off, ti)] = p.copy()
    return ProjComplex(A, summands, diff)


def hom_complex_dim(T: TwoTerm, U: TwoTerm, k: int) -> int:
    """dim Hom_K(T, U[k]); zero automatically for |k| >= 2."""
    if T.algebra != U.algebra:
        raise ValueError("complexes live over different algebras")
    if abs(k) >= 2:
        return 0
    return HomSet(from_twoterm(T), shift(from_twoterm(U), k)).dim


# -- silting / tilting --------------------------------------------------------

def _int_det(M: list[list[int]]) -> int:
    """Fraction-free Gaussian elimination (Bareiss)."""
    M = [row[:] for row in M]
    n = len(M)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k]), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[-1][-1]


def summand_class(s: Summand, A: Algebra) -> list[int]:
    v = [0] * A.n
    if isinstance(s, Stalk):
        v[s.idx - 1] = 1 if s.deg == 0 else -1
    else:
        v[s.tgt - 1] += 1
        v[s.src - 1] -= 1
    return v


def is_silting(T: TwoTerm) -> bool:
    A = T.algebra
    if len(T.summands) != A.n or len(set(T.summands)) != A.n:
        return False
    if hom_complex_dim(T, T, 1) != 0:
        return False
    return abs(_int_det([summand_class(s, A) for s in T.summands])) == 1


def nu_summand(s: Summand, A: Algebra) -> Summand:
    if isinstance(s, Stalk):
        return Stalk(_bar(s.idx - A.ell, A.n), s.deg)
    return Arrow(_bar(s.src - A.ell, A.n), _bar(s.tgt - A.ell, A.n))


def nu_complex(T: TwoTerm) -> TwoTerm:
    return TwoTerm(T.algebra, tuple(nu_summand(s, T.algebra) for s in T.summands))


def is_tilting(T: TwoTerm) -> bool:
    return (is_silting(T) and hom_complex_dim(T, T, -1) == 0
            and nu_complex(T) == T)


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

def _summand_complex(s: Summand, A: Algebra) -> ProjComplex:
    return from_twoterm(TwoTerm(A, (s,)))


@lru_cache(maxsize=None)
def _summand_homset(a: Summand, b: Summand, A: Algebra) -> HomSet:
    """Hom_K between two single-summand complexes; callers must not mutate it."""
    return HomSet(_summand_complex(a, A), _summand_complex(b, A))


def _is_nilpotent(z: np.ndarray, HS: HomSet, A: Algebra) -> bool:
    f = HS.to_map(z)
    acc = f
    for _ in range(len(HS.unknowns) + 1):
        acc = compose_maps(acc, f, A)
        if not HS.reduce(HS.from_map(acc)).any():
            return True
    return False


@lru_cache(maxsize=None)
def _summand_radical(a: Summand, b: Summand, A: Algebra) -> tuple[dict, ...]:
    """Chain maps spanning the non-isomorphisms a -> b modulo homotopy."""
    HS = _summand_homset(a, b, A)
    basis = HS.basis()
    if a != b:
        return tuple(HS.to_map(z) for z in basis)
    # radical of the local ring End(a) = its nilpotent classes
    chis = [0 if _is_nilpotent(z, HS, A) else 1 for z in basis]
    t0 = next((t for t, chi in enumerate(chis) if chi), None)
    if t0 is None:
        raise RuntimeError(f"no unit in the endomorphism ring of {a}")
    return tuple(HS.to_map((z + chis[t] * basis[t0]) % 2)
                 for t, z in enumerate(basis) if t != t0)


def _irreducible_maps(a: Summand, b: Summand, mids, A: Algebra) -> list[dict]:
    """Radical maps a -> b whose classes form a basis of rad(a, b) modulo
    homotopy and the composites rad(c, b) . rad(a, c) over c in mids."""
    HS = _summand_homset(a, b, A)
    rad = _summand_radical(a, b, A)
    if not rad:
        return []
    through = [HS.from_map(compose_maps(g, f, A)) for c in mids
               for f in _summand_radical(a, c, A) for g in _summand_radical(c, b, A)]
    ideal = np.concatenate([HS.boundaries,
                            np.array(through, dtype=np.int64).reshape(-1, len(HS.unknowns))])
    keep = gf.independent_mod(ideal, np.array([HS.from_map(f) for f in rad]))
    return [rad[k] for k in keep]


def _min_approx(s: Summand, rest, A: Algebra, left: bool):
    """Minimal left (or right) add(rest)-approximation of the summand s in the
    homotopy category, as (direct sum of summand complexes, chain map).

    The components into (out of) m are a basis of Hom_K(s, m) modulo the
    composites through rad(add rest), so no summand can be dropped.
    """
    items = [(m, f) for m in sorted(set(rest), key=lambda x: x.sort_key())
             for f in _irreducible_maps(*((s, m) if left else (m, s)), rest, A)]
    Mc, offs = direct_sum(A, [_summand_complex(m, A) for m, _ in items])
    gmap: dict[tuple[int, int], np.ndarray] = {}
    for (_, f), off in zip(items, offs):
        for (ui, ti), p in f.items():
            gmap[(ui + off, ti) if left else (ui, ti + off)] = p
    return Mc, gmap


def two_term_mutate_tracked(T: TwoTerm, orbit, sign: str):
    """Mutate at a minimal Nakayama-stable summand set.

    Returns (mutated complex, {orbit summand: replacement}) or (None, None)
    when the mutation leaves the two-term window.
    """
    if sign not in ("minus", "plus"):
        raise ValueError(f"sign must be minus or plus, got {sign!r}")
    A = T.algebra
    orbit = frozenset(orbit)
    if not orbit or not orbit <= set(T.summands):
        raise ValueError("orbit is not a set of summands of the complex")
    if {nu_summand(s, A) for s in orbit} != orbit:
        raise ValueError("orbit is not Nakayama-stable")
    probe = min(orbit, key=lambda s: s.sort_key())
    cycle: set[Summand] = set()
    x = probe
    while x not in cycle:
        cycle.add(x)
        x = nu_summand(x, A)
    if frozenset(cycle) != orbit:
        raise ValueError("orbit is not minimal Nakayama-stable")

    rest = [s for s in T.summands if s not in orbit]
    replaced: dict[Summand, Summand] = {}
    for s in sorted(orbit, key=lambda x: x.sort_key()):
        Xc = _summand_complex(s, A)
        Mc, gmap = _min_approx(s, rest, A, left=sign == "minus")
        if sign == "minus":
            U = normalize(cone(gmap, Xc, Mc))
        else:
            U = normalize(shift(minimize(cone(gmap, Mc, Xc)), -1))
        if U is None:
            return None, None
        if len(U.summands) != 1:
            raise RuntimeError(f"mutation of {s} produced {len(U.summands)} summands")
        replaced[s] = U.summands[0]
    result = TwoTerm(A, tuple(rest) + tuple(replaced.values()))
    if len(set(result.summands)) != len(T.summands):
        raise RuntimeError("mutation produced a non-basic complex")
    return result, replaced


def two_term_mutate(T: TwoTerm, orbit, sign: str) -> TwoTerm | None:
    return two_term_mutate_tracked(T, orbit, sign)[0]


# -- endomorphism quiver -------------------------------------------------------

def end_quiver(T: TwoTerm) -> dict[tuple[Summand, Summand], int]:
    """Arrow counts dim rad/rad^2 of End(T) between the summands of T."""
    if not is_tilting(T):
        raise ValueError("end_quiver requires a tilting complex")
    arrows: dict[tuple[Summand, Summand], int] = {}
    for a in T.summands:
        for b in T.summands:
            count = len(_irreducible_maps(a, b, T.summands, T.algebra))
            if count:
                arrows[(a, b)] = count
    return arrows
