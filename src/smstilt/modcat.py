"""Exact model of mod-A and its stable category for a self-injective
Nakayama algebra A with n simples and Loewy length ell+1.

Every indecomposable module is uniserial and determined by its socle and
Loewy length, written Ind(socle, length).  Composition factors of
Ind(i, l), read from the top, are S_{i-l+1}, ..., S_i (indices mod n).
Morphisms are realised as concrete matrices on composition-factor bases
over GF(p), and all homological operators (syzygies, cones, minimal
approximations, extension closures) reduce to exact rank computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from . import gf


@dataclass(frozen=True)
class Algebra:
    """The self-injective Nakayama algebra with n simples, Loewy length ell+1."""

    n: int
    ell: int

    def __post_init__(self):
        if self.n < 1 or self.ell < 1:
            raise ValueError(f"invalid algebra parameters n={self.n}, ell={self.ell}")

    @property
    def e(self) -> int:
        return math.gcd(self.n, self.ell)

    @property
    def loewy(self) -> int:
        return self.ell + 1


@dataclass(frozen=True, order=True)
class Ind:
    """Uniserial module with given socle index (1..n) and Loewy length."""

    socle: int
    length: int

    def to_json(self):
        return {"socle": self.socle, "length": self.length}


ModSum = tuple  # formal direct sum, a sorted tuple of Ind


def _bar(i: int, n: int) -> int:
    """Representative of i in 1..n."""
    return (i - 1) % n + 1


def check_ind(M: Ind, A: Algebra) -> None:
    if not (1 <= M.socle <= A.n and 1 <= M.length <= A.loewy):
        raise ValueError(f"{M} is not a module over A_{A.n}^{A.ell}")


def is_projective(M: Ind, A: Algebra) -> bool:
    return M.length == A.loewy


def top(M: Ind, A: Algebra) -> int:
    return _bar(M.socle - M.length + 1, A.n)


def proj_of_top(i: int, A: Algebra) -> Ind:
    """The projective cover P_i of the simple S_i, as an Ind."""
    return Ind(_bar(i + A.ell, A.n), A.loewy)


def all_inds(A: Algebra) -> list[Ind]:
    return [Ind(i, l) for l in range(1, A.loewy + 1) for i in range(1, A.n + 1)]


def nonprojective_inds(A: Algebra) -> list[Ind]:
    return [M for M in all_inds(A) if not is_projective(M, A)]


# ---------------------------------------------------------------------------
# Syzygy, AR and Nakayama operators on coordinates.
#
# Omega^{-1}(i, l) = (i - l, ell + 1 - l); Omega is derived as its inverse
# (i + ell + 1 - l, ell + 1 - l), and nu(i, l) = (i - ell, l) so that
# tau = nu . Omega^2 holds on the nose.  All three reduce to the familiar
# formulas when n | ell.
# ---------------------------------------------------------------------------

def omega(M: Ind, A: Algebra) -> Ind:
    check_ind(M, A)
    if is_projective(M, A):
        raise ValueError(f"omega undefined on projective {M}")
    return Ind(_bar(M.socle + A.ell + 1 - M.length, A.n), A.loewy - M.length)


def omega_inv(M: Ind, A: Algebra) -> Ind:
    check_ind(M, A)
    if is_projective(M, A):
        raise ValueError(f"omega_inv undefined on projective {M}")
    return Ind(_bar(M.socle - M.length, A.n), A.loewy - M.length)


def tau(M: Ind, A: Algebra) -> Ind:
    check_ind(M, A)
    if is_projective(M, A):
        raise ValueError(f"tau undefined on projective {M}")
    return Ind(_bar(M.socle + 1, A.n), M.length)


def nu(M: Ind, A: Algebra) -> Ind:
    check_ind(M, A)
    return Ind(_bar(M.socle - A.ell, A.n), M.length)


def _orbits(items, step, error: str) -> list[frozenset]:
    """Cycles of the permutation `step` on `items`, in order of first
    member; raises ValueError(error) when `step` leaves `items`."""
    seen: set = set()
    orbits = []
    for x in items:
        if x in seen:
            continue
        orbit = set()
        while x not in orbit:
            if x not in items:
                raise ValueError(error)
            orbit.add(x)
            x = step(x)
        seen |= orbit
        orbits.append(frozenset(orbit))
    return orbits


def nu_cycle_count(A: Algebra) -> int:
    """Number of cycles of i -> i - ell on Z/n (equals gcd(n, ell))."""
    return len(_orbits(range(1, A.n + 1), lambda i: _bar(i - A.ell, A.n),
                       "nu does not permute Z/n"))


# ---------------------------------------------------------------------------
# Hom spaces.  A nonzero map Ind(i,l) -> Ind(j,r) has image the length-t
# submodule of the target; the valid overlap lengths are
#   t in [1, min(l, r)],  t = j - i + l  (mod n),
# and the corresponding basis map f_t sends depth s (from the top) of the
# source to depth r - t + s of the target.
# ---------------------------------------------------------------------------

def overlap_lengths(M: Ind, N: Ind, A: Algebra) -> list[int]:
    res = (N.socle - M.socle + M.length) % A.n
    lo = res if res != 0 else A.n
    return list(range(lo, min(M.length, N.length) + 1, A.n))


def hom_dim(M: Ind, N: Ind, A: Algebra) -> int:
    check_ind(M, A)
    check_ind(N, A)
    return len(overlap_lengths(M, N, A))


def _hom_matrix(M: Ind, N: Ind, t: int) -> np.ndarray:
    f = np.zeros((N.length, M.length), dtype=np.int64)
    for s in range(t):
        f[N.length - t + s, s] = 1
    return f


def as_sum(M) -> ModSum:
    return (M,) if isinstance(M, Ind) else tuple(M)


def sum_dim(M: ModSum) -> int:
    return sum(m.length for m in M)


def sum_offsets(M: ModSum) -> list[int]:
    offs = [0]
    for m in M:
        offs.append(offs[-1] + m.length)
    return offs


def vertex_vector(M: ModSum, A: Algebra) -> list[int]:
    vv = []
    for m in M:
        t = top(m, A)
        vv.extend(_bar(t + s, A.n) for s in range(m.length))
    return vv


def shift_matrix(M: ModSum) -> np.ndarray:
    """The nilpotent radical action on the flattened basis of M."""
    d = sum_dim(M)
    D = np.zeros((d, d), dtype=np.int64)
    pos = 0
    for m in M:
        for s in range(m.length - 1):
            D[pos + s + 1, pos + s] = 1
        pos += m.length
    return D


def hom_basis(M, N, A: Algebra) -> list[np.ndarray]:
    """Basis of Hom(M, N) as full matrices on the flattened bases."""
    Ms, Ns = as_sum(M), as_sum(N)
    moffs, noffs = sum_offsets(Ms), sum_offsets(Ns)
    dm, dn = sum_dim(Ms), sum_dim(Ns)
    basis = []
    for bi, b in enumerate(Ns):
        for ai, a in enumerate(Ms):
            for t in overlap_lengths(a, b, A):
                f = np.zeros((dn, dm), dtype=np.int64)
                f[noffs[bi]:noffs[bi + 1], moffs[ai]:moffs[ai + 1]] = _hom_matrix(a, b, t)
                basis.append(f)
    return basis


@dataclass(frozen=True)
class ModMap:
    """A module map between formal direct sums, as one dense matrix."""

    source: ModSum
    target: ModSum
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.int64) % 2
        object.__setattr__(self, "matrix", m)
        if m.shape != (sum_dim(self.target), sum_dim(self.source)):
            raise ValueError("matrix shape does not match source/target")

    def check(self, A: Algebra) -> None:
        """Verify grading and intertwining with the radical action."""
        vs = vertex_vector(self.source, A)
        vt = vertex_vector(self.target, A)
        for r in range(self.matrix.shape[0]):
            for c in range(self.matrix.shape[1]):
                if self.matrix[r, c] and vt[r] != vs[c]:
                    raise ValueError("map does not respect the vertex grading")
        Ds, Dt = shift_matrix(self.source), shift_matrix(self.target)
        if ((Dt @ self.matrix - self.matrix @ Ds) % 2).any():
            raise ValueError("map does not intertwine the radical action")


def zero_map(M, N) -> ModMap:
    Ms, Ns = as_sum(M), as_sum(N)
    return ModMap(Ms, Ns, np.zeros((sum_dim(Ns), sum_dim(Ms)), dtype=np.int64))


def proj_cover(M: Ind, A: Algebra) -> tuple[Ind, ModMap]:
    """Projective cover P_{top(M)} with its canonical surjection onto M."""
    check_ind(M, A)
    P = proj_of_top(top(M, A), A)
    pi = ModMap((P,), (M,), _hom_matrix(P, M, M.length))
    return P, pi


def _proj_cover_sum(N: ModSum, A: Algebra) -> tuple[ModSum, np.ndarray]:
    Ps = tuple(proj_of_top(top(b, A), A) for b in N)
    poffs, noffs = sum_offsets(Ps), sum_offsets(N)
    pi = np.zeros((sum_dim(N), sum_dim(Ps)), dtype=np.int64)
    for k, b in enumerate(N):
        pi[noffs[k]:noffs[k + 1], poffs[k]:poffs[k + 1]] = _hom_matrix(Ps[k], b, b.length)
    return Ps, pi


def factor_rows(M, N, A: Algebra, p: int = 2) -> np.ndarray:
    """Rows spanning the maps M -> N that factor through a projective.

    Every such map factors through the projective cover of N, so the span
    of pi . u over u in Hom(M, P(N)) is the whole subspace.
    """
    Ms, Ns = as_sum(M), as_sum(N)
    Ps, pi = _proj_cover_sum(Ns, A)
    rows = [((pi @ u) % p).reshape(-1) for u in hom_basis(Ms, Ps, A)]
    if not rows:
        return np.zeros((0, sum_dim(Ns) * sum_dim(Ms)), dtype=np.int64)
    return np.array(rows, dtype=np.int64)


@lru_cache(maxsize=None)
def _stable_hom_dim_cached(M: Ind, N: Ind, A: Algebra, p: int) -> int:
    full = hom_dim(M, N, A)
    if full == 0:
        return 0
    return full - gf.rank(factor_rows(M, N, A, p), p)


def stable_hom_dim(M, N, A: Algebra, p: int = 2) -> int:
    """dim of Hom(M, N) modulo maps factoring through projectives."""
    Ms, Ns = as_sum(M), as_sum(N)
    if len(Ms) == 1 and len(Ns) == 1:
        return _stable_hom_dim_cached(Ms[0], Ns[0], A, p)
    return sum(_stable_hom_dim_cached(a, b, A, p) for a in Ms for b in Ns)


def stable_reps(M, N, A: Algebra, p: int = 2) -> list[np.ndarray]:
    """Hom-basis elements spanning Hom(M, N) modulo the factoring subspace."""
    Ms, Ns = as_sum(M), as_sum(N)
    basis = hom_basis(Ms, Ns, A)
    if not basis:
        return []
    rows = np.array([f.reshape(-1) for f in basis])
    return [basis[k] for k in gf.independent_mod(factor_rows(Ms, Ns, A, p), rows, p)]


# ---------------------------------------------------------------------------
# Quotient modules and Krull-Schmidt decomposition.
# ---------------------------------------------------------------------------

def decompose(vertexvec: list[int], D: np.ndarray, A: Algebra, p: int = 2) -> dict[Ind, int]:
    """Multiplicities of the uniserial summands of (V, D).

    V is given by a vertex label per basis vector and the graded nilpotent
    D.  The multiplicity of Ind(i, l) is
      dim(Soc_i ∩ im D^{l-1}) - dim(Soc_i ∩ im D^l)
    where Soc_i is the vertex-i part of ker D.
    """
    dim = len(vertexvec)
    if dim == 0:
        return {}
    L = A.loewy
    images = [np.eye(dim, dtype=np.int64)]
    Dk = np.eye(dim, dtype=np.int64)
    for _ in range(L):
        Dk = (D @ Dk) % p
        images.append(Dk.T.copy())  # rows span the image of D^k

    soc: dict[int, np.ndarray] = {}
    for i in range(1, A.n + 1):
        off = [r for r in range(dim) if vertexvec[r] != i]
        sel = np.zeros((len(off), dim), dtype=np.int64)
        for k, r in enumerate(off):
            sel[k, r] = 1
        soc[i] = gf.nullspace(np.concatenate([D, sel]) if len(off) else D, p)

    mult: dict[Ind, int] = {}
    for i in range(1, A.n + 1):
        if soc[i].shape[0] == 0:
            continue
        dims = [gf.intersection_dim(soc[i], images[k], p) for k in range(L + 1)]
        for l in range(1, L + 1):
            m = dims[l - 1] - dims[l]
            if m:
                mult[Ind(i, l)] = m
    assert sum(k.length * v for k, v in mult.items()) == dim
    return mult


def _quotient(target: ModSum, F: np.ndarray, A: Algebra, p: int = 2):
    """The module (target)/colspan(F): vertex vector and induced nilpotent."""
    vt = vertex_vector(target, A)
    D = shift_matrix(target)
    R, piv = gf.rref(F.T, p)
    keep = [c for c in range(len(vt)) if c not in set(piv)]
    vv = [vt[c] for c in keep]
    DQ = np.zeros((len(keep), len(keep)), dtype=np.int64)
    for j, c in enumerate(keep):
        w = gf.reduce_rows(R, piv, D[:, c], p)
        for i, r in enumerate(keep):
            DQ[i, j] = w[r]
    return vv, DQ


def pushout_decompose(g: ModMap, A: Algebra, p: int = 2) -> dict[Ind, int]:
    """Decomposition of the pushout (I(M) ⊕ N)/M along (inclusion, g)."""
    Ms, Ns = g.source, g.target
    Is = tuple(Ind(m.socle, A.loewy) for m in Ms)
    ioffs, moffs = sum_offsets(Is), sum_offsets(Ms)
    iota = np.zeros((sum_dim(Is), sum_dim(Ms)), dtype=np.int64)
    for k, m in enumerate(Ms):
        iota[ioffs[k]:ioffs[k + 1], moffs[k]:moffs[k + 1]] = _hom_matrix(m, Is[k], m.length)
    F = np.concatenate([iota, g.matrix])
    vv, DQ = _quotient(Is + Ns, F, A, p)
    return decompose(vv, DQ, A, p)


def cone_of_stable_map(g: ModMap, A: Algebra, p: int = 2) -> ModSum:
    """Cone of a stable map M -> N, with projective summands discarded.

    Realised as the pushout of the injective envelope of M and g; the
    triangle M -> N -> C -> Omega^{-1} M holds in the stable category.
    """
    for m in g.source + g.target:
        if is_projective(m, A):
            raise ValueError("cone arguments must have no projective summands")
    g.check(A)
    mult = pushout_decompose(g, A, p)
    parts: list[Ind] = []
    for ind in sorted(mult):
        if not is_projective(ind, A):
            parts.extend([ind] * mult[ind])
    return tuple(parts)


# ---------------------------------------------------------------------------
# Minimal approximations.
# ---------------------------------------------------------------------------

def _radical(M: Ind, N: Ind, A: Algebra) -> list[np.ndarray]:
    """Hom-basis elements spanning the non-isomorphisms M -> N.

    For M = N the identity is the last basis map (overlap t = length).
    """
    basis = hom_basis(M, N, A)
    return basis[:-1] if M == N else basis


def _min_approx(Z: Ind, C, A: Algebra, p: int, left: bool) -> ModMap:
    """Minimal left (or right) add(C)-approximation of Z, computed directly.

    The multiplicity of c in C is the dimension of stable Hom(Z, c) modulo
    the radical composites rad(c', c) . Hom(Z, c') over c' in C (dually
    Hom(c', Z) . rad(c, c')), and a basis of that quotient gives the
    components of the map.
    """
    check_ind(Z, A)
    cs = sorted(set(C))
    pair = {c: ((Z,), (c,)) if left else ((c,), (Z,)) for c in cs}
    reps = {c: stable_reps(*pair[c], A, p) for c in cs}
    pieces: list[tuple[Ind, np.ndarray]] = []
    for c in cs:
        if not reps[c]:
            continue
        ideal = [factor_rows(*pair[c], A, p)]
        for c2 in cs:
            for u in (_radical(c2, c, A) if left else _radical(c, c2, A)):
                ideal.extend(((u @ f if left else f @ u) % p).reshape(1, -1) for f in reps[c2])
        rows = np.array([f.reshape(-1) for f in reps[c]])
        pieces.extend((c, reps[c][k]) for k in gf.independent_mod(np.concatenate(ideal), rows, p))
    Xs = tuple(c for c, _ in pieces)
    mat = (np.concatenate([f for _, f in pieces], axis=0 if left else 1) if pieces
           else np.zeros((0, Z.length) if left else (Z.length, 0), dtype=np.int64))
    return ModMap((Z,), Xs, mat) if left else ModMap(Xs, (Z,), mat)


def min_left_approx(Z: Ind, C, A: Algebra, p: int = 2) -> ModMap:
    """Minimal left approximation Z -> X with X a direct sum from the set C:
    every stable map Z -> c, c in C, factors through it."""
    return _min_approx(Z, C, A, p, left=True)


def min_right_approx(C, Z: Ind, A: Algebra, p: int = 2) -> ModMap:
    """Minimal right approximation X -> Z with X a direct sum from the set C."""
    return _min_approx(Z, C, A, p, left=False)


# ---------------------------------------------------------------------------
# Extensions.
# ---------------------------------------------------------------------------

def _strip_projectives(E: ModSum, A: Algebra) -> ModSum:
    return tuple(m for m in E if not is_projective(m, A))


def _core_middle_terms(B: ModSum, C: ModSum, A: Algebra, p: int = 2) -> set[ModSum]:
    """Middle terms of short exact sequences 0 -> B -> E -> C -> 0 with B, C
    projective-free, via pushouts of 0 -> Omega C -> P(C) -> C -> 0 along
    representatives of Ext^1(C, B) = stable Hom(Omega C, B)."""
    if not C:
        return {B}
    if not B:
        return {C}
    OC = tuple(omega(c, A) for c in C)
    Ps, _ = _proj_cover_sum(C, A)
    ooffs, poffs = sum_offsets(OC), sum_offsets(Ps)
    iota = np.zeros((sum_dim(Ps), sum_dim(OC)), dtype=np.int64)
    for k, oc in enumerate(OC):
        # Omega C_k is the kernel of P(C_k) ->> C_k, included socle-on-socle.
        iota[poffs[k]:poffs[k + 1], ooffs[k]:ooffs[k + 1]] = _hom_matrix(oc, Ps[k], oc.length)
    reps = stable_reps(OC, B, A, p)
    out: set[ModSum] = set()
    for coeffs in product(range(p), repeat=len(reps)):
        theta = np.zeros((sum_dim(B), sum_dim(OC)), dtype=np.int64)
        for c, rep in zip(coeffs, reps):
            theta = (theta + c * rep) % p
        F = np.concatenate([theta, iota])
        vv, DQ = _quotient(B + Ps, F, A, p)
        mult = decompose(vv, DQ, A, p)
        E: list[Ind] = []
        for ind in sorted(mult):
            E.extend([ind] * mult[ind])
        out.add(tuple(E))
    return out


def extension_middle_terms(B, C, A: Algebra, p: int = 2) -> set[ModSum]:
    """All iso-classes E with a short exact sequence 0 -> B -> E -> C -> 0."""
    Bs, Cs = as_sum(B), as_sum(C)
    for m in Bs + Cs:
        check_ind(m, A)
    bp = tuple(m for m in Bs if is_projective(m, A))
    cp = tuple(m for m in Cs if is_projective(m, A))
    core = _core_middle_terms(_strip_projectives(Bs, A), _strip_projectives(Cs, A), A, p)
    return {tuple(sorted(E + bp + cp)) for E in core}


@dataclass(frozen=True)
class ExtensionClosure:
    objects: frozenset
    indecomposables: frozenset


def extension_closure(S, A: Algebra, bound: int) -> ExtensionClosure:
    """Closure of S ∪ {0} under stable-category extensions, as projective-free
    representatives of total dimension at most `bound`."""
    gens = sorted({s if isinstance(s, Ind) else Ind(*s) for s in S})
    for s in gens:
        check_ind(s, A)
        if is_projective(s, A):
            raise ValueError("extension closure generators must be non-projective")
    objects: set[ModSum] = {()}
    work: list[ModSum] = [()]
    while work:
        Bobj = work.pop()
        for s in gens:
            if sum_dim(Bobj) + s.length > bound:
                continue
            for E in _core_middle_terms(Bobj, (s,), A):
                Es = _strip_projectives(E, A)
                if sum_dim(Es) <= bound and Es not in objects:
                    objects.add(Es)
                    work.append(Es)
    inds = frozenset(o[0] for o in objects if len(o) == 1)
    return ExtensionClosure(frozenset(objects), inds)


@lru_cache(maxsize=None)
def closure_inds(K: ModSum, A: Algebra) -> tuple[Ind, ...]:
    """Indecomposable members of the extension closure of the set K."""
    cl = extension_closure(K, A, bound=A.ell)
    return tuple(sorted(cl.indecomposables))
