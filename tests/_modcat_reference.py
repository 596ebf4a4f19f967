"""Test-local dense model of the module side on numpy int64 arrays: Hom
bases, the radical action, the maps through the projective cover, quotient
modules and the Krull-Schmidt decomposition, each a whole matrix over GF(p).
The package computes them on packed columns (`smstilt.modcat`), so this is
the route it is checked against.  Only the module combinatorics (offsets,
overlap lengths, vertex labels) come from the package."""

import numpy as np

from smstilt import modcat
from smstilt.modcat import Ind, as_sum, proj_of_top, sum_dim, sum_offsets, top, vertex_vector

from _gf_reference import normalize, rref


def hom_matrix(M: Ind, N: Ind, t: int) -> np.ndarray:
    f = np.zeros((N.length, M.length), dtype=np.int64)
    for s in range(t):
        f[N.length - t + s, s] = 1
    return f


def shift_matrix(M) -> np.ndarray:
    """The nilpotent radical action on the flattened basis of M."""
    D = np.zeros((sum_dim(M), sum_dim(M)), dtype=np.int64)
    pos = 0
    for m in M:
        for s in range(m.length - 1):
            D[pos + s + 1, pos + s] = 1
        pos += m.length
    return D


def hom_basis(M, N, A) -> list[np.ndarray]:
    """Basis of Hom(M, N) as full matrices on the flattened bases."""
    Ms, Ns = as_sum(M), as_sum(N)
    moffs, noffs = sum_offsets(Ms), sum_offsets(Ns)
    basis = []
    for bi, b in enumerate(Ns):
        for ai, a in enumerate(Ms):
            for t in modcat.overlap_lengths(a, b, A):
                f = np.zeros((sum_dim(Ns), sum_dim(Ms)), dtype=np.int64)
                f[noffs[bi]:noffs[bi + 1], moffs[ai]:moffs[ai + 1]] = hom_matrix(a, b, t)
                basis.append(f)
    return basis


def diagonal(Ms, Ns) -> np.ndarray:
    """Block k: the map Ms[k] -> Ns[k] of the longest overlap."""
    moffs, noffs = sum_offsets(Ms), sum_offsets(Ns)
    F = np.zeros((sum_dim(Ns), sum_dim(Ms)), dtype=np.int64)
    for k, (a, b) in enumerate(zip(Ms, Ns)):
        F[noffs[k]:noffs[k + 1], moffs[k]:moffs[k + 1]] = hom_matrix(a, b, min(a.length, b.length))
    return F


def factor_rows(M, N, A, p: int = 2) -> np.ndarray:
    """Rows spanning the maps M -> N through the projective cover of N: the
    composites pi . u over u in Hom(M, P(N)), one flattened row each."""
    Ms, Ns = as_sum(M), as_sum(N)
    Ps = tuple(proj_of_top(top(b, A), A) for b in Ns)
    pi = diagonal(Ps, Ns)
    rows = [(pi @ u).reshape(-1) for u in hom_basis(Ms, Ps, A)]
    return np.array(rows, dtype=np.int64).reshape(len(rows), sum_dim(Ns) * sum_dim(Ms)) % p


def quotient(target, F, A, p: int = 2):
    """The module (target)/colspan(F): vertex vector and induced nilpotent."""
    vt = vertex_vector(target, A)
    R, piv = rref(np.asarray(F).T, p)
    W = np.zeros((len(vt), len(vt)), dtype=np.int64)
    for c, v in enumerate(shift_matrix(target).T):  # row c of W: column c reduced
        for i, pc in enumerate(piv):
            if v[pc]:
                v = (v - v[pc] * R[i]) % p
        W[c] = v
    keep = sorted(set(range(len(vt))) - set(piv))
    return [vt[c] for c in keep], W[np.ix_(keep, keep)].T


def decompose(vertexvec, D, A, p: int = 2) -> dict:
    """Multiplicities of the uniserial summands of (V, D), from the
    vertex-j dimensions H(j, k) of rad^k V = im D^k."""
    n, L = A.n, A.loewy
    vv = np.asarray(vertexvec, dtype=np.int64)
    DT = normalize(D, p).T if len(vv) else np.zeros((0, 0), dtype=np.int64)
    if DT[vv[:, None] % n + 1 != vv[None, :]].any():
        raise ValueError("decompose: D does not send vertex i to vertex i+1")
    H = np.zeros((n, L + 2), dtype=np.int64)
    H[:, 0] = np.bincount(vv - 1, minlength=n)
    R = DT
    for k in range(1, L + 1):
        R, piv = rref(R, p)
        if not piv:
            break
        H[:, k] = np.bincount(vv[piv] - 1, minlength=n)
        R = (R @ DT) % p
    longer = H[:, :-1] - np.roll(H, -1, axis=0)[:, 1:]  # [j-1, k]: socle j, length > k
    mult = longer[:, :-1] - longer[:, 1:]  # [j-1, l-1]: multiplicity of Ind(j, l)
    if (mult < 0).any() or (mult * np.arange(1, L + 1)).sum() != len(vv):
        raise ValueError(f"decompose: (V, D) is not a module of Loewy length at most {L}")
    return {Ind(int(j) + 1, int(l) + 1): int(mult[j, l]) for j, l in zip(*np.nonzero(mult))}


def pushout_decompose(g: np.ndarray, Ms, Ns, A, p: int = 2) -> dict:
    """Decomposition of the pushout (I(M) ⊕ N)/M of the dense map g: M -> N
    along the inclusion into the injective envelope."""
    Is = tuple(Ind(m.socle, A.loewy) for m in Ms)
    F = np.concatenate([diagonal(Ms, Is), np.asarray(g, dtype=np.int64).reshape(sum_dim(Ns), sum_dim(Ms))])
    return decompose(*quotient(Is + Ns, F, A, p), A, p)
