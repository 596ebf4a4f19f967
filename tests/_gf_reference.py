"""Test-local dense linear algebra over GF(p) on numpy int64 arrays:
Gauss-Jordan elimination (`rref`), `rank`, `reduce_rows`, the greedy
`independent_mod` loop and the nullspace read off the RREF, one vector per
free column with a 1 there and minus that column of the RREF at the pivots.
The package eliminates packed GF(2) ints and sparse GF(p) dicts
(`smstilt.gf`) instead, so this is the route it is checked against, and the
reference for the module-side and Hom-complex tests.  `unpacked`/`packed`
and `dense`/`columns` convert between the two."""

import numpy as np


def normalize(M, p: int = 2) -> np.ndarray:
    """M as a 2-d int64 array with entries in 0..p-1."""
    return np.atleast_2d(np.asarray(M, dtype=np.int64)) % p


def rref(M, p: int = 2) -> tuple[np.ndarray, list[int]]:
    """(R, pivots): the nonzero rows of the reduced row echelon form of M over
    GF(p), and the pivot column of each."""
    R = normalize(M, p).copy()
    rows, cols = R.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if R[i, c]), None)
        if piv is None:
            continue
        if piv != r:
            R[[r, piv]] = R[[piv, r]]
        R[r] = (R[r] * pow(int(R[r, c]), p - 2, p)) % p
        for i in range(rows):
            if i != r and R[i, c]:
                R[i] = (R[i] - R[i, c] * R[r]) % p
        pivots.append(c)
        r += 1
    return R[:len(pivots)], pivots


def rank(M, p: int = 2) -> int:
    return len(rref(M, p)[1])


def reduce_rows(R: np.ndarray, pivots: list[int], v, p: int = 2) -> np.ndarray:
    """The vector v reduced modulo the row space given in RREF form."""
    w = np.asarray(v, dtype=np.int64).copy() % p
    for i, c in enumerate(pivots):
        if w[c]:
            w = (w - w[c] * R[i]) % p
    return w


def independent_mod(span, candidates, p: int = 2) -> list[int]:
    """Indices of the candidate rows kept greedily: reduce each modulo the
    span, keep it unless it lies in the span of the reductions kept so far."""
    R, piv = rref(span, p)
    keep, reduced = [], []
    for k, v in enumerate(normalize(candidates, p)):
        w = reduce_rows(R, piv, v, p)
        if w.any() and not (reduced and not reduce_rows(*rref(np.array(reduced), p), w, p).any()):
            keep.append(k)
            reduced.append(w)
    return keep


def nullspace(M, p: int = 2) -> np.ndarray:
    """Basis of the right nullspace of M, one vector per row."""
    M = normalize(M, p)
    R, pivots = rref(M, p)
    free = [c for c in range(M.shape[1]) if c not in set(pivots)]
    basis = np.zeros((len(free), M.shape[1]), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-int(R[i, fc])) % p
    return basis


def unpacked(vectors, cols: int) -> np.ndarray:
    """Packed GF(2) vectors (bit c is column c) as the rows of a 0/1 matrix."""
    return np.array([[v >> c & 1 for c in range(cols)] for v in vectors],
                    dtype=np.int64).reshape(len(vectors), cols)


def packed(M) -> list[int]:
    """Rows of a 0/1 matrix as packed ints, inverse of `unpacked`."""
    return [sum(int(x) << c for c, x in enumerate(row)) for row in normalize(M)]


def dense(vectors, size: int) -> np.ndarray:
    """`gf` vectors (packed ints or {coordinate: coefficient} dicts) as the
    columns of a size x len(vectors) matrix."""
    M = np.zeros((size, len(vectors)), dtype=np.int64)
    for c, v in enumerate(vectors):
        for r, a in (v.items() if isinstance(v, dict) else ((r, v >> r & 1) for r in range(size))):
            M[r, c] = a
    return M


def columns(M, p: int = 2) -> tuple:
    """The columns of M over GF(p) as `gf` vectors: packed ints for p = 2,
    dicts of the nonzero coefficients otherwise; inverse of `dense`."""
    M = normalize(M, p)
    if p == 2:
        return tuple(packed(M.T))
    return tuple({int(r): int(M[r, c]) for r in np.flatnonzero(M[:, c])} for c in range(M.shape[1]))
