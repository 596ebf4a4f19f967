"""Exact linear algebra over small prime fields GF(p).

All matrices are numpy int64 arrays with entries reduced mod p.  Sizes stay
small (a few hundred rows at the very most).  p defaults to 2; p=3 is used
for the cross-field checks.  Over GF(2) each row is packed into one Python
int and eliminated with XOR (the M4RI-style elimination of Albrecht-Bard);
every other p runs plain Gaussian elimination on the dense array.
"""

from __future__ import annotations

import numpy as np


def normalize(M, p: int = 2) -> np.ndarray:
    """Coerce M to a 2-d int64 array with entries in 0..p-1."""
    A = np.atleast_2d(np.asarray(M, dtype=np.int64))
    return A % p


def _pack2(M: np.ndarray) -> list[int]:
    """Rows of a 0/1 matrix as ints; bit c of a row is its column c."""
    B = np.packbits(M, axis=1, bitorder="little")
    data, width = B.tobytes(), B.shape[1]
    if not width:
        return []
    return [int.from_bytes(data[i:i + width], "little") for i in range(0, len(data), width)]


def _insert2(basis: dict[int, int], r: int) -> bool:
    """Add the packed row r to a fully reduced basis {pivot column: row}.

    Each stored row has its lowest set bit at its pivot and a zero in every
    other pivot column, so sorting by pivot gives the reduced row echelon
    form.  Returns whether r was independent of the basis.
    """
    for c, b in basis.items():
        if r >> c & 1:
            r ^= b
    if not r:
        return False
    c = (r & -r).bit_length() - 1
    for k, b in basis.items():
        if b >> c & 1:
            basis[k] = b ^ r
    basis[c] = r
    return True


def _basis2(rows: list[int]) -> dict[int, int]:
    """Fully reduced basis of the span of packed rows."""
    basis: dict[int, int] = {}
    for r in rows:
        _insert2(basis, r)
    return basis


def _rref_dense(M, p: int) -> tuple[np.ndarray, list[int]]:
    """Gauss-Jordan elimination on the dense array, for any prime p."""
    R = normalize(M, p).copy()
    rows, cols = R.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = None
        for i in range(r, rows):
            if R[i, c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            R[[r, piv]] = R[[piv, r]]
        inv = pow(int(R[r, c]), p - 2, p)
        R[r] = (R[r] * inv) % p
        for i in range(rows):
            if i != r and R[i, c]:
                R[i] = (R[i] - R[i, c] * R[r]) % p
        pivots.append(c)
        r += 1
    return R[:len(pivots)], pivots


def rref(M, p: int = 2) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of M over GF(p).

    Returns (R, pivots) where R holds only the nonzero rows and pivots[i]
    is the pivot column of row i.
    """
    if p != 2:
        return _rref_dense(M, p)
    M = normalize(M, p)
    cols = M.shape[1]
    basis = _basis2(_pack2(M))
    pivots = sorted(basis)
    width = (cols + 7) // 8
    data = b"".join(basis[c].to_bytes(width, "little") for c in pivots)
    B = np.frombuffer(data, dtype=np.uint8).reshape(len(pivots), width)
    R = np.unpackbits(B, axis=1, count=cols, bitorder="little").astype(np.int64)
    return R, pivots


def rank(M, p: int = 2) -> int:
    M = normalize(M, p)
    if M.size == 0:
        return 0
    if p == 2:
        return len(_basis2(_pack2(M)))
    return len(rref(M, p)[1])


def nullspace(M, p: int = 2) -> np.ndarray:
    """Basis of the right nullspace of M, one vector per row."""
    M = normalize(M, p)
    rows, cols = M.shape
    R, pivots = rref(M, p)
    pivset = set(pivots)
    free = [c for c in range(cols) if c not in pivset]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-int(R[i, fc])) % p
    return basis


def reduce_rows(R: np.ndarray, pivots: list[int], v, p: int = 2) -> np.ndarray:
    """Reduce vector v modulo the row space given in RREF form."""
    w = np.asarray(v, dtype=np.int64).copy() % p
    for i, c in enumerate(pivots):
        if w[c]:
            w = (w - w[c] * R[i]) % p
    return w


def independent_mod(span, candidates, p: int = 2) -> list[int]:
    """Indices of the candidate rows that are independent modulo the row
    span of `span`, chosen greedily in order: row k is kept when it is not
    in the span of `span` and the candidates kept before it.

    Both arguments are 2-d with the same number of columns; the kept rows
    form a basis of (span + candidates) / span.
    """
    keep: list[int] = []
    if p == 2:
        basis = _basis2(_pack2(normalize(span, p)))
        for k, r in enumerate(_pack2(normalize(candidates, p))):
            if _insert2(basis, r):
                keep.append(k)
        return keep
    R, piv = rref(span, p)
    for k, v in enumerate(normalize(candidates, p)):
        w = reduce_rows(R, piv, v, p)
        if w.any():
            keep.append(k)
            R, piv = rref(np.concatenate([R, w[None]]), p)
    return keep


def intersection_dim(A, B, p: int = 2) -> int:
    """Dimension of (row space of A) ∩ (row space of B)."""
    A = normalize(A, p)
    B = normalize(B, p)
    if A.size == 0 or B.size == 0:
        return 0
    ra, rb = rank(A, p), rank(B, p)
    rsum = rank(np.concatenate([A, B]), p)
    return ra + rb - rsum
