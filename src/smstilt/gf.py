"""Exact linear algebra over small prime fields GF(p).

All matrices are numpy int64 arrays with entries reduced mod p.  Sizes stay
small (a few hundred rows at the very most).  p defaults to 2; p=3 is used
for the cross-field checks.  Over GF(2) each row is packed into one Python
int and eliminated with XOR (the M4RI-style elimination of Albrecht-Bard);
every other p runs plain Gaussian elimination on the dense array.  The
complex side keeps its GF(2) vectors packed and calls the packed helpers
(`_basis2`, `_insert2`, `_reduce2`, `_kernel2`) directly.
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
        return [0] * len(M)
    return [int.from_bytes(data[i:i + width], "little") for i in range(0, len(data), width)]


def _unpack2(rows: list[int], cols: int) -> np.ndarray:
    """Inverse of _pack2: the 0/1 matrix with the given packed rows."""
    width = (cols + 7) // 8
    data = b"".join(r.to_bytes(width, "little") for r in rows)
    B = np.frombuffer(data, dtype=np.uint8).reshape(len(rows), width)
    return np.unpackbits(B, axis=1, count=cols, bitorder="little").astype(np.int64)


def _reduce2(basis: dict[int, int], r: int) -> int:
    """The packed row r reduced modulo a fully reduced basis, in one pass."""
    for c, b in basis.items():
        if r >> c & 1:
            r ^= b
    return r


def _insert2(basis: dict[int, int], r: int) -> bool:
    """Add the packed row r to a fully reduced basis {pivot column: row}.

    Each stored row has its lowest set bit at its pivot and a zero in every
    other pivot column, so sorting by pivot gives the reduced row echelon
    form.  Returns whether r was independent of the basis.
    """
    r = _reduce2(basis, r)
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


def _kernel2(cols: list[int]) -> list[int]:
    """Packed basis of the right kernel of the matrix whose columns are the
    packed ints `cols` (bit r of a column is its row r); bit j of a kernel
    vector is column j.

    Each column is tagged with its own bit above every row bit and reduced
    against the independent columns before it, so a column that depends on
    them yields its tag plus theirs: one vector per non-pivot column, in
    column order, as the nullspace read off the RREF has.
    """
    h = max(map(int.bit_length, cols), default=0)
    basis: dict[int, int] = {}   # lowest row bit: reduced tagged column
    kernel = []
    for j, c in enumerate(cols):
        v = c | 1 << h + j
        while (low := v & -v) in basis:
            v ^= basis[low]
        if v & (1 << h) - 1:
            basis[low] = v
        else:
            kernel.append(v >> h)
    return kernel


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
    basis = _basis2(_pack2(M))
    pivots = sorted(basis)
    return _unpack2([basis[c] for c in pivots], M.shape[1]), pivots


def rank(M, p: int = 2) -> int:
    M = normalize(M, p)
    if len(M) < 2:
        return int(M.any())
    if p == 2:
        return len(_basis2(_pack2(M)))
    return len(rref(M, p)[1])


def reduce_rows(R: np.ndarray, pivots: list[int], v, p: int = 2) -> np.ndarray:
    """Reduce vector v modulo the row space given in RREF form."""
    w = np.asarray(v, dtype=np.int64).copy() % p
    for i, c in enumerate(pivots):
        if w[c]:
            w = (w - w[c] * R[i]) % p
    return w


def reduce_mod(span, vectors, p: int = 2) -> tuple[list[int], np.ndarray]:
    """Pivot columns of the row span of `span`, and the rows of `vectors`
    reduced modulo that span (each zero in every pivot column)."""
    V = normalize(vectors, p)
    if p == 2:
        basis = _basis2(_pack2(normalize(span, p)))
        return sorted(basis), _unpack2([_reduce2(basis, r) for r in _pack2(V)], V.shape[1])
    R, piv = rref(span, p)
    return piv, np.array([reduce_rows(R, piv, v, p) for v in V], dtype=np.int64).reshape(V.shape)


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

