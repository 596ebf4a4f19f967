"""Exact linear algebra over small prime fields GF(p), in pure Python.

A vector over GF(2) is a packed int, bit c its coordinate c, and rows are
eliminated with XOR (the M4RI-style elimination of Albrecht-Bard).  A vector
over any other GF(p) is a sparse dict {coordinate: coefficient in 1..p-1}; a
packed int stands for its 0/1 vector over every field, so the module side's
0/1 maps serve all p, and `lift` turns them into dicts where p != 2.  A
matrix is a sequence of vectors, its columns or its rows as the caller says.
A basis is a fully reduced dict {pivot: vector}: each vector has its lowest
coordinate at its pivot, with coefficient 1, and a zero at every other pivot,
so sorting by pivot gives the reduced row echelon form.  The complex side
calls the packed GF(2) helpers (`_basis2`, `_insert2`, `_reduce2`,
`_kernel2`) directly.
"""

from __future__ import annotations


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


def lift(v, p: int):
    """v as a vector over GF(p): a packed 0/1 int becomes a dict when p != 2."""
    if p == 2 or type(v) is dict:
        return v
    return {c: 1 for c in range(v.bit_length()) if v >> c & 1}


def support(v) -> int:
    """The coordinates where the vector v is nonzero, as a packed int."""
    return v if type(v) is int else sum(1 << c for c in v)


def _axpy(u: dict, a: int, v: dict, p: int) -> dict:
    """u + a * v over GF(p), as a new dict."""
    w = dict(u)
    for c, x in v.items():
        w[c] = (w.get(c, 0) + a * x) % p
    return {c: y for c, y in w.items() if y}


def combine(cols, coeffs, p: int = 2):
    """The sum of coeffs[c] * cols[c]: the matrix with columns `cols` applied
    to the vector `coeffs`."""
    if p == 2:
        out = 0
        while coeffs:
            low = coeffs & -coeffs
            out ^= cols[low.bit_length() - 1]
            coeffs ^= low
        return out
    out: dict = {}
    for c, a in lift(coeffs, p).items():
        out = _axpy(out, a, lift(cols[c], p), p)
    return out


def reduce(basis: dict, v, p: int = 2):
    """The vector v reduced modulo a fully reduced basis, in one pass."""
    if p == 2:
        return _reduce2(basis, v)
    v = lift(v, p)
    for c, b in basis.items():
        if c in v:
            v = _axpy(v, -v[c], b, p)
    return v


def insert(basis: dict, v, p: int = 2) -> bool:
    """Add v to a fully reduced basis; returns whether v was independent."""
    if p == 2:
        return _insert2(basis, v)
    v = reduce(basis, v, p)
    if not v:
        return False
    c = min(v)
    v = _axpy({}, pow(v[c], p - 2, p), v, p)
    for k, b in basis.items():
        if c in b:
            basis[k] = _axpy(b, -b[c], v, p)
    basis[c] = v
    return True


def basis(vectors, p: int = 2) -> dict:
    """Fully reduced basis of the span of `vectors` over GF(p)."""
    if p == 2:
        return _basis2(vectors)
    out: dict = {}
    for v in vectors:
        insert(out, v, p)
    return out


def rank(vectors, p: int = 2) -> int:
    return len(basis(vectors, p))


def independent_mod(span, candidates, p: int = 2) -> list[int]:
    """Indices of the candidate vectors that are independent modulo the span
    of `span`, chosen greedily in order: vector k is kept when it is not in
    the span of `span` and the candidates kept before it, so the kept
    vectors form a basis of (span + candidates) / span."""
    b = basis(span, p)
    return [k for k, v in enumerate(candidates) if insert(b, v, p)]
