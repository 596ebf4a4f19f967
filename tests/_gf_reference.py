"""Test-local reference nullspace over GF(p), read off `gf.rref`: one vector
per free column, with a 1 there and minus that column of the RREF at the
pivots.  The package finds GF(2) kernels by packed column elimination
(`gf._kernel2`) instead, so this is the route it is checked against, and
the reference for the module-side and Hom-complex tests.  `unpacked` turns
the package's packed GF(2) vectors into rows to compare with it."""

import numpy as np

from smstilt import gf


def nullspace(M, p: int = 2) -> np.ndarray:
    """Basis of the right nullspace of M, one vector per row."""
    M = gf.normalize(M, p)
    R, pivots = gf.rref(M, p)
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
