import numpy as np

from smstilt import gf

from _gf_reference import (columns, dense, independent_mod, nullspace, packed, rank, reduce_rows,
                           rref, unpacked)


def _vectors(M, p):
    """The rows of M as `gf` vectors over GF(p)."""
    return columns(np.asarray(M).T, p)


def test_rref_rank():
    M = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    assert gf.rank(_vectors(M, 2), 2) == 2
    assert gf.rank(_vectors(M, 3), 3) == 3
    # a packed 0/1 int is the same vector over every field
    assert gf.rank(packed(M), 3) == 3


def test_nullspace_is_kernel():
    # the test-local reference nullspace, read off the dense RREF
    M = np.array([[1, 1, 0], [0, 1, 1]])
    for p in (2, 3):
        N = nullspace(M, p)
        assert N.shape[0] == 1
        assert not ((M @ N.T) % p).any()


def test_gf2_kernel_matches_dense_elimination():
    # the packed GF(2) basis against the dense reference, on random shapes
    # including empty ones and widths around 64 columns: the same pivots and
    # reduced rows, and the same reductions of further rows
    rng = np.random.default_rng(20130419)
    col_choices = (0, 1, 2, 5, 8, 9, 63, 64, 65, 100)
    for _ in range(2000):
        rows = int(rng.integers(0, 9))
        cols = int(rng.choice(col_choices))
        M = (rng.random((rows, cols)) < rng.random()).astype(np.int64)
        if rows > 2:  # force a dependent row
            M[-1] = M[0] ^ M[1]
        basis = gf.basis(packed(M), 2)
        R0, piv0 = rref(M, 2)
        assert sorted(basis) == piv0
        assert np.array_equal(unpacked([basis[c] for c in piv0], cols), R0)
        assert gf.rank(packed(M), 2) == len(piv0)
        half = rows // 2
        span = gf.basis(packed(M[:half]), 2)
        R0, piv0 = rref(M[:half], 2)
        W = unpacked([gf.reduce(span, r, 2) for r in packed(M[half:])], cols)
        W0 = np.array([reduce_rows(R0, piv0, v, 2) for v in M[half:]],
                      dtype=np.int64).reshape(M[half:].shape)
        assert np.array_equal(W, W0)


def _packed_columns(M):
    """Columns of a 0/1 matrix as ints; bit r of a column is its row r."""
    return [sum(int(M[r, c]) << r for r in range(M.shape[0])) for c in range(M.shape[1])]


def test_packed_kernel_matches_rref_nullspace():
    # the packed column elimination against the nullspace read off the RREF,
    # on random shapes including no rows and no columns: same dimension,
    # every vector in the kernel, the same span, and in fact the same basis
    rng = np.random.default_rng(20130421)
    shapes = 0
    for _ in range(1500):
        rows, cols = int(rng.integers(0, 9)), int(rng.integers(0, 12))
        M = (rng.random((rows, cols)) < rng.random()).astype(np.int64)
        if cols > 2:  # force a dependent column
            M[:, -1] = M[:, 0] ^ M[:, 1]
        K = unpacked(gf._kernel2(_packed_columns(M)), cols)
        N = nullspace(M, 2)
        assert K.shape == N.shape, (M, K, N)
        assert not ((M @ K.T) % 2).any(), M
        both = np.concatenate([K, N])
        assert rank(both, 2) == rank(N, 2) == len(N), M
        assert np.array_equal(K, N), M
        shapes += not rows or not cols
    assert shapes >= 100
    assert gf._kernel2([]) == [] and gf._kernel2([0, 0]) == [1, 2]


def test_rank_one_row_path_matches_dense_elimination():
    # a single row has rank 1 exactly when it is nonzero mod p; checked against
    # the dense elimination on random rows, rows that vanish mod p, rows with
    # no columns and no rows at all, with entries outside 0..p-1
    rng = np.random.default_rng(20140601)
    for p in (3, 5, 2):
        for cols in (0, 1, 2, 5, 9, 64, 65):
            assert gf.rank([], p) == 0
            rows = [np.zeros((1, cols), dtype=np.int64), p * rng.integers(-3, 4, (1, cols))]
            rows += [rng.integers(-2 * p, 2 * p, (1, cols)) for _ in range(50)]
            for M in rows:
                assert gf.rank(_vectors(M, p), p) == rank(M, p), (p, M)


def test_sparse_elimination_matches_dense_elimination():
    # the p != 2 basis against the dense RREF over GF(3) and GF(5), on random
    # shapes with dependent rows, and combine against the matrix product
    rng = np.random.default_rng(20261021)
    for p in (3, 5):
        for _ in range(500):
            rows, cols = int(rng.integers(0, 8)), int(rng.integers(0, 12))
            M = rng.integers(0, p, (rows, cols)) * (rng.random((rows, cols)) < rng.random())
            if rows > 2:  # force a dependent row
                M[-1] = (M[0] + (p - 1) * M[1]) % p
            basis = gf.basis(_vectors(M, p), p)
            R0, piv0 = rref(M, p)
            assert sorted(basis) == piv0
            assert np.array_equal(dense([basis[c] for c in piv0], cols).T.reshape(R0.shape), R0)
            v = rng.integers(0, p, rows)
            want = (M.T @ v) % p
            assert np.array_equal(dense([gf.combine(_vectors(M, p), _vectors([v], p)[0], p)],
                                        cols)[:, 0], want), (p, M, v)


def test_independent_mod_matches_reduce_loop():
    # the quotient-basis helper against the loop it replaced: reduce each
    # candidate modulo the span, keep it unless it lies in the span of the
    # reductions kept so far
    rng = np.random.default_rng(20130420)
    for p in (2, 3):
        for _ in range(500):
            cols = int(rng.integers(0, 12))
            span = rng.integers(0, p, (int(rng.integers(0, 5)), cols)) * (rng.random() < 0.7)
            cands = rng.integers(0, p, (int(rng.integers(0, 7)), cols)) * (rng.random() < 0.8)
            if len(cands) > 2:  # force a dependent candidate
                cands[-1] = (cands[0] + (p - 1) * cands[1]) % p
            want = independent_mod(span, cands, p)
            assert gf.independent_mod(_vectors(span, p), _vectors(cands, p), p) == want
