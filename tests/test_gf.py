import numpy as np

from smstilt import gf

from _gf_reference import nullspace, unpacked


def test_rref_rank():
    M = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    assert gf.rank(M, 2) == 2
    assert gf.rank(M, 3) == 3


def test_nullspace_is_kernel():
    # the test-local reference nullspace, read off gf.rref
    M = np.array([[1, 1, 0], [0, 1, 1]])
    for p in (2, 3):
        N = nullspace(M, p)
        assert N.shape[0] == 1
        assert not ((M @ N.T) % p).any()


def test_gf2_kernel_matches_dense_elimination(monkeypatch):
    # the packed GF(2) kernel against the dense reference, on random shapes
    # including empty ones and widths around 64 columns
    rng = np.random.default_rng(20130419)
    col_choices = (0, 1, 2, 5, 8, 9, 63, 64, 65, 100)
    for _ in range(2000):
        rows = int(rng.integers(0, 9))
        cols = int(rng.choice(col_choices))
        M = (rng.random((rows, cols)) < rng.random()).astype(np.int64)
        if rows > 2:  # force a dependent row
            M[-1] = M[0] ^ M[1]
        R, piv = gf.rref(M, 2)
        R0, piv0 = gf._rref_dense(M, 2)
        assert piv == piv0
        assert R.dtype == R0.dtype and R.shape == R0.shape and R.tobytes() == R0.tobytes()
        assert gf.rank(M, 2) == (len(piv0) if M.size else 0)
        N = nullspace(M, 2)
        with monkeypatch.context() as m:
            m.setattr(gf, "rref", gf._rref_dense)
            N0 = nullspace(M, 2)
        assert N.shape == N0.shape and N.tobytes() == N0.tobytes()
        half = rows // 2
        R0, piv0 = gf._rref_dense(M[:half], 2)
        piv, W = gf.reduce_mod(M[:half], M[half:], 2)
        W0 = np.array([gf.reduce_rows(R0, piv0, v, 2) for v in M[half:]],
                      dtype=np.int64).reshape(M[half:].shape)
        assert piv == piv0 and W.shape == W0.shape and W.tobytes() == W0.tobytes()


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
        assert len(gf._rref_dense(both, 2)[1]) == len(gf._rref_dense(N, 2)[1]) == len(N), M
        assert np.array_equal(K, N), M
        shapes += not rows or not cols
    assert shapes >= 100
    assert gf._kernel2([]) == [] and gf._kernel2([0, 0]) == [1, 2]


def test_rank_one_row_path_matches_dense_elimination():
    # a single row has rank 1 exactly when it is nonzero mod p; checked against
    # the dense elimination on random rows, rows that vanish mod p, rows with
    # no columns and no rows at all, with entries outside 0..p-1 and as 1-d input
    rng = np.random.default_rng(20140601)
    for p in (3, 5, 2):
        for cols in (0, 1, 2, 5, 9, 64, 65):
            assert gf.rank(np.zeros((0, cols), dtype=np.int64), p) == 0
            rows = [np.zeros((1, cols), dtype=np.int64), p * rng.integers(-3, 4, (1, cols))]
            rows += [rng.integers(-2 * p, 2 * p, (1, cols)) for _ in range(50)]
            for M in rows:
                want = len(gf._rref_dense(M, p)[1])
                assert gf.rank(M, p) == want and gf.rank(M[0].tolist(), p) == want, (p, M)


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
            R, piv = gf.rref(span, p)
            want, reduced = [], []
            for k, v in enumerate(cands):
                w = gf.reduce_rows(R, piv, v, p)
                if not w.any():
                    continue
                if reduced and not gf.reduce_rows(*gf.rref(np.array(reduced), p), w, p).any():
                    continue
                want.append(k)
                reduced.append(w)
            assert gf.independent_mod(span, cands, p) == want
