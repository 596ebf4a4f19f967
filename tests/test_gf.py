import numpy as np

from smstilt import gf


def test_rref_rank():
    M = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    assert gf.rank(M, 2) == 2
    assert gf.rank(M, 3) == 3


def test_nullspace_is_kernel():
    M = np.array([[1, 1, 0], [0, 1, 1]])
    for p in (2, 3):
        N = gf.nullspace(M, p)
        assert N.shape[0] == 1
        assert not ((M @ N.T) % p).any()


def test_solve_and_reduce():
    A = np.array([[1, 0, 1], [0, 1, 1]])
    b = np.array([1, 1])
    x = gf.solve(A, b, 2)
    assert x is not None and not ((A @ x - b) % 2).any()
    assert gf.solve(np.array([[1, 1]]), np.array([1]), 2) is not None
    assert gf.solve(np.zeros((1, 2), dtype=int), np.array([1]), 2) is None


def test_intersection_dim():
    A = np.array([[1, 0, 0], [0, 1, 0]])
    B = np.array([[0, 1, 0], [0, 0, 1]])
    assert gf.intersection_dim(A, B, 2) == 1


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
        N = gf.nullspace(M, 2)
        with monkeypatch.context() as m:
            m.setattr(gf, "rref", gf._rref_dense)
            N0 = gf.nullspace(M, 2)
        assert N.shape == N0.shape and N.tobytes() == N0.tobytes()
        if rows and cols:
            half = max(rows // 2, 1)
            A, B = M[:half], M[half:]
            want = len(gf._rref_dense(A, 2)[1]) + len(gf._rref_dense(B, 2)[1]) \
                - len(gf._rref_dense(np.concatenate([A, B]), 2)[1])
            assert gf.intersection_dim(A, B, 2) == want
