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
