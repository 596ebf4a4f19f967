import os
import subprocess
import sys
from itertools import combinations, combinations_with_replacement, product

import numpy as np
import pytest

from smstilt import gf, modcat
from smstilt.modcat import (Algebra, Ind, ModMap, _bar, _core_middle_terms,
                            _proj_cover_sum, closure_inds, cone_of_stable_map,
                            hom_basis, hom_dim,
                            min_left_approx, min_right_approx, nu, omega,
                            omega_inv, proj_of_top, stable_hom_dim, tau)
from smstilt.smscfg import enumerate_configurations, nu_orbits_points

import _modcat_reference as ref
from _gf_reference import columns, dense, nullspace, rank, rref

A36 = Algebra(3, 6)
A44 = Algebra(4, 4)
A46 = Algebra(4, 6)


def intertwiner_dim(M: Ind, N: Ind, A: Algebra, p: int = 2) -> int:
    """Oracle: solve the grading and shift-commutation conditions directly."""
    vm = modcat.vertex_vector((M,), A)
    vn = modcat.vertex_vector((N,), A)
    DM = ref.shift_matrix((M,))
    DN = ref.shift_matrix((N,))
    dm, dn = M.length, N.length
    cols = dn * dm
    rows = []
    # vertex grading: entries between different vertices vanish
    for r in range(dn):
        for c in range(dm):
            if vn[r] != vm[c]:
                row = np.zeros(cols, dtype=np.int64)
                row[r * dm + c] = 1
                rows.append(row)
    # D_N X = X D_M, entrywise
    for r in range(dn):
        for c in range(dm):
            row = np.zeros(cols, dtype=np.int64)
            for k in range(dn):
                if DN[r, k]:
                    row[k * dm + c] ^= 1
            for k in range(dm):
                if DM[k, c]:
                    row[r * dm + k] ^= 1
            if row.any():
                rows.append(row)
    if not rows:
        return cols
    return cols - rank(np.array(rows), p)


def stable_oracle(M: Ind, N: Ind, A: Algebra, p: int = 2) -> int:
    """Oracle: quotient by compositions through every projective, not just
    the projective cover of the target."""
    full = ref.hom_basis(M, N, A)
    if not full:
        return 0
    through = []
    for j in range(1, A.n + 1):
        P = proj_of_top(j, A)
        for u in ref.hom_basis(M, P, A):
            for v in ref.hom_basis(P, N, A):
                through.append(((v @ u) % p).reshape(-1))
    if not through:
        return len(full)
    return len(full) - rank(np.array(through), p)


def test_hom_dim_examples():
    assert hom_dim(Ind(1, 1), Ind(1, 1), A36) == 1
    assert hom_dim(Ind(1, 1), Ind(2, 1), A36) == 0
    P1 = proj_of_top(1, A36)
    assert hom_dim(P1, P1, A36) == 3
    assert intertwiner_dim(P1, P1, A36) == 3


def test_hom_dim_matches_intertwiner_oracle():
    for A in (A36, A44):
        for M in modcat.all_inds(A):
            for N in modcat.all_inds(A):
                assert hom_dim(M, N, A) == intertwiner_dim(M, N, A)


def test_hom_basis_maps_are_valid():
    # each packed basis map is a module map, and the basis is the dense one
    for M in modcat.all_inds(A36)[:8]:
        for N in modcat.all_inds(A36)[:8]:
            for f in hom_basis(M, N, A36):
                ModMap((M,), (N,), f).check(A36)
    for X, Y in [((Ind(1, 2), Ind(3, 4)), (Ind(2, 3), Ind(3, 1), Ind(1, 7))), ((), (Ind(1, 1),))]:
        got = hom_basis(X, Y, A36)
        want = ref.hom_basis(X, Y, A36)
        assert [dense(f, modcat.sum_dim(Y)).tolist() for f in got] == [f.tolist() for f in want]
        assert dense(modcat.shift_matrix(Y), modcat.sum_dim(Y)).tolist() == \
            ref.shift_matrix(Y).tolist()


def test_stable_hom_examples():
    for N in modcat.all_inds(A36):
        assert stable_hom_dim(proj_of_top(1, A36), N, A36) == 0
    pts = [Ind(1, 1), Ind(2, 3), Ind(3, 5)]
    for M in pts:
        for N in pts:
            assert stable_hom_dim(M, N, A36) == (1 if M == N else 0)


def test_stable_hom_matches_all_projectives_oracle():
    nonproj = modcat.nonprojective_inds(A36)
    for M in nonproj:
        for N in nonproj:
            assert stable_hom_dim(M, N, A36) == stable_oracle(M, N, A36)


def test_stable_hom_cross_field():
    for M in modcat.nonprojective_inds(A36):
        for N in modcat.nonprojective_inds(A36):
            assert stable_hom_dim(M, N, A36, p=2) == stable_hom_dim(M, N, A36, p=3)


def closed_form_stable_hom(M: Ind, N: Ind, A: Algebra) -> int:
    """Oracle with no matrices: the basis map of image length t lifts
    through P(N) ->> N exactly when a map M -> P(N) of image length
    t + (ell + 1 - r) exists, i.e. when t <= l + r - (ell + 1)."""
    return sum(t > M.length + N.length - A.loewy for t in modcat.overlap_lengths(M, N, A))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n, ell", [(2, 4), (3, 3), (3, 6), (4, 4), (4, 6), (4, 8),
                                    (6, 4), (6, 9), (5, 10)])
def test_stable_hom_matches_closed_form(n, ell, p):
    A = Algebra(n, ell)
    inds = modcat.all_inds(A)
    for M in inds:
        for N in inds:
            assert stable_hom_dim(M, N, A, p) == closed_form_stable_hom(M, N, A), (M, N)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n, ell", [(3, 6), (4, 4), (6, 9)])
def test_stable_hom_class_core_matches_per_pair(n, ell, p):
    # the core answers each pair from its rotation class's representative;
    # `stable_reps` returns a basis of the same size, so `_min_approx` may
    # skip it exactly where the core reads 0
    A = Algebra(n, ell)
    # the core keeps the packed 0/1 composites, field-free; they are the
    # dense reference's factor rows over every field.  A class with no Hom
    # keeps no rows, and there every map through a projective is zero
    for l, r, d in product(range(1, A.loewy + 1), range(1, A.loewy + 1), range(n)):
        M, N = Ind(1, l), Ind(_bar(1 + d, n), r)
        full, rows = modcat._stable_hom_core(l, r, d, A)
        want = ref.factor_rows(M, N, A, p)
        assert full == hom_dim(M, N, A) and isinstance(rows, tuple)
        if full:
            assert rows == modcat.factor_rows(M, N, A), (l, r, d)
            assert np.array_equal(_unflat(rows, r, l), want), (l, r, d)
        else:
            assert rows == () and not want.any(), (l, r, d)
    inds = modcat.all_inds(A)
    for M in inds:
        for N in inds:
            direct = hom_dim(M, N, A) - gf.rank(modcat.factor_rows(M, N, A), p)
            assert stable_hom_dim(M, N, A, p) == direct, (M, N)
            assert len(modcat.stable_reps(M, N, A, p)) == direct, (M, N)


def _unflat(rows, dn, dm):
    """Packed `modcat._flat` maps (column c at bits c * dn) as the row-major
    flattened dense maps of the reference."""
    return np.array([dense([x >> c * dn & (1 << dn) - 1 for c in range(dm)], dn).reshape(-1)
                     for x in rows], dtype=np.int64).reshape(len(rows), dn * dm)


def test_stable_hom_dim_checks_every_summand():
    ok = Ind(1, 1)
    for bad in (Ind(0, 1), Ind(A36.n + 1, 1), Ind(1, A36.loewy + 1)):
        for M, N in ((bad, ok), (ok, bad), ((ok, bad), ok), (ok, (ok, bad))):
            with pytest.raises(ValueError):
                stable_hom_dim(M, N, A36)


def test_syzygy_formulas():
    assert omega(Ind(1, 1), A36) == Ind(1, 6)
    assert omega_inv(Ind(1, 1), A36) == Ind(3, 6)
    assert tau(Ind(2, 3), A36) == Ind(3, 3)
    for A in (A46, A36):
        for M in modcat.nonprojective_inds(A):
            assert omega_inv(omega(M, A), A) == M
            assert omega(omega_inv(M, A), A) == M
            assert tau(M, A) == nu(omega(omega(M, A), A), A)
    # the symmetric case has trivial Nakayama functor
    for M in modcat.all_inds(A36):
        assert nu(M, A36) == M
    with pytest.raises(ValueError):
        omega(proj_of_top(1, A36), A36)


def test_nu_cycle_count():
    for A in (A36, A44, A46, Algebra(6, 4), Algebra(6, 12)):
        assert modcat.nu_cycle_count(A) == A.e


def test_proj_cover():
    M = Ind(1, 1)
    Ps, pi = _proj_cover_sum((M,), A36)
    assert Ps == (proj_of_top(1, A36),)
    ModMap(Ps, (M,), pi).check(A36)
    # kernel of the cover of the simple is its syzygy
    K = nullspace(dense(pi, M.length))
    assert K.shape[0] == omega(M, A36).length == 6
    # the cover of a projective is an isomorphism
    P = proj_of_top(2, A36)
    Ps2, pi2 = _proj_cover_sum((P,), A36)
    assert Ps2 == (P,)
    assert gf.rank(pi2) == A36.loewy


def test_cone_split_and_contractible():
    M, N = Ind(1, 1), Ind(2, 3)
    z = ModMap((M,), (N,), (0,) * M.length)
    assert cone_of_stable_map(z, A36) == tuple(sorted([N, omega_inv(M, A36)]))
    ident = ModMap((M,), (M,), (1,))
    assert cone_of_stable_map(ident, A36) == ()


def test_cone_over_gf3():
    # 2 * id is an isomorphism over GF(3), so its cone vanishes; read mod 2
    # it would be the zero map, with cone M + Omega^{-1} M
    M = Ind(1, 2)
    twice = ModMap((M,), (M,), ({0: 2}, {1: 2}), p=3)
    twice.check(A36)
    assert cone_of_stable_map(twice, A36, p=3) == ()
    with pytest.raises(ValueError, match="GF"):
        cone_of_stable_map(twice, A36)
    Z, C = omega(M, A36), [Ind(2, 1), Ind(3, 3)]
    g = min_left_approx(Z, C, A36, p=3)
    assert g.p == 3
    assert cone_of_stable_map(g, A36, p=3) == cone_of_stable_map(min_left_approx(Z, C, A36), A36)


def _decompose_by_socles(vv, D, A, p):
    """Reference: the multiplicity of Ind(i, l) is
    dim(Soc_i ∩ im D^{l-1}) - dim(Soc_i ∩ im D^l), with Soc_i the vertex-i
    part of ker D, each intersection from three ranks."""
    dim = len(vv)
    images, Dk = [np.eye(dim, dtype=np.int64)], np.eye(dim, dtype=np.int64)
    for _ in range(A.loewy):
        Dk = (D @ Dk) % p
        images.append(Dk.T.copy())
    mult = {}
    for i in range(1, A.n + 1):
        sel = np.eye(dim, dtype=np.int64)[[r for r in range(dim) if vv[r] != i]]
        soc = nullspace(np.concatenate([D, sel]), p)
        if not len(soc):
            continue
        dims = [rank(soc, p) + rank(im, p) - rank(np.concatenate([soc, im]), p)
                for im in images]
        for l in range(1, A.loewy + 1):
            if dims[l - 1] - dims[l]:
                mult[Ind(i, l)] = dims[l - 1] - dims[l]
    return mult


def _graded_automorphism(vv, p, rng):
    """A random invertible matrix with one block per vertex, and its inverse."""
    dim = len(vv)
    P, Pinv = np.eye(dim, dtype=np.int64), np.eye(dim, dtype=np.int64)
    for i in set(vv):
        idx = [r for r in range(dim) if vv[r] == i]
        while True:
            B = rng.integers(0, p, (len(idx), len(idx)))
            R, piv = rref(np.concatenate([B, np.eye(len(idx), dtype=np.int64)], axis=1), p)
            if piv == list(range(len(idx))):  # [B | I] reduces to [I | B^-1]
                break
        P[np.ix_(idx, idx)], Pinv[np.ix_(idx, idx)] = B, R[:, len(idx):]
    return P, Pinv


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n, ell, cases", [(3, 6, 12), (4, 4, 12), (6, 9, 6)],
                         ids=["A_3^6", "A_4^4", "A_6^9"])
def test_decompose_random_conjugates(n, ell, cases, p):
    # a random direct sum, its basis permuted and conjugated by a random
    # graded automorphism, decomposes back into the same multiset, as the
    # dense reference and the socle/intersection formula also find
    A = Algebra(n, ell)
    rng = np.random.default_rng(1000 * n + 10 * ell + p)
    inds = modcat.all_inds(A)
    for _ in range(cases):
        pool = rng.choice(len(inds), 3)  # a small pool, so summands repeat
        X = tuple(sorted(inds[k] for k in rng.choice(pool, int(rng.integers(0, 5)))))
        want = {m: X.count(m) for m in set(X)}
        perm = rng.permutation(modcat.sum_dim(X))
        vv = [modcat.vertex_vector(X, A)[r] for r in perm]
        P, Pinv = _graded_automorphism(vv, p, rng)
        D = (P @ ref.shift_matrix(X)[np.ix_(perm, perm)] @ Pinv) % p
        assert modcat.decompose(vv, columns(D, p), A, p) == want
        assert ref.decompose(vv, D, A, p) == want
        assert _decompose_by_socles(vv, D, A, p) == want


@pytest.mark.parametrize("p", [2, 3])
def test_quotient_and_pushout_match_dense_reference(p):
    # random module maps g: X -> Y over GF(p), combinations of Hom-basis maps:
    # the quotient of Y by the image of g, its decomposition, and the pushout
    # along the injective envelope of X, against the dense reference
    rng = np.random.default_rng(20261021 + p)
    for A in (A36, A44, Algebra(6, 9)):
        inds = modcat.nonprojective_inds(A)
        for _ in range(40):
            X, Y = (tuple(sorted(inds[k] for k in rng.choice(len(inds), int(rng.integers(1, 3)))))
                    for _ in range(2))
            G = np.zeros((modcat.sum_dim(Y), modcat.sum_dim(X)), dtype=np.int64)
            for f in ref.hom_basis(X, Y, A):
                G = (G + int(rng.integers(0, p)) * f) % p
            g = ModMap(X, Y, columns(G, p), p)
            g.check(A)
            vv, DQ = modcat._quotient(Y, g.matrix, A, p)
            vv0, DQ0 = ref.quotient(Y, G, A, p)
            assert vv == vv0 and np.array_equal(dense(DQ, len(vv)), DQ0), (X, Y, G)
            assert modcat.decompose(vv, DQ, A, p) == ref.decompose(vv0, DQ0, A, p), (X, Y, G)
            assert modcat.pushout_decompose(g, A, p) == ref.pushout_decompose(G, X, Y, A, p)


# (n, ell, vertex vector, packed columns of D): a D from vertex 1 to vertex 3
# of A_3^6, and the identity on the single vertex of A_1^2, graded but not
# nilpotent
NOT_MODULES = {"not graded": (3, 6, [1, 3], (0b10, 0)),
               "not nilpotent": (1, 2, [1], (1,))}


@pytest.mark.parametrize("case", NOT_MODULES)
def test_decompose_rejects_non_modules(case):
    n, ell, vv, D = NOT_MODULES[case]
    with pytest.raises(ValueError, match="decompose"):
        modcat.decompose(vv, D, Algebra(n, ell))
    with pytest.raises(ValueError, match="decompose"):
        ref.decompose(vv, dense(D, len(vv)), Algebra(n, ell))


def test_decompose_rejects_non_modules_under_optimize():
    # the checks are exceptions, not asserts, so python -O keeps them
    script = (
        "import sys\n"
        "from smstilt.modcat import Algebra, decompose\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit('not running under -O')\n"
        f"for n, ell, vv, D in {list(NOT_MODULES.values())!r}:\n"
        "    try:\n"
        "        decompose(vv, D, Algebra(n, ell))\n"
        "    except ValueError:\n"
        "        continue\n"
        "    sys.exit(f'accepted {vv} {D}')\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(modcat.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def _iso_exists(X, Y, A, p=2):
    """Oracle: search all intertwiners X -> Y for an invertible one."""
    if modcat.sum_dim(X) != modcat.sum_dim(Y):
        return False
    basis = ref.hom_basis(X, Y, A)
    d = modcat.sum_dim(X)
    for coeffs in product(range(p), repeat=len(basis)):
        F = np.zeros((d, d), dtype=np.int64)
        for c, f in zip(coeffs, basis):
            F = (F + c * f) % p
        if rank(F, p) == d:
            return True
    return False


def test_cone_nonzero_map_against_pushout_oracle():
    # g: the nonzero stable map M_{3,3} -> M_{1,1} in A_3^6
    M, N = Ind(3, 3), Ind(1, 1)
    reps = modcat.stable_reps((M,), (N,), A36)
    assert len(reps) == 1
    g = ModMap((M,), (N,), reps[0])
    mult = modcat.pushout_decompose(g, A36)
    claimed = []
    for ind in sorted(mult):
        claimed.extend([ind] * mult[ind])
    total = modcat.sum_dim(tuple(claimed))
    I = Ind(M.socle, A36.loewy)
    assert total == I.length + N.length - M.length
    # oracle: the claimed decomposition is isomorphic to itself realised
    # as an explicit quotient, via exhaustive intertwiner search
    iota = ref.hom_matrix(M, I, M.length)
    F = np.concatenate([iota, dense(g.matrix, N.length)])
    vv, DQ = ref.quotient((I, N), F, A36)
    # rebuild a concrete module from the claimed list and compare shift data
    X = tuple(sorted(claimed))
    assert sorted(vv) == sorted(modcat.vertex_vector(X, A36))
    Dx = ref.shift_matrix(X)
    for k in range(1, A36.loewy + 1):
        assert rank(np.linalg.matrix_power(DQ, k) % 2) == rank(np.linalg.matrix_power(Dx, k) % 2)


def test_cone_of_zero_syzygy_returns_module():
    # cone of (Omega X -> 0) is stably X
    for M in [Ind(1, 2), Ind(2, 4), Ind(3, 1)]:
        OM = omega(M, A36)
        g = ModMap((OM,), (), (0,) * OM.length)
        assert cone_of_stable_map(g, A36) == (M,)


def test_min_left_approx_trivial_cases():
    # no stable maps at all: the approximation is the zero object
    g = min_left_approx(Ind(1, 2), [Ind(2, 1)], Algebra(3, 3))
    assert g.target == ()
    # member of the class: the identity is the approximation
    g = min_left_approx(Ind(1, 1), [Ind(1, 1)], A36)
    assert g.target == (Ind(1, 1),)
    assert gf.rank(g.matrix) == 1


def _factors_through(g: ModMap, Z: Ind, C, A: Algebra, left: bool) -> bool:
    """Exhaustively: every map Z -> c (left) or c -> Z (right), c in C, lies
    in the span of the maps through g and those through a projective."""
    G = dense(g.matrix, modcat.sum_dim(g.target))
    for c in C:
        if left:
            basis = ref.hom_basis((Z,), (c,), A)
            span = [((u @ G) % 2).reshape(-1) for u in ref.hom_basis(g.target, (c,), A)]
            FR = ref.factor_rows((Z,), (c,), A)
        else:
            basis = ref.hom_basis((c,), (Z,), A)
            span = [((G @ v) % 2).reshape(-1) for v in ref.hom_basis((c,), g.source, A)]
            FR = ref.factor_rows((c,), (Z,), A)
        if not basis:
            continue
        span = np.concatenate([np.array(span, dtype=np.int64).reshape(-1, basis[0].size), FR])
        base = rank(span)
        for coeffs in product(range(2), repeat=len(basis)):
            h = sum(cf * f for cf, f in zip(coeffs, basis)) % 2
            if rank(np.concatenate([span, h.reshape(1, -1)])) != base:
                return False
    return True


def _drop_summand(g: ModMap, k: int, left: bool) -> ModMap:
    X = g.target if left else g.source
    offs = modcat.sum_offsets(X)
    keep = [i for i in range(offs[-1]) if not offs[k] <= i < offs[k + 1]]
    X2 = X[:k] + X[k + 1:]
    G = dense(g.matrix, modcat.sum_dim(g.target))
    if left:
        return ModMap(g.source, X2, columns(G[keep]))
    return ModMap(X2, g.target, columns(G[:, keep]))


@pytest.mark.parametrize("n, ell, most", [(2, 4, 2), (3, 3, 3), (3, 6, 1)],
                         ids=["A_2^4", "A_3^3", "A_3^6"])
@pytest.mark.parametrize("side", ["left", "right"])
def test_min_approx_universality_exhaustive(side, n, ell, most):
    # C runs over the extension closures of the Nakayama-stable subsets of
    # configurations that are unions of at most `most` orbits (all of them
    # on the two small algebras), Z over all non-projective modules: the
    # approximation is universal, and dropping any one summand loses a map
    A, left = Algebra(n, ell), side == "left"
    classes = set()
    for S in enumerate_configurations(A):
        orbits = nu_orbits_points(S)
        for r in range(1, most + 1):
            for Ks in combinations(orbits, r):
                K = sorted(Ind(*q) for orbit in Ks for q in orbit)
                classes.add(modcat.closure_inds(tuple(K), A))
    for C in sorted(classes):
        for Z in modcat.nonprojective_inds(A):
            g = min_left_approx(Z, C, A) if left else min_right_approx(C, Z, A)
            assert _factors_through(g, Z, C, A, left)
            for k in range(len(g.target if left else g.source)):
                assert not _factors_through(_drop_summand(g, k, left), Z, C, A, left)


def test_extension_middle_terms_examples():
    S1, S2 = Ind(1, 1), Ind(2, 1)
    assert _core_middle_terms((S1,), (S1,), A36) == {(S1, S1)}
    mids = _core_middle_terms((S2,), (S1,), A36)
    assert (Ind(2, 2),) in mids          # the uniserial extension
    assert tuple(sorted((S1, S2))) in mids
    for E in mids:
        assert modcat.sum_dim(E) == 2


def _brute_middle_terms(B, C, A):
    """Oracle: enumerate summand multisets with the right graded dimensions
    and search injections B -> E with quotient isomorphic to C."""
    want = sorted(modcat.vertex_vector(B, A) + modcat.vertex_vector(C, A))
    total = len(want)
    out = set()
    pool = [m for m in modcat.all_inds(A) if m.length <= total]
    for k in range(1, total + 1):
        for E in combinations_with_replacement(pool, k):
            if sorted(modcat.vertex_vector(E, A)) != want:
                continue
            basis = ref.hom_basis(B, E, A)
            dB = modcat.sum_dim(B)
            found = False
            for coeffs in product(range(2), repeat=len(basis)):
                F = np.zeros((modcat.sum_dim(E), dB), dtype=np.int64)
                for c, f in zip(coeffs, basis):
                    F = (F + c * f) % 2
                if rank(F) != dB:
                    continue
                vv, DQ = ref.quotient(E, F, A)
                mult = ref.decompose(vv, DQ, A)
                quot = []
                for ind in sorted(mult):
                    quot.extend([ind] * mult[ind])
                if tuple(quot) == tuple(sorted(C)):
                    found = True
                    break
            if found:
                out.add(tuple(sorted(E)))
    return out


def test_middle_terms_match_brute_force_oracle():
    A33 = Algebra(3, 3)
    cases = [((Ind(1, 1),), (Ind(1, 1),)),
             ((Ind(2, 1),), (Ind(1, 1),)),
             ((Ind(1, 2),), (Ind(2, 1),))]
    for B, C in cases:
        assert _core_middle_terms(B, C, A33) == _brute_middle_terms(B, C, A33)
    assert _core_middle_terms((Ind(2, 1),), (Ind(1, 1),), A36) == \
        _brute_middle_terms((Ind(2, 1),), (Ind(1, 1),), A36)


def test_extension_closure():
    A33 = Algebra(3, 3)
    # all simples generate everything up to the bound
    simples = tuple(Ind(i, 1) for i in (1, 2, 3))
    assert set(closure_inds(simples, A33)) == set(modcat.nonprojective_inds(A33))
    # a simple without self-extensions generates only itself
    assert closure_inds((Ind(1, 1),), A36) == (Ind(1, 1),)
    # a brick whose length is divisible by n has a self-extension tower
    cl2 = closure_inds((Ind(2, 3),), A36)
    assert cl2 == (Ind(2, 3), Ind(2, 6))
    # idempotent: closing the closure adds no indecomposable
    assert closure_inds(cl2, A36) == cl2


def test_closure_inds_truncates_at_ell():
    # Ind(2,1) lies in Filt({Ind(2,3)}) on A_2^4, through a self-extension
    # of Ind(2,3) whose end terms have total dimension 6 > ell = 4
    A24, M = Algebra(2, 4), Ind(2, 3)
    assert (Ind(2, 1), Ind(2, 5)) in _core_middle_terms((M,), (M,), A24)
    assert closure_inds((M,), A24) == (M,)


# ---------------------------------------------------------------------------
# The zero cases (split extensions, empty approximation components, cones of
# zero maps) against the matrix model they skip.
# ---------------------------------------------------------------------------

LADDER = [(3, 6), (4, 4), (6, 9)]
LADDER_IDS = ["A_3^6", "A_4^4", "A_6^9"]


def _pushout_middle_terms(B, C, A, p=2):
    """Reference: one pushout and `decompose` for every coefficient vector
    over the stable Hom basis, the zero vector included."""
    if not C:
        return {B}
    if not B:
        return {C}
    OC = tuple(omega(c, A) for c in C)
    Ps, _ = _proj_cover_sum(C, A)
    iota = ref.diagonal(OC, Ps)
    reps = [dense(f, modcat.sum_dim(B)) for f in modcat.stable_reps(OC, B, A, p)]
    out = set()
    for coeffs in product(range(p), repeat=len(reps)):
        theta = np.zeros((modcat.sum_dim(B), modcat.sum_dim(OC)), dtype=np.int64)
        for c, rep in zip(coeffs, reps):
            theta = (theta + c * rep) % p
        vv, DQ = ref.quotient(B + Ps, np.concatenate([theta, iota]), A, p)
        mult = ref.decompose(vv, DQ, A, p)
        out.add(tuple(ind for ind in sorted(mult) for _ in range(mult[ind])))
    return out


def _closure_visits(A, most, monkeypatch):
    """Every (B, (s,)) that `closure_inds` passes to `_core_middle_terms`
    for the unions of at most `most` nu-orbits of every configuration of A,
    with the answer it got, computed once per pair."""
    subsets = set()
    for S in enumerate_configurations(A):
        orbits = nu_orbits_points(S)
        for r in range(1, min(most, len(orbits)) + 1):
            for Ks in combinations(orbits, r):
                subsets.add(tuple(sorted(Ind(*q) for orbit in Ks for q in orbit)))
    visits = {}
    real = modcat._core_middle_terms

    def record(B, C, A, p=2):
        if (B, C) not in visits:
            visits[B, C] = real(B, C, A, p)
        return visits[B, C]

    with monkeypatch.context() as m:
        m.setattr(modcat, "_core_middle_terms", record)
        for K in sorted(subsets):
            closure_inds.__wrapped__(K, A)
    return visits


@pytest.mark.parametrize("n, ell, most", [(3, 6, 3), (4, 4, 4), (6, 9, 1)], ids=LADDER_IDS)
def test_core_middle_terms_match_pushout_loop(n, ell, most, monkeypatch):
    # every Nakayama-stable subset on A_3^6 and A_4^4; on A_6^9 the single
    # orbits, the subsets that mutation at one orbit closes: two of its three
    # orbits already make about 20000 distinct (B, (s,)), too many to run here
    A = Algebra(n, ell)
    visits = _closure_visits(A, most, monkeypatch)
    split = [(B, C) for B, C in visits if B and not stable_hom_dim(
        tuple(omega(c, A) for c in C), B, A)]
    assert split and len(split) < len(visits)  # both kinds of case are covered
    for (B, C), got in sorted(visits.items()):
        assert got == _pushout_middle_terms(B, C, A), (B, C)


def test_core_middle_terms_match_pushout_loop_examples():
    A33 = Algebra(3, 3)
    cases = [((Ind(1, 1),), (Ind(1, 1),)), ((Ind(2, 1),), (Ind(1, 1),)),
             ((Ind(1, 2),), (Ind(2, 1),)), ((), (Ind(2, 1),)), ((Ind(1, 2),), ()),
             ((Ind(1, 1), Ind(2, 1)), (Ind(3, 1),)), ((Ind(3, 1),), (Ind(1, 1), Ind(2, 1)))]
    for p in (2, 3):
        for B, C in cases:
            assert _core_middle_terms(B, C, A33, p) == _pushout_middle_terms(B, C, A33, p)


def _pushout_cone(g, A, p):
    """Reference: the cone read off the dense pushout, projectives dropped."""
    mult = ref.pushout_decompose(dense(g.matrix, modcat.sum_dim(g.target)), g.source, g.target,
                                 A, p)
    return tuple(ind for ind in sorted(mult) if not modcat.is_projective(ind, A)
                 for _ in range(mult[ind]))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n, ell", LADDER, ids=LADDER_IDS)
def test_cones_of_zero_maps_match_pushout(n, ell, p):
    # M -> 0 has cone Omega^{-1} M and 0 -> N has cone N
    A = Algebra(n, ell)
    inds = modcat.nonprojective_inds(A)
    sums = [(M,) for M in inds] + list(combinations_with_replacement(inds, 2))
    for X in sums:
        d = modcat.sum_dim(X)
        to_zero = ModMap(X, (), (0,) * d, p)
        from_zero = ModMap((), X, (), p)
        ref_to, ref_from = _pushout_cone(to_zero, A, p), _pushout_cone(from_zero, A, p)
        assert cone_of_stable_map(to_zero, A, p) == ref_to, X
        assert cone_of_stable_map(from_zero, A, p) == ref_from, X
        # the pushout's answer does not depend on the order of the summands
        assert cone_of_stable_map(ModMap(X[::-1], (), to_zero.matrix, p), A, p) == ref_to
        assert cone_of_stable_map(ModMap((), X[::-1], from_zero.matrix, p), A, p) == ref_from

