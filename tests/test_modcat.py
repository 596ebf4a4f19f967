from itertools import combinations, product

import numpy as np
import pytest

from smstilt import gf, modcat
from smstilt.modcat import (Algebra, Ind, ModMap, cone_of_stable_map,
                            extension_closure, extension_middle_terms,
                            hom_basis, hom_dim, min_left_approx,
                            min_right_approx, nu, omega, omega_inv,
                            proj_cover, proj_of_top, stable_hom_dim, tau)
from smstilt.smscfg import enumerate_configurations, nu_orbits_points

A36 = Algebra(3, 6)
A44 = Algebra(4, 4)
A46 = Algebra(4, 6)


def intertwiner_dim(M: Ind, N: Ind, A: Algebra, p: int = 2) -> int:
    """Oracle: solve the grading and shift-commutation conditions directly."""
    vm = modcat.vertex_vector((M,), A)
    vn = modcat.vertex_vector((N,), A)
    DM = modcat.shift_matrix((M,))
    DN = modcat.shift_matrix((N,))
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
    return cols - gf.rank(np.array(rows), p)


def stable_oracle(M: Ind, N: Ind, A: Algebra, p: int = 2) -> int:
    """Oracle: quotient by compositions through every projective, not just
    the projective cover of the target."""
    full = hom_basis(M, N, A)
    if not full:
        return 0
    through = []
    for j in range(1, A.n + 1):
        P = proj_of_top(j, A)
        for u in hom_basis(M, P, A):
            for v in hom_basis(P, N, A):
                through.append(((v @ u) % p).reshape(-1))
    if not through:
        return len(full)
    return len(full) - gf.rank(np.array(through), p)


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
    for M in modcat.all_inds(A36)[:8]:
        for N in modcat.all_inds(A36)[:8]:
            for f in hom_basis(M, N, A36):
                ModMap((M,), (N,), f).check(A36)


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
    P, pi = proj_cover(Ind(1, 1), A36)
    assert P == proj_of_top(1, A36)
    pi.check(A36)
    # kernel of the cover of the simple is its syzygy
    K = gf.nullspace(pi.matrix)
    assert K.shape[0] == omega(Ind(1, 1), A36).length == 6
    # the cover of a projective is an isomorphism
    P2, pi2 = proj_cover(proj_of_top(2, A36), A36)
    assert P2 == proj_of_top(2, A36)
    assert gf.rank(pi2.matrix) == A36.loewy


def test_cone_split_and_contractible():
    M, N = Ind(1, 1), Ind(2, 3)
    z = modcat.zero_map((M,), (N,))
    assert cone_of_stable_map(z, A36) == tuple(sorted([N, omega_inv(M, A36)]))
    ident = ModMap((M,), (M,), np.eye(1, dtype=np.int64))
    assert cone_of_stable_map(ident, A36) == ()


def _iso_exists(X, Y, A, p=2):
    """Oracle: search all intertwiners X -> Y for an invertible one."""
    if modcat.sum_dim(X) != modcat.sum_dim(Y):
        return False
    basis = hom_basis(X, Y, A)
    d = modcat.sum_dim(X)
    from itertools import product
    for coeffs in product(range(p), repeat=len(basis)):
        F = np.zeros((d, d), dtype=np.int64)
        for c, f in zip(coeffs, basis):
            F = (F + c * f) % p
        if gf.rank(F, p) == d:
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
    iota = modcat._hom_matrix(M, I, M.length)
    F = np.concatenate([iota, g.matrix])
    vv, DQ = modcat._quotient((I, N), F, A36)
    # rebuild a concrete module from the claimed list and compare shift data
    X = tuple(sorted(claimed))
    assert sorted(vv) == sorted(modcat.vertex_vector(X, A36))
    Dx = modcat.shift_matrix(X)
    for k in range(1, A36.loewy + 1):
        assert gf.rank(np.linalg.matrix_power(DQ, k) % 2) == \
            gf.rank(np.linalg.matrix_power(Dx, k) % 2)


def test_cone_of_zero_syzygy_returns_module():
    # cone of (Omega X -> 0) is stably X
    for M in [Ind(1, 2), Ind(2, 4), Ind(3, 1)]:
        g = modcat.zero_map((omega(M, A36),), ())
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
    for c in C:
        if left:
            basis = hom_basis((Z,), (c,), A)
            span = [((u @ g.matrix) % 2).reshape(-1) for u in hom_basis(g.target, (c,), A)]
            FR = modcat.factor_rows((Z,), (c,), A)
        else:
            basis = hom_basis((c,), (Z,), A)
            span = [((g.matrix @ v) % 2).reshape(-1) for v in hom_basis((c,), g.source, A)]
            FR = modcat.factor_rows((c,), (Z,), A)
        if not basis:
            continue
        span = np.concatenate([np.array(span, dtype=np.int64).reshape(-1, basis[0].size), FR])
        base = gf.rank(span)
        for coeffs in product(range(2), repeat=len(basis)):
            h = sum(cf * f for cf, f in zip(coeffs, basis)) % 2
            if gf.rank(np.concatenate([span, h.reshape(1, -1)])) != base:
                return False
    return True


def _drop_summand(g: ModMap, k: int, left: bool) -> ModMap:
    X = g.target if left else g.source
    offs = modcat.sum_offsets(X)
    keep = [i for i in range(offs[-1]) if not offs[k] <= i < offs[k + 1]]
    X2 = X[:k] + X[k + 1:]
    if left:
        return ModMap(g.source, X2, g.matrix[keep])
    return ModMap(X2, g.target, g.matrix[:, keep])


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
    assert extension_middle_terms((S1,), (S1,), A36) == {(S1, S1)}
    mids = extension_middle_terms((S2,), (S1,), A36)
    assert (Ind(2, 2),) in mids          # the uniserial extension
    assert tuple(sorted((S1, S2))) in mids
    for E in mids:
        assert modcat.sum_dim(E) == 2


def _brute_middle_terms(B, C, A):
    """Oracle: enumerate summand multisets with the right graded dimensions
    and search injections B -> E with quotient isomorphic to C."""
    from itertools import combinations_with_replacement, product
    want = sorted(modcat.vertex_vector(B, A) + modcat.vertex_vector(C, A))
    total = len(want)
    out = set()
    pool = [m for m in modcat.all_inds(A) if m.length <= total]
    for k in range(1, total + 1):
        for E in combinations_with_replacement(pool, k):
            if sorted(modcat.vertex_vector(E, A)) != want:
                continue
            basis = hom_basis(B, E, A)
            dB = modcat.sum_dim(B)
            found = False
            for coeffs in product(range(2), repeat=len(basis)):
                F = np.zeros((modcat.sum_dim(E), dB), dtype=np.int64)
                for c, f in zip(coeffs, basis):
                    F = (F + c * f) % 2
                if gf.rank(F) != dB:
                    continue
                vv, DQ = modcat._quotient(E, F, A)
                mult = modcat.decompose(vv, DQ, A)
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
        assert extension_middle_terms(B, C, A33) == _brute_middle_terms(B, C, A33)
    assert extension_middle_terms((Ind(2, 1),), (Ind(1, 1),), A36) == \
        _brute_middle_terms((Ind(2, 1),), (Ind(1, 1),), A36)


def test_extension_closure():
    A33 = Algebra(3, 3)
    # all simples generate everything up to the bound
    cl = extension_closure([Ind(i, 1) for i in (1, 2, 3)], A33, bound=3)
    nonproj = {M for M in modcat.nonprojective_inds(A33)}
    assert set(cl.indecomposables) == nonproj
    # a simple without self-extensions generates only itself
    cl1 = extension_closure([Ind(1, 1)], A36, bound=6)
    assert set(cl1.indecomposables) == {Ind(1, 1)}
    # a brick whose length is divisible by n has a self-extension tower
    cl2 = extension_closure([Ind(2, 3)], A36, bound=6)
    assert set(cl2.indecomposables) == {Ind(2, 3), Ind(2, 6)}
    # idempotent: closing the closure adds nothing
    cl3 = extension_closure(sorted(cl2.indecomposables), A36, bound=6)
    assert cl3.objects == cl2.objects
