import random

import pytest

from smstilt import modcat, smscfg
from smstilt.modcat import Algebra, Ind
from smstilt.smscfg import (BOTTOM, TOP, Configuration, config_from_json,
                            config_shift, enumerate_configurations,
                            is_configuration, omega_insert, prune_type,
                            simples, sms_mutate, sms_mutate_tracked, tilde)

A36 = Algebra(3, 6)
A24 = Algebra(2, 4)


def test_is_configuration_examples():
    assert is_configuration(simples(A36), A36)
    assert is_configuration(Configuration(A36, ((1, 1), (2, 3), (3, 5))), A36)
    assert not is_configuration(Configuration(A36, ((1, 1), (2, 1))), A36)
    with pytest.raises(ValueError):
        Configuration(A36, ((1, 7),))


def _stable_homs(A, p=2):
    """Stable Hom dimensions of every pair of points, straight from modcat."""
    pts = smscfg.all_points(A)
    return {(a, b): modcat.stable_hom_dim(Ind(*a), Ind(*b), A, p) for a in pts for b in pts}


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n, ell", [(3, 6), (4, 4), (6, 9)])
def test_stable_table_grid_matches_per_pair(n, ell, p):
    # the table read off one grid of rotation classes, against one
    # stable_hom_dim call per pair of points
    A = Algebra(n, ell)
    pts = smscfg.all_points(A)
    hom = _stable_homs(A, p)
    idx, table = smscfg._stable_table(A, p)[:2]
    assert idx == {q: k for k, q in enumerate(pts)}
    assert table == [[hom[a, b] for b in pts] for a in pts]


def _enumerate_reference(A):
    """Reference: the list-based search with pairwise lookups that the mask
    search replaced; same candidate order and pruning rule."""
    hom = _stable_homs(A)
    verts = smscfg.all_points(A)
    cands = sorted((q for q in verts if hom[q, q] == 1), key=lambda q: (q[1], q[0]))
    found = []

    def orthogonal(q, chosen):
        return all(hom[q, c] == 0 and hom[c, q] == 0 for c in chosen)

    def covered(chosen):
        return all(any(hom[v, q] for q in chosen) for v in verts)

    def search(start, chosen):
        if covered(chosen):
            found.append(tuple(sorted(chosen)))
            return
        avail = [j for j in range(start, len(cands)) if orthogonal(cands[j], chosen)]
        if covered(chosen + [cands[j] for j in avail]):
            for j in avail:
                search(j + 1, chosen + [cands[j]])

    search(0, [])
    return tuple(Configuration(A, pts) for pts in sorted(set(found)))


# A_3^9 is the one with non-brick points (Loewy length > 2n + 1)
@pytest.mark.parametrize("n, ell", [(2, 4), (3, 3), (3, 6), (4, 4), (4, 8), (6, 9), (3, 9)])
def test_enumeration_matches_list_reference(n, ell):
    A = Algebra(n, ell)
    assert enumerate_configurations(A) == _enumerate_reference(A)


def _random_subsets(A, rng, count):
    """Arbitrary point sets, configurations less one point (orthogonal but
    short of coverage) and configurations with one point swapped for any
    vertex, bricks or not."""
    verts = smscfg.all_points(A)
    cfgs = [list(C.points) for C in enumerate_configurations(A)]
    subsets = []
    for k in range(count):
        if k % 3 == 0:
            S = rng.sample(verts, rng.randint(1, A.n + 1))
        else:
            S = list(rng.choice(cfgs))
            i = rng.randrange(len(S))
            if k % 3 == 1:
                del S[i]
            else:
                S[i] = rng.choice(verts)
        subsets.append(tuple(S))
    return subsets


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n, ell", [(3, 6), (6, 9), (3, 9)])
def test_is_configuration_matches_pairwise_definition(n, ell, p):
    A = Algebra(n, ell)
    hom = _stable_homs(A, p)
    verts = smscfg.all_points(A)

    def bricks(S):
        return all(hom[a, b] == int(a == b) for a in S for b in S)

    def covers(S):
        return all(any(hom[v, q] for q in S) for v in verts)

    cfgs = enumerate_configurations(A)
    subsets = _random_subsets(A, random.Random(1000 * n + ell), 500)
    for S in list(cfgs) + subsets:
        pts = set(S.points if isinstance(S, Configuration) else S)
        assert is_configuration(S, A, p) == (bricks(pts) and covers(pts)), S
    kinds = {(bricks(set(S)), covers(set(S))) for S in subsets}
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}
    if (n, ell) == (3, 9):
        assert any(hom[q, q] > 1 for S in subsets for q in S)


@pytest.mark.parametrize("n, ell", [(3, 6), (4, 4)])
def test_configurations_hold_over_gf3(n, ell):
    A = Algebra(n, ell)
    assert all(is_configuration(C, A, p=3) for C in enumerate_configurations(A))


def test_enumeration_counts():
    for n, ell, want in [(3, 3, 5), (3, 6, 20), (2, 4, 6), (2, 2, 2), (4, 4, 14)]:
        cfgs = enumerate_configurations(Algebra(n, ell))
        assert len(cfgs) == want
        for C in cfgs:
            assert len(C.points) == n
            assert is_configuration(C, C.algebra)


def test_points_lie_in_the_rim_bands():
    # consequence of the insertion construction: y <= e or y > e(m-1)
    for A in (A36, A24):
        e, m = A.e, A.ell // A.e
        for C in enumerate_configurations(A):
            for _, y in C.points:
                assert y <= e or y > e * (m - 1)


def test_config_shift():
    C = Configuration(A36, ((1, 1), (2, 3), (3, 5)))
    assert config_shift(C, "tau", 3).points == C.points
    assert config_shift(config_shift(C, "omega"), "omega_inv").points == C.points
    # shifted configurations stay configurations
    for C in enumerate_configurations(A24):
        for op in ("tau", "omega", "omega_inv"):
            assert is_configuration(config_shift(C, op), A24)


def test_mutation_single_simple_algebra():
    B = Algebra(1, 2)
    C = sms_mutate(simples(B), {(1, 1)}, "minus")
    assert C.points == ((1, 2),)


def test_mutation_of_simples_A24():
    # derived values: Omega^{-1} of the mutated simple plus a length-2 brick
    C1 = sms_mutate(simples(A24), {(1, 1)}, "minus")
    assert C1.points == ((1, 2), (2, 4))
    C2 = sms_mutate(simples(A24), {(2, 1)}, "minus")
    assert C2.points == ((1, 4), (2, 2))
    assert (2, 4) == smscfg.point_of(modcat.omega_inv(Ind(1, 1), A24))


def test_mutation_inverse_pairs():
    for C in enumerate_configurations(A36):
        for orbit in smscfg.nu_orbits_points(C):
            D, rep = sms_mutate_tracked(C, orbit, "minus")
            back = sms_mutate(D, {rep[p] for p in orbit}, "plus")
            assert back.points == C.points


def test_mutation_replaces_at_most_three_points():
    for C in enumerate_configurations(A36):
        for orbit in smscfg.nu_orbits_points(C):
            D, rep = sms_mutate_tracked(C, orbit, "minus")
            changed = sum(1 for p, q in rep.items() if p != q)
            assert changed <= 3


def test_mutation_on_simples_replaces_two_for_leaf_edges():
    # over the star every edge is a leaf: exactly two members move
    for A in (A24, A36):
        S = simples(A)
        for orbit in smscfg.nu_orbits_points(S):
            _, rep = sms_mutate_tracked(S, orbit, "minus")
            assert sum(1 for p, q in rep.items() if p != q) == 2


def test_mutation_validation():
    with pytest.raises(ValueError):
        sms_mutate(simples(A36), {(9, 9)}, "minus")
    A42 = Algebra(4, 2)
    with pytest.raises(ValueError):
        sms_mutate(simples(A42), {(1, 1)}, "minus")  # not Nakayama-stable


def test_mutation_cache_safety():
    C = simples(A36)
    orbit = smscfg.nu_orbits_points(C)[0]
    D, rep = sms_mutate_tracked(C, orbit, "minus")
    want = dict(rep)
    rep.clear()
    for K in (list(orbit), set(orbit), frozenset(orbit), [list(q) for q in orbit]):
        D2, rep2 = sms_mutate_tracked(C, K, "minus")
        assert D2 == D and rep2 == want
    A42 = Algebra(4, 2)
    for _ in range(2):  # failures are not cached
        with pytest.raises(ValueError):
            sms_mutate_tracked(simples(A42), {(1, 1)}, "minus")  # not Nakayama-stable
        with pytest.raises(ValueError):
            sms_mutate_tracked(C, orbit, "sideways")


def _mutate_whole_configuration(C, K, sign):
    """Reference: the per-configuration loop that the per-point cache replaced."""
    A = C.algebra
    closure = modcat.closure_inds(tuple(sorted(smscfg.ind_of(q) for q in K)), A)
    mapping = {}
    for pt in C.points:
        M = smscfg.ind_of(pt)
        if pt in K:
            shifted = modcat.omega_inv(M, A) if sign == "minus" else modcat.omega(M, A)
            mapping[pt] = smscfg.point_of(shifted)
        elif sign == "minus":
            g = modcat.min_left_approx(modcat.omega(M, A), closure, A)
            (Y,) = modcat.cone_of_stable_map(g, A)
            mapping[pt] = smscfg.point_of(Y)
        else:
            g = modcat.min_right_approx(closure, modcat.omega_inv(M, A), A)
            (Y,) = modcat.cone_of_stable_map(g, A)
            mapping[pt] = smscfg.point_of(modcat.omega(Y, A))
    return Configuration(A, tuple(mapping.values())), mapping


@pytest.mark.parametrize("n, ell", [(3, 6), (6, 9)])
def test_per_point_cache_matches_whole_configuration_loop(n, ell):
    A = Algebra(n, ell)
    for C in enumerate_configurations(A):
        for K in smscfg.nu_orbits_points(C):
            for sign in ("minus", "plus"):
                assert sms_mutate_tracked(C, K, sign) == _mutate_whole_configuration(C, K, sign)


def test_point_mutation_failures_are_not_cached():
    # the cocone of (1,6) over the closure of {(1,1)} is zero; lru_cache keeps
    # no exceptions, so the second call fails the same way
    for _ in range(2):
        with pytest.raises(RuntimeError, match="cocone of \\(1, 6\\) is not indecomposable"):
            smscfg._mutate_point((1, 6), smscfg._frames(frozenset({(1, 1)}), A36), "plus", A36)


def _rotate(q, k, A):
    return ((q[0] + k - 1) % A.n + 1, q[1])


@pytest.mark.parametrize("n, ell", [(3, 6), (4, 4), (6, 9), (3, 9)])
def test_point_mutation_is_rotation_equivariant(n, ell):
    # every input, in every rotated frame, against the memoised core run
    # uncached on that same input, so no cached answer stands in for it
    A = Algebra(n, ell)
    inputs = {(pt, K, sign) for C in enumerate_configurations(A)
              for K in smscfg.nu_orbits_points(C) for pt in C.points for sign in ("minus", "plus")}
    for pt, K, sign in inputs:
        for k in range(n):
            ptk, Kk = _rotate(pt, k, A), frozenset(_rotate(q, k, A) for q in K)
            want = smscfg._mutate_point_in_frame.__wrapped__(ptk, Kk, sign, A)
            frames = smscfg._frames(Kk, A)
            assert smscfg._mutate_point(ptk, frames, sign, A) == want, (n, ell, pt, K, sign, k)


def test_point_mutation_failures_name_the_callers_point():
    # (2,6) over {(2,1)} is (1,6) over {(1,1)} rotated by one vertex; the
    # failure is computed in that frame but reported in the caller's
    for _ in range(2):
        with pytest.raises(RuntimeError, match="cocone of \\(2, 6\\) is not indecomposable"):
            smscfg._mutate_point((2, 6), smscfg._frames(frozenset({(2, 1)}), A36), "plus", A36)


def test_omega_insert_examples():
    B = Algebra(1, 2)
    C = Configuration(B, ((1, 1),))
    assert omega_insert(C, 2).points == ((1, 1), (2, 1))
    C2 = Configuration(B, ((1, 2),))
    assert omega_insert(C2, 2).points == ((1, 3), (2, 1))
    for C in enumerate_configurations(A24):
        D = omega_insert(C, 2)
        assert is_configuration(D, D.algebra)
    with pytest.raises(ValueError):
        omega_insert(Configuration(A24, ((1, 1), (1, 3))), 2)


def test_omega_insert_deletion_inverse():
    # inserting a rim vertex and deleting it again is the identity
    for C in enumerate_configurations(A24):
        D = omega_insert(C, 2)
        assert smscfg._delete_and_deinsert(D, 2).points == C.points
    # a configuration without the inserted point (h, 1) is refused
    with pytest.raises(ValueError, match="inserted point"):
        smscfg._delete_and_deinsert(Configuration(A24, ((1, 1), (1, 2))), 2)


def test_prune_type_immediate():
    assert prune_type(simples(A36), 3, 2) == BOTTOM
    assert prune_type(config_shift(simples(A36), "omega"), 3, 2) == TOP
    with pytest.raises(ValueError):
        prune_type(simples(Algebra(3, 3)), 3, 1)


def test_prune_type_partition_and_omega_swap():
    for A, e, m in [(A24, 2, 2), (A36, 3, 2)]:
        kinds = {}
        for C in enumerate_configurations(A):
            kinds[C.points] = prune_type(C, e, m)
        values = list(kinds.values())
        assert values.count(BOTTOM) == values.count(TOP) == len(values) // 2
        for C in enumerate_configurations(A):
            flipped = prune_type(config_shift(C, "omega"), e, m)
            assert flipped != kinds[C.points]


def test_prune_type_choice_independent():
    rng = random.Random(20260810)
    for C in enumerate_configurations(A36):
        want = prune_type(C, 3, 2)
        for _ in range(100):
            assert prune_type(C, 3, 2, rng=rng) == want


def test_prune_type_fixed_example():
    # frozen from the validated pruner; the omega-swap test guards the parity
    assert prune_type(Configuration(A36, ((1, 1), (2, 3), (3, 5))), 3, 2) == BOTTOM


def test_tilde():
    assert tilde(simples(A36)).points == simples(Algebra(3, 3)).points
    C = Configuration(A36, ((1, 1), (2, 3), (3, 5)))
    assert tilde(C).points == ((1, 1), (2, 3), (3, 2))
    images = {tilde(C).points for C in enumerate_configurations(A36)}
    assert images == {C.points for C in enumerate_configurations(Algebra(3, 3))}
    # for m = 2 the two bands cover the whole quiver; at m = 3 they do not
    with pytest.raises(ValueError):
        tilde(Configuration(Algebra(3, 9), ((1, 1), (2, 5), (3, 7))))


def test_tilde_commutes_with_mutation():
    for C in enumerate_configurations(A36):
        for orbit in smscfg.nu_orbits_points(C):
            lhs = tilde(sms_mutate(C, orbit, "minus"))
            rhs = sms_mutate(tilde(C), {smscfg.tilde_point(p, A36) for p in orbit}, "minus")
            assert lhs.points == rhs.points


def test_json_and_dot():
    C = Configuration(A36, ((1, 1), (2, 3), (3, 5)))
    assert config_from_json(C.to_json()).points == C.points
    dot = smscfg.to_dot(C)
    assert "p2_3" in dot and "gray75" in dot
