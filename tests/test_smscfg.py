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
        assert D2 is D and rep2 == want
    A42 = Algebra(4, 2)
    for _ in range(2):  # failures are not cached
        with pytest.raises(ValueError):
            sms_mutate_tracked(simples(A42), {(1, 1)}, "minus")  # not Nakayama-stable
        with pytest.raises(ValueError):
            sms_mutate_tracked(C, orbit, "sideways")


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
