import pytest

from smstilt import complexes as cx, smscfg
from smstilt.complexes import Stalk, TwoTerm
from smstilt.modcat import Algebra
from smstilt.transport import (bfs_sequence, canonical_sequence,
                               exchange_quiver, fmap, fmap_tracked,
                               transport_along, two_term_objects, verify)

A36 = Algebra(3, 6)


def stalk_complex(A, deg=0):
    return TwoTerm(A, tuple(Stalk(i, deg) for i in range(1, A.n + 1)))


def test_canonical_sequence_anchors():
    assert canonical_sequence(stalk_complex(A36)) == []
    assert canonical_sequence(stalk_complex(A36, deg=-1)) == []
    with pytest.raises(ValueError):
        canonical_sequence(TwoTerm(A36, (Stalk(1, 0),)))


def test_canonical_sequence_replays_to_target():
    for T in two_term_objects(A36):
        sign = cx.part_of(T)
        U = stalk_complex(A36, deg=0 if sign == "minus" else -1)
        for orbit_indices in canonical_sequence(T):
            orbit = set()
            for s in U.summands:
                idx = s.idx if isinstance(s, Stalk) else s.tgt
                # replay mutations happen at stalk summands only
                if isinstance(s, Stalk) and s.idx in orbit_indices:
                    orbit.add(s)
            assert orbit, "canonical sequence step is not a stalk orbit"
            U = cx.two_term_mutate(U, orbit, sign)
            assert U is not None
        assert U == T


def test_canonical_sequence_length():
    for T in two_term_objects(A36):
        stalks = sum(1 for s in T.summands if isinstance(s, Stalk))
        assert len(canonical_sequence(T)) == 3 - stalks


def test_fmap_anchors():
    assert fmap(stalk_complex(A36)).points == tuple((i, 1) for i in (1, 2, 3))
    # the shifted stalk complex lands on the cosyzygies of the simples
    assert fmap(stalk_complex(A36, deg=-1)).points == tuple(sorted(((3, 6), (1, 6), (2, 6))))


def test_fmap_bijective_case():
    objs = two_term_objects(A36)
    images = [fmap(T).points for T in objs]
    assert len(objs) == 20
    assert len(set(images)) == 20
    assert set(images) == {C.points for C in smscfg.enumerate_configurations(A36)}


def test_fmap_surjective_case():
    A33 = Algebra(3, 3)
    images = {fmap(T).points for T in two_term_objects(A33)}
    assert len(two_term_objects(A33)) == 20
    assert images == {C.points for C in smscfg.enumerate_configurations(A33)}
    assert len(images) == 5


def test_fmap_confluence_with_bfs_paths():
    for T in two_term_objects(A36):
        assert transport_along(T, bfs_sequence(T)).points == fmap(T).points


def test_fmap_confluence_with_paper_sequence():
    A = Algebra(6, 12)
    T = stalk_complex(A)
    orbits = [frozenset({Stalk(i, 0)}) for i in (3, 1, 6, 5)]
    U = T
    for o in orbits:
        U = cx.two_term_mutate(U, o, "minus")
    assert transport_along(U, orbits).points == fmap(U).points
    # the canonical sequence reaches the same complex, maybe in another order
    V = T
    for orbit_indices in canonical_sequence(U):
        orbit = {s for s in V.summands if isinstance(s, Stalk) and s.idx in orbit_indices}
        V = cx.two_term_mutate(V, orbit, "minus")
    assert V == U


def test_type_preserved_along_canonical_steps():
    # every canonical-sequence mutation is at exceptional-incident edges and
    # keeps the bottom/top type fixed
    from smstilt.transport import _anchor, _sequence_data
    for T in two_term_objects(A36):
        sign, seq, _ = _sequence_data(T)
        C, pairing = _anchor(sign, A36)
        want = smscfg.prune_type(C, 3, 2)
        for orbit in seq:
            K = {pairing[i] for i in orbit}
            C, rep = smscfg.sms_mutate_tracked(C, K, sign)
            pairing = {i: rep[p] for i, p in pairing.items()}
            assert smscfg.prune_type(C, 3, 2) == want


def test_correspondence_tracks_mutation():
    for T in two_term_objects(A36):
        C, corr = fmap_tracked(T)
        assert set(corr.values()) == set(C.points)
        for orbit in cx.nu_orbits(T):
            R = cx.two_term_mutate(T, orbit, "minus")
            if R is None:
                continue
            S = {corr[s] for s in orbit}
            assert smscfg.sms_mutate(C, S, "minus").points == fmap(R).points


def test_fmap_tracked_cache_safety():
    T = two_term_objects(A36)[7]
    C, corr = fmap_tracked(T)
    want = dict(corr)
    corr.clear()
    C2, corr2 = fmap_tracked(T)
    assert C2 is C and corr2 == want
    for _ in range(2):  # failures are not cached
        with pytest.raises(ValueError):
            fmap_tracked(TwoTerm(A36, (Stalk(1, 0),)))


def test_exchange_quivers():
    Q2 = exchange_quiver("2tilt", A36)
    Qs = exchange_quiver("sms", A36)
    assert len(Q2.objects) == 20 and len(Qs.objects) == 20
    # every configuration has exactly n singleton left mutations
    out = {}
    for s, _, _ in Qs.arrows:
        out[s] = out.get(s, 0) + 1
    assert all(v == 3 for v in out.values())
    assert len(Qs.arrows) == 60
    assert len(Q2.arrows) < len(Qs.arrows)
    Q3 = exchange_quiver("sms", Algebra(3, 3))
    assert len(Q3.objects) == 5
    with pytest.raises(ValueError):
        exchange_quiver("nope", A36)


def test_verify_suites_pass():
    for suite in ("counts", "bijection", "types", "tilde", "functors"):
        assert verify(suite, A36)["status"] == "pass"
    assert verify("counts", Algebra(2, 4))["status"] == "pass"
    rep = verify("bijection", Algebra(3, 3))
    assert rep["status"] == "pass"
    assert rep["details"]["injective"] is False
    assert rep["details"]["fiber_sizes"] == [4, 4, 4, 4, 4]
    with pytest.raises(ValueError):
        verify("nope", A36)


def test_verify_threads_deterministic():
    a = verify("bijection", A36, threads=1)
    b = verify("bijection", A36, threads=4)
    assert a == b


def test_covering_case_with_trivial_multiplicity():
    # A_4^2: gcd 2 = ell, Nakayama orbits of size 2, surjective case
    A = Algebra(4, 2)
    objs = two_term_objects(A)
    assert len(objs) == 6 and all(cx.is_tilting(T) for T in objs)
    images = {fmap(T).points for T in objs}
    assert images == {C.points for C in smscfg.enumerate_configurations(A)}
    assert len(images) == 2
    assert verify("mutation-compat", A)["status"] == "pass"


def test_covering_case_with_multiplicity():
    # A_4^6: gcd 2, m = 3, bijective case with orbits of size 2
    A = Algebra(4, 6)
    objs = two_term_objects(A)
    images = {fmap(T).points for T in objs}
    assert len(objs) == len(images) == 6
    assert images == {C.points for C in smscfg.enumerate_configurations(A)}
    assert verify("mutation-compat", A)["status"] == "pass"
