import itertools
import json

import numpy as np
import pytest

from smstilt import brauer, complexes as cx, modcat, smscfg, transport
from smstilt.cli import main
from smstilt.complexes import Arrow, Stalk, TwoTerm
from smstilt.modcat import Algebra, Ind, _bar
from smstilt.transport import (_anchor, _fmap_cached, _folded_label, _parent,
                               canonical_sequence, exchange_quiver, fmap, fmap_tracked,
                               two_term_objects, verify)

from _gf_reference import rank as ref_rank
from _modcat_reference import hom_basis
from _transport_reference import (all_summands, bfs_sequence, exchange_arrows, nu_orbits,
                                  transport_along)

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
    for T in two_term_objects(A36):
        sign, seq = cx.part_of(T), canonical_sequence(T)
        C, pairing = _anchor(sign, A36)
        want = smscfg.prune_type(C, 3, 2)
        for orbit in seq:
            K = {pairing[i] for i in orbit}
            C, rep = smscfg.sms_mutate_tracked(C, K, sign)
            pairing = {i: rep[p] for i, p in pairing.items()}
            assert smscfg.prune_type(C, 3, 2) == want


def _replay(T):
    """fmap_tracked computed the long way: the whole canonical sequence
    replayed from the anchor, each summand matched to the replay index that
    its folded edge ends on in the star."""
    A = T.algebra
    X, sign = cx.phi_inv(T)
    _, star_tree = brauer.star_reduction(brauer.psi(X, sign, A.ell // A.e), sign)
    index_of_summand = {}
    for arc, s in cx.phi_with_labels(X, sign, A)[1].items():
        base = arc.terminal if arc.kind == "projective" else arc.initial
        vertex = star_tree.far(_folded_label(arc, A.e), star_tree.exceptional)
        index_of_summand[s] = _bar(vertex + base - _bar(base, A.e), A.n)
    C, pairing = _anchor(sign, A)
    for orbit in canonical_sequence(T):
        C, rep = smscfg.sms_mutate_tracked(C, {pairing[i] for i in orbit}, sign)
        pairing = {i: rep[p] for i, p in pairing.items()}
    return C, {s: pairing[index_of_summand[s]] for s in T.summands}


# complexes whose correspondence differs from the replay's: none where n = e,
# and in covering cases a permutation inside one Nakayama orbit, on the
# complexes where the replay also differs from the derived-equivalence route
REPLAY_DIFFERS = {(3, 6): 0, (4, 4): 0, (4, 8): 0, (6, 9): 10, (2, 6): 0, (6, 4): 2}


@pytest.mark.parametrize("n, ell", list(REPLAY_DIFFERS))
def test_canonical_sequences_form_a_tree(n, ell):
    A = Algebra(n, ell)
    differs = 0
    for T in two_term_objects(A):
        sign, R, replaced = _parent(T)
        C, corr = fmap_tracked(T)
        C0, corr0 = _replay(T)
        assert C.points == C0.points
        if R is None:
            assert canonical_sequence(T) == []
            continue
        assert cx.part_of(R) == sign and set(replaced) < set(T.summands)
        assert canonical_sequence(R) == canonical_sequence(T)[:-1]
        for orbit in nu_orbits(T):
            assert {corr[s] for s in orbit} == {corr0[s] for s in orbit}
        differs += corr != corr0
    assert differs == REPLAY_DIFFERS[(n, ell)]


def _derived_hom(t, M, A):
    """(dim Hom_D(t, M), dim Hom_D(t, M[1])) for a summand t and a module M,
    from module maps: a stalk gives Hom(P_i, M) in its degree, an arrow
    P_a -> P_b the kernel and cokernel of Hom(P_b, M) -> Hom(P_a, M)."""
    if isinstance(t, Stalk):
        d = len(hom_basis(modcat.proj_of_top(t.idx, A), M, A))
        return (d, 0) if t.deg == 0 else (0, d)
    Pa, Pb = modcat.proj_of_top(t.src, A), modcat.proj_of_top(t.tgt, A)
    depth = cx._min_pos_degree(t.src, t.tgt, A)
    g = next(h for h in hom_basis(Pa, Pb, A) if h.sum() == A.loewy - depth)
    fb, fa = hom_basis(Pb, M, A), hom_basis(Pa, M, A)
    rank = ref_rank(np.array([(f @ g % 2).ravel() for f in fb])) if fb else 0
    return (len(fb) - rank, len(fa) - rank)


def _derived_correspondence(T):
    """Summand -> point by the derived equivalence that T induces, sharing no
    code with mutation: the summand t_j goes to the simple S_j of End(T),
    whose image X_j has dim Hom_D(t_i, X_j[m]) = [i = j][m = 0].  X_j is a
    module M or a shifted module M[1], with stable image M or Omega^-1 M."""
    A = T.algebra
    homs = {M: [_derived_hom(t, M, A) for t in T.summands] for M in modcat.nonprojective_inds(A)}
    corr = {}
    for j, s in enumerate(T.summands):
        unit = [int(i == j) for i in range(len(T.summands))]
        points = [smscfg.point_of(M) for M, h in homs.items() if h == [(u, 0) for u in unit]]
        points += [smscfg.point_of(modcat.omega_inv(M, A)) for M, h in homs.items()
                   if h == [(0, u) for u in unit]]
        assert len(points) == 1, (T, s, points)
        corr[s] = points[0]
    return corr


@pytest.mark.parametrize("n, ell", [(3, 6), (4, 4), (6, 9), (6, 4), (4, 2)])
def test_correspondence_matches_derived_equivalence(n, ell):
    # fmap reads the images of the simples off masks of composition factors;
    # it agrees with this module-map reference on every complex, covering
    # cases included, where the replay's index matching does not
    for T in two_term_objects(Algebra(n, ell)):
        assert fmap_tracked(T)[1] == _derived_correspondence(T)


@pytest.mark.parametrize("n, ell", [(3, 6), (4, 4), (4, 8), (6, 9), (6, 4), (2, 6)])
def test_derived_route_matches_tree_transport(n, ell):
    # two routes that share no code: the stable equivalence that T induces,
    # and the canonical-sequence tree of mutations
    A = Algebra(n, ell)
    for T in two_term_objects(A):
        C, corr = fmap_tracked(T)
        C0, corr0 = _fmap_cached(T)
        assert C.points == C0.points and corr == dict(corr0)
    assert verify("stable-equivalence", A)["status"] == "pass"


@pytest.fixture
def cold_routes():
    """Empty both routes' caches before and after a fault is patched in."""
    caches = (transport._derived_columns, transport._derived_fmap, _fmap_cached)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


FLIP = {"minus": "plus", "plus": "minus"}


@pytest.mark.parametrize("fault, failing", [("omega for omega_inv", 19), ("tree step sign", 18)])
def test_stable_equivalence_catches_faults(fault, failing, monkeypatch, cold_routes):
    # Omega in place of Omega^-1 for the shifted bricks M[1] breaks the route
    # on every complex but the stalk complex; sms mutation with the wrong
    # sign breaks the tree on every complex but the two stalk complexes
    if fault == "omega for omega_inv":
        monkeypatch.setattr(transport, "omega_inv", modcat.omega)
    else:
        real = smscfg.sms_mutate_tracked
        monkeypatch.setattr(smscfg, "sms_mutate_tracked",
                            lambda C, K, sign: real(C, K, FLIP[sign]))
    report = verify("stable-equivalence", A36)
    named = {cx.twoterm_from_json(c["complex"]) for c in report["counterexamples"]}
    assert report["status"] == "fail"
    assert named <= set(two_term_objects(A36)) and len(named) == failing


def test_route_needs_the_configuration_test(monkeypatch, cold_routes):
    # one image per summand alone accepts 54 of the 435 non-tilting complexes
    # among the 455 basic three-summand complexes of A_3^6
    monkeypatch.setattr(smscfg, "is_configuration", lambda C, A, p=2: True)
    accepted = []
    for summands in itertools.combinations(all_summands(A36), A36.n):
        T = TwoTerm(A36, summands)
        if not cx.is_tilting(T):
            try:
                accepted.append(fmap_tracked(T))
            except ValueError:
                pass
    assert len(accepted) == 54


@pytest.mark.parametrize("n, ell", [(4, 8), (6, 9), (5, 10)])
def test_built_complexes_are_tilting(n, ell):
    # both routes check their domain combinatorially; this keeps the
    # algebraic check on the complexes that phi builds from triangulations
    assert all(cx.is_tilting(T) for T in two_term_objects(Algebra(n, ell)))


@pytest.mark.parametrize("n, ell", [(3, 6), (3, 3), (4, 2)])
def test_fmap_domain_is_the_tilting_complexes(n, ell):
    # the combinatorial check that fmap runs instead of is_tilting refuses
    # exactly the non-tilting complexes among all basic ones with n summands
    A = Algebra(n, ell)
    for summands in itertools.combinations(all_summands(A), A.n):
        T = TwoTerm(A, summands)
        if cx.is_tilting(T):
            fmap_tracked(T)
        else:
            with pytest.raises(ValueError, match="^fmap is defined on two-term tilting complexes$"):
                fmap_tracked(T)


def test_fmap_refuses_non_tilting_complexes():
    # three summands of one sign, not tilting: the loop <1,1> crosses <*,2>
    T = TwoTerm(A36, (Stalk(1, 0), Stalk(2, 0), Arrow(3, 1)))
    # a repeated summand: phi_inv gives a triangulation, but phi does not
    # give the complex back
    doubled = TwoTerm(A36, stalk_complex(A36).summands + (Stalk(3, 0),))
    for U in (T, doubled):
        assert not cx.is_tilting(U)
        with pytest.raises(ValueError, match="^fmap is defined on two-term tilting complexes$"):
            fmap_tracked(U)
    assert cx.part_of(T) == "minus" and len(T.summands) == A36.n


def test_correspondence_tracks_mutation():
    for T in two_term_objects(A36):
        C, corr = fmap_tracked(T)
        assert set(corr.values()) == set(C.points)
        for orbit in nu_orbits(T):
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


QUIVER_ALGEBRAS = [(2, 4), (3, 3), (3, 6), (4, 2), (4, 4), (4, 6), (6, 4), (6, 9), (4, 8),
                   (5, 10), (9, 6), (8, 12), (10, 15)]


@pytest.mark.parametrize("n, ell", QUIVER_ALGEBRAS)
def test_exchange_quiver_matches_per_object_reference(n, ell):
    A = Algebra(n, ell)
    assert exchange_quiver("2tilt", A).arrows == exchange_arrows(A)


def test_exchange_quiver_computes_no_cone(monkeypatch):
    # the arrows come from the two-completion join and one Hom_K(Y, X[1])
    # test per pair, not from mutating any complex
    def refuse(*args):
        raise AssertionError("exchange_quiver computed a cone or a mutation")

    monkeypatch.setattr(cx, "two_term_mutate_tracked", refuse)
    monkeypatch.setattr(cx, "cone", refuse)
    assert len(exchange_quiver("2tilt", Algebra(5, 10)).arrows) == 630


def test_exchange_quiver_refuses_a_missing_completion(monkeypatch):
    # with one complex D gone, the first complex T that shares all but one
    # summand X with D (nu is the identity on A_3^6) leaves T minus X with
    # one completion, and the error names T and X as canonical JSON
    objs = two_term_objects(A36)
    D, kept = objs[0], objs[1:]
    T = next(U for U in kept if len(set(U.summands) - set(D.summands)) == 1)
    X = sorted(set(T.summands) - set(D.summands), key=lambda s: s.sort_key())
    monkeypatch.setattr(transport, "two_term_objects", lambda A: kept)
    with pytest.raises(RuntimeError, match="1 two-term tilting completions, not 2") as err:
        exchange_quiver("2tilt", A36)
    at = json.loads(str(err.value).split(": ", 1)[1])
    assert at == {"complex": T.to_json(), "orbit": [s.to_json() for s in X]}


def test_exchange_quiver_refuses_a_complex_that_is_not_nu_stable(monkeypatch):
    # on A_6^9 nu swaps P_1 and P_4, so a complex holding the stalk P_1 but
    # not P_4 in the same degree contains only part of an orbit
    A = Algebra(6, 9)
    bad = TwoTerm(A, (Stalk(1, 0), Stalk(2, 0), Stalk(3, 0), Stalk(4, -1), Stalk(5, 0),
                      Stalk(6, 0)))
    objs = two_term_objects(A) + (bad,)
    monkeypatch.setattr(transport, "two_term_objects", lambda A: objs)
    with pytest.raises(ValueError, match="complex is not Nakayama-stable"):
        exchange_quiver("2tilt", A)


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


def test_verify_threads_deterministic(capsys):
    # the suites run serially; --threads is accepted and has no effect
    outs = []
    for k in ("1", "4"):
        assert main(["verify", "--suite", "bijection", "--n", "3", "--ell", "6",
                     "--threads", k, "--json"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_mutation_compat_counterexamples_replay(monkeypatch):
    # an sms mutation that returns its input fails every arrow; each
    # counterexample names a complex and a sorted orbit that replay
    monkeypatch.setattr(smscfg, "sms_mutate", lambda C, K, sign: C)
    report = verify("mutation-compat", A36)
    bad = report["counterexamples"]
    assert report["status"] == "fail"
    assert len(bad) == report["details"]["edges_checked"] > 0
    for c in bad:
        T = cx.twoterm_from_json(c["complex"])
        orbit = [cx.twoterm_from_json(dict(c["complex"], summands=[s])).summands[0]
                 for s in c["orbit"]]
        assert orbit == sorted(orbit, key=lambda s: s.sort_key())
        assert c["direct"] == fmap(T).to_json()
        assert c["transport"] == fmap(cx.two_term_mutate(T, orbit, "minus")).to_json()


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


def reference_functor_pairs(A):
    """The functors suite's pair checks, with stable Hom computed per pair."""
    bad = []
    nonproj = modcat.nonprojective_inds(A)
    for M in nonproj:
        for N in nonproj:
            pair = [M.to_json(), N.to_json()]
            base = modcat.stable_hom_dim(M, N, A)
            if base != modcat.stable_hom_dim(modcat.tau(M, A), modcat.tau(N, A), A):
                bad.append({"identity": "stable hom tau-invariance", "pair": pair})
            if base != modcat.stable_hom_dim(modcat.omega(M, A), modcat.omega(N, A), A):
                bad.append({"identity": "stable hom omega-invariance", "pair": pair})
            if base != modcat.stable_hom_dim(M, N, A, p=3):
                bad.append({"identity": "GF(2)/GF(3) agreement", "pair": pair})
    return bad


@pytest.fixture
def fresh_stable_tables():
    # the tables are built under the injected fault, and must not outlive it
    smscfg._stable_table.cache_clear()
    yield
    smscfg._stable_table.cache_clear()


def _fault_at(real, target, wrong):
    return lambda M, A: wrong(real(M, A)) if M == target else real(M, A)


FUNCTOR_FAULTS = {
    # tau changes the length of one module
    "tau-length": ("tau", Ind(2, 3), lambda M: Ind(M.socle, M.length + 1)),
    # ... and sends one module to a projective
    "tau-projective": ("tau", Ind(2, 6), lambda M: Ind(M.socle, M.length + 1)),
    # omega is off by one on one module
    "omega-socle": ("omega", Ind(1, 2), lambda M: Ind(_bar(M.socle + 1, A36.n), M.length)),
}


@pytest.mark.parametrize("fault", [*FUNCTOR_FAULTS, "gf3-class"])
def test_functors_table_checks_match_per_pair_reference(fault, monkeypatch,
                                                         fresh_stable_tables):
    if fault == "gf3-class":
        real = modcat._stable_hom_class
        monkeypatch.setattr(modcat, "_stable_hom_class", lambda l, r, d, A, p:
                            real(l, r, d, A, p) + (p == 3 and (l, r, d) == (2, 3, 1)))
    else:
        name, target, wrong = FUNCTOR_FAULTS[fault]
        monkeypatch.setattr(modcat, name, _fault_at(getattr(modcat, name), target, wrong))
    report = verify("functors", A36)
    want = reference_functor_pairs(A36)
    assert report["status"] == "fail" and want
    assert [c for c in report["counterexamples"] if "pair" in c] == want


def test_functors_rejects_an_image_outside_the_algebra(monkeypatch):
    monkeypatch.setattr(modcat, "tau", _fault_at(modcat.tau, Ind(2, 3), lambda M: Ind(0, 1)))
    with pytest.raises(ValueError):
        verify("functors", A36)
