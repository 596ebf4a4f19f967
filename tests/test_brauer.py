import pytest

from smstilt import brauer, complexes, disc
from smstilt.brauer import (BrauerTree, brauer_iso, kauer_mutate, peel_step,
                            psi, star, star_mutation_sequence, star_reduction,
                            tree_from_json)
from smstilt.modcat import Algebra


def _edges_as_sets(G):
    return sorted(tuple(sorted(uv)) for _, uv in G.edges)


def test_psi_star():
    for e in (1, 2, 3, 5):
        X = disc.Triangulation(e, tuple(disc.projective_arc(i) for i in range(1, e + 1)))
        G = psi(X, "minus", 2)
        assert brauer_iso(G, star(e, 2))
        assert G.valency(0) == e


def test_psi_worked_example():
    arcs = [disc.parse_arc(s, 6) for s in ["<*,2>", "<4,2>", "<*,4>", "<2,4>", "<2,5>", "<2,6>"]]
    G = psi(disc.Triangulation(6, tuple(arcs)), "minus", 2)
    assert _edges_as_sets(G) == sorted(tuple(sorted(uv)) for uv in
                                       [(0, 2), (0, 4), (2, 3), (4, 1), (1, 5), (1, 6)])
    assert G.valency(0) == 2


def test_psi_loop_gives_path():
    X = disc.Triangulation(2, (disc.projective_arc(1), disc.inner_arc(1, 2, 2)))
    G = psi(X, "minus", 2)
    assert _edges_as_sets(G) == [(0, 1), (1, 2)]
    assert G.valency(0) == 1  # exceptional vertex at an end of the path


def test_psi_validity_everywhere():
    for e in range(1, 6):
        for X in disc.enumerate_triangulations(e):
            for sign in ("minus", "plus"):
                G = psi(X, sign, 2)
                assert len(G.edges) == e
                assert G.valency(0) == sum(1 for a in X.arcs if a.kind == "projective")


def test_kauer_star_example():
    G = star(3, 2)
    H = kauer_mutate(G, 2, "minus")
    assert _edges_as_sets(H) == sorted(tuple(sorted(uv)) for uv in [(0, 1), (1, 2), (0, 3)])
    # the two moves are mutually inverse
    assert brauer_iso(kauer_mutate(H, 2, "plus"), G)
    back = kauer_mutate(kauer_mutate(G, 2, "plus"), 2, "minus")
    assert brauer_iso(back, G)
    with pytest.raises(ValueError):
        kauer_mutate(G, 99, "minus")


def test_kauer_preserves_tree_data():
    G = star(4, 3)
    H = kauer_mutate(G, 3, "minus")
    assert len(H.edges) == len(G.edges)
    assert H.multiplicity == G.multiplicity
    assert H.exceptional == G.exceptional


def test_kauer_involution_everywhere():
    for e in (2, 3, 4):
        for X in disc.enumerate_triangulations(e):
            G = psi(X, "minus", 2)
            for lab in G.labels():
                assert brauer_iso(kauer_mutate(kauer_mutate(G, lab, "minus"), lab, "plus"), G)
                assert brauer_iso(kauer_mutate(kauer_mutate(G, lab, "plus"), lab, "minus"), G)


@pytest.mark.parametrize("n, ell", [(3, 6), (4, 4), (4, 8), (6, 9)])
def test_kauer_moves_keep_trees_valid(n, ell):
    # kauer_mutate builds its trees unchecked, because a move of a valid tree
    # is valid: every move, at every label and with both signs, of every psi
    # tree of A_n^ell passes the check that the JSON reader and psi run
    A = Algebra(n, ell)
    for X in disc.enumerate_triangulations(A.e):
        for tree_sign in ("minus", "plus"):
            G = psi(X, tree_sign, A.ell // A.e)
            for lab in G.labels():
                for sign in ("minus", "plus"):
                    H = kauer_mutate(G, lab, sign)
                    assert H._validate() is H


def _peel_step_reference(G, sign):
    """Star reduction's step built the long way: the first label, in label
    order, whose moved tree has one more edge at the exceptional vertex."""
    exc = G.exceptional
    for lab in sorted(G.labels(), key=str):
        if exc in G.ends(lab):
            continue
        H = kauer_mutate(G, lab, "plus" if sign == "minus" else "minus")
        if H.valency(exc) == G.valency(exc) + 1:
            return lab
    return None


def test_peel_step_matches_built_moves():
    for e in range(1, 6):
        for X in disc.enumerate_triangulations(e):
            for sign in ("minus", "plus"):
                G = psi(X, sign, 2)
                assert peel_step(G, sign) == _peel_step_reference(G, sign)


def test_psi_flip_kauer_compatibility():
    # the Kauer move matching a flip has the sign of the silting-order step
    for e in (2, 3, 4):
        A = Algebra(e, 2 * e)
        for X in disc.enumerate_triangulations(e):
            GX = psi(X, "minus", 2)
            TX = complexes.phi(X, "minus", A)
            for a in X.arcs:
                try:
                    Y, _ = disc.flip(X, a)
                except disc.NoExchangeError:
                    continue
                TY = complexes.phi(Y, "minus", A)
                sign = "minus" if complexes.hom_complex_dim(TX, TY, 1) == 0 else "plus"
                assert brauer_iso(psi(Y, "minus", 2), kauer_mutate(GX, str(a), sign))


def test_brauer_iso():
    G = star(3, 2)
    assert brauer_iso(G, G)
    # star with centre exceptional vs path with end exceptional
    path = BrauerTree((0, 1, 2, 3),
                      ((1, (0, 1)), (2, (1, 2)), (3, (2, 3))),
                      ((0, (1,)), (1, (1, 2)), (2, (2, 3)), (3, (3,))), 0, 2)
    assert not brauer_iso(G, path)
    # two 3-edge paths with the exceptional vertex at opposite ends
    path2 = BrauerTree((0, 1, 2, 3),
                       (("a", (3, 2)), ("b", (2, 1)), ("c", (1, 0))),
                       ((0, ("c",)), (1, ("c", "b")), (2, ("b", "a")), (3, ("a",))), 0, 2)
    assert brauer_iso(path, path2)


def test_star_mutation_sequence_star_is_empty():
    assert star_mutation_sequence(star(4, 2)) == []


def test_star_mutation_sequence_worked_example():
    arcs = [disc.parse_arc(s, 6) for s in ["<*,2>", "<4,2>", "<*,4>", "<2,4>", "<2,5>", "<2,6>"]]
    G = psi(disc.Triangulation(6, tuple(arcs)), "minus", 2)
    seq = star_mutation_sequence(G, "minus")
    assert len(seq) == 6 - G.valency(0) == 4
    _, S = star_reduction(G, "minus")
    H = S
    for lab in seq:
        assert 0 in H.ends(lab)  # mutation at an exceptional-incident edge
        H = kauer_mutate(H, lab, "minus")
    assert brauer_iso(H, G)


def test_star_mutation_sequence_replay_everywhere():
    for e in (2, 3, 4):
        for X in disc.enumerate_triangulations(e):
            for sign in ("minus", "plus"):
                G = psi(X, sign, 2)
                seq = star_mutation_sequence(G, sign)
                assert len(seq) == e - G.valency(0)
                _, S = star_reduction(G, sign)
                H = S
                for lab in seq:
                    assert 0 in H.ends(lab)
                    H = kauer_mutate(H, lab, sign)
                assert brauer_iso(H, G)


def test_json_round_trip():
    arcs = [disc.parse_arc(s, 6) for s in ["<*,2>", "<4,2>", "<*,4>", "<2,4>", "<2,5>", "<2,6>"]]
    G = psi(disc.Triangulation(6, tuple(arcs)), "minus", 2)
    assert tree_from_json(G.to_json()) == G
    assert "doublecircle" in brauer.to_dot(G)
