import math
import random

import pytest

from smstilt import disc
from smstilt.disc import (FoldSymmetryError, NoExchangeError, Triangulation,
                          all_arcs, compatible, enumerate_triangulations, flip,
                          fold, inner_arc, parse_arc, projective_arc, unfold)


def test_all_arcs_counts():
    assert [str(a) for a in all_arcs(1)] == ["<*,1>"]
    assert len(all_arcs(2)) == 4
    assert len(all_arcs(3)) == 9
    for e in range(1, 7):
        assert len(all_arcs(e)) == e * e
    with pytest.raises(ValueError):
        all_arcs(0)


def test_compatible_examples():
    assert compatible(projective_arc(1), projective_arc(2), 2)
    # loops at different vertices enclose the puncture and must cross
    assert not compatible(inner_arc(1, 2, 2), inner_arc(2, 2, 2), 2)
    # summands <2,4> and <2,5> of the worked e=6 complex coexist
    assert compatible(parse_arc("<2,4>", 6), parse_arc("<2,5>", 6), 6)


def test_compatible_symmetric_reflexive():
    for e in (2, 3, 4):
        arcs = all_arcs(e)
        for a in arcs:
            assert compatible(a, a, e)
            for b in arcs:
                assert compatible(a, b, e) == compatible(b, a, e)


def test_is_triangulation():
    assert disc.is_triangulation({projective_arc(1), projective_arc(2)}, 2)
    assert not disc.is_triangulation({projective_arc(1)}, 2)
    example = {parse_arc(s, 6) for s in ["<*,2>", "<4,2>", "<*,4>", "<2,4>", "<2,5>", "<2,6>"]}
    assert disc.is_triangulation(example, 6)


def _is_maximal_compatible(S, e):
    """Reference definition: pairwise compatible and no admissible arc
    outside S is compatible with all of S."""
    return (all(compatible(a, b, e) for a in S for b in S)
            and not any(b not in S and all(compatible(a, b, e) for a in S)
                        for b in all_arcs(e)))


def test_is_triangulation_matches_maximality():
    rng = random.Random(7)
    for e in range(1, 7):
        arcs = all_arcs(e)
        tris = [set(X.arcs) for X in enumerate_triangulations(e)]
        subsets = list(tris)
        # triangulations minus one arc, or with one arc swapped at random
        for S in rng.sample(tris, min(len(tris), 30)):
            subsets.extend(S - {a} for a in S)
            a = rng.choice(sorted(S, key=disc.Arc.sort_key))
            subsets.append(S - {a} | {rng.choice(arcs)})
        subsets.extend(set(rng.sample(arcs, rng.randint(0, len(arcs)))) for _ in range(100))
        for S in subsets:
            assert disc.is_triangulation(S, e) == _is_maximal_compatible(S, e)


def test_triangulation_from_json_rejects_without_sweep(monkeypatch):
    def no_sweep(e):
        raise AssertionError("all_arcs swept")
    monkeypatch.setattr(disc, "all_arcs", no_sweep)
    with pytest.raises(ValueError, match="^arc set is not a triangulation$"):
        disc.triangulation_from_json({"e": 10 ** 6, "arcs": []})


def test_enumerate_counts_match_halved_central_binomial():
    # every triangulation has e arcs, which is what is_triangulation counts
    for e in range(1, 8):
        tris = enumerate_triangulations(e)
        assert len(tris) == math.comb(2 * e, e) // 2
        assert len(set(tris)) == len(tris)
        for X in tris:
            assert len(X.arcs) == e


def _enumerate_triangulations_reference(e):
    """The search before compatibility masks: every extendable partial set is
    rescanned against all e^2 arcs."""
    arcs = all_arcs(e)
    n = len(arcs)
    compat = [[compatible(arcs[i], arcs[j], e) for j in range(n)] for i in range(n)]
    found = []

    def extend(chosen, start):
        extendable = False
        for k in range(n):
            if k in chosen or not all(compat[c][k] for c in chosen):
                continue
            extendable = True
            if k >= start:
                chosen.append(k)
                extend(chosen, k + 1)
                chosen.pop()
        if not extendable:
            found.append(tuple(chosen))

    extend([], 0)
    tris = sorted({tuple(sorted(c)) for c in found})
    return tuple(Triangulation(e, tuple(arcs[k] for k in c)) for c in tris)


def test_enumerate_matches_reference_search():
    for e in range(1, 7):
        assert enumerate_triangulations(e) == _enumerate_triangulations_reference(e)


def test_flip_example_and_involution():
    X = Triangulation(2, (projective_arc(1), projective_arc(2)))
    Y, b = flip(X, projective_arc(2))
    assert set(Y.arcs) == {projective_arc(1), inner_arc(1, 2, 2)}
    Z, a2 = flip(Y, b)
    assert Z == X and a2 == projective_arc(2)
    with pytest.raises(ValueError):
        flip(X, inner_arc(1, 2, 2))


def test_flip_closure_and_connectivity():
    for e in (3, 4, 5):
        tris = set(enumerate_triangulations(e))
        start = Triangulation(e, tuple(projective_arc(i) for i in range(1, e + 1)))
        seen = {start}
        queue = [start]
        while queue:
            X = queue.pop()
            for a in X.arcs:
                try:
                    Y, _ = flip(X, a)
                except NoExchangeError:
                    continue
                assert Y in tris
                if Y not in seen:
                    seen.add(Y)
                    queue.append(Y)
        assert seen == tris  # the flip graph is connected


def test_flip_undefined_exactly_on_punctured_monogons():
    for e in (2, 3, 4):
        for X in enumerate_triangulations(e):
            for a in X.arcs:
                monogon = (a.kind == "projective" and inner_arc(a.terminal, e, e) in X)
                try:
                    flip(X, a)
                    assert not monogon
                except NoExchangeError:
                    assert monogon


def test_unfold_basics():
    X = Triangulation(2, (projective_arc(1), projective_arc(2)))
    Y = unfold(X, 4)
    assert set(Y.arcs) == {projective_arc(i) for i in range(1, 5)}
    with pytest.raises(ValueError):
        unfold(X, 5)


def test_unfold_rotation_symmetric():
    for X in enumerate_triangulations(4):
        Y = unfold(X, 12)
        rotated = {disc.rotate_arc(a, 4, 12) for a in Y.arcs}
        assert rotated == set(Y.arcs)


def test_fold_round_trip_and_symmetry_failure():
    for X in enumerate_triangulations(2):
        assert fold(unfold(X, 6), 2) == X
    # a triangulation moved by rotation
    Y, _ = flip(Triangulation(4, tuple(projective_arc(i) for i in range(1, 5))),
                projective_arc(3))
    with pytest.raises(FoldSymmetryError):
        fold(Y, 2)
    with pytest.raises(ValueError):
        fold(Y, 3)


def test_fold_commutes_with_orbit_flips():
    # flipping every lift of an arc reproduces the unfolded flip
    for X in enumerate_triangulations(2):
        for a in X.arcs:
            try:
                Xf, _ = flip(X, a)
            except NoExchangeError:
                continue
            Y = unfold(X, 4)
            for k in (0, 1):
                Y, _ = flip(Y, disc.rotate_arc(a, 2 * k, 4))
            assert fold(Y, 2) == Xf


def test_json_round_trip():
    for X in enumerate_triangulations(3):
        assert disc.triangulation_from_json(X.to_json()) == X
    a = parse_arc("<1,2>", 3)
    assert disc.arc_from_json(a.to_json(), 3) == a
