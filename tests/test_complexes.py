import itertools
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from smstilt import brauer, complexes as cx, disc, transport
from smstilt.complexes import (Arrow, Stalk, TwoTerm, hom_complex_dim,
                               is_silting, is_tilting, nu_complex,
                               phi, phi_inv, two_term_mutate, twoterm_from_json)
from smstilt.modcat import Algebra

from _gf_reference import independent_mod, nullspace, reduce_rows, rref, unpacked
from _transport_reference import all_summands, bfs_sequence, nu_orbits

A36 = Algebra(3, 6)


def stalk_complex(A, deg=0):
    return TwoTerm(A, tuple(Stalk(i, deg) for i in range(1, A.n + 1)))


def all_projective(e):
    return disc.Triangulation(e, tuple(disc.projective_arc(i) for i in range(1, e + 1)))


def test_phi_all_projective_is_stalk_complex():
    assert phi(all_projective(3), "minus", A36) == stalk_complex(A36)
    assert phi(all_projective(3), "plus", A36) == stalk_complex(A36, deg=-1)
    # unfolding: rank 2 into A_4^2
    A42 = Algebra(4, 2)
    T = phi(all_projective(2), "minus", A42)
    assert T == stalk_complex(A42)


def test_phi_worked_example():
    A = Algebra(6, 12)
    arcs = [disc.parse_arc(s, 6) for s in ["<*,2>", "<4,2>", "<*,4>", "<2,4>", "<2,5>", "<2,6>"]]
    T = phi(disc.Triangulation(6, tuple(arcs)), "minus", A)
    assert set(T.summands) == {Stalk(2, 0), Stalk(4, 0), Arrow(3, 2),
                               Arrow(1, 4), Arrow(1, 5), Arrow(1, 6)}


def test_phi_inv_round_trip():
    for e, A in [(3, A36), (2, Algebra(4, 2)), (3, Algebra(3, 3))]:
        for X in disc.enumerate_triangulations(e):
            for sign in ("minus", "plus"):
                T = phi(X, sign, A)
                Y, s2 = phi_inv(T)
                assert (Y, s2) == (X, sign)


def test_phi_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        phi(all_projective(2), "minus", A36)


def test_hom_complex_dims():
    T = stalk_complex(A36)
    P1 = TwoTerm(A36, (Stalk(1, 0),))
    assert hom_complex_dim(P1, P1, 0) == 3
    # the shift k = -1 lines the degree -1 stalk up with the degree 0 one
    assert hom_complex_dim(P1, TwoTerm(A36, (Stalk(1, -1),)), -1) == 3
    assert hom_complex_dim(P1, TwoTerm(A36, (Stalk(1, -1),)), 1) == 0
    assert hom_complex_dim(T, T, 1) == 0
    assert hom_complex_dim(T, T, 2) == 0
    for X in disc.enumerate_triangulations(3):
        U = phi(X, "minus", A36)
        assert hom_complex_dim(U, U, 1) == 0


# non-tilting and non-basic complexes, beside the tilting ones of A_3^6
ODD_COMPLEXES = [TwoTerm(A36, (Stalk(1, 0), Stalk(1, 0))),
                 TwoTerm(A36, (Stalk(2, 0), Stalk(2, -1))),
                 TwoTerm(A36, (Arrow(2, 1), Arrow(2, 1), Stalk(3, -1))),
                 TwoTerm(A36, (Arrow(1, 1), Arrow(3, 2), Stalk(1, 0)))]


def test_hom_complex_dim_matches_whole_complex_homset():
    # hom_complex_dim sums cached summand-pair dimensions; the reference is
    # the HomSet of the whole complexes
    objs = list(transport.two_term_objects(A36)) + ODD_COMPLEXES
    pairs = [(T, U) for T in objs for U in objs]
    A44 = Algebra(4, 4)
    objs = transport.two_term_objects(A44)
    rng = random.Random(20261018)
    pairs += [(T, U) for T in objs for U in rng.sample(objs, 10)]
    for T, U in pairs:
        for k in (-1, 0, 1):
            want = cx.HomSet(cx.from_twoterm(T), cx.shift(cx.from_twoterm(U), k)).dim
            assert hom_complex_dim(T, U, k) == want, (T, U, k)


def test_left_mutation_strictly_descends():
    T = stalk_complex(A36)
    R = two_term_mutate(T, {Stalk(1, 0)}, "minus")
    assert hom_complex_dim(T, R, 1) == 0      # T >= R
    assert hom_complex_dim(R, T, 1) != 0      # but not R >= T


def test_partial_order_sanity():
    # A >= T >= A[1] for every minus-part complex
    T0 = stalk_complex(A36)
    T1 = stalk_complex(A36, deg=-1)
    for X in disc.enumerate_triangulations(3):
        T = phi(X, "minus", A36)
        assert hom_complex_dim(T0, T, 1) == 0
        assert hom_complex_dim(T, T1, 1) == 0


def test_silting_tilting_predicates():
    T = stalk_complex(A36)
    assert is_tilting(T)
    dropped = TwoTerm(A36, T.summands[:2])
    assert not is_silting(dropped)
    # all triangulation images are tilting, for e <= 4, over A_e^{2e}
    for e in (1, 2, 3, 4):
        A = Algebra(e, 2 * e)
        for X in disc.enumerate_triangulations(e):
            for sign in ("minus", "plus"):
                assert is_tilting(phi(X, sign, A))


def _int_det(M):
    """Integer determinant by fraction-free Gaussian elimination (Bareiss)."""
    M = [row[:] for row in M]
    n = len(M)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k]), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[-1][-1]


def _summand_class(s, A):
    """The class of a summand in the Grothendieck group K_0(K^b(proj A))."""
    v = [0] * A.n
    if isinstance(s, Stalk):
        v[s.idx - 1] = 1 if s.deg == 0 else -1
    else:
        v[s.tgt - 1] += 1
        v[s.src - 1] -= 1
    return v


def _silting_tilting_reference(T):
    """The predicates before their reduction to the theory: silting also
    asked for the summand classes to form a basis of K_0 (determinant +-1),
    and tilting also for Hom_K(T, T[-1]) = 0."""
    A = T.algebra
    silting = (len(T.summands) == len(set(T.summands)) == A.n
               and hom_complex_dim(T, T, 1) == 0
               and abs(_int_det([_summand_class(s, A) for s in T.summands])) == 1)
    return silting, (silting and hom_complex_dim(T, T, -1) == 0 and nu_complex(T) == T)


@pytest.mark.parametrize("n, ell", [(2, 4), (3, 3), (3, 6), (4, 2), (4, 4), (3, 2)])
def test_silting_tilting_match_the_determinant_reference(n, ell):
    # Adachi-Iyama-Reiten: n distinct rigid summands already make T silting;
    # Serre duality: a nu-stable silting T has Hom_K(T, T[-1]) = 0
    A = Algebra(n, ell)
    kinds = set()
    for summands in itertools.combinations(all_summands(A), n):
        T = TwoTerm(A, summands)
        want = _silting_tilting_reference(T)
        assert (is_silting(T), is_tilting(T)) == want, T
        kinds.add(want)
    assert (True, True) in kinds and (False, False) in kinds
    # where ell < n some silting complexes are not nu-stable
    assert ((True, False) in kinds) == ((n, ell) in ((3, 2), (4, 2)))


def test_tilting_with_unfolding():
    # rank e triangulations over A_{2e}^{2e}: rank divides the gcd
    for e in (1, 2):
        A = Algebra(2 * e, 2 * e)
        for X in disc.enumerate_triangulations(e):
            for sign in ("minus", "plus"):
                assert is_tilting(phi(X, sign, A))


def test_stalk_degrees_separate_the_parts():
    for X in disc.enumerate_triangulations(3):
        assert cx.part_of(phi(X, "minus", A36)) == "minus"
        assert cx.part_of(phi(X, "plus", A36)) == "plus"


def test_nu_complex():
    assert nu_complex(stalk_complex(A36)) == stalk_complex(A36)
    A42 = Algebra(4, 2)
    T = stalk_complex(A42)
    N = nu_complex(T)
    assert N == T  # permutation of the full stalk set
    single = TwoTerm(A42, (Stalk(1, 0),))
    assert nu_complex(single) == TwoTerm(A42, (Stalk(3, 0),))
    # orbit length n/e
    U = single
    for _ in range(A42.n // A42.e):
        U = nu_complex(U)
    assert U == single


@pytest.mark.parametrize("n, ell", [(2, 4), (3, 3), (3, 6), (4, 8), (1, 2)])
def test_nu_is_the_identity_when_n_divides_ell(n, ell):
    # nu = sigma^-ell is the identity here, so no summand or complex is copied
    A = Algebra(n, ell)
    for s in all_summands(A):
        assert cx.nu_summand(s, A) is s and cx._rotate(s, n, A) is s
    for T in transport.two_term_objects(A):
        assert nu_complex(T) is T and all(len(o) == 1 for o in nu_orbits(T))


def test_nu_orbits():
    A42 = Algebra(4, 2)
    orbits = nu_orbits(stalk_complex(A42))
    assert sorted(len(o) for o in orbits) == [2, 2]
    assert all(len(o) == 1 for o in nu_orbits(stalk_complex(A36)))


@pytest.mark.parametrize("n, ell", [(1, 2), (2, 4), (3, 6), (4, 2), (6, 9)])
def test_summand_table_lists_every_summand_in_sort_key_order(n, ell):
    A = Algebra(n, ell)
    summands, index, orbits = cx._summand_table(A)
    assert list(summands) == sorted(all_summands(A), key=lambda s: s.sort_key())
    assert index == {s: k for k, s in enumerate(summands)} and len(orbits) == len(summands)


@pytest.mark.parametrize("n, ell", [(4, 2), (6, 4), (6, 9), (9, 6), (10, 15)])
def test_summand_table_orbits_match_the_reference(n, ell):
    # nu is not the identity on these algebras; peeling each complex's mask
    # lowest bit first, as exchange_quiver does, gives its reference orbits
    # as the same sets in the same order
    A = Algebra(n, ell)
    summands, index, orbits = cx._summand_table(A)
    nontrivial = False
    for T in transport.two_term_objects(A):
        rest, peeled = sum(1 << index[s] for s in T.summands), []
        while rest:
            X = orbits[(rest & -rest).bit_length() - 1]
            peeled.append(frozenset(s for k, s in enumerate(summands) if X >> k & 1))
            rest &= ~X
        want = nu_orbits(T)
        assert peeled == want
        nontrivial |= any(len(o) > 1 for o in want)
        for o in want:
            assert {orbits[index[s]] for s in o} == {sum(1 << index[s] for s in o)}
    assert nontrivial


def test_paper_replay_sequence():
    A = Algebra(6, 12)
    T = stalk_complex(A)
    for idx in (3, 1, 6, 5):
        T = two_term_mutate(T, {Stalk(idx, 0)}, "minus")
    assert set(T.summands) == {Stalk(2, 0), Stalk(4, 0), Arrow(3, 2),
                               Arrow(1, 4), Arrow(1, 5), Arrow(1, 6)}
    assert is_tilting(T)


def test_mutation_at_stalk_stays_two_term():
    T = stalk_complex(A36)
    R = two_term_mutate(T, {Stalk(1, 0)}, "minus")
    assert R is not None
    assert any(isinstance(s, Arrow) for s in R.summands)
    assert is_tilting(R)


def test_mutation_out_of_class_reported():
    # left mutation of the shifted stalk complex leaves the two-term window
    T1 = stalk_complex(A36, deg=-1)
    assert two_term_mutate(T1, {Stalk(1, -1)}, "minus") is None
    # and dually for right mutation of the stalk complex
    assert two_term_mutate(stalk_complex(A36), {Stalk(1, 0)}, "plus") is None


def test_mutation_orbit_validation():
    A42 = Algebra(4, 2)
    T = stalk_complex(A42)
    with pytest.raises(ValueError, match="^orbit is not Nakayama-stable$"):
        two_term_mutate(T, {Stalk(1, 0)}, "minus")
    with pytest.raises(ValueError, match="^orbit is not minimal Nakayama-stable$"):
        two_term_mutate(T, set(T.summands), "minus")


def test_mutation_inverse():
    T = stalk_complex(A36)
    R, replaced = cx.two_term_mutate_tracked(T, {Stalk(2, 0)}, "minus")
    new = replaced[Stalk(2, 0)]
    back = two_term_mutate(R, {new}, "plus")
    assert back == T


def test_mutation_flip_commuting_square():
    # mutation matches the flip through phi on descents, at (3,6) and (2,4)
    for e, A in [(3, A36), (2, Algebra(2, 4))]:
        for X in disc.enumerate_triangulations(e):
            T = phi(X, "minus", A)
            for a in X.arcs:
                try:
                    Y, _ = disc.flip(X, a)
                except disc.NoExchangeError:
                    continue
                U = phi(Y, "minus", A)
                if hom_complex_dim(T, U, 1) != 0:
                    continue  # ascent: the left mutation goes the other way
                _, assignment = cx.phi_with_labels(X, "minus", A)
                orbit = frozenset(assignment[b] for b in
                                  {disc.rotate_arc(a, k * e, A.n) for k in range(A.n // e)})
                assert two_term_mutate(T, orbit, "minus") == U


def test_end_quiver_star_is_cyclic():
    # the cyclic quiver of A_3^6, arrows i -> i-1 as in the defining quiver
    T = stalk_complex(A36)
    arrows = end_quiver(T)
    expect = {(Stalk(i, 0), Stalk((i - 2) % 3 + 1, 0)): 1 for i in (1, 2, 3)}
    assert arrows == expect


def test_end_quiver_matches_brauer_tree():
    # arrow counts of End(T) agree with the cycles of the Brauer tree
    arcs = [disc.parse_arc(s, 6) for s in ["<*,2>", "<4,2>", "<*,4>", "<2,4>", "<2,5>", "<2,6>"]]
    X = disc.Triangulation(6, tuple(arcs))
    A = Algebra(6, 12)
    T, assignment = cx.phi_with_labels(X, "minus", A)
    arrows = end_quiver(T)
    G = brauer.psi(X, "minus", 2)
    tree_arrows = {}
    for v in G.vertices:
        order = G.cyclic_at(v)
        if len(order) == 1:
            if v == G.exceptional and G.multiplicity > 1:
                lab = order[0]
                tree_arrows[(lab, lab)] = 1
            continue
        for k, lab in enumerate(order):
            # the cyclic successor maps irreducibly onto lab
            nxt = order[(k + 1) % len(order)]
            tree_arrows[(nxt, lab)] = tree_arrows.get((nxt, lab), 0) + 1
    relabel = {str(a): s for a, s in assignment.items()}
    translated = {(relabel[u], relabel[v]): c for (u, v), c in tree_arrows.items()}
    assert arrows == translated


# -- test-local GF(2) polynomials: numpy arrays of length ell + 1 with their
# own convolution arithmetic.  The package packs a polynomial into an int
# (bit k is the coefficient of x^k), so its values are converted to arrays
# only where they are compared with a reference.

def _pzero(A):
    return np.zeros(A.ell + 1, dtype=np.int64)


def _pmul(a, b, A):
    return np.convolve(a, b)[:A.ell + 1] % 2


def _pinv(a, A):
    """Inverse of a unit, one coefficient at a time."""
    b = _pzero(A)
    b[0] = 1
    for k in range(1, A.ell + 1):
        b[k] = int(a[1:k + 1] @ b[k - 1::-1]) % 2
    return b


def _pshift(p, s):
    """p / x^s, dropping the terms below x^s."""
    return np.concatenate([p[s:], np.zeros(s, dtype=np.int64)])


def _arr(p, A):
    """The package's packed polynomial p as a coefficient array; p must have
    no bit above x^ell, which the package truncates."""
    assert 0 <= p < 1 << A.ell + 1, (p, A)
    return np.array([p >> k & 1 for k in range(A.ell + 1)], dtype=np.int64)


def _arrays(C):
    """The package complex C with array entries, as the references take it."""
    return cx.ProjComplex(C.algebra, list(C.summands),
                          {k: _arr(p, C.algebra) for k, p in C.diff.items()})


def _rows(vectors, HS):
    """The packed coordinate vectors of HS as the rows of a 0/1 matrix."""
    return unpacked(vectors, len(HS.unknowns))


_REFERENCE = {}


def _to_map(HS, vec):
    """The position-indexed chain map with coordinates vec in `HS.unknowns`."""
    f = {}
    for col in np.flatnonzero(vec):
        slot, s = HS.unknowns[col]
        f.setdefault(slot, _pzero(HS.A))[s] = 1
    return f


def _from_map(HS, f):
    """Coordinates in `HS.unknowns` of a position-indexed chain map f."""
    colof = {co: col for col, co in enumerate(HS.unknowns)}
    vec = np.zeros(len(HS.unknowns), dtype=np.int64)
    for slot, p in f.items():
        for s in np.flatnonzero(p):
            vec[colof[(slot, int(s))]] ^= 1
    return vec


def _reduce(HS, vec):
    """vec reduced modulo the boundaries of HS, row by row against their RREF."""
    return reduce_rows(*rref(_rows(HS.boundaries, HS)), vec)


def _compose_maps(g, f, A):
    """Composite of position-indexed chain maps f: F -> G and g: G -> H."""
    out = {}
    for (hi, gi), pg in g.items():
        for (gi2, fi), pf in f.items():
            if gi2 != gi:
                continue
            q = (out.get((hi, fi), _pzero(A)) + _pmul(pg, pf, A)) % 2
            if q.any():
                out[(hi, fi)] = q
            elif (hi, fi) in out:
                out.pop((hi, fi))
    return out


def _radical_reference(a, b, A):
    """Reference: Hom_K(a, b) built from scratch, and chain maps spanning its
    non-isomorphisms, with the radical of End(a) found as its nilpotent
    classes; no package cache is read.  Memoised in this module only."""
    if (a, b, A) in _REFERENCE:
        return _REFERENCE[(a, b, A)]
    HS = cx.HomSet(cx.from_twoterm(TwoTerm(A, (a,))), cx.from_twoterm(TwoTerm(A, (b,))))

    def is_nilpotent(z):
        f = acc = _to_map(HS, z)
        for _ in range(len(HS.unknowns) + 1):
            acc = _compose_maps(acc, f, A)
            if not _reduce(HS, _from_map(HS, acc)).any():
                return True
        return False

    basis = _rows(HS.basis(), HS)
    if a != b:
        maps = [_to_map(HS, z) for z in basis]
    else:
        chis = [0 if is_nilpotent(z) else 1 for z in basis]
        t0 = chis.index(1)
        maps = [_to_map(HS, (z + chis[t] * basis[t0]) % 2) for t, z in enumerate(basis) if t != t0]
    _REFERENCE[(a, b, A)] = HS, maps
    return HS, maps


@pytest.mark.parametrize("n, ell", [(3, 6), (4, 4), (2, 6), (6, 9), (5, 10)])
def test_constant_term_radical_matches_nilpotent_classes(n, ell):
    # for a != b, as in every package call, Hom_K(a, b) is the radical; the
    # reference finds the radical by nilpotency, and both must give the same
    # reduced rows
    A = Algebra(n, ell)
    summands = {s for T in transport.two_term_objects(A) for s in T.summands}
    for a in summands:
        for b in summands - {a}:
            HS, maps = _radical_reference(a, b, A)
            want = [_reduce(HS, _from_map(HS, f)) for f in maps]
            got = _rows(cx._summand_hom(a, b, 0, A)[1], HS)
            assert len(got) == len(want) and all(map(np.array_equal, got, want)), (a, b)


def _irreducible_uncached(a, b, mids, A):
    """Reference: indices into rad(a, b) of the maps kept modulo the boundaries
    and every radical composite through mids, recomposed on every call."""
    HS, rad = _radical_reference(a, b, A)
    if not rad:
        return ()
    through = [_from_map(HS, _compose_maps(g, f, A)) for c in mids
               for f in _radical_reference(a, c, A)[1] for g in _radical_reference(c, b, A)[1]]
    ideal = np.concatenate([_rows(HS.boundaries, HS),
                            np.array(through, dtype=np.int64).reshape(-1, len(HS.unknowns))])
    return tuple(independent_mod(ideal, np.array([_from_map(HS, f) for f in rad])))


def end_quiver(T):
    """Arrow counts dim rad/rad^2 of End(T) between the summands of T."""
    if not is_tilting(T):
        raise ValueError("end_quiver requires a tilting complex")
    return {(a, b): c for a in T.summands for b in T.summands
            if (c := len(_irreducible_uncached(a, b, T.summands, T.algebra)))}


def _mutate_uncached(T, orbit, sign):
    """Reference: the minimal approximation, its cone and the two-pass
    reduction rebuilt for every summand of every call, with nothing keyed or
    cached."""
    A = T.algebra
    left = sign == "minus"
    rest = [s for s in T.summands if s not in orbit]
    replaced = {}
    for s in sorted(orbit, key=lambda x: x.sort_key()):
        items = []
        for m in sorted(set(rest), key=lambda x: x.sort_key()):
            a, b = (s, m) if left else (m, s)
            rad = _radical_reference(a, b, A)[1]
            items += [(m, rad[k]) for k in _irreducible_uncached(a, b, rest, A)]
        Mc, offs = cx.direct_sum(A, [_arrays(cx.from_twoterm(TwoTerm(A, (m,)))) for m, _ in items])
        gmap = {}
        for (_, f), off in zip(items, offs):
            for (ui, ti), p in f.items():
                gmap[(ui + off, ti) if left else (ui, ti + off)] = p
        Xc = _arrays(cx.from_twoterm(TwoTerm(A, (s,))))
        if left:
            U = _normalize_two_pass(cx.cone(gmap, Xc, Mc))
        else:
            U = _normalize_two_pass(cx.shift(_minimize(cx.cone(gmap, Mc, Xc)), -1))
        if U is None:
            return None, None
        assert len(U.summands) == 1
        replaced[s] = U.summands[0]
    return TwoTerm(A, tuple(rest) + tuple(replaced.values())), replaced


def test_cached_mutation_matches_reference():
    for n, ell in [(3, 6), (4, 4), (2, 6), (6, 9)]:
        A = Algebra(n, ell)
        for T in transport.two_term_objects(A):
            for orbit in nu_orbits(T):
                for sign in ("minus", "plus"):
                    want = _mutate_uncached(T, orbit, sign)
                    assert cx.two_term_mutate_tracked(T, orbit, sign) == want, (n, ell, T, orbit, sign)


def _rotate(s, k, A):
    r = lambda i: (i + k - 1) % A.n + 1
    return Stalk(r(s.idx), s.deg) if isinstance(s, Stalk) else Arrow(r(s.src), r(s.tgt))


def test_rotated_mutation_matches_reference():
    # each rotated input is mutated in a canonical frame and rotated back;
    # the reference mutates it where it stands
    for n, ell in [(3, 6), (4, 4), (2, 6), (6, 9)]:
        A = Algebra(n, ell)
        for T in transport.two_term_objects(A):
            for orbit in nu_orbits(T):
                for k in range(n):
                    Tk = TwoTerm(A, tuple(_rotate(s, k, A) for s in T.summands))
                    orbit_k = {_rotate(s, k, A) for s in orbit}
                    for sign in ("minus", "plus"):
                        want = _mutate_uncached(Tk, orbit_k, sign)
                        got = cx.two_term_mutate_tracked(Tk, orbit_k, sign)
                        assert got == want, (T, orbit, sign, k)


@pytest.mark.parametrize("n, ell", [(3, 6), (4, 4), (2, 6), (6, 9), (5, 10)])
def test_closed_form_frame_matches_search(n, ell):
    # the frame rule that _anchor replaced: search every k for the one that
    # puts (sigma^k s, sorted sigma^k rest) first
    A = Algebra(n, ell)
    for T in transport.two_term_objects(A):
        for orbit in nu_orbits(T):
            rest = [s for s in T.summands if s not in orbit]
            for s in orbit:
                k = min(range(n), key=lambda k: (_rotate(s, k, A).sort_key(),
                                                 sorted(_rotate(m, k, A).sort_key() for m in rest)))
                assert cx._anchor(s, A) == k, (T, s)


@pytest.mark.parametrize("n, ell", [(3, 6), (4, 4), (6, 9)])
def test_rotation_keyed_caches_match_uncached(n, ell):
    # the reference builds every HomSet on the unrotated pair itself, whose
    # frame keys are its sort_keys
    A = Algebra(n, ell)
    pairs = {(a, b) for T in transport.two_term_objects(A) for a in T.summands for b in T.summands}
    uncached = cx._summand_hom_in_frame.__wrapped__
    want = {(a, b, j): uncached(a.sort_key(), b.sort_key(), j, A) for a, b in pairs for j in (-1, 0, 1)}
    for (a, b, j), (HS, rows) in want.items():
        for k in range(n):
            got_HS, got_rows = cx._summand_hom(_rotate(a, k, A), _rotate(b, k, A), j, A)
            assert got_HS.dim == HS.dim and got_rows == rows, (a, b, j, k)


def test_cached_hom_vectors_are_tuples_of_ints():
    # the caches hand one answer to every caller, so what they hold cannot be
    # changed in place: tuples of packed ints, and int polynomials
    summands = {s for T in transport.two_term_objects(A36) for s in T.summands}
    seen = set()
    for a in summands:
        for b in summands:
            for k in (-1, 0, 1):
                HS, rows = cx._summand_hom(a, b, k, A36)
                for name, vecs in (("rows", rows), ("cycles", HS.cycles),
                                   ("boundaries", HS.boundaries)):
                    assert type(vecs) is tuple and all(type(v) is int for v in vecs), (a, b, k)
                    seen.update([name] if vecs else [])
        assert all(type(p) is int for p in cx._summand_complex(a, A36).diff.values())
    assert seen == {"rows", "cycles", "boundaries"}


def _same_complex(C, D):
    return (C.algebra == D.algebra and C.summands == D.summands and C.diff == D.diff)


def test_cached_summand_complexes_stay_intact():
    transport.exchange_quiver("2tilt", A36)
    objs = transport.two_term_objects(A36)
    for T in objs:
        bfs_sequence(T)
    summands = {s for T in objs for s in T.summands}
    hits = cx._summand_complex.cache_info().hits
    for s in summands:
        assert _same_complex(cx._summand_complex(s, A36), cx._summand_complex.__wrapped__(s, A36))
    # every summand was served from the cache, so the cached copies were checked
    assert cx._summand_complex.cache_info().hits == hits + len(summands)


# two summands in degree -1, so neither is an approximation target when the
# stalk complex in degree 0 is mutated
SPLIT_CONE = TwoTerm(A36, (Stalk(1, -1), Stalk(2, -1)))


def test_multi_summand_cone_raises_on_every_call(monkeypatch):
    monkeypatch.setattr(cx, "normalize", lambda C: SPLIT_CONE)
    # drop replacements cached by earlier tests, so that the cone is rebuilt
    cx._mutate_summand.cache_clear()
    for _ in range(2):
        with pytest.raises(RuntimeError, match="produced 2 summands"):
            two_term_mutate(stalk_complex(A36), {Stalk(1, 0)}, "minus")


def test_multi_summand_cone_names_the_callers_summand(monkeypatch):
    monkeypatch.setattr(cx, "normalize", lambda C: SPLIT_CONE)
    cx._mutate_summand.cache_clear()
    # Stalk(2, 0) beside Stalk(1, 0) and Stalk(3, 0) is mutated in the frame
    # rotated by two vertices, as Stalk(1, 0); the message names Stalk(2, 0)
    for _ in range(2):
        with pytest.raises(RuntimeError, match=r"mutation of Stalk\(idx=2, deg=0\) produced 2"):
            two_term_mutate(stalk_complex(A36), {Stalk(2, 0)}, "minus")


def test_end_quiver_requires_tilting():
    with pytest.raises(ValueError):
        end_quiver(TwoTerm(A36, (Stalk(1, 0),)))


def test_json_round_trip():
    for X in disc.enumerate_triangulations(3):
        T = phi(X, "minus", A36)
        assert twoterm_from_json(T.to_json()) == T


# invariant checks that are exceptions, not asserts: (source to evaluate here
# and under python -O, start of the expected message); a polynomial is the
# int whose bit k is its coefficient of x^k
BROKEN_INVARIANTS = {
    "non-unit inverse": ("cx._pinv(0b10, A36)", "_pinv"),
    "inexact division": ("cx._pdivide(1, 1, 1, A36)", "_pdivide"),
    "non-canonical degree": ("cx.normalize(cx.ProjComplex(A36, [(-1, 1), (0, 1)], "
                             "{(1, 0): 1 << 6}))",
                             "normalize: non-canonical"),
}


@pytest.mark.parametrize("case", BROKEN_INVARIANTS)
def test_broken_invariants_raise(case):
    src, message = BROKEN_INVARIANTS[case]
    with pytest.raises(ValueError) as exc:
        eval(src)
    assert str(exc.value).startswith(message)


def test_broken_invariants_raise_under_optimize():
    script = (
        "import sys\n"
        "from smstilt import complexes as cx\n"
        "from smstilt.modcat import Algebra\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit('not running under -O')\n"
        "A36 = Algebra(3, 6)\n"
        f"for src, message in {list(BROKEN_INVARIANTS.values())!r}:\n"
        "    try:\n"
        "        eval(src)\n"
        "    except ValueError as exc:\n"
        "        if str(exc).startswith(message):\n"
        "            continue\n"
        "    sys.exit(f'no {message!r} error from {src}')\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cx.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("ell", range(1, 7))
def test_packed_polynomials_match_convolution(ell):
    # every polynomial of degree <= ell: each product against the truncated
    # convolution, the inverse of each unit against the coefficient loop, and
    # division by x^s u for each s, with the ValueErrors of a non-unit and of
    # a numerator not divisible by x^s
    A = Algebra(1, ell)
    polys = range(1 << ell + 1)
    arrs = [_arr(p, A) for p in polys]
    for a in polys:
        for b in polys:
            assert np.array_equal(_arr(cx._pmul(a, b, A), A), _pmul(arrs[a], arrs[b], A)), (a, b)
    units = [a for a in polys if a & 1]
    for a in polys:
        if a & 1:
            assert np.array_equal(_arr(cx._pinv(a, A), A), _pinv(arrs[a], A)), a
        else:
            with pytest.raises(ValueError, match="^_pinv: the constant term is not 1"):
                cx._pinv(a, A)
    for num in polys:
        for s in range(ell + 1):
            u = units[(num + s) % len(units)]
            if num % (1 << s):
                with pytest.raises(ValueError, match=f"^_pdivide: .* not divisible by x\\^{s}$"):
                    cx._pdivide(num, s, cx._pinv(u, A), A)
                continue
            q = _arr(cx._pdivide(num, s, cx._pinv(u, A), A), A)
            uinv = _pinv(arrs[u], A)
            assert np.array_equal(q, _pmul(_pshift(arrs[num], s), uinv, A)), (num, s, u)
            # and x^s u q = num
            xs_u = _pmul(np.eye(ell + 1, dtype=np.int64)[s], arrs[u], A)
            assert np.array_equal(_pmul(xs_u, q, A), arrs[num]), (num, s, u)


# -- test-local references for the complex side: the loop-built HomSet and the
# two-pass reduction (cancel units, then split arrows) that the package folded
# into `_hom_differential` and one `normalize` loop

class _LoopHomSet:
    """Reference: Hom_K(T, U) with the chain-map condition rows and the
    homotopy rows each built by its own loop over the differentials."""

    def __init__(self, T, U):
        T, U = _arrays(T), _arrays(U)
        A = T.algebra
        self.A = A
        L = A.ell + 1
        self.slots = [(ui, ti) for ui, (du, _) in enumerate(U.summands)
                      for ti, (dt, _) in enumerate(T.summands) if du == dt]
        self.sidx = {st: k for k, st in enumerate(self.slots)}
        unknowns = []
        for k, (ui, ti) in enumerate(self.slots):
            a, b = T.summands[ti][1], U.summands[ui][1]
            for s in range((a - b) % A.n, L, A.n):
                unknowns.append((k, s))
        self.unknowns = unknowns
        self._colof = {ks: col for col, ks in enumerate(unknowns)}
        eqpairs = [(ti, ui) for ti, (dt, _) in enumerate(T.summands)
                   for ui, (du, _) in enumerate(U.summands) if du == dt + 1]
        eidx = {tp: k for k, tp in enumerate(eqpairs)}
        cond = np.zeros((L * len(eqpairs), len(unknowns)), dtype=np.int64)
        for col, (k, s) in enumerate(unknowns):
            ui, ti = self.slots[k]
            for (u2, u1), p in U.diff.items():
                if u1 == ui and (ti, u2) in eidx:
                    for t in range(s, L):
                        cond[eidx[(ti, u2)] * L + t, col] ^= int(p[t - s])
            for (t1, t2), p in T.diff.items():
                if t1 == ti and (t2, ui) in eidx:
                    for t in range(s, L):
                        cond[eidx[(t2, ui)] * L + t, col] ^= int(p[t - s])
        self.cycles = nullspace(cond) if unknowns else np.zeros((0, 0), dtype=np.int64)
        hslots = [(ui, ti) for ui, (du, _) in enumerate(U.summands)
                  for ti, (dt, _) in enumerate(T.summands) if du == dt - 1]
        brows = []
        for (ui, ti) in hslots:
            a, b = T.summands[ti][1], U.summands[ui][1]
            for s in range((a - b) % A.n, L, A.n):
                vec = np.zeros(len(unknowns), dtype=np.int64)
                for (u2, u1), p in U.diff.items():
                    if u1 == ui and (u2, ti) in self.sidx:
                        self._add_poly(vec, (u2, ti), p, s)
                for (t1, t2), p in T.diff.items():
                    if t1 == ti and (ui, t2) in self.sidx:
                        self._add_poly(vec, (ui, t2), p, s)
                if vec.any():
                    brows.append(vec)
        self.boundaries = (np.array(brows, dtype=np.int64) if brows
                           else np.zeros((0, len(unknowns)), dtype=np.int64))
        self.dim = self.cycles.shape[0] - len(rref(self.boundaries)[1])

    def _add_poly(self, vec, slot, p, s):
        k = self.sidx[slot]
        for t in range(s, self.A.ell + 1):
            if p[t - s]:
                vec[self._colof[(k, t)]] ^= 1

    def to_map(self, vec):
        f = {}
        for col, (k, s) in enumerate(self.unknowns):
            if vec[col]:
                f.setdefault(self.slots[k], _pzero(self.A))[s] = 1
        return f


def _schur_update(diff, r, c, A, exact_divide):
    prc = diff[(r, c)]
    rows_i = [i for (i, cc) in diff if cc == c and i != r]
    cols_j = [j for (rr, j) in diff if rr == r and j != c]
    for i in rows_i:
        if exact_divide:
            s = int(np.nonzero(prc)[0][0])
            lam = _pmul(_pshift(diff[(i, c)], s), _pinv(_pshift(prc, s), A), A)
        else:
            lam = _pmul(diff[(i, c)], _pinv(prc, A), A)
        for j in cols_j:
            q = (diff.get((i, j), _pzero(A)) + _pmul(lam, diff[(r, j)], A)) % 2
            if q.any():
                diff[(i, j)] = q
            elif (i, j) in diff:
                diff.pop((i, j))
    for key in [k for k in diff if k[0] == r or k[1] == c]:
        if key != (r, c):
            diff.pop(key)


def _minimize(C):
    """Reference, first pass: cancel the first unit entry by position until
    none is left, renumbering the summands after each cancellation."""
    A = C.algebra
    summands = list(C.summands)
    diff = {k: v.copy() for k, v in C.diff.items()}
    while True:
        pivot = next((k for k in sorted(diff) if diff[k][0] == 1), None)
        if pivot is None:
            break
        r, c = pivot
        _schur_update(diff, r, c, A, exact_divide=False)
        diff.pop((r, c))
        keep = [k for k in range(len(summands)) if k not in (r, c)]
        remap = {old: new for new, old in enumerate(keep)}
        summands = [summands[k] for k in keep]
        diff = {(remap[i], remap[j]): p for (i, j), p in diff.items()
                if i in remap and j in remap and p.any()}
    return cx.ProjComplex(A, summands, diff)


def _decompose_two_term(C):
    """Reference, second pass: None outside degrees {-1, 0}, else split off
    an arrow at an entry of least degree, ties by position, until none is
    left."""
    A = C.algebra
    if not {d for d, _ in C.summands} <= {-1, 0}:
        return None
    summands = list(C.summands)
    diff = {k: v.copy() for k, v in C.diff.items()}
    out = []
    while diff:
        (r, c), prc = min(diff.items(), key=lambda kv: (int(np.nonzero(kv[1])[0][0]), kv[0]))
        s = int(np.nonzero(prc)[0][0])
        if s < 1:
            raise ValueError("decompose_two_term: unit entry; minimize before decomposing")
        _schur_update(diff, r, c, A, exact_divide=True)
        diff.pop((r, c))
        a, b = summands[c][1], summands[r][1]
        if s != cx._min_pos_degree(a, b, A):
            raise ValueError(f"decompose_two_term: non-canonical degree x^{s} on P_{a} -> P_{b}")
        out.append(Arrow(a, b))
        summands[r] = summands[c] = None
    return tuple(out) + tuple(Stalk(i, d) for d, i in filter(None, summands))


def _normalize_two_pass(C):
    parts = _decompose_two_term(_minimize(C))
    return None if parts is None else TwoTerm(C.algebra, parts)


@pytest.mark.parametrize("n, ell", [(3, 6), (4, 4), (6, 9)])
def test_homset_matches_loop_reference(n, ell):
    # every summand pair, every shift that can carry a chain map; one Hom
    # differential must give the loop-built rows, row for row
    A = Algebra(n, ell)
    summands = {s for T in transport.two_term_objects(A) for s in T.summands}
    for a in summands:
        for b in summands:
            for k in (-1, 0, 1):
                T, U = cx._summand_complex(a, A), cx.shift(cx._summand_complex(b, A), k)
                got, want = cx.HomSet(T, U), _LoopHomSet(T, U)
                assert got.unknowns == [(want.slots[j], s) for j, s in want.unknowns]
                for name in ("cycles", "boundaries"):
                    assert np.array_equal(_rows(getattr(got, name), got), getattr(want, name)), \
                        (a, b, k, name)
                assert got.dim == want.dim, (a, b, k)
                for z, zrow in zip(got.cycles, want.cycles):
                    f = {st: _arr(p, A) for st, p in got.to_map(z).items()}
                    assert f.keys() == want.to_map(zrow).keys()
                    assert all(np.array_equal(f[st], p) for st, p in want.to_map(zrow).items())
                    assert np.array_equal(_from_map(got, f), zrow)


def _mutation_cones(A, monkeypatch):
    """Every complex that `_mutate_summand` reduces while each object of A is
    mutated at each orbit with both signs."""
    cones, normalize = [], cx.normalize

    def record(C):
        cones.append(C)
        return normalize(C)

    with monkeypatch.context() as m:
        m.setattr(cx, "normalize", record)
        cx._mutate_summand.cache_clear()
        for T in transport.two_term_objects(A):
            for orbit in nu_orbits(T):
                for sign in ("minus", "plus"):
                    cx.two_term_mutate_tracked(T, orbit, sign)
    return cones


@pytest.mark.parametrize("n, ell", [(3, 6), (4, 4), (6, 9), (5, 10)])
def test_normalize_matches_two_pass_reference_on_mutation_cones(n, ell, monkeypatch):
    results = [(cx.normalize(C), _normalize_two_pass(_arrays(C)))
               for C in _mutation_cones(Algebra(n, ell), monkeypatch)]
    assert all(got == want for got, want in results)
    # every outcome occurs: a cone off the window, the replacement summand
    # alone, and the replacement beside target summands M'' that the
    # universal approximation adds
    sizes = {len(got.summands) if got else None for got, _ in results}
    assert {None, 1} <= sizes and any(k > 1 for k in sizes - {None})


def _complex(summands, diff):
    """A complex over A_3^6 whose entries are given as coefficient tuples."""
    return cx.ProjComplex(A36, summands,
                          {k: sum(c << t for t, c in enumerate(v)) for k, v in diff.items()})


# hand cases over A_3^6: (complex, its minimal two-term form or None)
NORMALIZE_CASES = {
    "contractible unit pair": (_complex([(-1, 1), (0, 1)], {(1, 0): (1,)}), TwoTerm(A36, ())),
    "unit beside an arrow": (_complex([(-1, 1), (-1, 2), (0, 1)], {(2, 0): (1,), (2, 1): (0, 1)}),
                             TwoTerm(A36, (Stalk(2, -1),))),
    "unit cancels outside the window": (_complex([(-2, 1), (-1, 1), (0, 2)], {(1, 0): (1,)}),
                                        TwoTerm(A36, (Stalk(2, 0),))),
    "least degree before position": (_complex([(-1, 1), (-1, 1), (0, 1), (0, 1)],
                                              {(2, 0): (0,) * 6 + (1,), (2, 1): (0, 0, 0, 1),
                                               (3, 0): (0, 0, 0, 1)}),
                                     TwoTerm(A36, (Arrow(1, 1), Arrow(1, 1)))),
    "arrow off the window": (_complex([(-2, 1), (-1, 2)], {(1, 0): (0, 0, 1)}), None),
    "stalk off the window": (_complex([(1, 2)], {}), None),
    # the window is checked before the non-canonical degree can raise
    "off the window and non-canonical": (_complex([(-1, 1), (0, 1), (1, 2)],
                                                  {(1, 0): (0,) * 6 + (1,)}), None),
}


@pytest.mark.parametrize("case", NORMALIZE_CASES)
def test_normalize_hand_cases(case):
    C, want = NORMALIZE_CASES[case]
    assert cx.normalize(C) == want
    assert _normalize_two_pass(_arrays(C)) == want


def test_normalize_raises_on_non_canonical_degree():
    C = _complex([(-1, 1), (0, 1)], {(1, 0): (0,) * 6 + (1,)})
    with pytest.raises(ValueError, match="^normalize: non-canonical degree x\\^6 on P_1 -> P_1$"):
        cx.normalize(C)
    with pytest.raises(ValueError, match="^decompose_two_term: non-canonical"):
        _normalize_two_pass(_arrays(C))


@pytest.mark.parametrize("n, ell", [(3, 6), (4, 4), (2, 6)])
def test_normalize_matches_two_pass_reference_on_random_two_term_complexes(n, ell):
    # any matrix of maps between degrees -1 and 0 is a complex; entries are
    # random sums of valid monomials, units included
    A = Algebra(n, ell)
    rng = random.Random(20261019 + n)
    split = 0
    for _ in range(300):
        summands = ([(-1, rng.randint(1, n)) for _ in range(rng.randint(0, 3))]
                    + [(0, rng.randint(1, n)) for _ in range(rng.randint(0, 3))])
        diff = {}
        for r, (dr, b) in enumerate(summands):
            for c, (dc, a) in enumerate(summands):
                if (dr, dc) == (0, -1):
                    p = 0
                    for s in range((a - b) % n, ell + 1, n):
                        p |= (rng.random() < 0.4) << s
                    if p:
                        diff[(r, c)] = p
        C = cx.ProjComplex(A, summands, diff)
        try:
            want = _normalize_two_pass(_arrays(C))
        except ValueError:
            with pytest.raises(ValueError, match="^normalize: non-canonical"):
                cx.normalize(C)
            continue
        assert cx.normalize(C) == want, C
        split += any(isinstance(s, Arrow) for s in want.summands)
    assert split >= 30
