"""Right mutation through duality, a second route on both sides: the plus
mutation must equal the minus mutation conjugated by a duality, with the
correspondence.  On configurations the duality is D(x, y) = (bar(y - x), y),
the k-duality of the stable category (A^op is isomorphic to A).  On
complexes it is Hom_A(-, A) followed by the shift [1]: Stalk(i, d) goes to
Stalk(bar(-i), -1 - d) and Arrow(a, b) to Arrow(bar(-b), bar(-a))."""

import pytest

from smstilt import complexes as cx, smscfg, transport
from smstilt.complexes import Arrow, Stalk, TwoTerm
from smstilt.modcat import Algebra, _bar

ALGEBRAS = [(2, 4), (3, 3), (3, 6), (4, 4), (4, 8), (6, 9), (5, 10)]


def _dual_point(q, A):
    return (_bar(q[1] - q[0], A.n), q[1])


def _dual_summand(s, A):
    if isinstance(s, Stalk):
        return Stalk(_bar(-s.idx, A.n), -1 - s.deg)
    return Arrow(_bar(-s.tgt, A.n), _bar(-s.src, A.n))


def _plus_by_duality_mismatches(A):
    """Every orbit whose plus mutation differs from D . minus . D, on either
    side, and how many complex mutations leave the two-term window."""
    bad, outside = [], 0
    for C in smscfg.enumerate_configurations(A):
        dual = smscfg.Configuration(A, tuple(_dual_point(q, A) for q in C.points))
        for K in smscfg.nu_orbits_points(C):
            R, rep = smscfg.sms_mutate_tracked(dual, {_dual_point(q, A) for q in K}, "minus")
            want = (smscfg.Configuration(A, tuple(_dual_point(q, A) for q in R.points)),
                    {q: _dual_point(rep[_dual_point(q, A)], A) for q in C.points})
            if smscfg.sms_mutate_tracked(C, K, "plus") != want:
                bad.append((C, sorted(K)))
    for T in transport.two_term_objects(A):
        dual = TwoTerm(A, tuple(_dual_summand(s, A) for s in T.summands))
        for orbit in cx.nu_orbits(T):
            U, rep = cx.two_term_mutate_tracked(dual, {_dual_summand(s, A) for s in orbit}, "minus")
            if U is None:
                want = (None, None)
                outside += 1
            else:
                want = (TwoTerm(A, tuple(_dual_summand(s, A) for s in U.summands)),
                        {s: _dual_summand(rep[_dual_summand(s, A)], A) for s in orbit})
            if cx.two_term_mutate_tracked(T, orbit, "plus") != want:
                bad.append((T, sorted(orbit)))
    return bad, outside


@pytest.mark.parametrize("n, ell", ALGEBRAS)
def test_plus_mutation_is_dual_to_minus_mutation(n, ell):
    bad, outside = _plus_by_duality_mismatches(Algebra(n, ell))
    assert bad == [] and outside > 0


def _drop_first_plus_target(monkeypatch):
    real = cx._mutate_summand
    monkeypatch.setattr(cx, "_mutate_summand", lambda s, targets, sign, A: real.__wrapped__(
        s, targets[1:] if sign == "plus" else targets, sign, A))


def _plus_images_moved_by_nu(monkeypatch):
    # keeps every mutated configuration and permutes its correspondence
    # inside the Nakayama orbits
    real = smscfg._mutate_point
    monkeypatch.setattr(smscfg, "_mutate_point", lambda pt, frames, sign, A: (
        smscfg.nu_point(real(pt, frames, sign, A), A) if sign == "plus" else real(pt, frames, sign, A)))


@pytest.mark.parametrize("fault, n, ell", [(_drop_first_plus_target, 3, 6),
                                           (_plus_images_moved_by_nu, 6, 9)])
def test_duality_catches_a_plus_branch_fault(monkeypatch, fault, n, ell):
    fault(monkeypatch)
    assert _plus_by_duality_mismatches(Algebra(n, ell))[0]
