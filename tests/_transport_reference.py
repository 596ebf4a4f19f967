"""Test-local reference transport for the confluence checks: a breadth-first
mutation path to each complex, and its replay on the sms side.  `fmap` reads
each image off the stable equivalence instead, so the two routes share no
mutation.  `all_summands` lists the indecomposable two-term complexes, for the
brute-force checks over their n-subsets, and `nu_orbits` partitions a complex
into its Nakayama orbits, the reference for the orbit bitmasks of
`complexes._summand_table`.  `exchange_arrows` mutates every
complex at every orbit by cones, the reference for `exchange_quiver`, which
joins the two completions of each complex minus one orbit and computes no
cone."""

import itertools
from collections import deque

from smstilt import complexes as cx, disc, smscfg
from smstilt.complexes import Arrow, Stalk, TwoTerm
from smstilt.modcat import _orbits
from smstilt.smscfg import Configuration
from smstilt.transport import _anchor, two_term_objects


def all_summands(A) -> list:
    """Every stalk and arrow summand of a two-term complex over A."""
    out = [Stalk(i, d) for i in range(1, A.n + 1) for d in (0, -1)]
    for a, b in itertools.product(range(1, A.n + 1), repeat=2):
        if cx._min_pos_degree(a, b, A) <= A.ell:
            out.append(Arrow(a, b))
    return out


def nu_orbits(T: TwoTerm) -> list[frozenset]:
    """Partition of the summands into Nakayama orbits, in order of first
    member."""
    return _orbits(T.summands, lambda s: cx.nu_summand(s, T.algebra),
                   "complex is not Nakayama-stable")


def exchange_arrows(A) -> tuple:
    """The arrows of the 2-tilt exchange quiver: each object mutated at each
    of its Nakayama orbits, with no rotation."""
    objs = two_term_objects(A)
    index = {T: i for i, T in enumerate(objs)}
    arrows = []
    for i, T in enumerate(objs):
        for orbit in nu_orbits(T):
            R = cx.two_term_mutate_tracked(T, orbit, "minus")[0]
            if R is None:
                continue
            if R not in index:
                raise RuntimeError("mutation left the two-term tilting class")
            arrows.append((i, index[R], tuple(sorted(orbit, key=lambda s: s.sort_key()))))
    return tuple(arrows)


def bfs_sequence(T: TwoTerm) -> list[frozenset]:
    """Shortest mutation path from the anchor to T in the two-term class.

    Minus-part objects are reached from the stalk complex by left
    mutations, plus-part ones from its shift by right mutations; each step
    records the mutated orbit, as summand sets of the complex mutated at
    that step.
    """
    A = T.algebra
    sign = cx.part_of(T)
    X0 = disc.Triangulation(A.e, tuple(disc.projective_arc(i) for i in range(1, A.e + 1)))
    anchor = cx.phi(X0, sign, A)
    if T == anchor:
        return []
    seen = {anchor: None}
    queue = deque([anchor])
    while queue:
        U = queue.popleft()
        for orbit in nu_orbits(U):
            R = cx.two_term_mutate_tracked(U, orbit, sign)[0]
            if R is None or R in seen:
                continue
            seen[R] = (U, orbit)
            if R == T:
                path = []
                V = R
                while seen[V] is not None:
                    U0, orb = seen[V]
                    path.append((U0, orb))
                    V = U0
                return [orb for _, orb in reversed(path)]
            queue.append(R)
    raise RuntimeError("complex not reachable inside the two-term class")


def transport_along(T: TwoTerm, orbits: list[frozenset]) -> Configuration:
    """Replay an explicit complex-side mutation path on the sms side."""
    A = T.algebra
    sign = cx.part_of(T)
    X0 = disc.Triangulation(A.e, tuple(disc.projective_arc(i) for i in range(1, A.e + 1)))
    U = cx.phi(X0, sign, A)
    C, pairing = _anchor(sign, A)
    summand_index = {s: s.idx for s in U.summands}
    for orbit in orbits:
        K = {pairing[summand_index[s]] for s in orbit}
        R, replaced = cx.two_term_mutate_tracked(U, orbit, sign)
        if R is None:
            raise RuntimeError("path leaves the two-term class")
        C, rep = smscfg.sms_mutate_tracked(C, K, sign)
        pairing = {i: rep[pt] for i, pt in pairing.items()}
        summand_index = {replaced.get(s, s): i for s, i in summand_index.items()}
        U = R
    if U != T:
        raise RuntimeError("mutation path does not end at the requested complex")
    return C
