"""The tilting-to-sms map computed by mutation transport, exchange
quivers on both sides, and the machine-checked verification suites.

A two-term tilting complex is reached from the stalk complex by a
canonical sequence of mutations read off its Brauer tree; replaying the
same sequence on the simple configuration transports the identity
correspondence to the complex in question.  The suites check counts,
bijectivity/surjectivity, mutation compatibility, the exchange-quiver
embedding, type partitions, multiplicity collapse and the module-level
functor identities.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

from . import brauer, complexes, disc, modcat, smscfg
from .complexes import TwoTerm
from .modcat import Algebra, Ind, _bar
from .smscfg import Configuration


def _pmap(fn, items, threads: int = 1):
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# -- canonical mutation sequences ---------------------------------------------

def _orbit_indices(v: int, A: Algebra) -> frozenset[int]:
    return frozenset(_bar(v + k * A.e, A.n) for k in range(A.n // A.e))


def _tree_multiplicity(A: Algebra) -> int:
    return max(A.ell // A.e, 1)


def _sequence_data(T: TwoTerm):
    """Replay data for T: sign, orbit sequence, and summand -> index map."""
    A = T.algebra
    X, sign = complexes.phi_inv(T)
    G = brauer.psi(X, sign, _tree_multiplicity(A))
    peel, star_tree = brauer.star_reduction(G, sign)
    vertex_of_label = {}
    for lab in star_tree.labels():
        u, v = star_tree.ends(lab)
        vertex_of_label[lab] = v if u == star_tree.exceptional else u
    seq = [_orbit_indices(vertex_of_label[lab], A) for lab in reversed(peel)]

    _, assignment = complexes.phi_with_labels(X, sign, A)
    index_of_summand = {}
    for arc_n, s in assignment.items():
        if arc_n.kind == "projective":
            base, e_pos = arc_n.terminal, _bar(arc_n.terminal, A.e)
            folded = disc.projective_arc(e_pos)
        else:
            base, e_pos = arc_n.initial, _bar(arc_n.initial, A.e)
            folded = disc.inner_arc(e_pos, arc_n.length, A.e)
        shift = base - e_pos
        index_of_summand[s] = _bar(vertex_of_label[str(folded)] + shift, A.n)
    return sign, seq, index_of_summand


def canonical_sequence(T: TwoTerm) -> list[frozenset[int]]:
    """Nakayama-orbit labels whose left (minus part) or right (plus part)
    mutation replay from the stalk complex reaches T."""
    if not complexes.is_tilting(T):
        raise ValueError("canonical sequences are defined for tilting complexes")
    return _sequence_data(T)[1]


def _anchor(sign: str, A: Algebra):
    if sign == "minus":
        return smscfg.simples(A), {i: (i, 1) for i in range(1, A.n + 1)}
    C0 = smscfg.config_shift(smscfg.simples(A), "omega_inv")
    pairing = {i: smscfg.point_of(modcat.omega_inv(Ind(i, 1), A))
               for i in range(1, A.n + 1)}
    return C0, pairing


def fmap_tracked(T: TwoTerm):
    """Transport the simple configuration along the canonical sequence.

    Returns (configuration, correspondence summand -> point).  Results are
    memoised per process; the correspondence is a fresh dict.
    """
    C, corr = _fmap_cached(T)
    return C, dict(corr)


@lru_cache(maxsize=None)
def _fmap_cached(T: TwoTerm):
    if not complexes.is_tilting(T):
        raise ValueError("fmap is defined on two-term tilting complexes")
    A = T.algebra
    sign, seq, index_of_summand = _sequence_data(T)
    C, pairing = _anchor(sign, A)
    for orbit in seq:
        K = {pairing[i] for i in orbit}
        C, rep = smscfg.sms_mutate_tracked(C, K, sign)
        pairing = {i: rep[pt] for i, pt in pairing.items()}
    return C, tuple((s, pairing[index_of_summand[s]]) for s in T.summands)


def fmap(T: TwoTerm) -> Configuration:
    return fmap_tracked(T)[0]


# -- exchange quivers -----------------------------------------------------------

@dataclass(frozen=True)
class ExchangeQuiver:
    kind: str
    objects: tuple
    arrows: tuple  # (source index, target index, mutated orbit/subset)


@lru_cache(maxsize=None)
def two_term_objects(A: Algebra) -> tuple[TwoTerm, ...]:
    objs = []
    for X in disc.enumerate_triangulations(A.e):
        for sign in ("minus", "plus"):
            objs.append(complexes.phi(X, sign, A))
    return tuple(objs)


def exchange_quiver(kind: str, A: Algebra) -> ExchangeQuiver:
    if kind == "2tilt":
        objs = two_term_objects(A)
        index = {T: i for i, T in enumerate(objs)}
        arrows = []
        for i, T in enumerate(objs):
            for orbit in complexes.nu_orbits(T):
                R = complexes.two_term_mutate(T, orbit, "minus")
                if R is None:
                    continue
                if R not in index:
                    raise RuntimeError("mutation left the two-term tilting class")
                arrows.append((i, index[R], tuple(sorted(orbit, key=lambda s: s.sort_key()))))
        return ExchangeQuiver(kind, objs, tuple(arrows))
    if kind == "sms":
        objs = smscfg.enumerate_configurations(A)
        index = {C.points: i for i, C in enumerate(objs)}
        arrows = []
        for i, C in enumerate(objs):
            for orbit in smscfg.nu_orbits_points(C):
                R = smscfg.sms_mutate(C, orbit, "minus")
                arrows.append((i, index[R.points], tuple(sorted(orbit))))
        return ExchangeQuiver(kind, objs, tuple(arrows))
    raise ValueError(f"unknown exchange quiver kind {kind!r}")


def quiver_to_dot(Q: ExchangeQuiver, annotations: dict | None = None) -> str:
    lines = [f"digraph {Q.kind.replace('-', '_')} {{", "  node [shape=box];"]
    for i, obj in enumerate(Q.objects):
        if isinstance(obj, TwoTerm):
            label = " ".join(_summand_str(s) for s in obj.summands)
        else:
            label = " ".join(f"({x},{y})" for x, y in obj.points)
        extra = ""
        if annotations and i in annotations:
            extra = f"\\n-> {annotations[i]}"
        lines.append(f'  o{i} [label="{label}{extra}"];')
    for src, tgt, lab in Q.arrows:
        text = ",".join(str(x) for x in lab)
        lines.append(f'  o{src} -> o{tgt} [label="{text}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _summand_str(s) -> str:
    if isinstance(s, complexes.Stalk):
        return f"P{s.idx}@{s.deg}"
    return f"(P{s.src}->P{s.tgt})"


# -- alternative transport for the confluence check ----------------------------

def bfs_sequence(T: TwoTerm) -> list[frozenset]:
    """Shortest mutation path from the anchor to T in the two-term class.

    Minus-part objects are reached from the stalk complex by left
    mutations, plus-part ones from its shift by right mutations; each step
    records the mutated orbit, as summand sets of the complex mutated at
    that step.
    """
    A = T.algebra
    sign = complexes.part_of(T)
    X0 = disc.Triangulation(A.e, tuple(disc.projective_arc(i) for i in range(1, A.e + 1)))
    anchor = complexes.phi(X0, sign, A)
    if T == anchor:
        return []
    seen = {anchor: None}
    queue = deque([anchor])
    while queue:
        U = queue.popleft()
        for orbit in complexes.nu_orbits(U):
            R = complexes.two_term_mutate(U, orbit, sign)
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
    sign = complexes.part_of(T)
    X0 = disc.Triangulation(A.e, tuple(disc.projective_arc(i) for i in range(1, A.e + 1)))
    U = complexes.phi(X0, sign, A)
    C, pairing = _anchor(sign, A)
    summand_index = {s: s.idx for s in U.summands}
    for orbit in orbits:
        K = {pairing[summand_index[s]] for s in orbit}
        R, replaced = complexes.two_term_mutate_tracked(U, orbit, sign)
        if R is None:
            raise RuntimeError("path leaves the two-term class")
        C, rep = smscfg.sms_mutate_tracked(C, K, sign)
        pairing = {i: rep[pt] for i, pt in pairing.items()}
        summand_index = {replaced.get(s, s): i for s, i in summand_index.items()}
        U = R
    if U != T:
        raise RuntimeError("mutation path does not end at the requested complex")
    return C


# -- verification suites ---------------------------------------------------------

def _report(suite: str, status: bool, details: dict, counterexamples: list) -> dict:
    return {"suite": suite, "status": "pass" if status else "fail",
            "details": details, "counterexamples": counterexamples}


def _verify_counts(A: Algebra, threads: int = 1) -> dict:
    e = A.e
    tri = len(disc.enumerate_triangulations(e))
    expected_tri = math.comb(2 * e, e) // 2
    cfg = len(smscfg.enumerate_configurations(A))
    expected_cfg = math.comb(2 * e, e) if A.ell != e else math.comb(2 * e, e) // (e + 1)
    details = {"triangulations": tri, "expected_triangulations": expected_tri,
               "configurations": cfg, "expected_configurations": expected_cfg}
    bad = []
    if tri != expected_tri:
        bad.append({"count": "triangulations", "got": tri, "want": expected_tri})
    if cfg != expected_cfg:
        bad.append({"count": "configurations", "got": cfg, "want": expected_cfg})
    return _report("counts", not bad, details, bad)


def _verify_bijection(A: Algebra, threads: int = 1) -> dict:
    objs = two_term_objects(A)
    images = _pmap(fmap, objs, threads)
    keyed = [C.points for C in images]
    all_cfgs = {C.points for C in smscfg.enumerate_configurations(A)}
    injective = len(set(keyed)) == len(keyed)
    surjective = set(keyed) == all_cfgs
    expect_bijective = A.ell != A.e
    fibers: dict = {}
    for T, pts in zip(objs, keyed):
        fibers.setdefault(pts, []).append(T)
    details = {
        "domain": len(objs),
        "image": len(set(keyed)),
        "codomain": len(all_cfgs),
        "injective": injective,
        "surjective": surjective,
        "expected_bijective": expect_bijective,
        "fiber_sizes": sorted((len(v) for v in fibers.values()), reverse=True),
    }
    ok = surjective and (injective == expect_bijective)
    bad = [] if ok else [details]
    return _report("bijection", ok, details, bad)


def _verify_mutation_compat(A: Algebra, threads: int = 1) -> dict:
    objs = two_term_objects(A)

    def check(T):
        local = []
        edges = 0
        C, corr = fmap_tracked(T)
        for orbit in complexes.nu_orbits(T):
            R = complexes.two_term_mutate(T, orbit, "minus")
            if R is None:
                continue
            edges += 1
            S = {corr[s] for s in orbit}
            direct = smscfg.sms_mutate(C, S, "minus")
            expected = fmap(R)
            if direct.points != expected.points:
                local.append({"complex": T.to_json(),
                              "orbit": [s.to_json() for s in sorted(orbit, key=lambda x: x.sort_key())],
                              "direct": direct.to_json(), "transport": expected.to_json()})
        return edges, local

    results = _pmap(check, objs, threads)
    edges = sum(r[0] for r in results)
    bad = [x for r in results for x in r[1]]
    return _report("mutation-compat", not bad, {"edges_checked": edges}, bad)


def _verify_embedding(A: Algebra, threads: int = 1) -> dict:
    if A.ell == A.e:
        return _report("embedding", True, {"note": "not applicable when ell = gcd(n, ell)"}, [])
    Q2 = exchange_quiver("2tilt", A)
    Qs = exchange_quiver("sms", A)
    cfg_index = {C.points: i for i, C in enumerate(Qs.objects)}
    images = _pmap(fmap, Q2.objects, threads)
    obj_map = [cfg_index[C.points] for C in images]
    bad = []
    if len(set(obj_map)) != len(obj_map):
        bad.append({"failure": "object map not injective"})
    corrs = [fmap_tracked(T)[1] for T in Q2.objects]
    sms_arrows = {(s, t, lab) for s, t, lab in Qs.arrows}
    mapped = set()
    for src, tgt, orbit in Q2.arrows:
        S = tuple(sorted(corrs[src][s] for s in orbit))
        arrow = (obj_map[src], obj_map[tgt], S)
        if arrow not in sms_arrows:
            bad.append({"failure": "arrow image missing", "arrow": repr(arrow)})
        if arrow in mapped:
            bad.append({"failure": "arrow map not injective", "arrow": repr(arrow)})
        mapped.add(arrow)
    details = {"2tilt_objects": len(Q2.objects), "2tilt_arrows": len(Q2.arrows),
               "sms_objects": len(Qs.objects), "sms_arrows": len(Qs.arrows)}
    return _report("embedding", not bad, details, bad)


def _verify_types(A: Algebra, threads: int = 1) -> dict:
    e, m = A.e, A.ell // A.e if A.ell % A.e == 0 else 0
    if A.n != e or m <= 1:
        return _report("types", True, {"note": "types need the symmetric case with m > 1"}, [])
    bad = []
    per_part = {"minus": [], "plus": []}
    for X in disc.enumerate_triangulations(e):
        for sign in ("minus", "plus"):
            T = complexes.phi(X, sign, A)
            kind = smscfg.prune_type(fmap(T), e, m)
            per_part[sign].append(kind)
            want = smscfg.BOTTOM if sign == "minus" else smscfg.TOP
            if kind != want:
                bad.append({"sign": sign, "complex": T.to_json(), "type": kind})
    details = {"minus_types": sorted(set(per_part["minus"])),
               "plus_types": sorted(set(per_part["plus"]))}
    return _report("types", not bad, details, bad)


def _verify_tilde(A: Algebra, threads: int = 1) -> dict:
    e = A.e
    m = A.ell // e if A.ell % e == 0 else 0
    if A.n != e or m <= 1:
        return _report("tilde", True, {"note": "collapse needs the symmetric case with m > 1"}, [])
    B = Algebra(e, e)
    bad = []
    src = smscfg.enumerate_configurations(A)
    tgt = {C.points for C in smscfg.enumerate_configurations(B)}
    images = {}
    for C in src:
        images.setdefault(smscfg.tilde(C).points, []).append(C)
    if set(images) != tgt:
        bad.append({"failure": "collapse is not onto"})
    if sum(len(v) for v in images.values()) != len(src):
        bad.append({"failure": "fiber sizes do not partition the source"})
    for C in src:
        for orbit in smscfg.nu_orbits_points(C):
            lhs = smscfg.tilde(smscfg.sms_mutate(C, orbit, "minus"))
            rhs = smscfg.sms_mutate(smscfg.tilde(C),
                                    {smscfg.tilde_point(p, A) for p in orbit}, "minus")
            if lhs.points != rhs.points:
                bad.append({"failure": "collapse does not commute with mutation",
                            "configuration": C.to_json(),
                            "subset": sorted(orbit)})
    details = {"source": len(src), "target": len(tgt),
               "fiber_sizes": sorted((len(v) for v in images.values()), reverse=True)}
    return _report("tilde", not bad, details, bad)


def _verify_functors(A: Algebra, threads: int = 1) -> dict:
    bad = []
    nonproj = modcat.nonprojective_inds(A)
    for M in nonproj:
        if modcat.omega_inv(modcat.omega(M, A), A) != M:
            bad.append({"identity": "omega_inv . omega", "module": M.to_json()})
        if modcat.omega(modcat.omega_inv(M, A), A) != M:
            bad.append({"identity": "omega . omega_inv", "module": M.to_json()})
        if modcat.tau(M, A) != modcat.nu(modcat.omega(modcat.omega(M, A), A), A):
            bad.append({"identity": "tau = nu . omega^2", "module": M.to_json()})
    for M in nonproj:
        for N in nonproj:
            base = modcat.stable_hom_dim(M, N, A)
            if base != modcat.stable_hom_dim(modcat.tau(M, A), modcat.tau(N, A), A):
                bad.append({"identity": "stable hom tau-invariance",
                            "pair": [M.to_json(), N.to_json()]})
            if base != modcat.stable_hom_dim(modcat.omega(M, A), modcat.omega(N, A), A):
                bad.append({"identity": "stable hom omega-invariance",
                            "pair": [M.to_json(), N.to_json()]})
            if base != modcat.stable_hom_dim(M, N, A, p=3):
                bad.append({"identity": "GF(2)/GF(3) agreement",
                            "pair": [M.to_json(), N.to_json()]})
    if modcat.nu_cycle_count(A) != A.e:
        bad.append({"identity": "nu cycle count", "got": modcat.nu_cycle_count(A)})
    return _report("functors", not bad,
                   {"modules": len(nonproj), "pairs": len(nonproj) ** 2}, bad)


_SUITES = {
    "counts": _verify_counts,
    "bijection": _verify_bijection,
    "mutation-compat": _verify_mutation_compat,
    "embedding": _verify_embedding,
    "types": _verify_types,
    "tilde": _verify_tilde,
    "functors": _verify_functors,
}


def verify(suite: str, A: Algebra, threads: int = 1) -> dict:
    """Run one verification suite; failures are results, not errors."""
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(_SUITES)}")
    return _SUITES[suite](A, threads)
