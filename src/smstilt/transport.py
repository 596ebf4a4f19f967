"""The tilting-to-sms map, exchange quivers on both sides, and the
machine-checked verification suites.

`fmap` reads T's image off the stable equivalence that T induces: the
summand T_j goes to the stable image of the X_j with dim Hom_D(T_i, X_j[m])
= [i = j][m = 0], a brick M or M[1], whose image is M or Omega^-1 M.  The
cross-check shares no code with it: T's canonical mutation sequence, read
off its Brauer tree by star reduction, is a path in a tree that
`_fmap_cached` walks, one mutation per complex on each side.  The suites
check counts, bijectivity/surjectivity, mutation compatibility, the
exchange-quiver embedding, type partitions, multiplicity collapse, the
module-level functor identities and the agreement of the two routes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

from . import brauer, complexes, disc, modcat, smscfg
from .complexes import TwoTerm
from .modcat import Algebra, Ind, _bar, omega_inv
from .smscfg import Configuration


# -- canonical mutation sequences ---------------------------------------------

def _orbit_indices(v: int, A: Algebra) -> frozenset[int]:
    return frozenset(_bar(v + k * A.e, A.n) for k in range(A.n // A.e))


def _folded_label(arc: disc.Arc, e: int) -> str:
    """The label of the edge of psi's rank-e tree that an arc of phi's
    unfolded triangulation folds onto."""
    if arc.kind == "projective":
        return str(disc.projective_arc(_bar(arc.terminal, e)))
    return str(disc.inner_arc(_bar(arc.initial, e), arc.length, e))


def canonical_sequence(T: TwoTerm) -> list[frozenset[int]]:
    """Nakayama-orbit labels whose left (minus part) or right (plus part)
    mutation replay from the stalk complex reaches T."""
    if not complexes.is_tilting(T):
        raise ValueError("canonical sequences are defined for tilting complexes")
    A = T.algebra
    X, sign = complexes.phi_inv(T)
    peel, star_tree = brauer.star_reduction(brauer.psi(X, sign, A.ell // A.e), sign)
    return [_orbit_indices(star_tree.far(lab, star_tree.exceptional), A) for lab in reversed(peel)]


def _anchor(sign: str, A: Algebra):
    if sign == "minus":
        return smscfg.simples(A), {i: (i, 1) for i in range(1, A.n + 1)}
    C0 = smscfg.config_shift(smscfg.simples(A), "omega_inv")
    pairing = {i: smscfg.point_of(modcat.omega_inv(Ind(i, 1), A))
               for i in range(1, A.n + 1)}
    return C0, pairing


_NOT_TILTING = "fmap is defined on two-term tilting complexes"


def _parent(T: TwoTerm):
    """(sign, R, replaced): T's parent R in the canonical-sequence tree and
    the map from T's last orbit to the summands of R that replace it, or
    (sign, None, None) at an anchor.  The first star-reduction step on
    psi(phi_inv(T)) moves the edge of T's last step; R is T mutated, with
    the opposite sign, at the summands that phi puts on that edge.

    T must be phi(X, sign) for a triangulation X.  The two-term tilting
    complexes are exactly these (the paper's bijection), so this check
    stands in for `is_tilting`, which the CLI runs on complexes from JSON.
    """
    A = T.algebra
    try:
        X, sign = complexes.phi_inv(T)
        U, assignment = complexes.phi_with_labels(X, sign, A)
    except (ValueError, disc.FoldSymmetryError):
        U = None
    if U != T or not disc.is_triangulation(X.arcs, X.e):
        raise ValueError(_NOT_TILTING)
    label = brauer.peel_step(brauer.psi(X, sign, A.ell // A.e), sign)
    if label is None:
        return sign, None, None
    orbit = {s for arc, s in assignment.items() if _folded_label(arc, A.e) == label}
    R, replaced = complexes.two_term_mutate_tracked(T, orbit, brauer._peel_sign(sign))
    if R is None:
        raise RuntimeError("the canonical parent left the two-term class")
    return sign, R, replaced


def fmap_tracked(T: TwoTerm):
    """The configuration of T and its correspondence summand -> point, read
    off the stable equivalence that T induces.  Images are memoised per
    process; the correspondence is a fresh dict.  Raises ValueError unless
    T is a two-term tilting complex (see `_derived_fmap`)."""
    C, corr = _derived_fmap(T)
    return C, dict(corr)


@lru_cache(maxsize=None)
def _derived_columns(A: Algebra):
    """(columns, images), bit k for the k-th module M of
    `modcat.nonprojective_inds(A)`.  Per summand s, `columns[s]` masks the M
    with (dim Hom_D(s, M), dim Hom_D(s, M[1])) = (1, 0), = (0, 1) and
    != (0, 0); `images[k]` holds the points of M and Omega^-1 M.  M has
    S_{top + k} at depth k from its top.  A stalk P_i counts its S_i; an
    arrow P_a -> P_b of degree d has Hom_D the S_b among the d lowest factors
    (the kernel of Hom(P_b, M) -> Hom(P_a, M)) and the S_a among the d top
    ones (its cokernel)."""
    n, mods = A.n, modcat.nonprojective_inds(A)

    def count(i, M, lo, hi):  # the S_i at depths lo <= k < hi
        lo = max(lo, 0)
        return len(range(lo + (i - modcat.top(M, A) - lo) % n, min(hi, M.length), n))

    def hom(s, M):
        if isinstance(s, complexes.Stalk):
            h = count(s.idx, M, 0, M.length)
            return (h, 0) if s.deg == 0 else (0, h)
        d = complexes._min_pos_degree(s.src, s.tgt, A)
        return count(s.tgt, M, M.length - d, M.length), count(s.src, M, 0, d)

    columns = {}
    for s in complexes._summand_table(A)[0]:
        homs = [hom(s, M) for M in mods]
        columns[s] = tuple(sum(1 << k for k, h in enumerate(homs) if test(h))
                           for test in ((1, 0).__eq__, (0, 1).__eq__, any))
    return columns, [(smscfg.point_of(M), smscfg.point_of(omega_inv(M, A))) for M in mods]


@lru_cache(maxsize=None)
def _derived_fmap(T: TwoTerm):
    """(C, correspondence): X_j is the one M with (dim Hom_D(T_j, M),
    dim Hom_D(T_j, M[1])) a unit vector and no Hom_D from the other summands.
    Refuses T unless it has n summands, each with one X_j, whose points form
    a configuration; on all basic complexes of A_3^6, A_3^3 and A_4^2 that
    is `is_tilting` (a test)."""
    A = T.algebra
    columns, images = _derived_columns(A)
    cols = [columns[s] for s in T.summands]
    once = twice = 0  # the M that some summand reaches, and that two or more reach
    for _, _, nonzero in cols:
        twice |= once & nonzero
        once |= nonzero
    corr = []
    for s, (deg0, deg1, _) in zip(T.summands, cols):
        x = (deg0 | deg1) & ~twice
        if not x or x & (x - 1):
            raise ValueError(_NOT_TILTING)
        corr.append((s, images[x.bit_length() - 1][0 if x & deg0 else 1]))
    C = Configuration(A, tuple(p for _, p in corr))
    if not len(corr) == len(C.points) == A.n or not smscfg.is_configuration(C, A):
        raise ValueError(_NOT_TILTING)
    return C, tuple(corr)


@lru_cache(maxsize=None)
def _fmap_cached(T: TwoTerm):
    sign, R, replaced = _parent(T)
    if R is None:
        C, pairing = _anchor(sign, T.algebra)
        return C, tuple((s, pairing[s.idx]) for s in T.summands)
    C, corr = _fmap_cached(R)
    corr = dict(corr)
    C, rep = smscfg.sms_mutate_tracked(C, {corr[r] for r in replaced.values()}, sign)
    return C, tuple((s, rep[corr[replaced.get(s, s)]]) for s in T.summands)


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
        # Mutation at a nu-orbit X keeps T - X, which has exactly two tilting
        # completions T = (T - X) + X and (T - X) + Y (Adachi-Iyama-Reiten).
        # The exchange triangle X -> E -> Y -> X[1] makes the second the left
        # mutation of T at X exactly when Hom_K(Y, X[1]) != 0 (Aihara-Iyama).
        # Summand sets are bitmasks over `_summand_table`, and T's orbits are
        # peeled lowest bit first, so in order of first member by `sort_key`.
        objs = two_term_objects(A)
        summands, index, orbit_of = complexes._summand_table(A)
        labels, completions, mutable, oriented, arrows = {}, {}, [], {}, []
        for i, T in enumerate(objs):
            mask = rest = sum({1 << index[s] for s in T.summands})
            while rest:
                X = orbit_of[(rest & -rest).bit_length() - 1]
                if X & ~mask:
                    raise ValueError("complex is not Nakayama-stable")
                rest &= ~X
                if X not in labels:
                    labels[X] = tuple(s for k, s in enumerate(summands) if X >> k & 1)
                pair = completions.setdefault(mask & ~X, [])
                pair.append((i, X))
                mutable.append((i, X, pair))
        for i, X, pair in mutable:
            if len(pair) != 2:
                at = json.dumps({"complex": objs[i].to_json(),
                                 "orbit": [s.to_json() for s in labels[X]]},
                                sort_keys=True, separators=(",", ":"))
                raise RuntimeError(f"{len(pair)} two-term tilting completions, not 2, "
                                   f"of the complex minus the orbit: {at}")
            j, Y = pair[1] if pair[0][0] == i else pair[0]
            if (Y, X) not in oriented:
                oriented[Y, X] = any(complexes._summand_hom(y, x, 1, A)[0].dim
                                     for y in labels[Y] for x in labels[X])
            if oriented[Y, X]:
                arrows.append((i, j, labels[X]))
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


# -- verification suites ---------------------------------------------------------

def _report(suite: str, status: bool, details: dict, counterexamples: list) -> dict:
    return {"suite": suite, "status": "pass" if status else "fail",
            "details": details, "counterexamples": counterexamples}


def _verify_counts(A: Algebra) -> dict:
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


def _verify_bijection(A: Algebra) -> dict:
    objs = two_term_objects(A)
    keyed = [fmap(T).points for T in objs]
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


def _verify_mutation_compat(A: Algebra) -> dict:
    Q = exchange_quiver("2tilt", A)
    tracked = [fmap_tracked(T) for T in Q.objects]
    bad = []
    for src, tgt, orbit in Q.arrows:
        C, corr = tracked[src]
        direct = smscfg.sms_mutate(C, {corr[s] for s in orbit}, "minus")
        expected = tracked[tgt][0]
        if direct.points != expected.points:
            bad.append({"complex": Q.objects[src].to_json(),
                        "orbit": [s.to_json() for s in orbit],
                        "direct": direct.to_json(), "transport": expected.to_json()})
    return _report("mutation-compat", not bad, {"edges_checked": len(Q.arrows)}, bad)


def _verify_stable_equivalence(A: Algebra) -> dict:
    """The derived route against the tree on every complex; a refusal fails."""
    objs = two_term_objects(A)
    bad = []
    for T in objs:
        C0, corr0 = _fmap_cached(T)
        try:
            C, corr = _derived_fmap(T)
        except ValueError as exc:
            bad.append({"complex": T.to_json(), "derived": str(exc), "tree": C0.to_json()})
            continue
        if C.points != C0.points:
            bad.append({"complex": T.to_json(), "derived": C.to_json(), "tree": C0.to_json()})
        bad += [{"complex": T.to_json(), "summand": s.to_json(), "derived": list(p), "tree": list(q)}
                for (s, p), (_, q) in zip(corr, corr0) if p != q]
    return _report("stable-equivalence", not bad, {"complexes": len(objs)}, bad)


def _verify_embedding(A: Algebra) -> dict:
    if A.ell == A.e:
        return _report("embedding", True, {"note": "not applicable when ell = gcd(n, ell)"}, [])
    Q2 = exchange_quiver("2tilt", A)
    Qs = exchange_quiver("sms", A)
    cfg_index = {C.points: i for i, C in enumerate(Qs.objects)}
    tracked = [fmap_tracked(T) for T in Q2.objects]
    obj_map = [cfg_index[C.points] for C, _ in tracked]
    bad = []
    if len(set(obj_map)) != len(obj_map):
        bad.append({"failure": "object map not injective"})
    sms_arrows = {(s, t, lab) for s, t, lab in Qs.arrows}
    mapped = set()
    for src, tgt, orbit in Q2.arrows:
        S = tuple(sorted(tracked[src][1][s] for s in orbit))
        arrow = (obj_map[src], obj_map[tgt], S)
        if arrow not in sms_arrows:
            bad.append({"failure": "arrow image missing", "arrow": repr(arrow)})
        if arrow in mapped:
            bad.append({"failure": "arrow map not injective", "arrow": repr(arrow)})
        mapped.add(arrow)
    details = {"2tilt_objects": len(Q2.objects), "2tilt_arrows": len(Q2.arrows),
               "sms_objects": len(Qs.objects), "sms_arrows": len(Qs.arrows)}
    return _report("embedding", not bad, details, bad)


def _symmetric(A: Algebra) -> bool:
    return A.n == A.e < A.ell  # A = A_e^{em} with m > 1, as e | ell


def _verify_types(A: Algebra) -> dict:
    if not _symmetric(A):
        return _report("types", True, {"note": "types need the symmetric case with m > 1"}, [])
    e, m = A.e, A.ell // A.e
    bad = []
    per_part = {"minus": [], "plus": []}
    for T in two_term_objects(A):
        sign = complexes.part_of(T)
        kind = smscfg.prune_type(fmap(T), e, m)
        per_part[sign].append(kind)
        want = smscfg.BOTTOM if sign == "minus" else smscfg.TOP
        if kind != want:
            bad.append({"sign": sign, "complex": T.to_json(), "type": kind})
    details = {"minus_types": sorted(set(per_part["minus"])),
               "plus_types": sorted(set(per_part["plus"]))}
    return _report("types", not bad, details, bad)


def _verify_tilde(A: Algebra) -> dict:
    if not _symmetric(A):
        return _report("tilde", True, {"note": "collapse needs the symmetric case with m > 1"}, [])
    B = Algebra(A.e, A.e)
    bad = []
    src = smscfg.enumerate_configurations(A)
    tgt = {C.points for C in smscfg.enumerate_configurations(B)}
    images = {}
    for C in src:
        images.setdefault(smscfg.tilde(C).points, []).append(C)
    if set(images) != tgt:
        bad.append({"failure": "collapse is not onto"})
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


def _verify_functors(A: Algebra) -> dict:
    bad = []
    nonproj = modcat.nonprojective_inds(A)
    for M in nonproj:
        if modcat.omega_inv(modcat.omega(M, A), A) != M:
            bad.append({"identity": "omega_inv . omega", "module": M.to_json()})
        if modcat.omega(modcat.omega_inv(M, A), A) != M:
            bad.append({"identity": "omega . omega_inv", "module": M.to_json()})
        if modcat.tau(M, A) != modcat.nu(modcat.omega(modcat.omega(M, A), A), A):
            bad.append({"identity": "tau = nu . omega^2", "module": M.to_json()})
    # smscfg's tables hold the stable Homs between the points of nonproj, in
    # order.  A functor image outside them that passes check_ind is projective
    # and has no stable Hom: it gets the zero row and column appended here.
    idx, hom = smscfg._stable_table(A, 2)[:2]
    hom3 = smscfg._stable_table(A, 3)[1]
    hom = [row + [0] for row in hom] + [[0] * (len(hom) + 1)]

    def index(M: Ind) -> int:
        modcat.check_ind(M, A)
        return idx.get(smscfg.point_of(M), len(nonproj))

    taus = [index(modcat.tau(M, A)) for M in nonproj]
    omegas = [index(modcat.omega(M, A)) for M in nonproj]
    for a, M in enumerate(nonproj):
        row, tau_row, omega_row = hom[a], hom[taus[a]], hom[omegas[a]]
        for b, N in enumerate(nonproj):
            base = row[b]
            if base != tau_row[taus[b]]:
                bad.append({"identity": "stable hom tau-invariance",
                            "pair": [M.to_json(), N.to_json()]})
            if base != omega_row[omegas[b]]:
                bad.append({"identity": "stable hom omega-invariance",
                            "pair": [M.to_json(), N.to_json()]})
            if base != hom3[a][b]:
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
    "stable-equivalence": _verify_stable_equivalence,
}


def verify(suite: str, A: Algebra) -> dict:
    """Run one verification suite; failures are results, not errors."""
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(_SUITES)}")
    return _SUITES[suite](A)
