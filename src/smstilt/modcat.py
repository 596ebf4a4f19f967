"""Exact model of mod-A and its stable category for a self-injective
Nakayama algebra A with n simples and Loewy length ell+1.

Every indecomposable module is uniserial and determined by its socle and
Loewy length, written Ind(socle, length).  Composition factors of
Ind(i, l), read from the top, are S_{i-l+1}, ..., S_i (indices mod n).
Morphisms are realised as concrete matrices on composition-factor bases
over GF(p), one `gf` vector per column, and all homological operators
(syzygies, cones, minimal approximations, extension closures) reduce to exact
rank computations.  The Hom bases, the radical action and every composite of
them are 0/1 partial permutations, packed ints that serve every field; only a
linear combination over GF(p), p != 2, holds other coefficients.

The rotation sigma: i -> i + 1 of the cyclic quiver is an automorphism of A;
it sends Ind(i, l) to Ind(i + 1, l), so tau = sigma, and it commutes with
Omega, Omega^{-1}, nu and the mutations built on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from . import gf


@dataclass(frozen=True)
class Algebra:
    """The self-injective Nakayama algebra with n simples, Loewy length ell+1."""

    n: int
    ell: int

    def __post_init__(self):
        if self.n < 1 or self.ell < 1:
            raise ValueError(f"invalid algebra parameters n={self.n}, ell={self.ell}")

    @property
    def e(self) -> int:
        return math.gcd(self.n, self.ell)

    @property
    def loewy(self) -> int:
        return self.ell + 1


def _json_ints(obj, keys, where: str = "") -> list[int]:
    """obj[k] for each k in keys, each checked to be an int; the ValueError
    names the bad field, e.g. ``summands[0].deg: expected int``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where or 'input'}: expected an object")
    for k in keys:
        if type(obj.get(k)) is not int:
            raise ValueError(f"{where}{'.' if where else ''}{k}: expected int")
    return [obj[k] for k in keys]


def _json_list(obj: dict, key: str) -> list:
    if not isinstance(obj.get(key), list):
        raise ValueError(f"{key}: expected a list")
    return obj[key]


def _json_int_seq(value, where: str, pair: bool = False) -> tuple[int, ...]:
    """value checked to be a list of ints, of length 2 if pair."""
    if not (isinstance(value, list) and all(type(v) is int for v in value)
            and (not pair or len(value) == 2)):
        raise ValueError(f"{where}: expected a {'pair' if pair else 'list'} of ints")
    return tuple(value)


def _json_pairs(items, where: str) -> list[tuple[int, int]]:
    """items checked to be a list of [int, int] pairs."""
    if not isinstance(items, list):
        raise ValueError(f"{where}: expected a list")
    return [_json_int_seq(q, f"{where}[{k}]", pair=True) for k, q in enumerate(items)]


@dataclass(frozen=True, order=True)
class Ind:
    """Uniserial module with given socle index (1..n) and Loewy length."""

    socle: int
    length: int

    def to_json(self):
        return {"socle": self.socle, "length": self.length}


ModSum = tuple  # formal direct sum, a sorted tuple of Ind


def _bar(i: int, n: int) -> int:
    """Representative of i in 1..n."""
    return (i - 1) % n + 1


def check_ind(M: Ind, A: Algebra) -> None:
    if not (1 <= M.socle <= A.n and 1 <= M.length <= A.loewy):
        raise ValueError(f"{M} is not a module over A_{A.n}^{A.ell}")


def is_projective(M: Ind, A: Algebra) -> bool:
    return M.length == A.loewy


def top(M: Ind, A: Algebra) -> int:
    return _bar(M.socle - M.length + 1, A.n)


def proj_of_top(i: int, A: Algebra) -> Ind:
    """The projective cover P_i of the simple S_i, as an Ind."""
    return Ind(_bar(i + A.ell, A.n), A.loewy)


def all_inds(A: Algebra) -> list[Ind]:
    return [Ind(i, l) for l in range(1, A.loewy + 1) for i in range(1, A.n + 1)]


def nonprojective_inds(A: Algebra) -> list[Ind]:
    return [M for M in all_inds(A) if not is_projective(M, A)]


# ---------------------------------------------------------------------------
# Syzygy, AR and Nakayama operators on coordinates.
#
# Omega^{-1}(i, l) = (i - l, ell + 1 - l); Omega is derived as its inverse
# (i + ell + 1 - l, ell + 1 - l), and nu(i, l) = (i - ell, l) so that
# tau = nu . Omega^2 holds on the nose.  All three reduce to the familiar
# formulas when n | ell.
# ---------------------------------------------------------------------------

def omega(M: Ind, A: Algebra) -> Ind:
    check_ind(M, A)
    if is_projective(M, A):
        raise ValueError(f"omega undefined on projective {M}")
    return Ind(_bar(M.socle + A.ell + 1 - M.length, A.n), A.loewy - M.length)


def omega_inv(M: Ind, A: Algebra) -> Ind:
    check_ind(M, A)
    if is_projective(M, A):
        raise ValueError(f"omega_inv undefined on projective {M}")
    return Ind(_bar(M.socle - M.length, A.n), A.loewy - M.length)


def tau(M: Ind, A: Algebra) -> Ind:
    check_ind(M, A)
    if is_projective(M, A):
        raise ValueError(f"tau undefined on projective {M}")
    return Ind(_bar(M.socle + 1, A.n), M.length)


def nu(M: Ind, A: Algebra) -> Ind:
    check_ind(M, A)
    return Ind(_bar(M.socle - A.ell, A.n), M.length)


def _orbits(items, step, error: str) -> list[frozenset]:
    """Cycles of the permutation `step` on `items`, in order of first
    member; raises ValueError(error) when `step` leaves `items`."""
    seen: set = set()
    orbits = []
    for x in items:
        if x in seen:
            continue
        orbit = set()
        while x not in orbit:
            if x not in items:
                raise ValueError(error)
            orbit.add(x)
            x = step(x)
        seen |= orbit
        orbits.append(frozenset(orbit))
    return orbits


def nu_cycle_count(A: Algebra) -> int:
    """Number of cycles of i -> i - ell on Z/n (equals gcd(n, ell))."""
    return len(_orbits(range(1, A.n + 1), lambda i: _bar(i - A.ell, A.n),
                       "nu does not permute Z/n"))


# ---------------------------------------------------------------------------
# Hom spaces.  A nonzero map Ind(i,l) -> Ind(j,r) has image the length-t
# submodule of the target; the valid overlap lengths are
#   t in [1, min(l, r)],  t = j - i + l  (mod n),
# and the corresponding basis map f_t sends depth s (from the top) of the
# source to depth r - t + s of the target.
# ---------------------------------------------------------------------------

def overlap_lengths(M: Ind, N: Ind, A: Algebra) -> list[int]:
    res = (N.socle - M.socle + M.length) % A.n
    lo = res if res != 0 else A.n
    return list(range(lo, min(M.length, N.length) + 1, A.n))


def hom_dim(M: Ind, N: Ind, A: Algebra) -> int:
    check_ind(M, A)
    check_ind(N, A)
    return len(overlap_lengths(M, N, A))


def _hom_matrix(M: Ind, N: Ind, t: int) -> tuple[int, ...]:
    """The basis map f_t as packed columns: column s < t is depth N.length - t + s."""
    return tuple(1 << N.length - t + s if s < t else 0 for s in range(M.length))


def as_sum(M) -> ModSum:
    return (M,) if isinstance(M, Ind) else tuple(M)


def sum_dim(M: ModSum) -> int:
    return sum(m.length for m in M)


def sum_offsets(M: ModSum) -> list[int]:
    offs = [0]
    for m in M:
        offs.append(offs[-1] + m.length)
    return offs


def vertex_vector(M: ModSum, A: Algebra) -> list[int]:
    vv = []
    for m in M:
        t = top(m, A)
        vv.extend(_bar(t + s, A.n) for s in range(m.length))
    return vv


def shift_matrix(M: ModSum) -> tuple[int, ...]:
    """The nilpotent radical action on the flattened basis of M, by columns."""
    last = set(sum_offsets(M)[1:])
    return tuple(0 if c + 1 in last else 1 << c + 1 for c in range(sum_dim(M)))


def _vertex_masks(vv: list[int]) -> dict[int, int]:
    """Vertex -> the packed coordinates with that vertex label."""
    return {j: sum(1 << r for r, i in enumerate(vv) if i == j) for j in set(vv)}


def _diagonal(Ms: ModSum, Ns: ModSum) -> tuple[int, ...]:
    """The map M -> N, summand k to summand k by the basis map of the
    longest overlap (a cover onto, or an inclusion into, Ns[k])."""
    noffs = sum_offsets(Ns)
    return tuple(col << noffs[k] for k, (a, b) in enumerate(zip(Ms, Ns))
                 for col in _hom_matrix(a, b, min(a.length, b.length)))


def hom_basis(M, N, A: Algebra) -> list[tuple[int, ...]]:
    """Basis of Hom(M, N) as packed columns on the flattened bases."""
    Ms, Ns = as_sum(M), as_sum(N)
    moffs, noffs = sum_offsets(Ms), sum_offsets(Ns)
    basis = []
    for bi, b in enumerate(Ns):
        for ai, a in enumerate(Ms):
            for t in overlap_lengths(a, b, A):
                f = [0] * moffs[-1]
                f[moffs[ai]:moffs[ai] + t] = [1 << noffs[bi] + b.length - t + s for s in range(t)]
                basis.append(tuple(f))
    return basis


def _compose(g, f) -> tuple[int, ...]:
    """g . f for a 0/1 partial permutation f (at most one 1 per column)."""
    return tuple(g[x.bit_length() - 1] if x else 0 for x in f)


def _flat(f, rows: int) -> int:
    """The packed 0/1 map f as one packed int, column c at bits c * rows."""
    return sum(col << c * rows for c, col in enumerate(f))


@dataclass(frozen=True)
class ModMap:
    """A module map between formal direct sums: a tuple of column vectors
    over GF(p), each a `gf` vector on the flattened basis of the target."""

    source: ModSum
    target: ModSum
    matrix: tuple
    p: int = 2

    def __post_init__(self):
        object.__setattr__(self, "matrix", tuple(self.matrix))
        if (len(self.matrix) != sum_dim(self.source)
                or any(gf.support(f) >> sum_dim(self.target) for f in self.matrix)):
            raise ValueError("matrix shape does not match source/target")

    def check(self, A: Algebra) -> None:
        """Verify grading and intertwining with the radical action."""
        vs = vertex_vector(self.source, A)
        masks = _vertex_masks(vertex_vector(self.target, A))
        if any(gf.support(f) & ~masks.get(vs[c], 0) for c, f in enumerate(self.matrix)):
            raise ValueError("map does not respect the vertex grading")
        Ds, Dt = shift_matrix(self.source), shift_matrix(self.target)
        if any(gf.combine(Dt, f, self.p) != gf.combine(self.matrix, Ds[c], self.p)
               for c, f in enumerate(self.matrix)):
            raise ValueError("map does not intertwine the radical action")


def _proj_cover_sum(N: ModSum, A: Algebra) -> tuple[ModSum, tuple[int, ...]]:
    Ps = tuple(proj_of_top(top(b, A), A) for b in N)
    return Ps, _diagonal(Ps, N)


def factor_rows(M, N, A: Algebra) -> tuple[int, ...]:
    """Packed rows (`_flat`) spanning the maps M -> N that factor through a
    projective: the composites pi . u over the basis maps u of Hom(M, P(N)),
    with pi: P(N) -> N the projective cover, as every such map factors
    through it.  They are 0/1 partial permutations, so they serve every field.
    """
    Ms, Ns = as_sum(M), as_sum(N)
    Ps, pi = _proj_cover_sum(Ns, A)
    return tuple(_flat(_compose(pi, u), sum_dim(Ns)) for u in hom_basis(Ms, Ps, A))


# Stable Hom is computed per rotation class of the pair.  For M = Ind(i, l),
# N = Ind(j, r) and d = (j - i) mod n, `overlap_lengths` reads only d, the
# cover P(N) has socle difference (d - r + 1 + ell) mod n from M, and
# `_hom_matrix` reads lengths only, so `hom_dim` and the composites that span
# the maps through P(N) are the same for all pairs of a class (l, r, d).  They
# are 0/1 and field-free, so one cached core serves every field, and only the
# rank over GF(p) is left to `_stable_hom_class`.  As tau = sigma, the functors
# suite's tau check compares each class with itself; it catches a tau that is
# not a rotation.
@lru_cache(maxsize=None)
def _stable_hom_core(l: int, r: int, d: int, A: Algebra) -> tuple[int, tuple[int, ...]]:
    """(dim Hom(M, N), `factor_rows(M, N)`) for M = Ind(1, l) and
    N = Ind(1 + d, r); no composites are built where Hom(M, N) = 0."""
    M, N = Ind(1, l), Ind(_bar(1 + d, A.n), r)
    full = hom_dim(M, N, A)
    return full, factor_rows(M, N, A) if full else ()


def _stable_hom_class(l: int, r: int, d: int, A: Algebra, p: int) -> int:
    """dim of stable Hom(Ind(1, l), Ind(1 + d, r)) over GF(p)."""
    full, rows = _stable_hom_core(l, r, d, A)
    return full - gf.rank(rows, p) if rows else full


def stable_hom_dim(M, N, A: Algebra, p: int = 2) -> int:
    """dim of Hom(M, N) modulo maps factoring through projectives."""
    Ms, Ns = as_sum(M), as_sum(N)
    for m in Ms + Ns:
        check_ind(m, A)
    return sum(_stable_hom_class(a.length, b.length, (b.socle - a.socle) % A.n, A, p)
               for a in Ms for b in Ns)


def stable_reps(M, N, A: Algebra, p: int = 2) -> list[tuple[int, ...]]:
    """Hom-basis elements spanning Hom(M, N) modulo the factoring subspace."""
    Ms, Ns = as_sum(M), as_sum(N)
    basis = hom_basis(Ms, Ns, A)
    if not basis:
        return []
    rows = [_flat(f, sum_dim(Ns)) for f in basis]
    return [basis[k] for k in gf.independent_mod(factor_rows(Ms, Ns, A), rows, p)]


# ---------------------------------------------------------------------------
# Quotient modules and Krull-Schmidt decomposition.
# ---------------------------------------------------------------------------

def decompose(vertexvec: list[int], D, A: Algebra, p: int = 2) -> dict[Ind, int]:
    """Multiplicities of the uniserial summands of (V, D).

    V is given by a vertex label in 1..n per basis vector and D, the column
    vectors (`gf` vectors over GF(p)) of a map that sends vertex i to vertex
    i+1.  With H(j, k) the vertex-j dimension of rad^k V = im D^k, which adds
    over direct sums, H(j, k) - H(j+1, k+1) counts the summands with socle j
    and length > k, and the multiplicity of Ind(j, l) is the difference of
    two such counts.  Raises ValueError when D is not graded, or not
    nilpotent of index at most A.loewy.
    """
    n, L = A.n, A.loewy
    masks = _vertex_masks(vertexvec)
    if any(gf.support(col) & ~masks.get(vertexvec[c] % n + 1, 0) for c, col in enumerate(D)):
        raise ValueError("decompose: D does not send vertex i to vertex i+1")
    H = {j: [0] * (L + 2) for j in range(1, n + 1)}
    for j in vertexvec:
        H[j][0] += 1
    rows = D
    for k in range(1, L + 1):
        # rows spans rad^k V; its reduced basis has one vector per pivot, each
        # inside the pivot's vertex
        basis = gf.basis(rows, p)
        if not basis:
            break
        for c in basis:
            H[vertexvec[c]][k] += 1
        rows = [gf.combine(D, v, p) for v in basis.values()]
    mult = {}
    for j in range(1, n + 1):
        # longer[k]: the summands with socle j and length > k
        longer = [H[j][k] - H[j % n + 1][k + 1] for k in range(L + 1)]
        for l in range(1, L + 1):
            m = longer[l - 1] - longer[l]
            if m:
                mult[Ind(j, l)] = m
    if (min(mult.values(), default=0) < 0
            or sum(m * ind.length for ind, m in mult.items()) != len(vertexvec)):
        raise ValueError(f"decompose: (V, D) is not a module of Loewy length at most {L}")
    return mult


def _quotient(target: ModSum, F, A: Algebra, p: int = 2):
    """The module (target)/span(F), F vectors in target's coordinates: its
    vertex vector and the column vectors of its induced nilpotent."""
    vt = vertex_vector(target, A)
    span = gf.basis(F, p)
    keep = [c for c in range(len(vt)) if c not in span]
    # the quotient's coordinate i is the target's keep[i]; a vector reduced
    # modulo span is zero at every pivot, so `new` reindexes it
    new = [0] * len(vt)
    for i, c in enumerate(keep):
        new[c] = 1 << i
    D = shift_matrix(target)
    return [vt[c] for c in keep], [gf.combine(new, gf.reduce(span, D[c], p), p) for c in keep]


def _expand(mult: dict[Ind, int]) -> ModSum:
    """The sorted direct sum with the given multiplicities."""
    return tuple(ind for ind in sorted(mult) for _ in range(mult[ind]))


def _strip_projectives(E: ModSum, A: Algebra) -> ModSum:
    return tuple(m for m in E if not is_projective(m, A))


def pushout_decompose(g: ModMap, A: Algebra, p: int = 2) -> dict[Ind, int]:
    """Decomposition of the pushout (N ⊕ I(M))/M along (g, inclusion)."""
    Is = tuple(Ind(m.socle, A.loewy) for m in g.source)
    dn = sum_dim(g.target)
    # g and the inclusion have disjoint coordinates, where | is their sum
    F = [gf.lift(f, p) | gf.lift(i << dn, p) for f, i in zip(g.matrix, _diagonal(g.source, Is))]
    return decompose(*_quotient(g.target + Is, F, A, p), A, p)


def cone_of_stable_map(g: ModMap, A: Algebra, p: int = 2) -> ModSum:
    """Cone of a stable map M -> N, with projective summands discarded.

    Realised as the pushout of the injective envelope of M and g; the
    triangle M -> N -> C -> Omega^{-1} M holds in the stable category.
    A map with zero target or zero source needs no pushout: the triangles
    M -> 0 -> Omega^{-1} M and 0 -> N -> N give the cone directly.
    """
    if g.p != p:
        raise ValueError(f"map is over GF({g.p}), cone asked over GF({p})")
    for m in g.source + g.target:
        if is_projective(m, A):
            raise ValueError("cone arguments must have no projective summands")
    g.check(A)
    if not g.target:
        return tuple(sorted(omega_inv(m, A) for m in g.source))
    if not g.source:
        return tuple(sorted(g.target))
    return _strip_projectives(_expand(pushout_decompose(g, A, p)), A)


class SplitCone(Exception):
    """A mutation cone that does not give exactly one new indecomposable,
    raised by a cache that works in a rotated frame (lru_cache keeps no
    exceptions) with the summands that would be new: every summand of a
    module cone, or the summands of a complex cone that are not targets of
    its approximation."""


# ---------------------------------------------------------------------------
# Minimal approximations.
# ---------------------------------------------------------------------------

def _radical(M: Ind, N: Ind, A: Algebra) -> list[tuple[int, ...]]:
    """Hom-basis elements spanning the non-isomorphisms M -> N.

    For M = N the identity is the last basis map (overlap t = length).
    """
    basis = hom_basis(M, N, A)
    return basis[:-1] if M == N else basis


def _min_approx(Z: Ind, C, A: Algebra, p: int, left: bool) -> ModMap:
    """Minimal left (or right) add(C)-approximation of Z, computed directly.

    The multiplicity of c in C is the dimension of stable Hom(Z, c) modulo
    the radical composites rad(c', c) . Hom(Z, c') over c' in C (dually
    Hom(c', Z) . rad(c, c')), and a basis of that quotient gives the
    components of the map.  Both are read from `hom_basis` modulo
    `factor_rows`; composites of maps through projectives stay in it.  Every
    map here is a 0/1 partial permutation, so the composites serve every
    field and only the elimination is over GF(p).
    """
    check_ind(Z, A)
    cs = sorted(set(C))
    pair = {c: ((Z,), (c,)) if left else ((c,), (Z,)) for c in cs}
    homs = {c: hom_basis(*pair[c], A) for c in cs if stable_hom_dim(*pair[c], A, p)}
    pieces: list[tuple[Ind, tuple[int, ...]]] = []
    for c, basis in homs.items():
        rows = c.length if left else Z.length
        ideal = list(factor_rows(*pair[c], A))
        for c2 in homs:
            for u in (_radical(c2, c, A) if left else _radical(c, c2, A)):
                ideal.extend(_flat(_compose(u, f) if left else _compose(f, u), rows)
                             for f in homs[c2])
        cands = [_flat(f, rows) for f in basis]
        pieces.extend((c, basis[k]) for k in gf.independent_mod(ideal, cands, p))
    Xs = tuple(c for c, _ in pieces)
    if not left:
        return ModMap(Xs, (Z,), tuple(col for _, f in pieces for col in f), p)
    offs = sum_offsets(Xs)
    return ModMap((Z,), Xs, tuple(sum(f[s] << offs[k] for k, (_, f) in enumerate(pieces))
                                  for s in range(Z.length)), p)


def min_left_approx(Z: Ind, C, A: Algebra, p: int = 2) -> ModMap:
    """Minimal left approximation Z -> X with X a direct sum from the set C:
    every stable map Z -> c, c in C, factors through it."""
    return _min_approx(Z, C, A, p, left=True)


def min_right_approx(C, Z: Ind, A: Algebra, p: int = 2) -> ModMap:
    """Minimal right approximation X -> Z with X a direct sum from the set C."""
    return _min_approx(Z, C, A, p, left=False)


# ---------------------------------------------------------------------------
# Extensions.
# ---------------------------------------------------------------------------

def _core_middle_terms(B: ModSum, C: ModSum, A: Algebra, p: int = 2) -> set[ModSum]:
    """Middle terms of short exact sequences 0 -> B -> E -> C -> 0 with B, C
    projective-free, via pushouts of 0 -> Omega C -> P(C) -> C -> 0 along
    representatives theta of Ext^1(C, B) = stable Hom(Omega C, B).  P(C) is
    the injective envelope of Omega C, so that is `pushout_decompose` of
    theta.  The zero class gives the split term B + C with no pushout, so
    B or C zero, or Ext^1(C, B) = 0, gives that term alone."""
    out: set[ModSum] = {tuple(sorted(B + C))}
    OC = tuple(omega(c, A) for c in C)
    if not stable_hom_dim(OC, B, A, p):
        return out
    reps = stable_reps(OC, B, A, p)
    # the nonzero coefficient vectors over the reps, as `gf` vectors
    coeffs = (range(1, 2 ** len(reps)) if p == 2 else
              (dict(enumerate(cs)) for cs in product(range(p), repeat=len(reps)) if any(cs)))
    for v in coeffs:
        theta = tuple(gf.combine(cols, v, p) for cols in zip(*reps))
        out.add(_expand(pushout_decompose(ModMap(OC, B, theta, p), A, p)))
    return out


@lru_cache(maxsize=None)
def closure_inds(K: ModSum, A: Algebra) -> tuple[Ind, ...]:
    """Indecomposables in the closure of K ∪ {0} under extensions of
    projective-free objects, truncated at total dimension ell: an extension
    is formed only when its end terms have total dimension at most ell.
    This is not Filt(K) in general: on A_2^4, 0 -> Ind(2,3) -> Ind(2,1) +
    Ind(2,5) -> Ind(2,3) -> 0 puts Ind(2,1) in Filt({Ind(2,3)}), but its end
    terms have dimension 6 > 4, so the closure of (Ind(2,3),) is itself."""
    gens = sorted(set(K))
    for s in gens:
        check_ind(s, A)
        if is_projective(s, A):
            raise ValueError("extension closure generators must be non-projective")
    objects: set[ModSum] = {()}
    work: list[ModSum] = [()]
    while work:
        B = work.pop()
        for s in gens:
            if sum_dim(B) + s.length > A.ell:
                continue
            for E in _core_middle_terms(B, (s,), A):
                Es = _strip_projectives(E, A)
                if Es not in objects:
                    objects.add(Es)
                    work.append(Es)
    return tuple(sorted(o[0] for o in objects if len(o) == 1))
