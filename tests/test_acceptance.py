"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.  Every expected value is exact; tolerances are equality.
"""

import math
import random

import pytest

from smstilt import brauer, complexes as cx, disc, smscfg, transport
from smstilt.complexes import Arrow, Stalk, TwoTerm
from smstilt.modcat import Algebra

from _transport_reference import bfs_sequence, transport_along

A36 = Algebra(3, 6)
A33 = Algebra(3, 3)


def check(num: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f" — {detail}" if detail else ""
    print(f"ACCEPTANCE {num:2d} ({name}): {'PASS' if ok else 'FAIL'}{tail}")
    if not ok:
        pytest.fail(f"criterion {num} ({name}) failed: {detail}")


def test_criterion_01_triangulation_counts():
    got = [len(disc.enumerate_triangulations(e)) for e in range(1, 6)]
    want = [math.comb(2 * e, e) // 2 for e in range(1, 6)]
    check(1, "triangulation counts", got == want == [1, 3, 10, 35, 126], f"{got}")


def test_criterion_02_configuration_counts():
    cases = [(2, 4, 6), (3, 6, 20), (2, 2, 2), (3, 3, 5), (4, 4, 14)]
    got = {(n, ell): len(smscfg.enumerate_configurations(Algebra(n, ell)))
           for n, ell, _ in cases}
    ok = all(got[(n, ell)] == want for n, ell, want in cases)
    check(2, "configuration counts", ok, f"{sorted(got.items())}")


def test_criterion_03_bijective_case():
    objs = transport.two_term_objects(A36)
    images = {}
    types_ok = True
    for T in objs:
        C = transport.fmap(T)
        images.setdefault(C.points, []).append(T)
        kind = smscfg.prune_type(C, 3, 2)
        want = smscfg.BOTTOM if cx.part_of(T) == "minus" else smscfg.TOP
        types_ok = types_ok and kind == want
    injective = all(len(v) == 1 for v in images.values())
    onto = set(images) == {C.points for C in smscfg.enumerate_configurations(A36)}
    check(3, "main theorem, bijective case",
          len(objs) == 20 and injective and onto and types_ok,
          f"20 -> {len(images)} of 20, type partition {'ok' if types_ok else 'broken'}")


def test_criterion_04_surjective_case():
    objs = transport.two_term_objects(A33)
    images = {transport.fmap(T).points for T in objs}
    all_cfgs = {C.points for C in smscfg.enumerate_configurations(A33)}
    check(4, "main theorem, surjective case",
          len(objs) == 20 and images == all_cfgs and len(all_cfgs) == 5,
          f"{len(objs)} -> image {len(images)} = codomain {len(all_cfgs)}")


def test_criterion_05_mutation_compatibility():
    edges = failures = 0
    for T in transport.two_term_objects(A36):
        C, corr = transport.fmap_tracked(T)
        for orbit in cx.nu_orbits(T):
            R = cx.two_term_mutate(T, orbit, "minus")
            if R is None:
                continue
            edges += 1
            S = {corr[s] for s in orbit}
            if smscfg.sms_mutate(C, S, "minus").points != transport.fmap(R).points:
                failures += 1
    check(5, "mutation compatibility", edges > 0 and failures == 0,
          f"{edges} two-term edges, {failures} mismatches")


def test_criterion_06_exchange_quiver_embedding():
    rep = transport.verify("embedding", A36)
    check(6, "exchange-quiver embedding", rep["status"] == "pass",
          str(rep["details"]))


def test_criterion_07_paper_example_replay():
    A = Algebra(6, 12)
    T = TwoTerm(A, tuple(Stalk(i, 0) for i in range(1, 7)))
    for idx in (3, 1, 6, 5):
        T = cx.two_term_mutate(T, {Stalk(idx, 0)}, "minus")
        assert T is not None
    want = TwoTerm(A, (Stalk(2, 0), Stalk(4, 0), Arrow(3, 2),
                       Arrow(1, 4), Arrow(1, 5), Arrow(1, 6)))
    check(7, "paper example replay", T.to_json() == want.to_json(),
          " ".join(transport._summand_str(s) for s in T.summands))


def test_criterion_08_psi_flip_kauer_compatibility():
    checked = skipped = failures = 0
    for e in range(1, 5):
        A = Algebra(e, 2 * e)
        for X in disc.enumerate_triangulations(e):
            GX = brauer.psi(X, "minus", 2)
            TX = cx.phi(X, "minus", A)
            for a in X.arcs:
                try:
                    Y, _ = disc.flip(X, a)
                except disc.NoExchangeError:
                    # punctured monogon: the exchange crosses the two stalk
                    # classes and is not an arc flip
                    skipped += 1
                    continue
                sign = ("minus" if cx.hom_complex_dim(TX, cx.phi(Y, "minus", A), 1) == 0
                        else "plus")
                K = brauer.kauer_mutate(GX, str(a), sign)
                checked += 1
                if not brauer.brauer_iso(brauer.psi(Y, "minus", 2), K):
                    failures += 1
    check(8, "psi/flip/Kauer compatibility", checked > 0 and failures == 0,
          f"{checked} flips, {failures} mismatches, {skipped} monogon cases vacuous")


def test_criterion_09_tilting_certification():
    total = failures = 0
    for e in range(1, 5):
        A = Algebra(e, 2 * e)
        for X in disc.enumerate_triangulations(e):
            for sign in ("minus", "plus"):
                T = cx.phi(X, sign, A)
                total += 1
                if not (cx.hom_complex_dim(T, T, 1) == 0
                        and cx.hom_complex_dim(T, T, -1) == 0
                        and cx.is_tilting(T)):
                    failures += 1
    check(9, "tilting certification", failures == 0,
          f"{total} complexes over A_e^2e, e <= 4")


def test_criterion_10_functor_identities():
    ok = True
    details = []
    for A in (A36, Algebra(4, 6)):
        rep = transport.verify("functors", A)
        details.append(f"A_{A.n}^{A.ell}: {rep['details']['pairs']} pairs")
        ok = ok and rep["status"] == "pass"
    check(10, "functor identities", ok, "; ".join(details))


def test_criterion_11_type_machinery():
    # Omega swaps the 10/10 partition
    kinds = {}
    for C in smscfg.enumerate_configurations(A36):
        kinds[C.points] = smscfg.prune_type(C, 3, 2)
    bottoms = [p for p, k in kinds.items() if k == smscfg.BOTTOM]
    swap_ok = all(
        kinds[smscfg.config_shift(smscfg.Configuration(A36, p), "omega").points] != kinds[p]
        for p in kinds)
    # rim-choice independence under randomised replays
    rng = random.Random(1306)
    replay_ok = all(
        smscfg.prune_type(smscfg.Configuration(A36, p), 3, 2, rng=rng) == kinds[p]
        for p in kinds for _ in range(100))
    # multiplicity collapse: onto, fibers partition, commutes with mutation
    rep = transport.verify("tilde", A36)
    check(11, "type machinery",
          len(bottoms) == 10 and swap_ok and replay_ok and rep["status"] == "pass",
          f"{len(bottoms)}/10 bottom, omega swap {swap_ok}, replays {replay_ok}, "
          f"collapse fibers {rep['details']['fiber_sizes']}")


def test_criterion_12_confluence():
    failures = 0
    objs = transport.two_term_objects(A36)
    for T in objs:
        alt = transport_along(T, bfs_sequence(T))
        if alt.points != transport.fmap(T).points:
            failures += 1
    check(12, "transport confluence", failures == 0,
          f"{len(objs)} complexes, canonical vs breadth-first paths")
