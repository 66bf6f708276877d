"""Acceptance criteria, one test per criterion.

Each test prints a single "criterion N: PASS/FAIL" line (visible with -rA or
-s) and asserts both the exact values and the stated runtime envelope.

Criterion 7 is expected to fail on one sub-result: the recorded closed
form for the pair {1342, 2413} on kind-1 permutations (the little Schroeder
numbers, like the other two pair classes) contradicts exhaustive enumeration,
which gives 44 at n=4 and 185 at n=5.  The test states the discrepancy
precisely instead of hiding it.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from collections import Counter
from itertools import combinations, permutations

import pytest

from conftest import cf_reference_depth, naive_count_vincular, z_space_continued_fraction
from dumont import golden
from dumont.bijections import (composition_to_d4_1342, d4_1342_to_composition,
                               d4_321_to_dyck, dyck_paths, dyck_to_d4_321, foata,
                               foata_inverse, reflect_1243_to_1324,
                               reflect_1324_to_1243, split_single_321)
from dumont.gfseries import (SequenceId, closed_form, d4_1423_series, genocchi,
                             gf_identities_check, solve_prst_system)
from dumont.harness import (conjecture1_counts, conjecture2_distribution,
                            run_suite)
from dumont.kinds import DumontKind, count, generate, is_dumont
from dumont.patterns import (AvoidanceQuery, ClassicalPattern, VincularPattern,
                             avoids, count_avoiders, count_exact_occurrences,
                             count_occurrences, count_vincular)
from dumont.permcore import Permutation

SLOW = os.environ.get("DUMONT_SLOW") == "1"


def report(num: int, ok: bool, detail: str, elapsed: float) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail} "
          f"({elapsed:.1f}s)")


def cp(text: str) -> ClassicalPattern:
    return ClassicalPattern.parse(text)


def test_criterion_1_genocchi_counts():
    t0 = time.perf_counter()
    expected = [1, 1, 3, 17, 155, 2073]
    ok = True
    for kind in DumontKind:
        got = [count(kind, 2 * n) for n in range(6)]
        ok &= got == expected
        ok &= got == [genocchi(n + 1) for n in range(6)]
    elapsed = time.perf_counter() - t0
    report(1, ok and elapsed < 30, f"all four kinds count {expected}", elapsed)
    assert ok
    assert elapsed < 30


def test_criterion_2_wilf_pair_table():
    t0 = time.perf_counter()
    rows = conjecture1_counts(7)
    expected = [1, 1, 2, 7, 36, 239, 1892, 17015]
    got_a = [r.count_2143 for r in rows]
    got_b = [r.count_3421 for r in rows]
    ok = got_a == expected and got_b == expected
    elapsed = time.perf_counter() - t0
    report(2, ok and elapsed < 300, f"both avoider counts equal {expected}", elapsed)
    assert got_a == expected
    assert got_b == expected
    assert elapsed < 300


@pytest.mark.skipif(not SLOW, reason="opt-in: set DUMONT_SLOW=1")
def test_criterion_2_slow_n8():
    t0 = time.perf_counter()
    rows = conjecture1_counts(8)
    ok = rows[8].count_2143 == rows[8].count_3421 == 168503
    elapsed = time.perf_counter() - t0
    report(2, ok and elapsed < 3600, "n=8 gives (168503, 168503)", elapsed)
    assert ok
    assert elapsed < 3600


@pytest.mark.skipif(not SLOW, reason="opt-in: set DUMONT_SLOW=1")
def test_criterion_2_slow_n9():
    t0 = time.perf_counter()
    rows = conjecture1_counts(9)
    expected = golden.d1_wilf_pair_counts()[:10]
    ok = [r.count_2143 for r in rows] == [r.count_3421 for r in rows] == expected
    elapsed = time.perf_counter() - t0
    report(2, ok, f"n<=9 gives {expected}", elapsed)
    assert [r.count_2143 for r in rows] == expected
    assert [r.count_3421 for r in rows] == expected


def test_criterion_3_distribution_tables():
    t0 = time.perf_counter()
    ok = True
    for n in (5, 6, 7):
        table = conjecture2_distribution(n)
        ref = golden.vincular_distribution(n)
        ok &= list(table.a_row) == ref["a"]
        ok &= list(table.b_row) == ref["b"]
    elapsed = time.perf_counter() - t0
    report(3, ok and elapsed < 600, "every cell of the n=5,6,7 tables matches",
           elapsed)
    assert ok
    assert elapsed < 600


def test_criterion_4_d4_avoidance_theorems():
    t0 = time.perf_counter()
    ok = True
    for n in range(7):
        size = 2 * n

        def c(pat: str) -> int:
            return count_avoiders(AvoidanceQuery(DumontKind.D4, size,
                                                 frozenset({cp(pat)})))

        if n >= 1:
            ok &= c("1342") == 2 ** (n - 1)
        ok &= c("1432") == closed_form(SequenceId.CATALAN, n)
        ok &= c("1324") == n * n - n + 1
        ok &= c("1243") == n * n - n + 1
        ok &= c("1234") == (1, 1, 2, 4, 0, 0, 0)[n]
    elapsed = time.perf_counter() - t0
    report(4, ok and elapsed < 60, "2^(n-1), C_n, n^2-n+1, and 1,1,2,4,0,...",
           elapsed)
    assert ok
    assert elapsed < 60


def test_criterion_5_1423_series():
    t0 = time.perf_counter()
    reference = [1, 1, 3, 10, 39, 174, 872, 4805, 28474, 178099, 1160173, 7803860]
    series = d4_1423_series(11)
    ok = list(series.coeffs) == reference
    for n in range(7):
        enum = count_avoiders(AvoidanceQuery(DumontKind.D4, 2 * n,
                                             frozenset({cp("1423")})))
        ok &= enum == reference[n]
    ok &= solve_prst_system(24).series() == d4_1423_series(24)
    elapsed = time.perf_counter() - t0
    report(5, ok and elapsed < 60,
           "12 reference values, 7 enumerated, sweep to order 24", elapsed)
    assert ok
    assert elapsed < 60


def _d4_1423_frontier(n_max: int) -> None:
    """D4 avoiders of 1423 for n <= n_max, counted by the DP, against the
    continued fraction and the vendored A343795 terms."""
    t0 = time.perf_counter()
    series = d4_1423_series(n_max)
    vendored = golden.a343795_prefix()
    got = [count_avoiders(AvoidanceQuery(DumontKind.D4, 2 * n, frozenset({cp("1423")})))
           for n in range(n_max + 1)]
    ok = got == list(series.coeffs) == vendored[:n_max + 1]
    report(5, ok, f"n<={n_max} enumerated: {got[-1]} at n={n_max}",
           time.perf_counter() - t0)
    assert got == list(series.coeffs)
    assert got == vendored[:n_max + 1]


def test_criterion_5_1423_frontier_n8():
    _d4_1423_frontier(8)


@pytest.mark.skipif(not SLOW, reason="opt-in: set DUMONT_SLOW=1")
def test_criterion_5_1423_frontier_slow_n11():
    _d4_1423_frontier(11)


def test_criterion_6_single_occurrence():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 7):
        got = count_exact_occurrences(DumontKind.D4, 2 * n, cp("321"), 1)
        ok &= got == closed_form(SequenceId.D4_321_1, n)
    specs = (
        (DumontKind.D1, "132", SequenceId.D1_132_1),
        (DumontKind.D1, "312", SequenceId.D1_312_1),
        (DumontKind.D1, "231", SequenceId.D1_231_1),
        (DumontKind.D1, "213", SequenceId.D1_213_1),
        (DumontKind.D1, "321", SequenceId.D1_321_1),
        (DumontKind.D2, "321", SequenceId.D2_321_1),
        (DumontKind.D2, "3142", SequenceId.D2_3142_1),
        (DumontKind.D2, "2143", SequenceId.D2_2143_1),
    )
    for kind, pat, seq in specs:
        for n in range(seq.lo, 6):
            got = count_exact_occurrences(kind, 2 * n, cp(pat), 1)
            ok &= got == closed_form(seq, n)
    elapsed = time.perf_counter() - t0
    report(6, ok and elapsed < 120, "all single-occurrence formulas", elapsed)
    assert ok
    assert elapsed < 120


def test_criterion_7_prior_avoidance_theorems():
    t0 = time.perf_counter()
    failures = []
    for suite in ("d1_len3", "d2_len3", "d2_len4", "d1_pairs"):
        rep = run_suite(suite, 5)
        failures.extend((r.theorem, r.n, r.enumerated, r.formula)
                        for r in rep.rows if not r.match)
    elapsed = time.perf_counter() - t0
    known_impossible = {("d1_pair_1342_2413", 4, "44", "45"),
                        ("d1_pair_1342_2413", 5, "185", "197")}
    ok = not failures
    report(7, ok and elapsed < 120,
           "length-3, length-4, pair, and explicit-set results", elapsed)
    assert elapsed < 120
    if set(failures) == known_impossible:
        pytest.fail(
            "criterion 7 fails on one recorded closed form: "
            "|D1_2n(1342,2413)| is 1,1,3,11,44,185,... by exhaustive "
            "enumeration (two independent routes), not the little Schroeder "
            "values 45,197 at n=4,5. Every other recorded result matches.")
    assert not failures, failures


def test_criterion_8_bijection_roundtrips():
    t0 = time.perf_counter()
    # Foata roundtrip on all of S_m, m <= 7.
    for m in range(8):
        for raw in permutations(range(1, m + 1)):
            p = Permutation(raw)
            assert foata_inverse(foata(p)) == p
    # Kind exchange, sizes up to 8.
    for src, dst in ((DumontKind.D1, DumontKind.D2), (DumontKind.D3, DumontKind.D4)):
        for size in (0, 2, 4, 6, 8):
            source = list(generate(src, size))
            images = {foata(p) for p in source}
            assert len(images) == len(source)
            assert images == set(generate(dst, size))
    # Dyck, composition, reflection: roundtrip plus full codomain coverage.
    for n in range(6):
        members = list(
            p for p in generate(DumontKind.D4, 2 * n) if avoids(p, cp("321")))
        paths = [d4_321_to_dyck(p) for p in members]
        assert {q.steps for q in paths} == {q.steps for q in dyck_paths(n)}
        assert all(dyck_to_d4_321(q) == p for p, q in zip(members, paths))

        if n >= 1:
            members = [p for p in generate(DumontKind.D4, 2 * n)
                       if avoids(p, cp("1342"))]
            comps = [d4_1342_to_composition(p) for p in members]
            assert len({c.parts for c in comps}) == 2 ** (n - 1)
            assert all(composition_to_d4_1342(c) == p
                       for p, c in zip(members, comps))

        left = [p for p in generate(DumontKind.D4, 2 * n) if avoids(p, cp("1324"))]
        right = {p for p in generate(DumontKind.D4, 2 * n) if avoids(p, cp("1243"))}
        images = [reflect_1324_to_1243(p) for p in left]
        assert set(images) == right
        assert all(reflect_1243_to_1324(q) == p for p, q in zip(left, images))
    # Split postconditions, exhaustively for n <= 5.
    for n in range(1, 6):
        for p in generate(DumontKind.D4, 2 * n):
            if count_occurrences(p, cp("321")) != 1:
                continue
            pair = split_single_321(p)
            for rho in (pair.rho1, pair.rho2):
                assert is_dumont(DumontKind.D4, rho)
                assert avoids(rho, cp("321"))
            expected = 2 * n + (2 if pair.parity_case == "even_b" else 4)
            assert len(pair.rho1) + len(pair.rho2) == expected
    elapsed = time.perf_counter() - t0
    report(8, True, "foata, dyck, composition, reflection, split", elapsed)


def _standardize(values: tuple[int, ...]) -> tuple[int, ...]:
    order = sorted(values)
    rank = {v: i + 1 for i, v in enumerate(order)}
    return tuple(rank[v] for v in values)


def test_criterion_9_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(20250808)
    patterns = {k: [ClassicalPattern(Permutation(q))
                    for q in permutations(range(1, k + 1))]
                for k in (1, 2, 3, 4)}
    vinculars = [VincularPattern.parse("2-31"), VincularPattern.parse("13-2")]
    cache: dict[tuple[int, ...], bool] = {}
    for n in range(11):
        for _ in range(1000):
            vals = list(range(1, n + 1))
            rng.shuffle(vals)
            key = tuple(vals)
            if key in cache:
                continue
            cache[key] = True
            p = Permutation(key)
            for k, pats in patterns.items():
                profile = Counter(_standardize(combo)
                                  for combo in combinations(key, k))
                for q in pats:
                    assert count_occurrences(p, q) == profile[q.perm.values]
            for vq in vinculars:
                assert count_vincular(p, vq) == naive_count_vincular(
                    key, vq.perm.values, vq.adjacent)
    elapsed = time.perf_counter() - t0
    report(9, True, f"{len(cache)} distinct hosts against the subset oracle",
           elapsed)


def test_criterion_10_property_suite():
    t0 = time.perf_counter()
    # Symmetry involutions and occurrence invariance, exhaustive small.
    for n in range(6):
        for raw in permutations(range(1, n + 1)):
            p = Permutation(raw)
            assert p.reverse().reverse() == p
            assert p.complement().complement() == p
            assert p.inverse().inverse() == p
    rng = random.Random(13)
    pats = [Permutation(q) for q in permutations((1, 2, 3))] + \
           [Permutation(q) for q in permutations((1, 2, 3, 4))]
    for _ in range(100):
        n = rng.randrange(0, 9)
        vals = list(range(1, n + 1))
        rng.shuffle(vals)
        p = Permutation(vals)
        q = rng.choice(pats)
        base = count_occurrences(p, ClassicalPattern(q))
        assert base == count_occurrences(p.reverse(), ClassicalPattern(q.reverse()))
        assert base == count_occurrences(p.complement(),
                                         ClassicalPattern(q.complement()))
        assert base == count_occurrences(p.inverse(), ClassicalPattern(q.inverse()))
    # Series identities, including the functional equations and the
    # single-occurrence generating function.
    assert all(c.ok for c in gf_identities_check(12))
    # The continued fraction against the full-order reference in z, cut
    # one and two levels deeper than the reference's own depth.
    base = d4_1423_series(10).coeffs
    for extra in (1, 2):
        assert base == tuple(z_space_continued_fraction(10, cf_reference_depth(10) + extra)[2::2])
    # Determinism: two full verification runs serialize identically.
    first = run_suite("all", 5).to_text()
    second = run_suite("all", 5).to_text()
    assert first == second
    # Pinned bytes: a change of row order or wording shows here.
    assert hashlib.sha256(first.encode()).hexdigest() == \
        "ee2fbde0a1ca89bedeafbe33e81f7c17bd604acce2d455c9780c62cd8d1e42ec"
    elapsed = time.perf_counter() - t0
    report(10, True, "involutions, invariance, identities, determinism", elapsed)
