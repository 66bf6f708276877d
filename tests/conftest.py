"""Shared brute-force oracles, deliberately independent of the package code.

Everything here recomputes from first principles (itertools over index
subsets, definition-level membership filters) so the fast implementations
are checked against a second route.
"""

from __future__ import annotations

from itertools import combinations, permutations

import pytest


def naive_count(host, pat) -> int:
    """Occurrences of pat in host by exhaustive subset enumeration."""
    host = tuple(host)
    pat = tuple(pat)
    k = len(pat)
    total = 0
    for idx in combinations(range(len(host)), k):
        ok = True
        for a in range(k):
            for b in range(a + 1, k):
                if (host[idx[a]] < host[idx[b]]) != (pat[a] < pat[b]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            total += 1
    return total


def naive_contains(host, pat) -> bool:
    return naive_count(host, pat) > 0


def naive_count_vincular(host, pat, adjacent) -> int:
    """Vincular occurrences; ``adjacent`` holds 1-based indices i with
    pattern positions i, i+1 required adjacent in the host."""
    host = tuple(host)
    pat = tuple(pat)
    k = len(pat)
    total = 0
    for idx in combinations(range(len(host)), k):
        if any(idx[i] + 1 != idx[i + 1] for i in range(k - 1) if (i + 1) in adjacent):
            continue
        ok = True
        for a in range(k):
            for b in range(a + 1, k):
                if (host[idx[a]] < host[idx[b]]) != (pat[a] < pat[b]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            total += 1
    return total


# Series kernels term for term, with the errors of ``TruncatedSeries``.

def schoolbook_product(a, b):
    n = min(len(a), len(b)) - 1
    out = [0] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a[i] * b[j]
    return out


def schoolbook_quotient(a, b):
    """a/b coefficient by coefficient."""
    n = min(len(a), len(b)) - 1
    if b[0] == 0:
        raise ValueError("division by a series with zero constant term")
    q = []
    for i in range(n + 1):
        acc = a[i] - sum(b[j] * q[i - j] for j in range(1, i + 1))
        if acc % b[0]:
            raise ValueError(f"inexact series division at coefficient {i}")
        q.append(acc // b[0])
    return q


# Definition-level membership checks, written from the four definitions and
# not shared with dumont.kinds.

def def_is_d1(vals) -> bool:
    n = len(vals)
    for i, v in enumerate(vals):
        if v % 2 == 0:
            if i == n - 1 or vals[i + 1] > v:
                return False
        elif i < n - 1 and vals[i + 1] < v:
            return False
    return True


def def_is_d2(vals) -> bool:
    for i, v in enumerate(vals):
        if (i + 1) % 2 == 0:
            if v >= i + 1:
                return False
        elif v < i + 1:
            return False
    return True


def def_is_d3(vals) -> bool:
    return all(not (a > b and (a % 2 or b % 2)) for a, b in zip(vals, vals[1:]))


def def_is_d4(vals) -> bool:
    return all(not (v < i + 1 and ((i + 1) % 2 or v % 2))
               for i, v in enumerate(vals))


DEF_CHECKS = {1: def_is_d1, 2: def_is_d2, 3: def_is_d3, 4: def_is_d4}


def brute_members(kind_id: int, size: int) -> list[tuple[int, ...]]:
    check = DEF_CHECKS[kind_id]
    return [p for p in permutations(range(1, size + 1)) if check(p)]


@pytest.fixture(scope="session")
def small_dumont_sets():
    """Brute-force Dumont sets for sizes 0..8, keyed by (kind_id, size)."""
    out = {}
    for kind_id in (1, 2, 3, 4):
        for size in (0, 2, 4, 6, 8):
            out[(kind_id, size)] = brute_members(kind_id, size)
    return out
