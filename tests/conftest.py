"""Shared brute-force oracles, deliberately independent of the package code.

Everything here recomputes from first principles (itertools over index
subsets, definition-level membership filters) so the fast implementations
are checked against a second route.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import comb

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


def cf_reference_depth(nterms: int) -> int:
    """The level at which :func:`z_space_continued_fraction` cuts the tail:
    dropping it at level k leaves coefficients up to index 3k-1 in x
    untouched, and one extra level is kept as a margin."""
    return -(-(nterms + 1) // 3) + 1


def z_space_continued_fraction(nterms, depth=None):
    """z*R_1 of the 1423 continued fraction in z itself, to order
    2*nterms + 2, on the schoolbook kernels: no parity is assumed anywhere,
    and every level from ``depth`` (default ``cf_reference_depth(nterms)``)
    down is computed at full order."""
    order = 2 * nterms + 2

    def sub(a, b):
        return [x - y for x, y in zip(a, b)]

    def catalan_part(parity, m, shift):
        # z^shift * sum of C(d) z^d over d <= 2m + parity of that parity.
        out = [0] * (order + 1)
        for d in range(parity, 2 * m + parity + 1, 2):
            if d + shift <= order:
                out[d + shift] = comb(2 * d, d) // (d + 1)
        return out

    one = [1] + [0] * order
    z_r = [0] * (order + 1)
    for k in range(cf_reference_depth(nterms) if depth is None else depth, -1, -1):
        ce, z2ce = catalan_part(0, k, 0), catalan_part(0, k, 2)
        frac3 = schoolbook_quotient(schoolbook_product(z2ce, ce), sub(one, z_r))
        frac2 = schoolbook_quotient(z2ce, sub(sub(one, catalan_part(1, k, 1)), frac3))
        base = sub(one, catalan_part(1, k - 1, 1))
        z_r = schoolbook_quotient(z2ce, sub(schoolbook_product(base, base), frac2))
    return z_r


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
