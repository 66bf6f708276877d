"""References the benchmark checks answers against, independent of the timed code.

Nothing here calls the walks, guards or series code that the workloads time:
golden tables are read straight from their JSON files, Genocchi numbers come
from Seidel's triangle, and pattern containment is a naive scan over index
subsets.
"""

from __future__ import annotations

import json
import os
from itertools import accumulate, combinations

HERE = os.path.dirname(os.path.abspath(__file__))

# SHA-256 of the stdout of each enumerate-workload command at the seed
# commit. Reports are promised byte-identical, so any change is a failure.
CLI_DIGESTS = {
    "enumerate --kind 1 --size 12":
        "d3434eeec66f9a3fd7fc546883f5aa3437521f57a23cf0d2a4226fdefc00f83b",
    "enumerate --kind 3 --size 12 --format csv":
        "425da5644e008214207223d3760987465b1fcb0a495cc2c9b69937105b5f273c",
    "avoid --kind 4 --size 12 --pattern 321 --exactly 1 --list":
        "24ee7dad152be89d25343235a8a8ecc30ddbe22c52adb965150170f7874352df",
}

# Rows of ``run_suite("all", 5)`` whose enumerated value disagrees with the
# recorded closed form (the little Schroeder numbers) at the seed. Exhaustive
# enumeration confirms the enumerated values, so these are a finding about
# the closed form; they still count as failed operations.
KNOWN_FINDINGS = {
    ("d1_pair_1342_2413", 4): ("44", "45"),
    ("d1_pair_1342_2413", 5): ("185", "197"),
}
KNOWN_FINDING_PATTERNS = ((1, 3, 4, 2), (2, 4, 1, 3))


def golden_table(root: str, name: str) -> dict:
    """A vendored golden JSON file, read without going through ``dumont.golden``."""
    path = os.path.join(root, "src", "dumont", "golden", name)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def verify_rows() -> list[tuple[str, str, int, str]]:
    """(suite, theorem, n, reference value) of each ``run_suite("all", 5)`` row.

    Recorded from the closed forms, golden tables and expected sets at the
    seed commit, so an edited reference shows up as a failed row.
    """
    with open(os.path.join(HERE, "verify_reference.json"), encoding="utf-8") as fh:
        return [tuple(row) for row in json.load(fh)["rows"]]


def seidel_genocchi(n_max: int) -> list[int]:
    """Unsigned Genocchi numbers G(2), G(4), ..., G(2 n_max) from Seidel's triangle.

    Row r has ceil(r/2) entries and is the running sum of row r-1 (padded
    with a zero), left to right on even rows and right to left on odd rows.
    G(2n) is the last entry of row 2n: 1, 1, 3, 17, 155, 2073, ...
    """
    row = [1]
    out = []
    for r in range(2, 2 * n_max + 1):
        row = row + [0] * ((r + 1) // 2 - len(row))
        if r % 2 == 0:
            row = list(accumulate(row))
            out.append(row[-1])
        else:
            row = list(accumulate(reversed(row)))[::-1]
    return out


def dumont1_members(size: int):
    """Kind-1 Dumont permutations of ``size`` straight from the definition.

    Every even entry is immediately followed by a smaller one, every odd
    entry by a larger one or by nothing.
    """
    def rec(h: list[int], rest: set[int]):
        if not rest:
            if not h or h[-1] % 2:
                yield tuple(h)
            return
        prev = h[-1] if h else None
        for v in sorted(rest):
            if prev is not None and (v > prev) == (prev % 2 == 0):
                continue
            h.append(v)
            rest.remove(v)
            yield from rec(h, rest)
            rest.add(v)
            h.pop()

    yield from rec([], set(range(1, size + 1)))


def contains(values: tuple[int, ...], pattern: tuple[int, ...]) -> bool:
    """True when some subsequence of ``values`` is order-isomorphic to ``pattern``."""
    k = len(pattern)
    pairs = [(a, b, pattern[a] < pattern[b]) for a in range(k) for b in range(a + 1, k)]
    for sub in combinations(values, k):
        if all((sub[a] < sub[b]) == up for a, b, up in pairs):
            return True
    return False
