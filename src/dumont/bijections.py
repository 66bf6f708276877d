"""Constructive maps between restricted Dumont permutations and other objects.

* Foata's fundamental transformation and its inverse, exchanging kinds 1 and
  2 (and kinds 3 and 4) of Dumont permutations.
* A run-length map from 321-avoiding Dumont-4 permutations to Dyck paths.
* The composition encoding of 1342-avoiding Dumont-4 permutations.
* The antidiagonal reflection between the 1324- and 1243-avoiding classes,
  together with the direct two-parameter construction of a 1324 avoider.
* The split of a Dumont-4 permutation with a single 321 occurrence into two
  smaller 321-avoiding Dumont-4 permutations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Iterator

from .kinds import DumontKind, is_dumont
from .patterns import ClassicalPattern, avoids, count_occurrences
from .permcore import Permutation, flatten

_P321 = ClassicalPattern(Permutation((3, 2, 1)))
_P1342 = ClassicalPattern(Permutation((1, 3, 4, 2)))
_P1324 = ClassicalPattern(Permutation((1, 3, 2, 4)))
_P1243 = ClassicalPattern(Permutation((1, 2, 4, 3)))


@dataclass(frozen=True)
class DyckPath:
    """An east-north lattice path from (0,0) to (n,n), weakly below the diagonal.

    ``steps`` is a string over {E, N}; every prefix has at least as many E
    steps as N steps and the totals agree.
    """

    steps: str

    def __post_init__(self):
        balance = 0
        for ch in self.steps:
            if ch == "E":
                balance += 1
            elif ch == "N":
                balance -= 1
                if balance < 0:
                    raise ValueError(f"path rises above the diagonal: {self.steps!r}")
            else:
                raise ValueError(f"bad step {ch!r}; expected E or N")
        if balance != 0:
            raise ValueError(f"unbalanced path: {self.steps!r}")

    @classmethod
    def parse(cls, text: str) -> "DyckPath":
        return cls(text.strip().upper())

    @property
    def semilength(self) -> int:
        return len(self.steps) // 2

    def to_text(self) -> str:
        return self.steps

    def runs(self) -> list[tuple[str, int]]:
        """Maximal runs as (step, length) pairs."""
        return [(ch, len(list(run))) for ch, run in groupby(self.steps)]

    def __str__(self) -> str:
        return self.steps


def dyck_paths(semilength: int) -> Iterator[DyckPath]:
    """All Dyck paths of the given semilength, lexicographically (E < N)."""

    def rec(steps: list[str], easts: int, norths: int) -> Iterator[DyckPath]:
        if easts == semilength and norths == semilength:
            yield DyckPath("".join(steps))
            return
        if easts < semilength:
            steps.append("E")
            yield from rec(steps, easts + 1, norths)
            steps.pop()
        if norths < easts:
            steps.append("N")
            yield from rec(steps, easts, norths + 1)
            steps.pop()

    yield from rec([], 0, 0)


@dataclass(frozen=True)
class Composition:
    """A composition of ``total`` into positive parts, order significant."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p < 1 for p in self.parts):
            raise ValueError("composition parts must be positive")

    @classmethod
    def parse(cls, text: str) -> "Composition":
        text = text.strip()
        if not text:
            return cls(())
        try:
            parts = tuple(int(p) for p in text.split("+"))
        except ValueError:
            raise ValueError(f"malformed composition: {text!r}") from None
        return cls(parts)

    @property
    def total(self) -> int:
        return sum(self.parts)

    def to_text(self) -> str:
        return "+".join(str(p) for p in self.parts)

    def __str__(self) -> str:
        return self.to_text()


@dataclass(frozen=True)
class SplitPair:
    """Output of :func:`split_single_321`.

    Both components are 321-avoiding Dumont-4 permutations.  Their sizes sum
    to 2n+2 when the middle entry of the unique 321 occurrence is even
    (``parity_case == "even_b"``) and to 2n+4 when it is odd (``"odd_b"``).
    """

    rho1: Permutation
    rho2: Permutation
    parity_case: str


# ---------------------------------------------------------------------------
# Foata's fundamental transformation


def foata(p: Permutation) -> Permutation:
    """Break before each left-to-right maximum and read the blocks as cycles.

    Maps Dumont permutations of the first kind onto the second kind and of
    the third kind onto the fourth, size preserved.
    """
    vals = p.values
    n = len(vals)
    image = [0] * n
    start = 0
    best = 0
    for i in range(n + 1):
        if i == n or (i > start and vals[i] > best):
            # vals[start:i] is a maximal block led by a left-to-right maximum.
            if i > start:
                block = vals[start:i]
                for a, b in zip(block, block[1:]):
                    image[a - 1] = b
                image[block[-1] - 1] = block[0]
            start = i
        if i < n and vals[i] > best:
            best = vals[i]
    return Permutation._wrap(tuple(image))


def foata_inverse(p: Permutation) -> Permutation:
    """Write the cycles led by their maxima, sorted by maxima, drop parentheses."""
    vals = p.values
    n = len(vals)
    seen = [False] * (n + 1)
    cycles: list[list[int]] = []
    for v in range(1, n + 1):
        if seen[v]:
            continue
        cyc = []
        w = v
        while not seen[w]:
            seen[w] = True
            cyc.append(w)
            w = vals[w - 1]
        top = max(cyc)
        at = cyc.index(top)
        cycles.append(cyc[at:] + cyc[:at])
    cycles.sort(key=lambda cyc: cyc[0])
    flat: list[int] = []
    for cyc in cycles:
        flat.extend(cyc)
    return Permutation._wrap(tuple(flat))


# ---------------------------------------------------------------------------
# 321-avoiding Dumont-4 permutations <-> Dyck paths


def _require_member(p: Permutation, pattern: ClassicalPattern) -> None:
    if not is_dumont(DumontKind.D4, p) or not avoids(p, pattern):
        raise ValueError(f"{p.to_text() or 'empty permutation'} is not a "
                         f"{pattern.perm.to_text()}-avoiding Dumont-4 permutation")


def d4_321_to_dyck(p: Permutation) -> DyckPath:
    """Halved run-length path of the even non-excedances.

    With even non-excedance values b_1 < ... < b_k at positions
    a_1 < ... < a_k (and a_0 = 0, b_{k+1} = 2n+2), the east runs have lengths
    a_i - a_{i-1} and the north runs b_{i+1} - b_i; all are even, and halving
    them gives a Dyck path of semilength n.
    """
    _require_member(p, _P321)
    positions = []
    values = []
    for i, v in enumerate(p.values):
        if v <= i + 1 and v % 2 == 0:
            positions.append(i + 1)
            values.append(v)
    n2 = len(p)
    steps: list[str] = []
    prev_a = 0
    for idx, (a, b) in enumerate(zip(positions, values)):
        b_next = values[idx + 1] if idx + 1 < len(values) else n2 + 2
        east = a - prev_a
        north = b_next - b
        if east % 2 or north % 2:
            raise RuntimeError(f"odd run length for {p.to_text()}")
        steps.append("E" * (east // 2))
        steps.append("N" * (north // 2))
        prev_a = a
    return DyckPath("".join(steps))


def dyck_to_d4_321(path: DyckPath) -> Permutation:
    """Inverse of :func:`d4_321_to_dyck`: double the runs, read off the even
    non-excedances, and fill the remaining positions in increasing order."""
    runs = path.runs()
    n2 = 2 * path.semilength
    # Doubled runs alternate E, N, ..., starting with E for a nonempty path.
    positions = []
    values = []
    a = 0
    b = 2
    for step, length in runs:
        if step == "E":
            a += 2 * length
            positions.append(a)
            values.append(b)
        else:
            b += 2 * length
    vals = [0] * n2
    taken = set(values)
    for pos, v in zip(positions, values):
        vals[pos - 1] = v
    rest = iter(sorted(set(range(1, n2 + 1)) - taken))
    for i in range(n2):
        if vals[i] == 0:
            vals[i] = next(rest)
    return Permutation(vals)


# ---------------------------------------------------------------------------
# 1342-avoiding Dumont-4 permutations <-> compositions


def d4_1342_to_composition(p: Permutation) -> Composition:
    """Block sizes of the even-entry subpermutation.

    In a 1342-avoiding Dumont-4 permutation all odd entries are fixed points
    and the even entries, halved, form a 231-avoiding permutation made of
    consecutive blocks (k, 1, 2, ..., k-1); the block sizes, in order, give a
    composition of n.
    """
    _require_member(p, _P1342)
    n = len(p) // 2
    halved = []
    for i in range(n):
        if p.values[2 * i] != 2 * i + 1:
            raise RuntimeError(f"odd entry not fixed in {p.to_text()}")
        even_val = p.values[2 * i + 1]
        if even_val % 2:
            raise RuntimeError(f"odd value at even position in {p.to_text()}")
        halved.append(even_val // 2)
    parts = []
    at = 0
    offset = 0
    while at < n:
        k = halved[at] - offset
        if k < 1 or halved[at + 1: at + k] != list(range(offset + 1, offset + k)):
            raise RuntimeError(f"unexpected block structure in {p.to_text()}")
        parts.append(k)
        offset += k
        at += k
    return Composition(tuple(parts))


def composition_to_d4_1342(comp: Composition) -> Permutation:
    """Rebuild the avoider with all odd entries fixed from its composition."""
    halved: list[int] = []
    offset = 0
    for k in comp.parts:
        halved.append(offset + k)
        halved.extend(range(offset + 1, offset + k))
        offset += k
    vals: list[int] = []
    for i, half in enumerate(halved):
        vals.append(2 * i + 1)
        vals.append(2 * half)
    return Permutation(vals)


# ---------------------------------------------------------------------------
# 1324-avoiding <-> 1243-avoiding Dumont-4 permutations


def _reflect(p: Permutation, source: ClassicalPattern,
             target: ClassicalPattern) -> Permutation:
    """Check that ``p`` is in the source class, drop its leading 1, reflect
    the rest about the antidiagonal, put it back, and check the image is in
    the target class."""
    _require_member(p, source)
    if len(p) == 0:
        return p
    if p.values[0] != 1:
        raise RuntimeError("Dumont-4 permutations start with 1")
    tail = [v - 1 for v in p.values[1:]]
    m = len(tail)
    image = [0] * m
    for i, v in enumerate(tail):
        # Dot (i+1, v) goes to (m+1-v, m+1-(i+1)).
        image[m - v] = m - i
    out = Permutation([1] + [v + 1 for v in image])
    _require_member(out, target)
    return out


def reflect_1324_to_1243(p: Permutation) -> Permutation:
    """Antidiagonal reflection sending the 1324-avoiding class onto 1243."""
    return _reflect(p, _P1324, _P1243)


def reflect_1243_to_1324(p: Permutation) -> Permutation:
    """Inverse direction; the reflection is an involution."""
    return _reflect(p, _P1243, _P1324)


def construct_1324_avoider(n: int, k: int | None = None,
                           l: int | None = None) -> Permutation:
    """The unique 1324-avoiding Dumont-4 permutation of size 2n with last
    entry 2k and the entry 2n in position l; all other entries increase.

    Call with ``k`` and ``l`` omitted for the identity permutation, which is
    the one member not covered by the parameters.  Requires 1 <= k <= n-1
    and 2k <= l <= 2n-1.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if k is None and l is None:
        return Permutation.identity(2 * n)
    if k is None or l is None:
        raise ValueError("give both k and l, or neither")
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must satisfy 1 <= k <= {n - 1}, got {k}")
    if not 2 * k <= l <= 2 * n - 1:
        raise ValueError(f"l must satisfy {2 * k} <= l <= {2 * n - 1}, got {l}")
    vals = (list(range(1, 2 * k)) + list(range(2 * k + 1, l + 1)) + [2 * n]
            + list(range(l + 1, 2 * n)) + [2 * k])
    return Permutation(vals)


# ---------------------------------------------------------------------------
# Splitting a single 321 occurrence


def split_single_321(p: Permutation) -> SplitPair:
    """Split a Dumont-4 permutation with exactly one 321 occurrence.

    Writing the occurrence as values c > b > a, the entries before b
    (plus a) and the entries after b (plus c) flatten to two 321-avoiding
    pieces; each is completed to an even-size Dumont-4 permutation.  The
    component sizes sum to 2n+2 when b is even and to 2n+4 when b is odd.
    """
    if not is_dumont(DumontKind.D4, p):
        raise ValueError(f"{p.to_text()} is not a Dumont-4 permutation")
    occs = count_occurrences(p, _P321)
    if occs != 1:
        raise ValueError(
            f"{p.to_text()} must contain exactly one 321 occurrence, "
            f"found {'none' if not occs else 'several'}")
    # With one occurrence, b is the only entry with a larger one before it
    # and a smaller one after it: c is the largest entry before b, and a the
    # smallest after it.
    vals = p.values
    i2 = next(j for j in range(1, len(vals) - 1)
              if max(vals[:j]) > vals[j] > min(vals[j + 1:]))
    b = vals[i2]
    if b != i2 + 1:
        raise RuntimeError(f"middle entry of the occurrence is not fixed in {p.to_text()}")
    # pi1: everything before b, then a.  pi2: c, then everything after b.
    pi1 = flatten(vals[:i2] + (min(vals[i2 + 1:]),))
    pi2 = flatten((max(vals[:i2]),) + vals[i2 + 1:])
    if b % 2 == 0:
        rho1 = pi1
        rho2 = Permutation((1,) + tuple(v + 1 for v in pi2.values))
        case = "even_b"
    else:
        # Insert the next even value just before the last entry of pi1.
        m1 = len(pi1)
        rho1 = Permutation(pi1.values[: m1 - 1] + (m1 + 1, pi1.values[m1 - 1]))
        # Re-anchor pi2 on new low entries 1, 3 ... 2, shifting the rest up.
        at1 = pi2.values.index(1)
        before = [v + 2 for v in pi2.values[:at1]]
        after = [v + 2 for v in pi2.values[at1 + 1:]]
        rho2 = Permutation([1, 3] + before + [2] + after)
        case = "odd_b"
    for rho in (rho1, rho2):
        if not is_dumont(DumontKind.D4, rho) or not avoids(rho, _P321):
            raise RuntimeError(f"split component {rho.to_text()} fails its postcondition")
    expected = len(p) + (2 if case == "even_b" else 4)
    if len(rho1) + len(rho2) != expected:
        raise RuntimeError("split component sizes are inconsistent")
    return SplitPair(rho1=rho1, rho2=rho2, parity_case=case)
