"""Pattern containment, avoidance queries, and avoidance-pruned generation.

Classical patterns are permutations matched as order-isomorphic subsequences.
Vincular patterns add adjacency requirements: in the text form, letters *not*
separated by a dash must occupy consecutive positions in the host, so in
``2-31`` the letters 3 and 1 must be adjacent while 2 may sit anywhere
earlier.

All counting goes through one backtracking matcher, ``_count(host, pat,
adjacent, limit, last)``.  A classical pattern is a vincular pattern with no
adjacency; ``limit=1`` turns the count into a containment test; ``last=w``
counts only the occurrences that appending w to the host would complete.

Pruned generation runs the single walk of :mod:`dumont.kinds` with a guard
built from an :class:`AvoidanceQuery`: a partial placement is rejected as
soon as the placed prefix contains a forbidden pattern (or, in
exact-occurrence mode, as soon as the occurrence count overshoots the
target).  The generic guards call the matcher anchored at the new value;
constant-time detectors for 2143 and 3421 (avoidance) and 321 (exact count)
cover the hot enumerations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from . import kinds as _kinds
from .kinds import DumontKind, Guard
from .permcore import Permutation

_INF = 1 << 30

# Exhaustive containment scans are exact but exponential in the pattern
# length; this envelope is far below any overflow or runtime hazard.
_MAX_HOST = 24


@dataclass(frozen=True)
class ClassicalPattern:
    """A plain pattern: any occurrence is an order-isomorphic subsequence."""

    perm: Permutation

    def __post_init__(self):
        if len(self.perm) < 1:
            raise ValueError("pattern must have length >= 1")

    @classmethod
    def parse(cls, text: str) -> "ClassicalPattern":
        return cls(Permutation.from_text(text))

    def __str__(self) -> str:
        return self.perm.to_text()


@dataclass(frozen=True)
class VincularPattern:
    """A pattern with adjacency constraints.

    ``adjacent`` holds the 1-based indices i such that the letters at pattern
    positions i and i+1 must be adjacent in the host.  An empty set makes the
    pattern behave exactly like the classical one on the same permutation.
    """

    perm: Permutation
    adjacent: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        k = len(self.perm)
        if k < 1:
            raise ValueError("pattern must have length >= 1")
        if any(i < 1 or i >= k for i in self.adjacent):
            raise ValueError("adjacency indices must satisfy 1 <= i < k")

    @classmethod
    def parse(cls, text: str) -> "VincularPattern":
        """Parse dashed notation: ``2-31`` keeps 3,1 adjacent, 2 free."""
        groups = text.split("-")
        if any(not g for g in groups):
            raise ValueError(f"malformed vincular pattern: {text!r}")
        letters = "".join(groups)
        perm = Permutation.from_text(letters)
        adjacent = set()
        start = 1
        for g in groups:
            for i in range(start, start + len(g) - 1):
                adjacent.add(i)
            start += len(g)
        return cls(perm, frozenset(adjacent))

    def runs(self) -> list[tuple[int, int]]:
        """Maximal blocks of pattern positions that must be host-adjacent.

        Returns (start, length) pairs with 0-based starts, in order.
        """
        out = []
        k = len(self.perm)
        start = 0
        for i in range(1, k + 1):
            if i == k or i not in self.adjacent:
                out.append((start, i - start))
                start = i
        return out

    def __str__(self) -> str:
        parts = []
        for start, length in self.runs():
            parts.append("".join(str(v) for v in self.perm.values[start:start + length]))
        return "-".join(parts)


@dataclass(frozen=True)
class AvoidanceQuery:
    """What to enumerate: members of a Dumont kind restricted by patterns.

    Plain mode (``occurrence_target`` unset) asks for members avoiding every
    pattern in ``forbidden``.  Exact mode asks for members with exactly
    ``occurrence_target`` occurrences of a single pattern, which therefore
    must be the only entry of ``forbidden``.
    """

    kind: DumontKind
    size: int
    forbidden: frozenset[ClassicalPattern]
    occurrence_target: Optional[int] = None

    def __post_init__(self):
        if not self.forbidden:
            raise ValueError("query needs at least one pattern")
        if self.occurrence_target is not None:
            if self.occurrence_target < 0:
                raise ValueError("occurrence target must be >= 0")
            if len(self.forbidden) != 1:
                raise ValueError("exact-occurrence mode takes a single pattern")


# ---------------------------------------------------------------------------
# Containment counting


def _check_host_size(n: int, k: int) -> None:
    if n > _MAX_HOST and k >= 3:
        raise ValueError(f"host length {n} exceeds the supported envelope of {_MAX_HOST}")


_NO_ADJACENCY: frozenset[int] = frozenset()


def _count(host: Sequence[int], pat: Sequence[int],
           adjacent: frozenset[int] = _NO_ADJACENCY, limit: int = _INF,
           last: Optional[int] = None) -> int:
    """Occurrences of ``pat`` in ``host``, counting no further than ``limit``.

    ``adjacent`` uses the convention of :class:`VincularPattern`; it is empty
    for a classical pattern.  With ``last`` set, only the occurrences in
    ``host + [last]`` that end at ``last`` are counted, i.e. the occurrences
    that appending ``last`` to the host would complete.  ``limit`` must be at
    least 1; ``limit=1`` answers containment.
    """
    n = len(host)
    k = len(pat)
    last_lo = 0  # lowest host index the final matched letter may take
    if last is None:
        # Unanchored: every host value and pattern letter lies below this
        # sentinel, so the anchor test below never skips a candidate.
        last = top = _INF
    else:
        k -= 1  # the final pattern letter is ``last`` itself
        if k == 0:
            return 1
        top = pat[k]
        if k in adjacent:
            last_lo = n - 1
    if k > n:
        return 0
    kl = k - 1
    chosen = [0] * k
    total = 0

    def rec(j: int, start: int) -> bool:
        nonlocal total
        pj = pat[j]
        below = pj < top
        # Letter j tied to letter j - 1 must sit right after it in the host.
        hi = start + 1 if adjacent and j in adjacent else n - kl + j
        if j == kl and start < last_lo:
            start = last_lo
        for i in range(start, hi):
            v = host[i]
            if (v < last) != below:  # wrong side of the anchored last letter
                continue
            for t in range(j):
                if (chosen[t] < v) != (pat[t] < pj):
                    break
            else:
                if j == kl:
                    total += 1
                    if total >= limit:
                        return True
                else:
                    chosen[j] = v
                    if rec(j + 1, i + 1):
                        return True
        return False

    rec(0, 0)
    return total


def count_occurrences(p: Permutation, q: ClassicalPattern) -> int:
    """Number of subsequences of ``p`` order-isomorphic to the pattern."""
    _check_host_size(len(p), len(q.perm))
    return _count(p.values, q.perm.values)


def avoids(p: Permutation, q: ClassicalPattern) -> bool:
    """True when ``p`` has no occurrence of the pattern (early exit)."""
    _check_host_size(len(p), len(q.perm))
    return not _count(p.values, q.perm.values, limit=1)


def avoids_all(p: Permutation, patterns: Iterable[ClassicalPattern]) -> bool:
    return all(avoids(p, q) for q in patterns)


def count_vincular(p: Permutation, vq: VincularPattern) -> int:
    """Occurrences of a vincular pattern, honoring its adjacency runs."""
    _check_host_size(len(p), len(vq.perm))
    return _count(p.values, vq.perm.values, vq.adjacent)


# ---------------------------------------------------------------------------
# Guards for the pruned walk
#
# Every guard's push(w) decides, in sync with the walk's prefix h, whether
# appending w keeps the prefix acceptable: no forbidden occurrence, or no
# more occurrences than the target.  The generic guards run the matcher
# anchored at w; the pattern-specific ones keep O(1) summaries of the prefix.


class _AvoidGuard(Guard):
    """Generic prefix pruning for a set of classical patterns."""

    __slots__ = ("pats", "h")

    def __init__(self, pats: tuple[tuple[int, ...], ...]):
        self.pats = pats
        self.h: list[int] = []

    def push(self, w: int) -> bool:
        h = self.h
        for pat in self.pats:
            if _count(h, pat, _NO_ADJACENCY, 1, w):
                return False
        h.append(w)
        return True

    def pop(self) -> None:
        self.h.pop()


def _lsb_index(x: int) -> int:
    return (x & -x).bit_length() - 1


class _Fast2143Guard(Guard):
    """Constant-time detector for new 2143 occurrences.

    Appending w completes 2143 exactly when some earlier position j carries a
    value above w with an inversion whose top is below w lying entirely
    before j.  The guard tracks, per prefix length, the minimum inversion top
    seen so far (``imt``) and, per value v, the last position holding
    something larger than v (``lpg``); larger j can only improve the
    inversion side, so checking the last qualifying position suffices.
    """

    __slots__ = ("size", "placed", "m", "imt", "lpg", "undo")

    def __init__(self, size: int):
        self.size = size
        self.placed = 0
        self.m = 0
        self.imt: list[int] = []
        self.lpg = [-1] * (size + 1)
        self.undo: list[tuple[int, tuple[int, ...]]] = []

    def push(self, u: int) -> bool:
        lpg = self.lpg
        j = lpg[u]
        if j >= 1 and self.imt[j - 1] < u:
            return False
        above = self.placed >> (u + 1)
        top = u + 1 + _lsb_index(above) if above else _INF
        prev = self.imt[-1] if self.imt else _INF
        self.imt.append(top if top < prev else prev)
        self.undo.append((u, tuple(lpg[1:u])))
        for v in range(1, u):
            lpg[v] = self.m
        self.placed |= 1 << u
        self.m += 1
        return True

    def pop(self) -> None:
        u, old = self.undo.pop()
        self.lpg[1:u] = old
        self.placed &= ~(1 << u)
        self.imt.pop()
        self.m -= 1


class _Fast3421Guard(Guard):
    """Constant-time detector for new 3421 occurrences.

    The new element plays the final 1, so a completion needs an earlier 342
    (pattern 231) whose smallest value is above w.  ``mv3`` is the maximum,
    over 231 occurrences in the prefix, of that smallest value; ``bpl`` the
    maximum over ascending pairs of the lower value, which is what a new 231
    occurrence needs above its own bottom.
    """

    __slots__ = ("placed", "vals", "bpl", "mv3")

    def __init__(self, size: int):
        self.placed = 0
        self.vals: list[int] = []
        self.bpl = [0]
        self.mv3 = [0]

    def push(self, u: int) -> bool:
        mv3 = self.mv3[-1]
        if mv3 > u:
            return False
        below = self.placed & ((1 << u) - 1)
        pred = below.bit_length() - 1 if below else 0
        bpl = self.bpl[-1]
        if bpl > u:
            mv3 = u
        self.mv3.append(mv3)
        self.bpl.append(pred if pred > bpl else bpl)
        self.vals.append(u)
        self.placed |= 1 << u
        return True

    def pop(self) -> None:
        self.bpl.pop()
        self.mv3.pop()
        self.placed &= ~(1 << self.vals.pop())


class _ExactCountGuard(Guard):
    """Track the total occurrence count of one pattern; prune past target."""

    __slots__ = ("pat", "target", "h", "count", "adds")

    def __init__(self, pat: tuple[int, ...], target: int):
        self.pat = pat
        self.target = target
        self.h: list[int] = []
        self.count = 0
        self.adds: list[int] = []

    def push(self, w: int) -> bool:
        room = self.target - self.count
        add = _count(self.h, self.pat, _NO_ADJACENCY, room + 1, w)
        if add > room:
            return False
        self.count += add
        self.adds.append(add)
        self.h.append(w)
        return True

    def pop(self) -> None:
        self.h.pop()
        self.count -= self.adds.pop()

    def leaf_ok(self) -> bool:
        return self.count == self.target


class _Exact321Guard(Guard):
    """Occurrence counting specialised to 321: new occurrences ending at w
    are inversions with both values above w, tallied per inversion bottom."""

    __slots__ = ("size", "target", "placed", "pbb", "count", "trail")

    def __init__(self, size: int, target: int):
        self.size = size
        self.target = target
        self.placed = 0
        self.pbb = [0] * (size + 2)  # inversions with bottom value v
        self.count = 0
        self.trail: list[tuple[int, int, int]] = []

    def push(self, u: int) -> bool:
        pbb = self.pbb
        add = sum(pbb[v] for v in range(u + 1, self.size + 1))
        if self.count + add > self.target:
            return False
        new_pairs = (self.placed >> (u + 1)).bit_count()
        pbb[u] += new_pairs
        self.count += add
        self.trail.append((u, new_pairs, add))
        self.placed |= 1 << u
        return True

    def pop(self) -> None:
        u, new_pairs, add = self.trail.pop()
        self.pbb[u] -= new_pairs
        self.count -= add
        self.placed &= ~(1 << u)

    def leaf_ok(self) -> bool:
        return self.count == self.target


_FAST_AVOID = {
    (2, 1, 4, 3): _Fast2143Guard,
    (3, 4, 2, 1): _Fast3421Guard,
}


def _make_guard(query: AvoidanceQuery) -> Guard:
    pats = tuple(sorted(q.perm.values for q in query.forbidden))
    target = query.occurrence_target
    if target is not None:
        if pats[0] == (3, 2, 1):
            return _Exact321Guard(query.size, target)
        return _ExactCountGuard(pats[0], target)
    if len(pats) == 1 and pats[0] in _FAST_AVOID:
        return _FAST_AVOID[pats[0]](query.size)
    return _AvoidGuard(pats)


# ---------------------------------------------------------------------------
# Pruned generation and counting


def generate_avoiders(query: AvoidanceQuery,
                      prefix: Sequence[int] = ()) -> Iterator[Permutation]:
    """Members of the query's set (avoiders, or exact-occurrence members),
    lexicographically."""
    for h in _kinds._walk(query.kind, query.size, prefix, _make_guard(query)):
        yield Permutation._wrap(tuple(h))


def count_avoiders(query: AvoidanceQuery, prefix: Sequence[int] = ()) -> int:
    """Cardinality of :func:`generate_avoiders` without materialising it."""
    return sum(1 for _ in _kinds._walk(query.kind, query.size, prefix, _make_guard(query)))


def count_exact_occurrences(kind: DumontKind, size: int, q: ClassicalPattern,
                            r: int, prefix: Sequence[int] = ()) -> int:
    """Members of the kind with exactly ``r`` occurrences of the pattern."""
    return count_avoiders(AvoidanceQuery(kind, size, frozenset([q]), r), prefix)


def vincular_histogram(kind: DumontKind, size: int, forbidden: ClassicalPattern,
                       stat: VincularPattern,
                       prefix: Sequence[int] = ()) -> dict[int, int]:
    """Distribution of a vincular statistic over a pruned avoider set.

    Returns {k: number of members of the kind avoiding ``forbidden`` whose
    occurrence count of ``stat`` equals k}.
    """
    guard = _make_guard(AvoidanceQuery(kind, size, frozenset([forbidden])))
    svals = stat.perm.values
    sadj = stat.adjacent
    hist: dict[int, int] = {}
    for h in _kinds._walk(kind, size, prefix, guard):
        k = _count(h, svals, sadj)
        hist[k] = hist.get(k, 0) + 1
    return hist
