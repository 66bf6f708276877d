"""Pattern containment, avoidance queries, and avoidance-pruned generation.

Classical patterns are permutations matched as order-isomorphic subsequences.
Vincular patterns add adjacency requirements: in the text form, letters *not*
separated by a dash must occupy consecutive positions in the host, so in
``2-31`` the letters 3 and 1 must be adjacent while 2 may sit anywhere
earlier.

All occurrence counting goes through one backtracking matcher,
``_count(host, pat, adjacent, limit)``.  A classical pattern is a vincular
pattern with no adjacency; ``limit=1`` turns the count into a containment
test.

Every avoidance and exact-occurrence query takes one path to an engine,
:func:`_runs` (:func:`_run` for one size): it plugs a transition into
:func:`dumont.kinds._walk` to list or :func:`dumont.kinds._count_layers` to
count, the generic :func:`_avoid_classical` for any classical patterns and
target, or a smaller one for 2143 or 3421 alone in plain mode.  Each is
written on ranks among the unused values, with :func:`_by_value` as its
value form.  :func:`vincular_histogram` adds a length-3 statistic with one
adjacency to the DP and refuses any other.  The plain walk filtered by the
matcher is the oracle the transitions are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate
from typing import Callable, Iterator, Optional, Sequence

from . import kinds as _kinds
from .kinds import DumontKind
from .permcore import Permutation, _separator

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
        """Parse dashed notation: ``2-31`` keeps 3,1 adjacent, 2 free.  The
        letters follow ``Permutation``'s text, so past nine letters they are
        comma-separated: ``1-2-3-4-5-6-7-8-9,10``."""
        groups = [g.split(",") if "," in text else list(g) for g in text.strip().split("-")]
        if not all(g and all(g) for g in groups):
            raise ValueError(f"malformed vincular pattern: {text!r}")
        perm = Permutation.from_text(",".join(letter for g in groups for letter in g))
        ends = set(accumulate(map(len, groups)))  # the last position of each group
        return cls(perm, frozenset(range(1, len(perm))) - ends)

    def __str__(self) -> str:
        sep = _separator(len(self.perm))
        return "".join(("" if i == 0 else sep if i in self.adjacent else "-") + str(v)
                       for i, v in enumerate(self.perm.values))


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
           adjacent: frozenset[int] = _NO_ADJACENCY, limit: int = _INF) -> int:
    """Occurrences of ``pat`` in ``host``, counting no further than ``limit``.

    ``adjacent`` uses the convention of :class:`VincularPattern`; it is empty
    for a classical pattern.  ``limit`` must be at least 1; ``limit=1``
    answers containment.
    """
    n = len(host)
    k = len(pat)
    if k > n:
        return 0
    kl = k - 1
    chosen = [0] * k
    total = 0

    def rec(j: int, start: int) -> bool:
        nonlocal total
        pj = pat[j]
        # Letter j tied to letter j - 1 must sit right after it in the host.
        hi = start + 1 if adjacent and j in adjacent else n - kl + j
        for i in range(start, hi):
            v = host[i]
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


def count_vincular(p: Permutation, vq: VincularPattern) -> int:
    """Occurrences of a vincular pattern, honoring its adjacency runs."""
    _check_host_size(len(p), len(vq.perm))
    return _count(p.values, vq.perm.values, vq.adjacent)


# ---------------------------------------------------------------------------
# Transitions


def _by_value(by_rank: _kinds.Step, size: int) -> _kinds.Step:
    """The value form ``step(state, w, used)`` of the rank form
    ``by_rank(state, r, m)`` of a transition at ``size``, carrying it as
    ``step.by_rank``: w is the unused value of rank r among the m unused."""
    full = (2 << size) - 2

    def step(state: int, w: int, used: int) -> Optional[int]:
        free = ~used & full
        return by_rank(state, (free & (1 << w) - 1).bit_count(), free.bit_count())

    step.by_rank = by_rank  # type: ignore[attr-defined]
    return step


# The hand-written transitions read a placed value by its gap, the number
# of unused values below it: the placed values below the unused value of
# rank r fill gaps 0..r, those above it gaps r + 1 up.  Placing rank r
# merges gaps r and r + 1 into gap r, where the placed value lands too.


def _avoid_2143(size: int) -> tuple[_kinds.Step, int]:
    """Transition that rejects the value completing a 2143.

    Appending u completes 2143 exactly when an earlier value c > u follows an
    inversion whose top lies below u.  So placing c forbids every unused
    value strictly between c and the least inversion top seen before c.  The
    state is the mask of the forbidden ranks, the gap T of that least top
    (m, the number of unused values, while no top has an unused value above
    it) and the mask of the nonempty gaps below T: only the least placed
    value above the new one can lower the top.  Every forbidden rank is at
    least T, so a rank r >= T leaves T and the gaps as they are, and a rank
    r < T shifts every forbidden rank down by one.
    """
    t_shift = size
    g_shift = size + size.bit_length()
    f_mask = (1 << t_shift) - 1
    t_mask = (1 << g_shift - t_shift) - 1

    def by_rank(state: int, r: int, m: int) -> Optional[int]:
        top = state >> t_shift & t_mask
        if top > r:
            gaps = state >> g_shift
            above = gaps >> r + 1
            if above:
                # The least placed value above r tops a new inversion.
                top = r + (above & -above).bit_length()
            top -= 1
            gaps = (gaps & (1 << r) - 1 | 1 << r) & (1 << top) - 1
            return (state & f_mask) >> 1 | top << t_shift | gaps << g_shift
        if state >> r & 1:
            return None
        forbid = state & f_mask | (1 << r) - (1 << top)
        return state >> t_shift << t_shift | forbid & (1 << r) - 1 | forbid >> r + 1 << r

    return _by_value(by_rank, size), size << t_shift


def _avoid_3421(size: int) -> tuple[_kinds.Step, int]:
    """Transition that rejects the value completing a 3421.

    The new element plays the final 1, so a completion needs an earlier 342
    (pattern 231) whose smallest value is above it.  The state holds the
    gaps of ``mv3``, the maximum of that smallest value over the 231
    occurrences so far, and of ``bpl``, the maximum lower value of an
    ascending pair, which is what a new 231 occurrence needs above its own
    bottom, beside the mask of the nonempty gaps above ``bpl``'s: only the
    greatest placed value below the new one can raise ``bpl``.  A gap of 0
    stands for no such value too, since nothing unused lies below either.
    """
    shift = size.bit_length()
    g_shift = 2 * shift
    mask = (1 << shift) - 1

    def by_rank(state: int, r: int, m: int) -> Optional[int]:
        mv3 = state & mask
        if r < mv3:
            return None
        bpl = state >> shift & mask
        gaps = state >> g_shift
        if r < bpl:
            # The new value ends a 231 below bpl; every nonempty gap is above r + 1.
            return r | bpl - 1 << shift | gaps >> 1 << g_shift
        # The greatest placed value below r is the lower end of a new ascent.
        below = gaps & (2 << r) - 1
        if below:
            bpl = below.bit_length() - 1
        return mv3 | bpl << shift | ((gaps >> r + 2 << r + 1 | 1 << r) & -(2 << bpl)) << g_shift

    return _by_value(by_rank, size), 0


@dataclass(slots=True)
class _Work:
    """Work counts of a generic transition: the successor states it
    computed (one per miss of its step memo), the moves of one occurrence
    it computed (one per miss of its move memo) and the states it interned
    (the empty prefix's state 0 not counted)."""

    successors: int = 0
    moves: int = 0
    states: int = 0


# ``make(size) -> (step, initial state)``: a transition for each size.
_StepMaker = Callable[[int], tuple[_kinds.Step, Optional[int]]]


def _avoid_classical(top: int, pats: Sequence[tuple[int, ...]],
                     target: int = 0, work: Optional[_Work] = None) -> _StepMaker:
    """``make``, whose ``make(size)`` for a size up to ``top`` is the
    transition that accepts a word with exactly ``target`` occurrences of
    ``pats`` in all; with the default target 0 it rejects the value that
    completes an occurrence of any of them.  ``work`` (if given) counts what
    the transitions compute.

    The state holds the number of occurrences so far and the live partial
    occurrences: the first j letters of a pattern matched by placed values,
    kept as (pattern, j, the rank among the unused values of each matched
    value).  The future tells two placed values apart only by the unused
    values between them, so the ranks are all it needs.  Sorted by value,
    the matched values cut the unused values into j + 1 gaps, and each gap
    must take the remaining letters whose values fall in it.  An occurrence
    is dead once such a gap holds fewer unused values than it must take, and
    is not kept; a rank that bounds no such gap is set to 0.  Each partial
    occurrence counts with its multiplicity, capped at one more than the
    occurrences still allowed, since completing it adds that many.  Once no
    more are allowed, only whether an occurrence completes matters, so an
    occurrence is also dropped when another one of the same pattern and j
    has every such gap containing its own (it is dominated).  The canonical
    multiset that remains is interned as a small int.  The last placement
    is rejected unless the count has reached the target, and so is the
    empty word of size 0 (its state is None) when the target is above 0.

    Zeroing the ranks that bound no such gap does two jobs: it merges states
    that differ only there, and it makes an occurrence a function of its
    shape and its box, its gaps that must take letters.  The box is kept as
    one mask, the ranks of gap g in field g of ``top + 1`` bits, so b
    dominates a when ``box_a & ~box_b`` is 0.  The dominance pruning relies
    on the second job: two distinct occurrences with equal boxes would each
    dominate the other, and both would be dropped.

    An occurrence one letter short completes when the placed value falls in
    the gap its last letter must take, an interval of ranks; so whether a
    placement completes too many occurrences depends only on the state and
    the rank r of the value.  Each state is interned with its reject mask,
    the ranks where more than the allowed number of occurrences close
    (counted with multiplicity), and the step refuses those ranks before
    anything else.  The move of one occurrence depends on its code and r
    alone: the number m of unused values only decides whether the top gap
    can still take its letters, so the move memo, one on (occurrence, r)
    for every m and size, keeps beside each occurrence it yields its floor,
    the least m that leaves room for them, and the successor drops the
    ones whose floor is above m before the dominance pruning.

    The step reads only the state, r and m, never the size, so one step
    memo on (state, r) per m serves every size, and each step carries that
    rank form as ``step.by_rank(state, r, m)``.  The steps of sizes below
    ``top`` keep every memo, since a larger size asks for them all again.
    The step of size ``top`` drops the memos of every m above the least it
    has stepped at: a layered DP, whose m only falls, never asks for them
    again.  The memos, the interned states and their reject masks live as
    long as ``make`` or any step it made.
    """
    # A shape is a (pattern, j) pair with j < len(pattern), recorded as
    # (j, the gap the next letter falls in, the shape after placing it or
    # None when that completes the pattern, the (gap, letters) pairs of the
    # gaps that must take letters, the ranks that bound none of them).
    shapes: list[tuple[int, int, Optional[int], list[tuple[int, int]], list[int]]] = []
    empties = []
    for pat in pats:
        empties.append(len(shapes))
        for j in range(len(pat)):
            placed = sorted(pat[:j])
            gaps = [0] * (j + 1)
            for v in pat[j:]:
                gaps[sum(u < v for u in placed)] += 1
            shapes.append((j, sum(u < pat[j] for u in placed),
                           len(shapes) + 1 if j + 1 < len(pat) else None,
                           [(g, c) for g, c in enumerate(gaps) if c],
                           [i for i in range(j) if not gaps[i] and not gaps[i + 1]]))
    # An occurrence packs its shape into the low ``sbits`` bits and its
    # ranks, in increasing value order, into ``rbits`` bits each above; the
    # empty occurrence of a pattern is its j = 0 shape alone.  A state packs
    # the count into the low ``nbits`` bits and its occurrences, one copy
    # per unit of multiplicity, in ``cbits`` bits each above, in sorted
    # order; none is 0, since only occurrences with j >= 1 are kept and
    # shape 0 has j = 0.
    work = work or _Work()
    sbits = len(shapes).bit_length()
    rbits = top.bit_length()
    smask = (1 << sbits) - 1
    rmask = (1 << rbits) - 1
    cbits = sbits + rbits * max(j for j, *_ in shapes)
    cmask = (1 << cbits) - 1
    nbits = target.bit_length()
    nmask = (1 << nbits) - 1
    boxes: dict[int, int] = {}  # the box mask of each code
    moves: dict[int, tuple[tuple[int, int], ...]] = {}  # on code * top + r
    # memos[m]: the step memo for m unused values.
    memos: list[Optional[dict[int, int]]] = [None] * (top + 1)

    def box(shape: int, ranks: list[int]) -> Optional[tuple[int, int]]:
        """The box mask of an occurrence (the ranks [lo, hi) of each gap g
        that must take letters, in field g of ``top + 1`` bits; the top
        gap's hi is ``top``) and its floor.  None when a gap below the top
        one holds fewer unused values than it must take."""
        needs = shapes[shape][3]
        mask = floor = 0
        for g, need in needs:
            lo = ranks[g - 1] if g else 0
            if g == len(ranks):
                # Placing a value at m leaves m - 1 unused, m - 1 - lo of them here.
                floor = lo + need + 1
                hi = top
            else:
                hi = ranks[g]
                if hi - lo < need:
                    return None
            mask |= ((1 << hi) - (1 << lo)) << (top + 1) * g
        return mask, floor

    def rejecting(count: int, codes: list[int]) -> int:
        """The reject mask of the state of ``count`` and the nonempty
        occurrences ``codes``: bit r is set when placing the value of rank r
        completes more occurrences than the target still allows (never when
        the state holds no more occurrences than that)."""
        if target - count >= len(empties) + len(codes):
            return 0
        # closed[i]: the ranks where more than i of the occurrences close.
        closed = [0] * (target - count + 1)
        for code in empties + codes:
            _, g, after, _, _ = shapes[code & smask]
            if after is None:  # one letter short: it closes in its one gap, g
                mask = boxes[code] >> (top + 1) * g
                for i in range(len(closed) - 1, 0, -1):
                    closed[i] |= closed[i - 1] & mask
                closed[0] |= mask
        return closed[-1]

    for code in empties:
        boxes[code] = box(code, [])[0]
    ids: dict[int, int] = {0: 0}
    states: list[int] = [0]
    rejects: list[int] = [rejecting(0, [])]

    def move(code: int, r: int) -> tuple[tuple[int, int], ...]:
        """The occurrences one occurrence leaves after placing the unused
        value of rank r, each with its floor: itself, and its extension when
        the value fits its next letter, or (0, 0) when the value completes
        it.  Those with a gap below the top one too small are dead and left
        out; the successor checks the top gap by the floor."""
        work.moves += 1
        shape = code & smask
        j, g, after, _, _ = shapes[shape]
        ranks = [code >> (sbits + rbits * i) & rmask for i in range(j)]
        shifted = [x - (x > r) for x in ranks]
        grown = [(shape, shifted)] if shifted else []
        out = []
        if (not g or ranks[g - 1] <= r) and (g == j or r < ranks[g]):
            if after is None:
                out.append((0, 0))
            else:
                grown.append((after, shifted[:g] + [r] + shifted[g:]))
        for new_shape, new_ranks in grown:
            for i in shapes[new_shape][-1]:  # the idle ranks
                new_ranks[i] = 0
            b = box(new_shape, new_ranks)
            if b is not None:
                new = new_shape
                for i, x in enumerate(new_ranks):
                    new |= x << (sbits + rbits * i)
                boxes[new] = b[0]
                out.append((new, b[1]))
        return tuple(out)

    def successor(state: int, r: int, m: int) -> int:
        """Interned state after placing the unused value of rank r among m,
        which the state's reject mask allows, or -1 when the word ends short
        of the target."""
        work.successors += 1
        packed = states[state]
        count = packed & nmask
        packed >>= nbits
        codes = list(empties)
        while packed:
            codes.append(packed & cmask)
            packed >>= cbits
        found: dict[int, int] = {}
        for code in codes:
            key = code * top + r
            got = moves.get(key)
            if got is None:
                got = moves[key] = move(code, r)
            for c, floor in got:
                if not c:
                    count += 1
                elif floor <= m:
                    found[c] = found.get(c, 0) + 1
        if m == 1 and count < target:
            return -1
        if count < target:
            cap = target - count + 1
            kept = [c for c, k in found.items() for _ in range(min(k, cap))]
        else:
            groups: dict[int, list[int]] = {}
            for c in found:
                groups.setdefault(c & smask, []).append(c)
            kept = []
            for group in groups.values():
                for a in group:
                    box_a = boxes[a]
                    for b in group:
                        if b != a and not box_a & ~boxes[b]:
                            break  # no rank of a's box lies outside b's: a is dominated
                    else:
                        kept.append(a)
        key = 0
        for code in sorted(kept, reverse=True):
            key = key << cbits | code
        key = key << nbits | count
        new = ids.get(key)
        if new is None:
            new = ids[key] = len(states)
            states.append(key)
            rejects.append(rejecting(count, kept))
            work.states += 1
        return new

    def make(size: int) -> tuple[_kinds.Step, Optional[int]]:
        low = size + 1 if size == top else 0  # the least m stepped at, if this size drops

        def by_rank(state: int, r: int, m: int) -> Optional[int]:
            nonlocal low
            if rejects[state] >> r & 1:
                return None
            if m < low:
                memos[m + 1:] = [None] * (top - m)
                low = m
            memo = memos[m]
            if memo is None:
                memo = memos[m] = {}
            key = state * top + r
            new = memo.get(key)
            if new is None:
                new = memo[key] = successor(state, r, m)
            return new if new >= 0 else None

        return _by_value(by_rank, size), None if target and not size else 0

    return make


_TRANSITIONS = {
    (2, 1, 4, 3): _avoid_2143,
    (3, 4, 2, 1): _avoid_3421,
}


def _step_maker(forbidden: frozenset[ClassicalPattern], target: Optional[int],
                sizes: Sequence[int], work: Optional[_Work] = None) -> _StepMaker:
    """``make`` for the sizes of a run, with the ``forbidden`` patterns and
    ``target`` of an :class:`AvoidanceQuery`: the transition of 2143 or 3421
    alone in plain mode, else one generic transition for every size."""
    pats = sorted(q.perm.values for q in forbidden)
    make = _TRANSITIONS.get(pats[0]) if len(pats) == 1 and target is None else None
    return make or _avoid_classical(max(sizes, default=0), pats, target or 0, work)


def _vincular_stat(stat: VincularPattern, size: int) -> _kinds.Stat:
    """``add(used, prev, w)`` for a length-3 statistic with one adjacency.

    The adjacent pair is (prev, w).  For ``x-yz`` the free letter comes
    earlier, so placing w completes one occurrence per placed value in the
    free letter's range; for ``xy-z`` it comes later, and every unused value
    in its range will complete one, so they are all counted when the pair
    forms.  Those are counted by ranks alone, so an ``xy-z`` statistic
    carries the rank form ``add.by_rank(j, r, m)`` for prev in gap j (j
    unused values below it) and w of rank r among the m unused values; the
    caller adds nothing for the first value.  Any other statistic raises
    ``ValueError``.
    """
    if len(stat.perm) != 3 or len(stat.adjacent) != 1:
        raise ValueError(f"statistic {stat} has no DP form: it needs length 3 "
                         f"and one adjacency, like 2-31")
    a, b, c = stat.perm.values
    if 2 in stat.adjacent:
        free, x, y, flip = a, b, c, 0  # pool: the placed values
    else:
        free, x, y, flip = c, a, b, -1  # pool: the unused values (~used)
    ascent = x < y
    rank = (free > x) + (free > y)  # 0 below the pair, 1 between, 2 above
    top = size + 1

    def add(used: int, prev: int, w: int) -> int:
        if not prev or (prev < w) != ascent:
            return 0
        bounds = (0, prev, w, top) if prev < w else (0, w, prev, top)
        return ((used ^ flip) & ((1 << bounds[rank + 1]) - (2 << bounds[rank]))).bit_count()

    def by_rank(j: int, r: int, m: int) -> int:
        # The unused values below, between and above the pair, w left out.
        if (r >= j) != ascent:
            return 0
        return (j, r - j, m - 1 - r)[rank] if ascent else (r, j - 1 - r, m - j)[rank]

    if flip:  # xy-z: its pool, the unused values, is counted by ranks alone
        add.by_rank = by_rank  # type: ignore[attr-defined]
    return add


# ---------------------------------------------------------------------------
# Pruned generation and counting


def _runs(consume: Callable, kind: DumontKind, forbidden: frozenset[ClassicalPattern],
          target: Optional[int], sizes: Sequence[int], work: Optional[_Work] = None) -> Iterator:
    """``consume(kind, size, step, state)`` (the walk or the layered DP) for
    each of ``sizes`` in turn, each when it is asked for, with that size's
    transition from one :func:`_step_maker`, so the sizes share the generic
    transition's memos.  The patterns, the target and every size are checked
    before the first transition is made."""
    AvoidanceQuery(kind, 0, forbidden, target)  # checks the patterns and the target
    for size in sizes:
        _kinds._require_even(size)
    make = _step_maker(forbidden, target, sizes, work)
    for size in sizes:
        yield consume(kind, size, *make(size))


def _run(consume: Callable, query: AvoidanceQuery):
    """``consume`` of the query at its own size: a :func:`_runs` of one size."""
    return next(_runs(consume, query.kind, query.forbidden, query.occurrence_target, [query.size]))


def generate_avoiders(query: AvoidanceQuery) -> Iterator[Permutation]:
    """Members of the query's set (avoiders, or exact-occurrence members),
    lexicographically.  An odd or negative size raises here, before the
    first member is asked for."""
    return _kinds._permutations(_run(_kinds._walk, query))


def count_avoiders(query: AvoidanceQuery, *, deadline: Optional[float] = None) -> int:
    """Cardinality of :func:`generate_avoiders` without materialising it.

    ``BudgetExceeded`` is raised once ``time.monotonic()`` passes
    ``deadline`` (checked by :func:`dumont.kinds._count_layers`).  An odd or
    negative size raises before a transition is made.
    """
    return _run(partial(_kinds._count_layers, deadline=deadline), query)


def count_exact_occurrences(kind: DumontKind, size: int, q: ClassicalPattern,
                            r: int) -> int:
    """Members of the kind with exactly ``r`` occurrences of the pattern."""
    return count_avoiders(AvoidanceQuery(kind, size, frozenset([q]), r))


def vincular_histogram(kind: DumontKind, size: int, forbidden: ClassicalPattern,
                       stat: VincularPattern, *,
                       deadline: Optional[float] = None) -> dict[int, int]:
    """Distribution of a vincular statistic over a pruned avoider set.

    Returns {k: number of members of the kind avoiding ``forbidden`` whose
    occurrence count of ``stat`` equals k}, counted on the layered DP, so
    ``stat`` must have length 3 and one adjacency (``ValueError`` otherwise).
    ``deadline`` is as for :func:`count_avoiders`.
    """
    count = partial(_kinds._count_layers, stat=_vincular_stat(stat, size), deadline=deadline)
    packed = _run(count, AvoidanceQuery(kind, size, frozenset([forbidden])))
    return _kinds._unpack_histogram(packed, size)
