"""Dumont permutations of the four kinds: membership, generation, counting.

Kind 1: every even entry is immediately followed by a smaller entry; every
odd entry is immediately followed by a larger entry or ends the permutation.

Kind 2: every even position is a deficiency, every odd position is a fixed
point or an excedance.

Kind 3: every descent goes from an even value to an even value.

Kind 4: every deficiency is an even value in an even position.

Only even sizes are meaningful: an odd-size Dumont permutation is just an
even-size one with the fixed point 2n+1 appended, so odd sizes are rejected.
All four kinds of size 2n are counted by the Genocchi number G(2n+2)
(see :mod:`dumont.gfseries`).

Each kind's rules are stated as a mask of the values that may come next
(:func:`_candidates`) and, for kinds 1 and 3, again as a mask of ranks
among the unused values (:func:`_rank_candidates`); both refuse a value
whose subtree they can see is dead.  Generation is one walk,
:func:`_walk`.  Counting is one layered DP, :func:`_count_layers`, whose
keys hold the placed values or, for kinds 1 and 3, their ranks
(:func:`_count_ranks`).  :mod:`dumont.patterns` plugs its transitions into
both, and the plain walk filtered by a matcher is the oracle they are
tested against.  Every transition there reads ranks alone, so every
pattern count of kinds 1 and 3 folds its keys; so does a histogram of a
statistic that counts unused values (13-2), while one that counts placed
values (2-31) keeps value keys.
"""

from __future__ import annotations

import time
from enum import Enum
from itertools import islice
from math import factorial
from typing import Callable, Iterable, Iterator, Optional

from .permcore import Permutation


class BudgetExceeded(Exception):
    """Raised when a count passes its deadline before it is done."""


class DumontKind(Enum):
    D1 = 1
    D2 = 2
    D3 = 3
    D4 = 4


def _require_even(size: int) -> None:
    if size < 0 or size % 2 != 0:
        raise ValueError(f"odd size: {size}" if size % 2 else f"negative size: {size}")


def is_dumont(kind: DumontKind, p: Permutation) -> bool:
    """Membership test for an even-size permutation; odd sizes raise.  A
    value belongs when its bit is set in :func:`_candidates` after the
    values before it."""
    n = len(p)
    _require_even(n)
    used = prev = 0
    for pos, v in enumerate(p.values, 1):
        if not _candidates(kind.value, pos, n, prev, used) >> v & 1:
            return False
        used |= 1 << v
        prev = v
    return True


# ``used`` is a bitmask with bit v set when value v is placed, and ``prev``
# the last value placed (0 before the first).  The candidates for the next
# position are a mask of the same form; taking its set bits from the lowest
# up makes the depth-first emission order lexicographic.


def _candidates(kind_id: int, pos: int, size: int, prev: int, used: int) -> int:
    """Mask of the admissible values for the next position: bit v is set
    when value v may come next.  ``(1 << k) - 1`` holds the values below k
    and ``-(1 << k)`` those from k up; every rule is intersected with
    ``free`` (the unused values 1..size), so such a range may run past
    either end."""
    free = ~used & ((2 << size) - 2)
    if kind_id % 2 == 0:
        # D2 and D4: an odd position takes a value at least the position, so
        # the last odd position needs size - 1 or size unused, and the last
        # two need two of size - 3 .. size.  Each odd position from pos up
        # gives such a bound, but the rest cut little more for a loop per
        # call (CHANGES.md, "Dead-subtree rules for every kind").
        if (pos < size and not free >> size - 1
                or pos < size - 2 and (free >> size - 3).bit_count() < 2):
            return 0
        if kind_id == 2:
            return free & ((1 << pos) - 1 if pos % 2 == 0 else -(1 << pos))
        # D4.  An odd value is never a deficiency, so the value pos goes to
        # odd position pos now or its subtree is dead, and every odd value
        # below pos is already placed.  ``evens`` has bits 0, 2, ... below
        # pos rounded down to even.
        evens = ((1 << (pos & ~1)) - 1) // 3
        if pos % 2 and free >> pos & 1:
            return 1 << pos
        return free & (-(1 << pos) | (evens if pos % 2 == 0 else 0))
    # D1 and D3: an odd entry is followed by a larger entry or ends the
    # permutation, so an odd largest unused value may only come last.
    # ``top`` is the largest unused value.
    top = free.bit_length() - 1
    if top % 2 and free & free - 1:
        free ^= 1 << top
    if kind_id == 1:
        # The smallest unused value stays odd, since an even one could never
        # be followed by a smaller entry.  So an even entry always has a
        # smaller one left to fall to (and is never last), and the smallest
        # unused value goes only when the next smallest is odd (or past size).
        # ``low`` is the bit of the smallest unused value; the lowest bit of
        # ``rest`` has odd length when the next smallest is even.
        low = free & -free
        rest = free ^ low
        if (rest & -rest).bit_length() % 2:
            free = rest
        return free & ((1 << prev) - 1 if prev and prev % 2 == 0 else -(2 << prev))
    # D3.  A descent is allowed only from an even value onto an even value,
    # so an odd smallest unused value must come next: whatever came before
    # it later would be larger.
    low = free & -free
    if not low.bit_length() % 2:
        free = low
    return free & (-(2 << prev) | (((1 << prev) - 1) // 3 if prev % 2 == 0 else 0))


def _rank_candidates(kind_id: int, word: int, j: int, odd: int) -> int:
    """Mask of the ranks that may come next for kind 1 or 3: bit r is set
    when the unused value of rank r (0 for the smallest) may.  Bit r of
    ``word`` is the parity of that value, below a sentinel bit at m, the
    number of unused values.  The last value placed has j unused values
    below it and is odd when ``odd`` is 1; the empty prefix reads as odd
    with j = 0, so any value may start it."""
    m = word.bit_length() - 1
    ranks = (1 << m) - 1
    # Kind 1 follows an odd entry by a larger one or ends there, and kind 3
    # never descends from an odd entry, so an odd largest unused value can
    # only come last.
    if m > 1 and word >> m - 1 & 1:
        ranks ^= 1 << m - 1
    if kind_id == 1:
        # An even entry falls to a smaller one, so it is never last and the
        # smallest unused value must stay odd: it goes only when the next
        # one up is odd (or there is none).
        if m > 1 and not word & 2:
            ranks ^= 1
        return ranks & (-(1 << j) if odd else (1 << j) - 1)
    # Kind 3 descends only from an even value onto an even value, so an odd
    # smallest unused value comes next: anything placed before it would
    # descend onto it.
    if word & 1:
        ranks &= 1
    return ranks & (-(1 << j) | (0 if odd else (1 << j) - 1 & ~word))


# A transition ``step(state, w, used) -> state | None`` summarises a prefix
# in a small non-negative int and rejects (None) a placement that leaves a
# dead prefix: one that, or an unused value placed next, completes too many
# occurrences, so neither the walk nor the DP expands it; ``used`` is the
# mask of the values placed before w.  The state of the empty prefix is
# None when the transition rejects even that (an exact occurrence count
# above 0 at size 0, or a length-1 pattern avoided at a size above 0).
# A transition that reads only ranks among the unused values carries its
# rank form as the attribute ``by_rank(state, r, m) -> state | None``: the
# same answer for the unused value of rank r among m, which lets the DP of
# kinds 1 and 3 fold its keys (:func:`_count_ranks`).
# An occurrence statistic ``add(used, prev, w) -> int`` gives the number of
# occurrences that placing w right after prev adds to the final count; one
# that reads only ranks carries ``add.by_rank(j, r, m) -> int`` for prev
# with j unused values below it, which the first value never asks.
Step = Callable[[int, int, int], Optional[int]]
Stat = Callable[[int, int, int], int]


def _key_layout(kind_id: int, size: int, stat: Optional[Stat] = None) -> tuple[bool, int, int]:
    """How a prefix packs into a value key: the used mask in bits 0..size,
    the last value from bit ``p_shift`` (kept only when the kind's rules or
    the statistic read it), the state from bit ``s_shift``.  Returns
    ``(keep_prev, p_shift, s_shift)``."""
    return kind_id in (1, 3) or stat is not None, size + 1, size + 1 + size.bit_length()


# Keys with at most this many positions left store their suffixes, not a
# mask (see :func:`_walk`); 0 stores masks alone.  A deeper cut lists faster
# but holds more suffixes; the measurements behind 4 are in the CHANGES.md
# entry "Listings as text blocks".
_TAIL = 4

# The suffixes of a block of the walk; a leaf is the one empty suffix.
_Tails = tuple[tuple[int, ...], ...]
_LEAF: _Tails = ((),)


def _walk(kind: DumontKind, size: int, step: Optional[Step] = None,
          state: Optional[int] = 0) -> Iterator[tuple[list[int], _Tails]]:
    """Yield every member, in lexicographic order, whose prefixes the
    transition ``step`` accepts throughout, in blocks ``(prefix, tails)``:
    the members of a block are ``prefix`` followed by each suffix in
    ``tails``, in order.

    ``state`` is the transition's summary of the empty prefix; None yields
    nothing.  Each key (the used values, the state and, on kinds 1 and 3
    alone, the last value) is expanded by :func:`_candidates` once.  A key
    with more than ``_TAIL`` positions left stores the mask of its next
    values that reached a leaf and, when it comes up again, walks that mask
    in place of the candidates.  A key with at most ``_TAIL`` positions left
    stores the tuple of its suffixes (each the tuple of values that
    completes it to a member), and when it comes up again the walk yields
    the key's prefix with that tuple as one block.  A leaf is the block
    ``(member, _LEAF)``.  A transition's rank form, when it has one, is
    called directly.  The same stored tuple comes back for every prefix
    that replays its key, so a consumer may cache what it derives from a
    ``tails`` by identity while the walk runs.  The yielded prefix is the
    walk's own list: read or copy it before advancing the iterator.
    """
    _require_even(size)
    kind_id = kind.value
    if state is None:
        return
    h: list[int] = []
    used = 0
    if not size:
        yield h, _LEAF
        return
    # Keys are packed by :func:`_key_layout`.  ``live`` maps each key the
    # walk has left to the mask of its next values that reached a leaf (0
    # marks a key with no member below), or, from depth ``cut`` on, to the
    # tuple of its suffixes (empty for no member).
    keep_prev, p_shift, s_shift = _key_layout(kind_id, size)
    by_rank = getattr(step, "by_rank", None)
    full = (2 << size) - 2
    cut = size - _TAIL
    live: dict[int, int | _Tails] = {}
    new = 0
    # ``todo`` is the mask of next values still to try at the key being
    # walked, ``rec`` the mask of those that reached a leaf and ``acc`` the
    # list of its suffixes found so far (None above depth ``cut`` and at the
    # empty prefix, which is never stored).
    # ``stack`` holds per open position the suspended ``todo``, ``rec``,
    # state and ``acc`` of the shallower key, and the key entered when it
    # was expanded afresh (None when it replays a stored mask).
    todo = _candidates(kind_id, 1, size, 0, 0)
    rec = 0
    acc: Optional[list[tuple[int, ...]]] = None
    stack: list[tuple[int, int, int, Optional[list], Optional[int]]] = []
    while True:
        while todo:
            bit = todo & -todo
            todo ^= bit
            w = bit.bit_length() - 1
            if step is not None:
                new = (step(state, w, used) if by_rank is None else
                       by_rank(state, (~used & full & bit - 1).bit_count(), size - len(h)))
                if new is None:
                    continue
            h.append(w)
            d = len(h)
            used |= bit
            # A leaf replays the one empty suffix (cut <= size).
            nexts = _LEAF if d == size else live.get(
                key := used | (w << p_shift if keep_prev else 0) | new << s_shift)
            # Replay a stored block, or skip a dead key above the cut.
            if nexts is not None and (d >= cut or not nexts):
                if nexts:
                    yield h, nexts
                    rec |= bit
                    if acc is not None:
                        acc += [(w,) + t for t in nexts]
                used ^= bit
                h.pop()
                continue
            stack.append((todo, rec, state, acc, key if nexts is None else None))
            state = new
            todo = _candidates(kind_id, d + 1, size, w, used) if nexts is None else nexts
            rec = 0
            acc = [] if d >= cut else None
            break
        else:
            if not stack:
                return
            done = rec
            tails = acc
            todo, rec, state, acc, key = stack.pop()
            w = h.pop()
            bit = 1 << w
            used ^= bit
            if tails is not None:
                live[key] = tuple(tails)
                if acc is not None:
                    acc += [(w,) + t for t in tails]
            elif key is not None:
                live[key] = done
            if done:
                rec |= bit


def _permutations(blocks: Iterable[tuple[list[int], _Tails]]) -> Iterator[Permutation]:
    """The members of the walk's blocks, one :class:`Permutation` each."""
    for prefix, tails in blocks:
        head = tuple(prefix)
        for t in tails:
            yield Permutation._wrap(head + t)


def generate(kind: DumontKind, size: int) -> Iterator[Permutation]:
    """Iterate over the members of the kind in lexicographic order.  An odd
    or negative size raises here, before the first member is asked for."""
    _require_even(size)
    return _permutations(_walk(kind, size))


def count(kind: DumontKind, size: int) -> int:
    """Number of Dumont permutations of the kind and size (a Genocchi number)."""
    return _count_layers(kind, size)


def _coefficient_bits(size: int) -> int:
    """Bits per coefficient of a histogram packed into one int by
    :func:`_count_layers`: no count over a set of size ``size`` reaches
    ``2 ** _coefficient_bits(size)``."""
    return factorial(size).bit_length()


def _unpack_histogram(packed: int, size: int) -> dict[int, int]:
    """{k: count} of a histogram packed by :func:`_count_layers`, without
    the zero counts."""
    width = _coefficient_bits(size)
    coeff = (1 << width) - 1
    hist: dict[int, int] = {}
    k = 0
    while packed:
        if packed & coeff:
            hist[k] = packed & coeff
        packed >>= width
        k += 1
    return hist


# Keys of a DP layer expanded between two deadline checks: a check costs
# little beside them, and a large layer takes seconds.
_CHUNK = 4096


def _chunks(layer: dict[int, int],
            deadline: Optional[float]) -> Iterator[Iterator[tuple[int, int]]]:
    """The items of a DP layer in runs of ``_CHUNK``.  Before each run it
    raises ``BudgetExceeded`` once ``time.monotonic()`` has passed
    ``deadline`` (None never passes)."""
    items = iter(layer.items())
    for _ in range(0, len(layer), _CHUNK):
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceeded("deadline passed")
        yield islice(items, _CHUNK)


def _count_layers(kind: DumontKind, size: int, step: Optional[Step] = None,
                  state: Optional[int] = 0, stat: Optional[Stat] = None,
                  deadline: Optional[float] = None) -> int:
    """Count the members by a layered forward DP.

    Without ``stat`` the result is the number of members whose prefixes
    ``step`` accepts throughout.  With ``stat`` it is their histogram,
    packed: the number of members with k occurrences sits at bits
    ``_coefficient_bits(size) * k``, so adding two histograms is ``+`` and
    adding a occurrences to all of one is a shift.  ``state`` is the summary
    of the empty prefix; None counts nothing.  ``deadline`` is checked by
    :func:`_chunks` before each ``_CHUNK`` keys of a layer.

    Kinds 1 and 3 fold their keys (:func:`_count_ranks`) when ``step`` and
    ``stat`` are each None or carry their rank form ``by_rank``.  Otherwise
    a key holds the used values, and a transition's rank form is called with
    r and m counted from them, m once per key."""
    _require_even(size)
    kind_id = kind.value
    if state is None:
        return 0
    by_rank = getattr(step, "by_rank", None)
    stat_by_rank = getattr(stat, "by_rank", None)
    if kind_id % 2 and (step is None or by_rank) and (stat is None or stat_by_rank):
        return _count_ranks(kind_id, size, by_rank, state, deadline, stat_by_rank)
    width = _coefficient_bits(size)
    keep_prev, p_shift, s_shift = _key_layout(kind_id, size, stat)
    used_mask = (1 << p_shift) - 1
    prev_mask = (1 << size.bit_length()) - 1
    full = (2 << size) - 2
    layer = {state << s_shift: 1}
    for pos in range(1, size + 1):
        nxt: dict[int, int] = {}
        get = nxt.get
        for chunk in _chunks(layer, deadline):
            for key, weight in chunk:
                used = key & used_mask
                prev = key >> p_shift & prev_mask
                state = key >> s_shift
                free = ~used & full
                m = free.bit_count()
                todo = _candidates(kind_id, pos, size, prev, used)
                while todo:
                    bit = todo & -todo
                    todo ^= bit
                    w = bit.bit_length() - 1
                    if step is None:
                        new = 0
                    else:
                        new = (step(state, w, used) if by_rank is None
                               else by_rank(state, (free & bit - 1).bit_count(), m))
                        if new is None:
                            continue
                    out = weight
                    if stat is not None:
                        out <<= width * stat(used, prev, w)
                    k = used | bit | (w << p_shift if keep_prev else 0) | new << s_shift
                    nxt[k] = get(k, 0) + out
        layer = nxt
    return sum(layer.values())


def _count_ranks(kind_id: int, size: int, by_rank: Optional[Step], state: int,
                 deadline: Optional[float], stat: Optional[Stat] = None) -> int:
    """:func:`_count_layers` of kind 1 or 3 on folded keys, with the rank
    forms ``by_rank(state, r, m)`` of a transition and ``stat(j, r, m)`` of
    a statistic, each or both None.

    A key holds the word of :func:`_rank_candidates` (the parities of the
    unused values in increasing order below a sentinel bit) in bits
    0..size, then the last value's parity and, above it, the number j of
    unused values below the last value, then the state of ``by_rank``
    (0 with no transition).  Placing the value of rank r deletes bit r
    from the word, and r is the next key's j.
    """
    j_shift = size + 1
    s_shift = j_shift + 1 + size.bit_length()
    word_mask = (1 << j_shift) - 1
    j_mask = (1 << s_shift - j_shift) - 1
    # The empty prefix: the values 1..size, odd at the even ranks, and no
    # last value, which reads as odd with j = 0.
    layer = {1 << size | ((1 << size) - 1) // 3 | 1 << j_shift | state << s_shift: 1}
    width = _coefficient_bits(size)
    for pos in range(size):
        nxt: dict[int, int] = {}
        get = nxt.get
        for chunk in _chunks(layer, deadline):
            for key, weight in chunk:
                word = key & word_mask
                last = key >> j_shift & j_mask
                state = key >> s_shift
                m = word.bit_length() - 1
                todo = _rank_candidates(kind_id, word, last >> 1, last & 1)
                while todo:
                    bit = todo & -todo
                    todo ^= bit
                    r = bit.bit_length() - 1
                    if by_rank is None:
                        new = 0
                    else:
                        new = by_rank(state, r, m)
                        if new is None:
                            continue
                    out = weight
                    if stat is not None and pos:
                        out <<= width * stat(last >> 1, r, m)
                    k = ((word & bit - 1 | word >> r + 1 << r) | (r << 1 | word >> r & 1) << j_shift
                         | new << s_shift)
                    nxt[k] = get(k, 0) + out
        layer = nxt
    return sum(layer.values())
