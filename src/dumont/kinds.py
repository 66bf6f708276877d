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

Generation runs through one walk, :func:`_walk`: a position-by-position
backtracking search that emits members in lexicographic order.  Prefix
pruning applies each kind's constraints as soon as they become checkable,
but a subtree can still hold no member.  What lies below a prefix depends
only on its key (see below), so the walk expands each key once, stores the
next values that reached a member, and replays them when the key comes up
again: it never re-enters an empty subtree, and listing costs about the
number of distinct keys plus the output.

Pattern queries plug in a transition ``step(state, w, used) -> state |
None`` that summarises the prefix in a small int and rejects a placement
the summary rules out; the walk keeps its state in the key.
:func:`generate` walks with no transition, and that plain walk filtered
by a matcher is the oracle the pattern queries are tested against.

Counting does not need the order of the walk, only how many leaves lie
below each prefix, and that depends on the prefix only through a small
key: the set of placed values, the last value (for kinds 1 and 3, whose
rules read it) and the state of the transition.  :func:`_count_layers`
moves a dict from packed keys to weights forward one position at a time,
so prefixes with the same key are counted once; only two layers are ever
held, and a deadline is checked before each layer.  :func:`count` runs it
with no transition; every avoider count, every exact-occurrence count and
the vincular histograms of :mod:`dumont.patterns` plug a pattern
transition (and an occurrence statistic) into it.
"""

from __future__ import annotations

import time
from enum import Enum
from math import factorial
from typing import Callable, Iterator, Optional, Sequence

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
    """Membership test for an even-size permutation; odd sizes raise."""
    n = len(p)
    _require_even(n)
    vals = p.values
    if kind is DumontKind.D1:
        for i, v in enumerate(vals):
            if v % 2 == 0:
                if i + 1 == n or vals[i + 1] > v:
                    return False
            else:
                if i + 1 < n and vals[i + 1] < v:
                    return False
        return True
    if kind is DumontKind.D2:
        for i, v in enumerate(vals):
            pos = i + 1
            if pos % 2 == 0:
                if v >= pos:
                    return False
            elif v < pos:
                return False
        return True
    if kind is DumontKind.D3:
        for i in range(n - 1):
            if vals[i] > vals[i + 1] and (vals[i] % 2 or vals[i + 1] % 2):
                return False
        return True
    # D4: deficiencies must be even values in even positions.
    for i, v in enumerate(vals):
        pos = i + 1
        if v < pos and (pos % 2 or v % 2):
            return False
    return True


# In the walk below, ``h`` is the list of already placed values (the prefix,
# positions 1..len(h)) and ``used`` a bitmask with bit v set when value v is
# placed.  Candidates for the next position are produced in increasing order,
# which makes the depth-first emission order lexicographic.

_ODD_BITS = [0] * 32
for _v in range(1, 32, 2):
    for _s in range(_v, 32):
        _ODD_BITS[_s] |= 1 << _v
_ODD_MASK = _ODD_BITS[31]


def _candidates(kind_id: int, pos: int, size: int, prev: int, used: int) -> list[int]:
    """Admissible values for the next position, in increasing order."""
    out = []
    if kind_id == 1:
        if pos == 1:
            lo, hi = 1, size
        elif prev % 2 == 0:
            lo, hi = 1, prev - 1
        else:
            lo, hi = prev + 1, size
        last = pos == size
        below_mask = ~used
        for w in range(lo, hi + 1):
            if used >> w & 1:
                continue
            if w % 2 == 0:
                # An even entry needs a smaller entry after it.
                if last or not (below_mask & ((1 << w) - 2)):
                    continue
            out.append(w)
    elif kind_id == 2:
        if pos % 2 == 0:
            lo, hi = 1, pos - 1
        else:
            lo, hi = pos, size
        for w in range(lo, hi + 1):
            if not (used >> w & 1):
                out.append(w)
    elif kind_id == 3:
        if pos > 1 and prev % 2 == 0:
            # Descent allowed only onto an even value.
            for w in range(2, prev, 2):
                if not (used >> w & 1):
                    out.append(w)
        lo = 1 if pos == 1 else prev + 1
        for w in range(lo, size + 1):
            if not (used >> w & 1):
                out.append(w)
    else:
        # D4.  Any odd value still unplaced below the current position could
        # only land as an odd deficiency later, so the subtree is dead.
        if (~used) & _odd_below(pos):
            return out
        if pos % 2 == 0:
            for w in range(2, pos, 2):
                if not (used >> w & 1):
                    out.append(w)
        for w in range(pos, size + 1):
            if not (used >> w & 1):
                out.append(w)
    return out


def _odd_below(pos: int) -> int:
    if pos - 1 < 32:
        return _ODD_BITS[pos - 1]
    m = _ODD_MASK
    for v in range(33, pos, 2):
        m |= 1 << v
    return m


# A transition ``step(state, w, used) -> state | None`` summarises a prefix
# in a small non-negative int and rejects (None) a placement that the
# summary rules out; ``used`` is the mask of the values placed before w.
# The state of the empty prefix is None when the transition rejects even
# that (an exact occurrence count above 0 at size 0).
# An occurrence statistic ``add(used, prev, w) -> int`` gives the number of
# occurrences that placing w right after prev adds to the final count.
Step = Callable[[int, int, int], Optional[int]]
Stat = Callable[[int, int, int], int]


def _walk(kind: DumontKind, size: int, step: Optional[Step] = None,
          state: Optional[int] = 0) -> Iterator[list[int]]:
    """Yield every member, in lexicographic order, whose prefixes the
    transition ``step`` accepts throughout.

    ``state`` is the transition's summary of the empty prefix; None yields
    nothing.  Each key (used values, last value, state) is expanded by
    :func:`_candidates` once; when it comes up again, the walk replays the
    next values that reached a leaf.  The yielded list is the walk's own
    state: read or copy it before advancing the iterator.
    """
    _require_even(size)
    kind_id = kind.value
    if state is None:
        return
    h: list[int] = []
    used = 0
    if not size:
        yield h
        return
    # Keys are packed as in :func:`_count_layers`.  ``live`` maps each key
    # the walk has left to its next values that reached a leaf, as bytes (a
    # tuple past size 255); an empty one marks a key with no member below.
    p_shift = size + 1 if kind_id in (1, 3) else 0
    s_shift = size + 1 + size.bit_length()
    pack = bytes if size < 256 else tuple
    live: dict[int, Sequence[int]] = {}
    leaves = 0
    new = 0
    # ``it`` iterates the next values of the key being walked and ``rec``
    # collects those that reached a leaf (None on a replay).  ``stack``
    # holds per open position the suspended ``it``, ``rec`` and state of the
    # shallower key, the key entered and the leaf count on entering it.
    it = iter(_candidates(kind_id, 1, size, 0, 0))
    rec: Optional[list[int]] = []
    stack: list[tuple[Iterator[int], Optional[list[int]], int, int, int]] = []
    while True:
        for w in it:
            if step is not None:
                new = step(state, w, used)
                if new is None:
                    continue
            h.append(w)
            if len(h) == size:
                leaves += 1
                yield h
                h.pop()
                if rec is not None:
                    rec.append(w)
                continue
            used |= 1 << w
            key = used | (w << p_shift if p_shift else 0) | new << s_shift
            nexts = live.get(key)
            if nexts is not None and not nexts:
                used &= ~(1 << h.pop())
                continue
            stack.append((it, rec, state, key, leaves))
            state = new
            if nexts is None:
                it = iter(_candidates(kind_id, len(h) + 1, size, w, used))
                rec = []
            else:
                it = iter(nexts)
                rec = None
            break
        else:
            if not stack:
                return
            done = rec
            it, rec, state, key, before = stack.pop()
            if done is not None:
                live[key] = pack(done)
            w = h.pop()
            used &= ~(1 << w)
            if rec is not None and leaves > before:
                rec.append(w)


def generate(kind: DumontKind, size: int) -> Iterator[Permutation]:
    """Yield the members of the kind in lexicographic order."""
    for h in _walk(kind, size):
        yield Permutation._wrap(tuple(h))


def count(kind: DumontKind, size: int) -> int:
    """Number of Dumont permutations of the kind and size (a Genocchi number)."""
    return _count_layers(kind, size)


def _coefficient_bits(size: int) -> int:
    """Bits per coefficient of a histogram packed into one int by
    :func:`_count_layers`: no count over a set of size ``size`` reaches
    ``2 ** _coefficient_bits(size)``."""
    return factorial(size).bit_length()


def _check_deadline(deadline: Optional[float]) -> None:
    """Raise ``BudgetExceeded`` once ``time.monotonic()`` has passed
    ``deadline`` (None never passes)."""
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExceeded("deadline passed")


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
    :func:`_check_deadline` before each layer.
    """
    _require_even(size)
    kind_id = kind.value
    if state is None:
        return 0
    width = _coefficient_bits(size)
    # Key layout: used mask in bits 0..size, the last value above it (kept
    # only when the kind's rules or the statistic read it), then the state.
    keep_prev = kind_id in (1, 3) or stat is not None
    p_shift = size + 1
    s_shift = p_shift + size.bit_length()
    used_mask = (1 << p_shift) - 1
    prev_mask = (1 << size.bit_length()) - 1
    layer = {state << s_shift: 1}
    for pos in range(1, size + 1):
        _check_deadline(deadline)
        nxt: dict[int, int] = {}
        get = nxt.get
        for key, weight in layer.items():
            used = key & used_mask
            prev = key >> p_shift & prev_mask
            state = key >> s_shift
            for w in _candidates(kind_id, pos, size, prev, used):
                if step is None:
                    new = 0
                else:
                    new = step(state, w, used)
                    if new is None:
                        continue
                out = weight
                if stat is not None:
                    out <<= width * stat(used, prev, w)
                k = used | 1 << w | (w << p_shift if keep_prev else 0) | new << s_shift
                nxt[k] = get(k, 0) + out
        layer = nxt
    return sum(layer.values())
