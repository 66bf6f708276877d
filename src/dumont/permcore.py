"""Permutations in one-line notation and their symmetries.

Conventions used across the whole package:

* A permutation of size ``n`` is a rearrangement of the values ``1..n``.
  The empty permutation (``n = 0``) is a valid object.
* Positions are 1-based in every statistic (fixed points, excedances,
  descents, ...), matching the usual combinatorial reading of a permutation
  diagram from left to right and bottom to top.  Python-level indexing on a
  :class:`Permutation` (``p[i]``, slicing, iteration) is 0-based like any
  other sequence.
* Text form: a comma-free digit string for ``n <= 9`` (``"435621"``) and a
  comma-separated list otherwise (``"1,3,6,5,7,2,8,4"``).  The CLI and the
  JSON output both use this grammar.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

# ``str(v)`` of the small values, so writing a listing formats no int.
_NAMES = tuple(map(str, range(256)))


def _separator(n: int) -> str:
    """What the text form puts between the letters of a permutation of size n."""
    return "" if n <= 9 else ","


def _block_texts(blocks: Iterable[tuple[Sequence[int], tuple[tuple[int, ...], ...]]],
                 size: int) -> Iterator[str]:
    """The text form of each member of size ``size`` in ``blocks``, in order.

    A block ``(prefix, tails)`` holds the members ``prefix`` followed by each
    suffix in ``tails`` (as :func:`dumont.kinds._walk` yields them); a prefix
    is empty only under the empty suffix.  Each prefix is formatted once,
    and each ``tails`` object once per call: its texts are kept by identity
    until the listing ends, so ``blocks`` must keep every ``tails`` it hands
    out alive while it runs.  Consecutive prefixes share most letters, but
    keeping a text per depth or joining a ``map`` both formatted slower than
    this join of a list (``BENCH_25.json``, ``not_pursued``).
    """
    sep = _separator(size)
    names = _NAMES if size < len(_NAMES) else tuple(map(str, range(size + 1)))
    memo: dict[int, list[str]] = {}
    for prefix, tails in blocks:
        head = sep.join([names[v] for v in prefix])
        ends = memo.get(id(tails))
        if ends is None:
            ends = memo[id(tails)] = [sep + sep.join([names[v] for v in t]) if t else ""
                                      for t in tails]
        for end in ends:
            yield head + end


class Permutation:
    """An immutable permutation of ``{1..n}`` in one-line notation.

    >>> p = Permutation([4, 3, 5, 6, 2, 1])
    >>> str(p)
    '435621'
    >>> p.reverse() == Permutation.from_text("126534")
    True
    >>> len(Permutation([]))
    0
    """

    __slots__ = ("_vals",)

    def __init__(self, values: Iterable[int]):
        vals = tuple(values)
        n = len(vals)
        seen = [False] * (n + 1)
        for v in vals:
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"non-integer entry {v!r}")
            if v < 1 or v > n:
                raise ValueError(f"value {v} out of range for length {n}")
            if seen[v]:
                raise ValueError(f"duplicate value {v}")
            seen[v] = True
        self._vals = vals

    @classmethod
    def _wrap(cls, vals: tuple[int, ...]) -> "Permutation":
        # Internal fast path for values already known to form a permutation.
        p = object.__new__(cls)
        p._vals = vals
        return p

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls._wrap(tuple(range(1, n + 1)))

    @classmethod
    def from_text(cls, text: str) -> "Permutation":
        """Parse the shared text grammar (digits, or comma-separated)."""
        text = text.strip()
        if not text:
            return cls(())
        parts = text.split(",") if "," in text else text
        if not all(part.strip().isdigit() for part in parts):
            raise ValueError(f"not a permutation string: {text!r}")
        return cls(int(part) for part in parts)

    @property
    def values(self) -> tuple[int, ...]:
        return self._vals

    def to_text(self) -> str:
        vals = self._vals
        try:
            names = [_NAMES[v] for v in vals]
        except IndexError:
            names = map(str, vals)
        return _separator(len(vals)).join(names)

    def __len__(self) -> int:
        return len(self._vals)

    def __getitem__(self, i):
        return self._vals[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self._vals)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self._vals == other._vals

    def __hash__(self) -> int:
        return hash(self._vals)

    def __lt__(self, other: "Permutation") -> bool:
        return self._vals < other._vals

    def __le__(self, other: "Permutation") -> bool:
        return self._vals <= other._vals

    def __repr__(self) -> str:
        return f"Permutation({list(self._vals)!r})"

    def __str__(self) -> str:
        return self.to_text()

    def at(self, pos: int) -> int:
        """Value at 1-based position ``pos``."""
        if not 1 <= pos <= len(self._vals):
            raise IndexError(f"position {pos} out of range")
        return self._vals[pos - 1]

    def reverse(self) -> "Permutation":
        """The permutation read right to left."""
        return Permutation._wrap(self._vals[::-1])

    def complement(self) -> "Permutation":
        """The permutation read top to bottom (value v becomes n+1-v)."""
        n = len(self._vals)
        return Permutation._wrap(tuple(n + 1 - v for v in self._vals))

    def inverse(self) -> "Permutation":
        """Swap positions and values."""
        n = len(self._vals)
        inv = [0] * n
        for i, v in enumerate(self._vals):
            inv[v - 1] = i + 1
        return Permutation._wrap(tuple(inv))


def flatten(values: Iterable[int]) -> Permutation:
    """The pattern of a sequence of distinct integers.

    Replaces each entry by its rank:  ``flatten([1, 3, 6, 2]) == 1342``.
    """
    vals = tuple(values)
    order = sorted(vals)
    rank = {v: i + 1 for i, v in enumerate(order)}
    if len(rank) != len(vals):
        raise ValueError("entries must be distinct")
    return Permutation._wrap(tuple(rank[v] for v in vals))


def render_diagram(p: Permutation) -> str:
    """ASCII permutation diagram, origin at the bottom-left corner.

    One character cell per board square: '*' for a dot, '.' otherwise.
    """
    return "\n".join("".join("*" if x == v else "." for x in p.values)
                     for v in range(len(p), 0, -1))
