"""Verification suites tying exact counts to closed forms.

A suite is a table of row builders run for n = 0..n_max: count rows check a
layered-DP count of the Dumont permutations of size 2n that avoid some
patterns (or contain one exactly r times) against a closed form, set rows
check the avoiders listed by the transition walk against a set known
independently, and the ``d4_1423`` pair checks counts against a series and
the series against the vendored OEIS prefix.  A builder's counts (or
listings) of every n are one :func:`dumont.patterns._runs`, sharing its
transition and memos.  The two conjecture experiments (2143 ~ 3421 on
Dumont-1 permutations, and 2-31 against 13-2 on the two avoider classes) are
reported with machine-readable verdicts, never hard-asserted; a run stops on
a wall-clock budget and resumes from a journal (:class:`_Checkpoint`).
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from itertools import accumulate, permutations as _all_perms
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import golden
from .gfseries import SequenceId, catalan_number, closed_form, d4_1423_series
from .kinds import BudgetExceeded, DumontKind, _count_layers, _walk  # BudgetExceeded is re-exported
from .patterns import (AvoidanceQuery, ClassicalPattern, VincularPattern, _runs, avoids,
                       count_avoiders, vincular_histogram)
from .permcore import Permutation, _block_texts

_STAT_2_31 = VincularPattern.parse("2-31")
_STAT_13_2 = VincularPattern.parse("13-2")


@dataclass(frozen=True)
class ReportRow:
    """``enumerated`` against ``formula`` at one n, as text: the verdict is
    whether the two strings are equal.  ``run_suite`` measures ``elapsed``."""
    theorem: str
    n: int
    enumerated: str
    formula: str
    elapsed: float = 0.0

    @property
    def match(self) -> bool:
        return self.enumerated == self.formula


@dataclass
class VerificationReport:
    suite: str
    rows: list[ReportRow] = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(row.match for row in self.rows)

    def to_text(self, include_timing: bool = False) -> str:
        # Timing is excluded by default so that repeated runs produce
        # byte-identical reports.
        lines = [f"suite {self.suite}"]
        for r in self.rows:
            status = "ok" if r.match else "MISMATCH"
            tail = f"  [{r.elapsed:.3f}s]" if include_timing else ""
            lines.append(f"  {r.theorem} n={r.n}: enumerated={r.enumerated} "
                         f"formula={r.formula} {status}{tail}")
        lines.append(f"overall {'PASS' if self.overall else 'FAIL'}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "rows": [{"theorem": r.theorem, "n": r.n, "enumerated": r.enumerated,
                      "formula": r.formula, "match": r.match} for r in self.rows],
            "overall": self.overall,
        }


def _patterns(texts: Iterable[str]) -> frozenset[ClassicalPattern]:
    return frozenset(map(ClassicalPattern.parse, texts))


def _perm_set_text(texts: Iterable[str]) -> str:
    return "{" + ",".join(sorted(texts)) + "}"


# One theorem's rows at one n, each (theorem, enumerated, formula).
_Rows = Iterable[tuple[str, object, object]]
# A row builder maps n_max to the rows of n = 0..n_max, in turn; the rows of
# an n are computed as they are read.
_RowBuilder = Callable[[int], Iterator[_Rows]]


def _timed(n_max: int, build: _RowBuilder) -> list[list[ReportRow]]:
    """The rows of ``build(n_max)`` per n, each with the time its n took."""
    out = []
    per_n = build(n_max)
    for n in range(n_max + 1):
        t0 = time.perf_counter()
        checked = list(next(per_n))
        elapsed = time.perf_counter() - t0
        out.append([ReportRow(theorem, n, str(got), str(want), elapsed)
                    for theorem, got, want in checked])
    return out


def _count(theorem: str, kind: DumontKind, pats: tuple[str, ...], seq: SequenceId,
           target: Optional[int] = None) -> _RowBuilder:
    """Count row: the size-2n members of ``kind`` that avoid ``pats`` (or
    contain its one pattern exactly ``target`` times) against
    ``closed_form(seq, n)``, wherever ``seq`` is valid.  The counts of every
    n are one :func:`dumont.patterns._runs` of the layered DP."""
    forbidden = _patterns(pats)

    def build(n_max: int) -> Iterator[_Rows]:
        counts = _runs(_count_layers, kind, forbidden, target,
                       [2 * n for n in range(n_max + 1) if seq.covers(n)])

        def rows(n: int):
            if seq.covers(n):
                yield theorem, next(counts), closed_form(seq, n)
        return map(rows, range(n_max + 1))
    return build


# ``listing(ns)``: the texts of the members of each n of ``ns``, in turn.
_Listing = Callable[[Sequence[int]], Iterator[Iterable[str]]]


def _avoider_texts(kind: DumontKind, pats: tuple[str, ...]) -> _Listing:
    """The size-2n avoiders of ``pats``, listed by one
    :func:`dumont.patterns._runs` of the walk."""
    def listing(ns: Sequence[int]) -> Iterator[Iterable[str]]:
        sizes = [2 * n for n in ns]
        return map(_block_texts, _runs(_walk, kind, _patterns(pats), None, sizes), sizes)
    return listing


def _texts(members: Callable[[int], Iterable[Permutation]]) -> _Listing:
    """The listing of ``members(n)``, one n at a time."""
    return lambda ns: (map(Permutation.to_text, members(n)) for n in ns)


def _set(theorem: str, kind: DumontKind, pats: tuple[str, ...], expected: _Listing,
         n_min: int = 0, n_top: Optional[int] = None) -> _RowBuilder:
    """Set row: the size-2n avoiders of ``pats``, listed, against the
    ``expected`` listing, for n_min <= n <= n_top."""
    def build(n_max: int) -> Iterator[_Rows]:
        ns = range(n_min, (n_max if n_top is None else min(n_max, n_top)) + 1)
        got, want = _avoider_texts(kind, pats)(ns), expected(ns)

        def rows(n: int):
            if n in ns:
                yield theorem, _perm_set_text(next(got)), _perm_set_text(next(want))
        return map(rows, range(n_max + 1))
    return build


def _d4_1423(n_max: int) -> Iterator[_Rows]:
    """The Dumont-4 avoiders of 1423 against the continued-fraction series,
    and the series against the vendored A343795 prefix where it reaches.
    The counts are one :func:`dumont.patterns._runs`, the series one call."""
    counts = _runs(_count_layers, DumontKind.D4, _patterns(("1423",)), None,
                   [2 * n for n in range(n_max + 1)])
    for n, (count, coeff) in enumerate(zip(counts, d4_1423_series(n_max).coeffs)):
        rows = [("d4_1423_series", count, coeff)]
        if SequenceId.A343795_D4_312.covers(n):
            rows.append(("d4_1423_reference", coeff, closed_form(SequenceId.A343795_D4_312, n)))
        yield rows


@_texts
def _pair_staircase(n: int) -> list[Permutation]:
    """The one permutation 2 1 4 3 ... 2n 2n-1."""
    return [Permutation([v for j in range(1, n + 1) for v in (2 * j, 2 * j - 1)])]


@_texts
def _d1_123_expected(n: int) -> list[Permutation]:
    prefix = [v for j in range(n, 3, -1) for v in (2 * j - 1, 2 * j)]
    return [Permutation(prefix + list(Permutation.from_text(s).values))
            for s in golden.d1_123_size6_set()]


@_texts
def _d4_1234_expected(n: int) -> list[Permutation]:
    """The 1234 avoiders, known explicitly through size 6 (n = 3)."""
    known = map(Permutation.from_text, golden.d4_1234_avoiders_upto_size6())
    return [p for p in known if len(p) == 2 * n]


# A suite is a tuple of passes; a pass reports the rows of its builders n by
# n, so the rows of a later pass follow all the rows of an earlier one.
_SUITE_TABLE: dict[str, tuple[tuple[_RowBuilder, ...], ...]] = {
    "d1_len3": ((
        *(_count(f"d1_{p}", DumontKind.D1, (p,), SequenceId[f"D1_{p}"])
          for p in ("132", "231", "312", "213", "321", "123")),
        _set("d1_321_set", DumontKind.D1, ("321",), _pair_staircase),
        _set("d1_123_set", DumontKind.D1, ("123",), _d1_123_expected, n_min=3),
    ),),
    "d2_len3": ((
        *(_count(f"d2_{p}", DumontKind.D2, (p,), SequenceId[f"D2_{p}"])
          for p in ("123", "132", "213", "231", "312", "321")),
        _set("d2_312_set", DumontKind.D2, ("312",), _pair_staircase),
    ),),
    "d2_len4": ((
        *(_count(f"d2_{p}", DumontKind.D2, (p,), SequenceId[f"D2_{p}"])
          for p in ("3142", "4132", "2143")),
        # The 4132 avoiders are not merely as many as the 321 avoiders: they are the same.
        _set("d2_4132_set_eq_321", DumontKind.D2, ("4132",),
             _avoider_texts(DumontKind.D2, ("321",))),
    ),),
    "d1_pairs": ((
        *(_count(f"d1_pair_{a}_{b}", DumontKind.D1, (a, b), SequenceId[f"D1_PAIR_{a}_{b}"])
          for a, b in (("1342", "1423"), ("2341", "2413"), ("1342", "2413"),
                       ("231", "4213"), ("1342", "4213"), ("2341", "1423"))),
        _set("d1_pair_231_4213_set", DumontKind.D1, ("231", "4213"), _pair_staircase, n_min=1),
    ),),
    "d4_avoid": ((
        *(_count(f"d4_{p}", DumontKind.D4, (p,), SequenceId[f"D4_{p}"])
          for p in ("1342", "1432", "1324", "1243", "1234")),
        _d4_1423,
    ), (
        _set("d4_1234_set", DumontKind.D4, ("1234",), _d4_1234_expected, n_top=3),
    )),
    "d4_single": ((_count("d4_321_once", DumontKind.D4, ("321",), SequenceId.D4_321_1, 1),),),
    "d1d2_single": ((
        *(_count(f"d1_{p}_once", DumontKind.D1, (p,), SequenceId[f"D1_{p}_1"], 1)
          for p in ("132", "312", "231", "213", "321")),
        *(_count(f"d2_{p}_once", DumontKind.D2, (p,), SequenceId[f"D2_{p}_1"], 1)
          for p in ("321", "3142", "2143")),
    ),),
}

SUITES = (*_SUITE_TABLE, "all")


def run_suite(suite: str, n_max: int) -> VerificationReport:
    """Run one verification suite (or all of them) up to the given n.

    A pass computes its builders one after another, each for n = 0..n_max,
    and reports their rows n-major: every builder's rows at n = 0, then at
    n = 1, and so on.  A row's ``elapsed`` times its builder at its n only.
    """
    if n_max < 0:
        raise ValueError(f"max n must be >= 0, got {n_max}")
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {', '.join(SUITES)}")
    rows = [row for name in (_SUITE_TABLE if suite == "all" else (suite,))
            for builders in _SUITE_TABLE[name]  # the passes of one suite
            for at_n in zip(*(_timed(n_max, build) for build in builders))
            for n_rows in at_n for row in n_rows]
    return VerificationReport(suite, rows)


def sanity_s3(n_max: int) -> VerificationReport:
    """Brute-force Catalan check for all six patterns of length 3 on S_n."""
    if n_max < 0:
        raise ValueError(f"sanity check size must be >= 0, got {n_max}")
    if n_max > 9:
        raise ValueError("sanity check is capped at n = 9")
    pats = [ClassicalPattern(Permutation(p)) for p in _all_perms((1, 2, 3))]

    def rows(n: int):
        counts = dict.fromkeys(pats, 0)
        for p in map(Permutation, _all_perms(range(1, n + 1))):
            for q in pats:
                counts[q] += avoids(p, q)
        return [(f"s3_{q}", got, catalan_number(n)) for q, got in counts.items()]
    per_n = _timed(n_max, lambda n_max: map(rows, range(n_max + 1)))
    return VerificationReport("s3_sanity", [row for n_rows in per_n for row in n_rows])


# ---------------------------------------------------------------------------
# Conjecture experiments


_C1_PATTERNS = ("2143", "3421")


@dataclass(frozen=True)
class ConjectureCountRow:
    n: int
    count_2143: int
    count_3421: int
    reference: Optional[int]
    match: bool


@dataclass(frozen=True)
class DistributionTable:
    """Distributions of 2-31 over the 2143 avoiders (a) and of 13-2 over the
    3421 avoiders (b) on Dumont-1 permutations of size 2n, k = 0..C(n,2)."""

    n: int
    a_row: tuple[int, ...]
    b_row: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.a_row)

    @staticmethod
    def _relation(xs: Iterable[int], ys: Iterable[int]) -> tuple[str, ...]:
        return tuple("=" if a == b else (">" if a > b else "<") for a, b in zip(xs, ys))

    def pointwise_relation(self) -> tuple[str, ...]:
        return self._relation(self.a_row, self.b_row)

    def cumulative_relation(self) -> tuple[str, ...]:
        return self._relation(accumulate(self.a_row), accumulate(self.b_row))

    @staticmethod
    def _unimodal(row: Sequence[int]) -> bool:
        peak = row.index(max(row))
        rising = all(row[i] <= row[i + 1] for i in range(peak))
        falling = all(row[i] >= row[i + 1] for i in range(peak, len(row) - 1))
        return rising and falling

    def sign_switch_k(self) -> Optional[int]:
        for k, sym in enumerate(self.pointwise_relation()):
            if sym == "<":
                return k
        return None

    def verdict(self) -> dict:
        """Machine-readable observations; conjectural claims are reported,
        not asserted."""
        cum = self.cumulative_relation()
        switch = self.sign_switch_k()
        return {
            "n": self.n,
            "total": self.total,
            "totals_equal": sum(self.a_row) == sum(self.b_row),
            "cumulative_dominance_holds": all(s in ("=", ">") for s in cum[:-1])
                                           and cum[-1] == "=",
            "top_cells_equal": self.a_row[-1] == self.b_row[-1] == 1,
            "a_unimodal": self._unimodal(self.a_row),
            "b_unimodal": self._unimodal(self.b_row),
            "sign_switch_k": switch,
            "sign_switch_near_2n_minus_5": switch is not None
                                           and abs(switch - (2 * self.n - 5)) <= 1,
        }


def count_mismatches(rows: Iterable[ConjectureCountRow]) -> list[str]:
    """Why the counts disagree with the vendored data ([] when they agree):
    one reason per count that differs from ``d1_wilf_pair``."""
    return [f"count_{pat} at n={r.n} is {c}, but d1_wilf_pair gives {r.reference} avoiders"
            for r in rows for pat, c in zip(_C1_PATTERNS, (r.count_2143, r.count_3421))
            if r.reference is not None and c != r.reference]


def distribution_mismatches(table: DistributionTable) -> list[str]:
    """Why the table disagrees with the vendored data ([] when it agrees):
    each row must sum to the avoider count of ``d1_wilf_pair`` and, where
    ``vincular_distributions`` has the n, equal its row."""
    out = []
    counts = golden.d1_wilf_pair_counts()
    tables = golden.vincular_distribution_sizes()
    for name, row in (("a", table.a_row), ("b", table.b_row)):
        if table.n < len(counts) and sum(row) != counts[table.n]:
            out.append(f"row {name} at n={table.n} sums to {sum(row)}, but "
                       f"d1_wilf_pair gives {counts[table.n]} avoiders")
        if table.n in tables and list(row) != golden.vincular_distribution(table.n)[name]:
            out.append(f"row {name} at n={table.n} differs from vincular_distributions")
    return out


_JOURNAL_SCHEMA = 2  # raise when the journal's lines change meaning


class _Checkpoint:
    """Append-only journal: a header line, then '<tag>\\t<json payload>' per
    finished n.

    The header ``# dumont-journal schema=S experiment=E`` is written when
    the journal is created (or holds only a torn start of that header); a
    journal whose first line differs (another experiment, another version)
    raises ``ValueError`` rather than being mixed with this run's records.
    A last line without its newline, left by a crash mid-append, is torn:
    it is dropped (and cut from the file, so the next record starts on a
    line of its own) with a warning on stderr.  Any other malformed line,
    and a path that cannot be opened, read or created, raise ``ValueError``.
    """

    def __init__(self, path: Optional[str], experiment: str):
        self.path = path
        self.done: dict[str, object] = {}
        if not path:
            return
        header = f"# dumont-journal schema={_JOURNAL_SCHEMA} experiment={experiment}"
        with self._usable():
            data = Path(path).read_bytes() if os.path.exists(path) else b""
            if header.encode().startswith(data):  # new, or its header torn mid-write
                Path(path).write_text(header + "\n", encoding="utf-8")
                return
            lines = data.split(b"\n")
            first = lines[0].decode("utf-8", errors="replace")
            if first != header:
                found = (f"its header is {first!r}" if first.startswith("# dumont-journal")
                         else "it has no dumont-journal header")
                raise ValueError(f"checkpoint {path}: {found}, this run writes {header!r}; "
                                 f"pass another --checkpoint path")
            for number, raw in enumerate(lines[1:-1], start=2):
                if raw:
                    try:
                        tag, payload = raw.decode("utf-8", errors="replace").split("\t", 1)
                        self.done[tag] = json.loads(payload)
                    except ValueError as exc:
                        raise ValueError(f"checkpoint {path}: line {number} is "
                                         f"malformed ({exc})") from None
            if lines[-1]:
                print(f"warning: checkpoint {path}: dropped the torn last "
                      f"line {len(lines)}", file=sys.stderr)
                os.truncate(path, len(data) - len(lines[-1]))

    @contextmanager
    def _usable(self) -> Iterator[None]:
        """Report an ``OSError`` on the journal as a bad path, not a crash."""
        try:
            yield
        except OSError as exc:
            raise ValueError(f"checkpoint {self.path}: {exc.strerror or exc}; "
                             f"pass another --checkpoint path") from None

    def run(self, tag: str, valid: Callable[[object], bool], compute: Callable[[], list]) -> list:
        """The pair journaled for ``tag``, else ``compute()``, journaled.  A
        record other than a list of two entries that ``valid`` accepts raises
        ``ValueError``."""
        if tag in self.done:
            payload = self.done[tag]
            if not (type(payload) is list and len(payload) == 2 and all(map(valid, payload))):
                raise ValueError(f"checkpoint {self.path}: the record {tag} is malformed; "
                                 f"pass another --checkpoint path")
            return payload
        payload = self.done[tag] = compute()
        if self.path:
            with self._usable(), open(self.path, "a", encoding="utf-8") as fh:
                fh.write(f"{tag}\t{json.dumps(payload)}\n")
        return payload


def _is_count(x) -> bool:
    return type(x) is int and x >= 0


def _is_histogram(h) -> bool:
    """A JSON object mapping decimal k >= 0 to a count."""
    return type(h) is dict and all(k.isdecimal() and str(int(k)) == k and _is_count(v)
                                   for k, v in h.items())


def _deadline(budget: Optional[float]) -> Optional[float]:
    """The ``time.monotonic()`` value a budget of seconds ends at."""
    if budget is None:
        return None
    if not budget >= 0:
        raise ValueError(f"budget must be >= 0 seconds, got {budget}")
    return time.monotonic() + budget


def conjecture1_counts(n_max: int, budget: Optional[float] = None,
                       checkpoint_path: Optional[str] = None) -> list[ConjectureCountRow]:
    """Counts of Dumont-1 avoiders of 2143 and of 3421 for n = 0..n_max."""
    if n_max < 0:
        raise ValueError(f"n must be >= 0, got {n_max}")
    deadline = _deadline(budget)
    checkpoint = _Checkpoint(checkpoint_path, "c1")
    reference = golden.d1_wilf_pair_counts()
    rows = []
    for n in range(n_max + 1):
        counts = checkpoint.run(f"c1|n={n}", _is_count, lambda: [
            count_avoiders(AvoidanceQuery(DumontKind.D1, 2 * n, _patterns([p])), deadline=deadline)
            for p in _C1_PATTERNS])
        ref = reference[n] if n < len(reference) else None
        ok = counts[0] == counts[1] and (ref is None or counts[0] == ref)
        rows.append(ConjectureCountRow(n, counts[0], counts[1], ref, ok))
    return rows


def conjecture2_distribution(n: int, budget: Optional[float] = None,
                             checkpoint_path: Optional[str] = None) -> DistributionTable:
    """Joint distribution tables of the two vincular statistics at one n."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    deadline = _deadline(budget)
    checkpoint = _Checkpoint(checkpoint_path, "c2")
    hists = checkpoint.run(f"c2|n={n}", _is_histogram, lambda: [
        {str(k): v for k, v in vincular_histogram(
            DumontKind.D1, 2 * n, ClassicalPattern.parse(pat), stat, deadline=deadline).items()}
        for pat, stat in (("2143", _STAT_2_31), ("3421", _STAT_13_2))])
    hist_a, hist_b = ({int(k): v for k, v in h.items()} for h in hists)
    top = max([n * (n - 1) // 2] + list(hist_a) + list(hist_b))  # k = 0..C(n,2)
    a_row = tuple(hist_a.get(k, 0) for k in range(top + 1))
    b_row = tuple(hist_b.get(k, 0) for k in range(top + 1))
    return DistributionTable(n=n, a_row=a_row, b_row=b_row)
