"""Verification suites tying pruned enumeration to closed forms.

Every suite row computes a cardinality (or an explicit set) by backtracking
enumeration and compares it against the independent closed form, reference
table, or series.  The two conjecture experiments (the 2143 ~ 3421
equinumerosity on Dumont-1 permutations and the cumulative relation between
the vincular statistics 2-31 and 13-2 on the two avoider classes) are
computed and reported with machine-readable verdicts, never hard-asserted.

Each n of a conjecture experiment is one layered DP per pattern.  A run
can be stopped on a wall-clock budget, checked between the layers of the
DP, and resumed from a plain-text journal that records each finished n.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field
from itertools import permutations as _all_perms
from typing import Callable, Optional, Sequence

from . import golden
from .gfseries import SequenceId, catalan_number, closed_form, d4_1423_series, validity_range
from .kinds import BudgetExceeded, DumontKind  # BudgetExceeded is re-exported
from .patterns import (AvoidanceQuery, ClassicalPattern, VincularPattern, avoids,
                       count_avoiders, count_exact_occurrences, generate_avoiders,
                       vincular_histogram)
from .permcore import Permutation

SUITES = ("d1_len3", "d2_len3", "d2_len4", "d1_pairs", "d4_avoid",
          "d4_single", "d1d2_single", "all")

_STAT_2_31 = VincularPattern.parse("2-31")
_STAT_13_2 = VincularPattern.parse("13-2")


@dataclass(frozen=True)
class ReportRow:
    theorem: str
    n: int
    enumerated: str
    formula: str
    match: bool
    elapsed: float = 0.0


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


def _pat(text: str) -> ClassicalPattern:
    return ClassicalPattern.parse(text)


def _perm_set_text(perms) -> str:
    return "{" + ",".join(sorted(p.to_text() for p in perms)) + "}"


def _count_row(theorem: str, kind: DumontKind, pats: tuple[str, ...],
               seq: SequenceId, n: int) -> Optional[ReportRow]:
    lo, hi = validity_range(seq)
    if n < lo or (hi is not None and n > hi):
        return None
    t0 = time.perf_counter()
    query = AvoidanceQuery(kind, 2 * n, frozenset(_pat(s) for s in pats))
    enum = count_avoiders(query)
    formula = closed_form(seq, n)
    return ReportRow(theorem, n, str(enum), str(formula), enum == formula,
                     time.perf_counter() - t0)


def _exact_row(theorem: str, kind: DumontKind, pat: str, seq: SequenceId,
               n: int) -> Optional[ReportRow]:
    lo, hi = validity_range(seq)
    if n < lo or (hi is not None and n > hi):
        return None
    t0 = time.perf_counter()
    enum = count_exact_occurrences(kind, 2 * n, _pat(pat), 1)
    formula = closed_form(seq, n)
    return ReportRow(theorem, n, str(enum), str(formula), enum == formula,
                     time.perf_counter() - t0)


def _set_row(theorem: str, kind: DumontKind, pats: tuple[str, ...], n: int,
             expected: Sequence[Permutation]) -> ReportRow:
    t0 = time.perf_counter()
    query = AvoidanceQuery(kind, 2 * n, frozenset(_pat(s) for s in pats))
    got = _perm_set_text(generate_avoiders(query))
    want = _perm_set_text(expected)
    return ReportRow(theorem, n, got, want, got == want, time.perf_counter() - t0)


def _pair_staircase(n: int) -> Permutation:
    """The permutation 2 1 4 3 ... 2n 2n-1."""
    vals: list[int] = []
    for j in range(1, n + 1):
        vals += [2 * j, 2 * j - 1]
    return Permutation(vals)


def _d1_123_expected(n: int) -> list[Permutation]:
    base = [Permutation.from_text(s) for s in golden.d1_123_size6_set()]
    if n == 3:
        return base
    prefix: list[int] = []
    for j in range(n, 3, -1):
        prefix += [2 * j - 1, 2 * j]
    return [Permutation(prefix + list(p.values)) for p in base]


def _rows_d1_len3(n_max: int) -> list[ReportRow]:
    rows = []
    for n in range(n_max + 1):
        for pat, seq in (("132", SequenceId.D1_132), ("231", SequenceId.D1_231),
                         ("312", SequenceId.D1_312), ("213", SequenceId.D1_213),
                         ("321", SequenceId.D1_321), ("123", SequenceId.D1_123)):
            row = _count_row(f"d1_{pat}", DumontKind.D1, (pat,), seq, n)
            if row:
                rows.append(row)
        rows.append(_set_row("d1_321_set", DumontKind.D1, ("321",), n,
                             [_pair_staircase(n)]))
        if n >= 3:
            rows.append(_set_row("d1_123_set", DumontKind.D1, ("123",), n,
                                 _d1_123_expected(n)))
    return rows


def _rows_d2_len3(n_max: int) -> list[ReportRow]:
    rows = []
    for n in range(n_max + 1):
        for pat, seq in (("123", SequenceId.D2_123), ("132", SequenceId.D2_132),
                         ("213", SequenceId.D2_213), ("231", SequenceId.D2_231),
                         ("312", SequenceId.D2_312), ("321", SequenceId.D2_321)):
            row = _count_row(f"d2_{pat}", DumontKind.D2, (pat,), seq, n)
            if row:
                rows.append(row)
        rows.append(_set_row("d2_312_set", DumontKind.D2, ("312",), n,
                             [_pair_staircase(n)]))
    return rows


def _rows_d2_len4(n_max: int) -> list[ReportRow]:
    rows = []
    for n in range(n_max + 1):
        for pat, seq in (("3142", SequenceId.D2_3142), ("4132", SequenceId.D2_4132),
                         ("2143", SequenceId.D2_2143)):
            row = _count_row(f"d2_{pat}", DumontKind.D2, (pat,), seq, n)
            if row:
                rows.append(row)
        # The 4132 avoiders are not merely equinumerous with the 321
        # avoiders; the two sets coincide.
        t0 = time.perf_counter()
        got = _perm_set_text(generate_avoiders(
            AvoidanceQuery(DumontKind.D2, 2 * n, frozenset([_pat("4132")]))))
        want = _perm_set_text(generate_avoiders(
            AvoidanceQuery(DumontKind.D2, 2 * n, frozenset([_pat("321")]))))
        rows.append(ReportRow("d2_4132_set_eq_321", n, got, want, got == want,
                              time.perf_counter() - t0))
    return rows


def _rows_d1_pairs(n_max: int) -> list[ReportRow]:
    specs = (
        ("d1_pair_1342_1423", ("1342", "1423"), SequenceId.D1_PAIR_1342_1423),
        ("d1_pair_2341_2413", ("2341", "2413"), SequenceId.D1_PAIR_2341_2413),
        ("d1_pair_1342_2413", ("1342", "2413"), SequenceId.D1_PAIR_1342_2413),
        ("d1_pair_231_4213", ("231", "4213"), SequenceId.D1_PAIR_231_4213),
        ("d1_pair_1342_4213", ("1342", "4213"), SequenceId.D1_PAIR_1342_4213),
        ("d1_pair_2341_1423", ("2341", "1423"), SequenceId.D1_PAIR_2341_1423),
    )
    rows = []
    for n in range(n_max + 1):
        for theorem, pats, seq in specs:
            row = _count_row(theorem, DumontKind.D1, pats, seq, n)
            if row:
                rows.append(row)
        if n >= 1:
            rows.append(_set_row("d1_pair_231_4213_set", DumontKind.D1,
                                 ("231", "4213"), n, [_pair_staircase(n)]))
    return rows


def _rows_d4_avoid(n_max: int) -> list[ReportRow]:
    rows = []
    series = d4_1423_series(n_max)
    for n in range(n_max + 1):
        for pat, seq in (("1342", SequenceId.D4_1342), ("1432", SequenceId.D4_1432),
                         ("1324", SequenceId.D4_1324), ("1243", SequenceId.D4_1243),
                         ("1234", SequenceId.D4_1234)):
            row = _count_row(f"d4_{pat}", DumontKind.D4, (pat,), seq, n)
            if row:
                rows.append(row)
        t0 = time.perf_counter()
        enum = count_avoiders(AvoidanceQuery(DumontKind.D4, 2 * n,
                                             frozenset([_pat("1423")])))
        coeff = series.coefficient(n)
        rows.append(ReportRow("d4_1423_series", n, str(enum), str(coeff),
                              enum == coeff, time.perf_counter() - t0))
        if n <= 11:
            ref = golden.a343795_prefix()[n]
            rows.append(ReportRow("d4_1423_reference", n, str(coeff), str(ref),
                                  coeff == ref, 0.0))
    # The 1234 avoiders themselves are known explicitly through size 6.
    known = [Permutation.from_text(s) for s in golden.d4_1234_avoiders_upto_size6()]
    for n in range(min(n_max, 3) + 1):
        expected = [p for p in known if len(p) == 2 * n]
        rows.append(_set_row("d4_1234_set", DumontKind.D4, ("1234",), n, expected))
    return rows


def _rows_d4_single(n_max: int) -> list[ReportRow]:
    rows = []
    for n in range(n_max + 1):
        row = _exact_row("d4_321_once", DumontKind.D4, "321", SequenceId.D4_321_1, n)
        if row:
            rows.append(row)
    return rows


def _rows_d1d2_single(n_max: int) -> list[ReportRow]:
    specs = (
        ("d1_132_once", DumontKind.D1, "132", SequenceId.D1_132_1),
        ("d1_312_once", DumontKind.D1, "312", SequenceId.D1_312_1),
        ("d1_231_once", DumontKind.D1, "231", SequenceId.D1_231_1),
        ("d1_213_once", DumontKind.D1, "213", SequenceId.D1_213_1),
        ("d1_321_once", DumontKind.D1, "321", SequenceId.D1_321_1),
        ("d2_321_once", DumontKind.D2, "321", SequenceId.D2_321_1),
        ("d2_3142_once", DumontKind.D2, "3142", SequenceId.D2_3142_1),
        ("d2_2143_once", DumontKind.D2, "2143", SequenceId.D2_2143_1),
    )
    rows = []
    for n in range(n_max + 1):
        for theorem, kind, pat, seq in specs:
            row = _exact_row(theorem, kind, pat, seq, n)
            if row:
                rows.append(row)
    return rows


_SUITE_BUILDERS: dict[str, Callable[[int], list[ReportRow]]] = {
    "d1_len3": _rows_d1_len3,
    "d2_len3": _rows_d2_len3,
    "d2_len4": _rows_d2_len4,
    "d1_pairs": _rows_d1_pairs,
    "d4_avoid": _rows_d4_avoid,
    "d4_single": _rows_d4_single,
    "d1d2_single": _rows_d1d2_single,
}


def run_suite(suite: str, n_max: int) -> VerificationReport:
    """Run one verification suite (or all of them) up to the given n."""
    if n_max < 0:
        raise ValueError(f"max n must be >= 0, got {n_max}")
    if suite == "all":
        rows: list[ReportRow] = []
        for name in SUITES[:-1]:
            rows.extend(_SUITE_BUILDERS[name](n_max))
        return VerificationReport("all", rows)
    if suite not in _SUITE_BUILDERS:
        raise ValueError(f"unknown suite {suite!r}; expected one of {', '.join(SUITES)}")
    return VerificationReport(suite, _SUITE_BUILDERS[suite](n_max))


def sanity_s3(n_max: int) -> VerificationReport:
    """Brute-force Catalan check for all six patterns of length 3 on S_n."""
    if n_max < 0:
        raise ValueError(f"sanity check size must be >= 0, got {n_max}")
    if n_max > 9:
        raise ValueError("sanity check is capped at n = 9")
    rows = []
    pats = [ClassicalPattern(Permutation(p)) for p in _all_perms((1, 2, 3))]
    for n in range(n_max + 1):
        expected = catalan_number(n)
        t0 = time.perf_counter()
        counts = {str(q): 0 for q in pats}
        for raw in _all_perms(range(1, n + 1)):
            p = Permutation(raw)
            for q in pats:
                if avoids(p, q):
                    counts[str(q)] += 1
        elapsed = time.perf_counter() - t0
        for q in pats:
            got = counts[str(q)]
            rows.append(ReportRow(f"s3_{q}", n, str(got), str(expected),
                                  got == expected, elapsed))
    return VerificationReport("s3_sanity", rows)


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

    def pointwise_relation(self) -> tuple[str, ...]:
        return tuple("=" if a == b else (">" if a > b else "<")
                     for a, b in zip(self.a_row, self.b_row))

    def cumulative_relation(self) -> tuple[str, ...]:
        out = []
        ca = cb = 0
        for a, b in zip(self.a_row, self.b_row):
            ca += a
            cb += b
            out.append("=" if ca == cb else (">" if ca > cb else "<"))
        return tuple(out)

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
        return {
            "n": self.n,
            "total": self.total,
            "totals_equal": sum(self.a_row) == sum(self.b_row),
            "cumulative_dominance_holds": all(s in ("=", ">") for s in cum[:-1])
                                           and cum[-1] == "=",
            "top_cells_equal": self.a_row[-1] == self.b_row[-1] == 1,
            "a_unimodal": self._unimodal(self.a_row),
            "b_unimodal": self._unimodal(self.b_row),
            "sign_switch_k": self.sign_switch_k(),
            "sign_switch_near_2n_minus_5": (
                self.sign_switch_k() is not None
                and abs(self.sign_switch_k() - (2 * self.n - 5)) <= 1),
        }


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
    the journal is created; a non-empty journal whose first line differs
    (another experiment, another version) raises ``ValueError`` rather than
    being mixed with this run's records.
    A crash mid-append leaves a torn last line; it is dropped (and cut from
    the file, so the next record starts on a line of its own) with a warning
    on stderr.  A malformed line anywhere else raises ``ValueError``.
    """

    def __init__(self, path: Optional[str], experiment: str):
        self.path = path
        self.done: dict[str, object] = {}
        if not path:
            return
        header = f"# dumont-journal schema={_JOURNAL_SCHEMA} experiment={experiment}"
        lines = [b""]
        if os.path.exists(path):
            with open(path, "rb") as fh:
                lines = fh.read().split(b"\n")
        if not any(lines):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(header + "\n")
            return
        first = lines[0].decode("utf-8", errors="replace")
        if first != header:
            found = (f"its header is {first!r}" if first.startswith("# dumont-journal")
                     else "it has no dumont-journal header")
            raise ValueError(f"checkpoint {path}: {found}, this run writes {header!r}; "
                             f"pass another --checkpoint path")
        good = len(lines[0]) + 1  # bytes up to the end of the last parsed line
        for number, raw in enumerate(lines[1:], start=2):
            line = raw.decode("utf-8", errors="replace")
            if line:
                try:
                    tag, payload = line.split("\t", 1)
                    self.done[tag] = json.loads(payload)
                except ValueError as exc:
                    if any(lines[number:]):
                        raise ValueError(f"checkpoint {path}: line {number} is "
                                         f"malformed ({exc})") from None
                    print(f"warning: checkpoint {path}: dropped the torn last "
                          f"line {number}", file=sys.stderr)
                    os.truncate(path, good)
                    break
            good += len(raw) + 1

    def record(self, tag: str, payload) -> None:
        self.done[tag] = payload
        if self.path:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(f"{tag}\t{json.dumps(payload)}\n")


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
        tag = f"c1|n={n}"
        counts = checkpoint.done.get(tag)
        if counts is None:
            counts = [count_avoiders(AvoidanceQuery(DumontKind.D1, 2 * n, frozenset([_pat(p)])),
                                     deadline=deadline) for p in _C1_PATTERNS]
            checkpoint.record(tag, counts)
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
    tag = f"c2|n={n}"
    hists = checkpoint.done.get(tag)
    if hists is None:
        hists = [{str(k): v for k, v in vincular_histogram(
                     DumontKind.D1, 2 * n, _pat(pat), stat, deadline=deadline).items()}
                 for pat, stat in (("2143", _STAT_2_31), ("3421", _STAT_13_2))]
        checkpoint.record(tag, hists)
    hist_a, hist_b = ({int(k): v for k, v in h.items()} for h in hists)
    top = max([n * (n - 1) // 2] + list(hist_a) + list(hist_b))  # k = 0..C(n,2)
    a_row = tuple(hist_a.get(k, 0) for k in range(top + 1))
    b_row = tuple(hist_b.get(k, 0) for k in range(top + 1))
    return DistributionTable(n=n, a_row=a_row, b_row=b_row)


# ---------------------------------------------------------------------------
# Diagram rendering


def render_diagram(p: Permutation) -> str:
    """ASCII permutation diagram, origin at the bottom-left corner.

    One character cell per board square: '*' for a dot, '.' otherwise.
    """
    n = len(p)
    lines = []
    for v in range(n, 0, -1):
        lines.append("".join("*" if p.values[i] == v else "." for i in range(n)))
    return "\n".join(lines)
