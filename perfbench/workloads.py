"""The benchmark workloads: the operations each one times, and the checks on
their answers, which run after the timed region.

The seed only shuffles the order of a workload's independent operations, so
that a change which depends on an earlier operation warming a cache shows.
The inputs themselves are fixed, because they are checked against fixed
tables.
"""

from __future__ import annotations

import csv
import hashlib
import os
import random
import time
from dataclasses import dataclass
from typing import Callable

from dumont import cli, harness
from dumont.gfseries import (SequenceId, closed_form, d4_1423_series, genocchi,
                             solve_prst_system)
from dumont.kinds import DumontKind, is_dumont
from dumont.patterns import (AvoidanceQuery, ClassicalPattern, count_avoiders,
                             count_occurrences)
from dumont.permcore import Permutation

import reference

@dataclass
class Verdict:
    op: str
    ok: bool
    detail: str = ""
    known: bool = False  # a confirmed known finding, see reference.KNOWN_FINDINGS


def _shuffled(ops: list, seed: int) -> list:
    random.Random(seed).shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# conjecture: the two experiments at n = 6, then a resume from the journal


def conjecture_ops(seed: int, work: str) -> list:
    c1 = os.path.join(work, "c1.journal")
    c2 = os.path.join(work, "c2.journal")

    def resume():
        before = os.path.getsize(c1)
        t0 = time.perf_counter()
        rows = harness.conjecture1_counts(6, checkpoint_path=c1)
        return rows, time.perf_counter() - t0, os.path.getsize(c1) - before

    ops = _shuffled([
        ("conjecture1_counts", lambda: harness.conjecture1_counts(6, checkpoint_path=c1)),
        ("conjecture2_distribution",
         lambda: harness.conjecture2_distribution(6, checkpoint_path=c2)),
    ], seed)
    return ops + [("resume", resume)]


def conjecture_check(answers: dict, root: str, deep: bool) -> list[Verdict]:
    wilf = reference.golden_table(root, "d1_wilf_pair.json")["counts"]
    table = reference.golden_table(root, "vincular_distributions.json")["tables"]["6"]
    out = []
    resumed = answers.get("resume")
    for op, rows in (("conjecture1_counts", answers.get("conjecture1_counts")),
                     ("resume", resumed[0] if resumed else None)):
        for n in range(7):
            got = rows[n] if rows is not None and n < len(rows) else None
            ok = got is not None and got.n == n and got.count_2143 == got.count_3421 == wilf[n]
            out.append(Verdict(f"{op} n={n}", ok, "" if ok else f"got {got}, golden {wilf[n]}"))
    dist = answers.get("conjecture2_distribution")
    for row in ("a", "b"):
        got = getattr(dist, f"{row}_row") if dist is not None else None
        ok = got == tuple(table[row])
        out.append(Verdict(f"conjecture2_distribution {row}_row", ok,
                           "" if ok else f"got {got}, golden {table[row]}"))
    grown = resumed[2] if resumed else None
    out.append(Verdict("resume reads the journal without appending", grown == 0,
                       "" if grown == 0 else f"journal grew by {grown} bytes"))
    return out


def conjecture_layers(answers: dict, work: str) -> dict:
    lines = size = 0
    for name in ("c1.journal", "c2.journal"):
        path = os.path.join(work, name)
        with open(path, "rb") as fh:
            lines += sum(1 for _ in fh)
        size += os.path.getsize(path)
    return {"harness.shards": lines, "harness.journal_bytes": size,
            "harness.resume_s": answers["resume"][1]}


# ---------------------------------------------------------------------------
# verify: every suite at n <= 5, plus D4 avoiders of 1423 at size 14

SUITES = ("d1_len3", "d2_len3", "d2_len4", "d1_pairs", "d4_avoid", "d4_single",
          "d1d2_single")


def verify_ops(seed: int, work: str) -> list:
    ops = [(f"suite {s}", lambda s=s: harness.run_suite(s, 5)) for s in SUITES]
    ops.append(("d4 1423 size 14", lambda: count_avoiders(AvoidanceQuery(
        DumontKind.D4, 14, frozenset([ClassicalPattern.parse("1423")])))))
    return _shuffled(ops, seed)


def _pair_count(n: int) -> int:
    """Kind-1 avoiders of both known-finding patterns, by exhaustive search."""
    return sum(1 for p in reference.dumont1_members(2 * n)
               if not any(reference.contains(p, q) for q in reference.KNOWN_FINDING_PATTERNS))


def verify_check(answers: dict, root: str, deep: bool) -> list[Verdict]:
    out = []
    position: dict[str, int] = {}
    for suite, theorem, n, ref in reference.verify_rows():
        i = position[suite] = position.get(suite, -1) + 1
        report = answers.get(f"suite {suite}")
        row = report.rows[i] if report is not None and i < len(report.rows) else None
        name = f"{theorem} n={n}"
        if row is None or (row.theorem, row.n) != (theorem, n):
            out.append(Verdict(name, False, f"row missing, got {row}"))
            continue
        ok = row.enumerated == ref and row.formula == ref
        known = (not ok
                 and reference.KNOWN_FINDINGS.get((theorem, n)) == (row.enumerated, row.formula)
                 and str(_pair_count(n)) == row.enumerated)
        out.append(Verdict(name, ok, "" if ok else
                           f"enumerated {row.enumerated}, formula {row.formula}, "
                           f"recorded reference {ref}", known))
    got = answers.get("d4 1423 size 14")
    series = d4_1423_series(7).coefficient(7)
    golden = reference.golden_table(root, "a343795.json")["values"][7]
    ok = got == series == golden
    out.append(Verdict("d4 1423 size 14", ok,
                       "" if ok else f"got {got}, series {series}, golden {golden}"))
    return out


def verify_layers(answers: dict, work: str) -> dict:
    return {"harness.rows": sum(len(answers[f"suite {s}"].rows) for s in SUITES)}


# ---------------------------------------------------------------------------
# enumerate: three listing commands through the CLI into a hashing sink

COMMANDS = (
    ("enumerate", "--kind", "1", "--size", "12"),
    ("enumerate", "--kind", "3", "--size", "12", "--format", "csv"),
    ("avoid", "--kind", "4", "--size", "12", "--pattern", "321", "--exactly", "1", "--list"),
)


class HashingSink:
    """Text stream that hashes and counts what ``cli.main`` writes and saves it to a file."""

    def __init__(self, fh):
        self.fh = fh
        self.sha = hashlib.sha256()
        self.bytes = 0
        self.lines = 0

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self.sha.update(data)
        self.bytes += len(data)
        self.lines += text.count("\n")
        self.fh.write(data)
        return len(text)


@dataclass
class CliOutput:
    code: int
    digest: str
    lines: int
    bytes: int
    path: str


def _run_cli(argv: tuple[str, ...], path: str) -> CliOutput:
    with open(path, "wb") as fh:
        sink = HashingSink(fh)
        code = cli.main(list(argv), out=sink)
    return CliOutput(code, sink.sha.hexdigest(), sink.lines, sink.bytes, path)


def enumerate_ops(seed: int, work: str) -> list:
    ops = [(" ".join(argv), lambda i=i, argv=argv: _run_cli(argv, os.path.join(work, f"out{i}")))
           for i, argv in enumerate(COMMANDS)]
    return _shuffled(ops, seed)


def _member(kind: DumontKind, line: str, pattern) -> bool:
    """The line is a member of the kind (with one occurrence of ``pattern``, if given)."""
    try:
        p = Permutation(int(x) for x in line.split(","))
        return is_dumont(kind, p) and (pattern is None or count_occurrences(p, pattern) == 1)
    except ValueError:
        return False


def enumerate_check(answers: dict, root: str, deep: bool) -> list[Verdict]:
    out = []
    for argv in COMMANDS:
        cmd = " ".join(argv)
        got = answers.get(cmd)
        same = (got is not None and got.code == 0
                and got.digest == reference.CLI_DIGESTS[cmd])
        out.append(Verdict(f"{cmd}: stdout digest", same,
                           "" if same else f"exit {got and got.code}, sha256 {got and got.digest}"))
        if got is None:
            out += [Verdict(f"{cmd}: {what}", False, "no output")
                    for what in ("members", "order", "count")]
            continue
        if same and not deep:
            # Same bytes as the seed's output, which the deep check of this
            # run's first execution verified line by line.
            out += [Verdict(f"{cmd}: {what}", True) for what in ("members", "order", "count")]
            continue
        with open(got.path, encoding="utf-8", newline="") as fh:
            lines = fh.read().splitlines()
        if "csv" in argv:
            rows = list(csv.reader(lines))
            lines = [r[0] for r in rows[1:]] if rows and rows[0] == ["permutation"] else []
        kind = DumontKind(int(argv[argv.index("--kind") + 1]))
        if argv[0] == "avoid":
            want = closed_form(SequenceId.D4_321_1, 6)
            pattern = ClassicalPattern.parse("321")
        else:
            want = reference.seidel_genocchi(7)[-1]
            pattern = None
        bad = sum(not _member(kind, line, pattern) for line in lines)
        out.append(Verdict(f"{cmd}: members", not bad, f"{bad} bad lines" if bad else ""))
        perms = [] if bad else [tuple(int(x) for x in line.split(",")) for line in lines]
        ordered = not bad and all(a < b for a, b in zip(perms, perms[1:]))
        out.append(Verdict(f"{cmd}: order", ordered, "" if ordered else "not strictly increasing"))
        out.append(Verdict(f"{cmd}: count", len(lines) == want,
                           "" if len(lines) == want else f"{len(lines)} lines, want {want}"))
    return out


def enumerate_layers(answers: dict, work: str) -> dict:
    outs = [answers[" ".join(argv)] for argv in COMMANDS]
    return {"cli.lines_out": sum(o.lines for o in outs),
            "cli.bytes_out": sum(o.bytes for o in outs)}


# ---------------------------------------------------------------------------
# series: the continued fraction against the block system, and Genocchi numbers

ORDER = 150
GENOCCHI_N = 60


def series_ops(seed: int, work: str) -> list:
    rng = random.Random(seed)
    ns = list(range(1, GENOCCHI_N + 1))
    rng.shuffle(ns)
    ops = [("continued fraction", lambda: d4_1423_series(ORDER)),
           ("block system", lambda: solve_prst_system(ORDER).series()),
           ("genocchi", lambda: {n: genocchi(n) for n in ns})]
    rng.shuffle(ops)
    return ops


def series_check(answers: dict, root: str, deep: bool) -> list[Verdict]:
    cf = answers.get("continued fraction")
    block = answers.get("block system")
    ok = cf is not None and cf == block and cf.order == ORDER
    out = [Verdict("continued fraction == block system", ok, "" if ok else "series differ")]
    golden = reference.golden_table(root, "a343795.json")["values"]
    for n, want in enumerate(golden):
        got = cf.coefficient(n) if cf is not None else None
        out.append(Verdict(f"a343795 n={n}", got == want,
                           "" if got == want else f"got {got}, golden {want}"))
    gen = answers.get("genocchi") or {}
    for n, want in enumerate(reference.seidel_genocchi(GENOCCHI_N), start=1):
        got = gen.get(n)
        out.append(Verdict(f"genocchi n={n}", got == want,
                           "" if got == want else f"got {got}, Seidel {want}"))
    return out


def series_layers(answers: dict, work: str) -> dict:
    return {}


@dataclass(frozen=True)
class Workload:
    ops: Callable[[int, str], list]
    check: Callable[[dict, str, bool], list[Verdict]]
    layers: Callable[[dict, str], dict]


WORKLOADS = {
    "conjecture": Workload(conjecture_ops, conjecture_check, conjecture_layers),
    "verify": Workload(verify_ops, verify_check, verify_layers),
    "enumerate": Workload(enumerate_ops, enumerate_check, enumerate_layers),
    "series": Workload(series_ops, series_check, series_layers),
}
