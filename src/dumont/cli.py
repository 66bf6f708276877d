"""Command-line interface.

Subcommands: enumerate, avoid, map, series, verify, conjecture, diagram.
Output formats: lines (default), json, csv.  Every report is written by
``_report``; diagnostics (errors, warnings, mismatch reasons, a budget stop)
go to stderr.  Exit code 0 when every hard assertion passes, 1 on a
verification mismatch, 2 on bad input, 3 when a budgeted run stops early (its
finished n are kept only in a checkpoint file), 141 when a reader closes stdout.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import asdict
from itertools import islice
from typing import Callable, Iterable, Optional, Sequence

from . import bijections, harness
from .gfseries import SequenceId, closed_form, d4_1423_series, solve_prst_system
from .kinds import DumontKind, _walk
from .patterns import AvoidanceQuery, ClassicalPattern, _run, count_avoiders
from .permcore import Permutation, _block_texts, _separator, render_diagram


def _kind(text: str) -> DumontKind:
    try:
        return DumontKind(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"kind must be 1, 2, 3 or 4, got {text!r}")


# Lines per ``out.write``: larger blocks ran no faster on the enumerate
# benchmark and raised its peak RSS (CHANGES.md, "Listings as text blocks").
_BLOCK = 256


def _emit(out, items: Iterable, render: Callable[[list], str], head: str = "") -> None:
    """Write ``render(block)`` for each block of ``_BLOCK`` items in turn,
    ``head`` before the first one in the same write (alone if there is none)."""
    items = iter(items)
    while (block := list(islice(items, _BLOCK))) or head:
        out.write(head + render(block) if block else head)
        head = ""


def _csv_text(rows: Iterable[Sequence]) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _report(fmt: str, out, payload, header: list[str], rows: Iterable[Sequence],
            lines: Optional[Iterable[str]] = None, pretty: bool = False) -> None:
    """Write one report: ``payload`` as json (indented and sorted keys when
    ``pretty``), ``rows`` as csv under ``header``, or ``lines`` (each
    without its newline) as text, the rows space-separated when ``lines``
    is None.  Csv and text go out ``_BLOCK`` rows to a write."""
    if fmt == "json":
        json.dump(payload, out, indent=2 if pretty else None, sort_keys=pretty)
        out.write("\n")
    elif fmt == "csv":
        _emit(out, rows, _csv_text, _csv_text([header]))
    else:
        if lines is None:
            lines = (" ".join(map(str, row)) for row in rows)
        _emit(out, lines, lambda block: "\n".join(block) + "\n")


def _members(args, out, payload: dict, blocks) -> int:
    """List the members in the walk's ``blocks`` (see
    :func:`dumont.kinds._walk`), one row each, or in json as the ``count``
    and ``elements`` added to ``payload``.  A csv row is the member's text,
    quoted when it is empty or holds a comma, as ``csv.writer`` quotes it."""
    texts = _block_texts(blocks, args.size)
    if args.format == "csv":
        q = '"' if _separator(args.size) or not args.size else ""
        _emit(out, texts, lambda block: q + f"{q}\r\n{q}".join(block) + q + "\r\n",
              "permutation\r\n")
        return 0
    if args.format == "json":
        elements = list(texts)
        payload.update(count=len(elements), elements=elements)
    _report(args.format, out, payload, [], (), lines=texts)
    return 0


def _cmd_enumerate(args, out) -> int:
    return _members(args, out, {"kind": args.kind.value, "size": args.size},
                    _walk(args.kind, args.size))


def _cmd_avoid(args, out) -> int:
    pats = args.pattern.split(",")
    if not all(pats):
        raise ValueError(f"--pattern {args.pattern!r} has an empty item")
    forbidden = frozenset(map(ClassicalPattern.parse, pats))
    if len(forbidden) < len(pats):
        raise ValueError(f"--pattern {args.pattern!r} names a pattern twice")
    if args.list and args.budget is not None:
        raise ValueError("--budget applies to a count, not to --list")
    deadline = harness._deadline(args.budget)
    query = AvoidanceQuery(args.kind, args.size, forbidden, occurrence_target=args.exactly)
    payload = {"kind": args.kind.value, "size": args.size, "patterns": pats,
               "exactly": args.exactly}
    if args.list:
        return _members(args, out, payload, _run(_walk, query))
    payload["count"] = count_avoiders(query, deadline=deadline)
    _report(args.format, out, payload, ["count"], [[payload["count"]]])
    return 0


# name -> (input parser, map); ``split321`` returns a pair and a case instead.
_MAPS = {
    "foata": (Permutation.from_text, bijections.foata),
    "foata-inv": (Permutation.from_text, bijections.foata_inverse),
    "dyck": (Permutation.from_text, bijections.d4_321_to_dyck),
    "dyck-inv": (bijections.DyckPath.parse, bijections.dyck_to_d4_321),
    "comp": (Permutation.from_text, bijections.d4_1342_to_composition),
    "comp-inv": (bijections.Composition.parse, bijections.composition_to_d4_1342),
    "reflect": (Permutation.from_text, bijections.reflect_1324_to_1243),
    "reflect-inv": (Permutation.from_text, bijections.reflect_1243_to_1324),
}


def _cmd_map(args, out) -> int:
    if args.name == "split321":
        pair = bijections.split_single_321(Permutation.from_text(args.input))
        payload = row = {"rho1": pair.rho1.to_text(), "rho2": pair.rho2.to_text(),
                         "case": pair.parity_case}
    else:
        parse, fn = _MAPS[args.name]
        row = {"output": fn(parse(args.input)).to_text()}
        payload = {"name": args.name, "input": args.input, **row}
    _report(args.format, out, payload, list(row), [list(row.values())])
    return 0


def _cmd_series(args, out) -> int:
    seq = SequenceId(args.id)
    upto = args.upto
    if upto < 0:
        raise ValueError(f"--upto must be >= 0, got {upto}")
    if args.cross_check:
        if seq is not SequenceId.A343795_D4_312:
            raise ValueError("--cross-check applies to a343795_d4_312")
        direct = d4_1423_series(upto)
        ok = direct == solve_prst_system(upto).series()
        _report(args.format, out, {"id": seq.value, "order": upto, "consistent": ok,
                                   "values": list(direct.coeffs)},
                ["order", "consistent"], [[upto, ok]],
                lines=[f"continued fraction vs block system to order {upto}: "
                       f"{'consistent' if ok else 'MISMATCH'}"])
        return 0 if ok else 1
    if seq is SequenceId.A343795_D4_312:
        values = list(enumerate(d4_1423_series(upto).coeffs))
    else:
        top = upto if seq.hi is None else min(upto, seq.hi)
        values = [(n, closed_form(seq, n)) for n in range(seq.lo, top + 1)]
    _report(args.format, out, {"id": seq.value, "start": seq.lo, "values": [v for _, v in values]},
            ["n", "value"], values)
    return 0


def _cmd_verify(args, out) -> int:
    if args.timings and args.format != "lines":
        raise ValueError(f"--timings applies to --format lines, not {args.format}")
    if args.sanity_s3 is not None:
        if args.suite is not None or args.max_n is not None:
            raise ValueError("--sanity-s3 runs alone, without --suite or --max-n")
        report = harness.sanity_s3(args.sanity_s3)
    else:
        report = harness.run_suite(args.suite or "all", 5 if args.max_n is None else args.max_n)
    _report(args.format, out, report.to_json(),
            ["theorem", "n", "enumerated", "formula", "match"],
            ([r.theorem, r.n, r.enumerated, r.formula, r.match] for r in report.rows),
            lines=report.to_text(include_timing=args.timings).splitlines(), pretty=True)
    return 0 if report.overall else 1


def _cmd_conjecture(args, out) -> int:
    if args.which == 1:
        rows = harness.conjecture1_counts(args.n, budget=args.budget,
                                          checkpoint_path=args.checkpoint)
        equal = all(r.count_2143 == r.count_3421 for r in rows)
        payload = {"conjecture": 1, "equinumerous": equal, "rows": list(map(asdict, rows))}
        header = ["n", "avoid_2143", "avoid_3421", "reference"]
        table = [[r.n, r.count_2143, r.count_3421,
                  "-" if r.reference is None else r.reference] for r in rows]
        verdict = "equinumerous over the computed range" if equal else "SEQUENCES DIFFER"
        mismatches = harness.count_mismatches(rows)
    else:
        dist = harness.conjecture2_distribution(args.n, budget=args.budget,
                                                checkpoint_path=args.checkpoint)
        rel = dist.pointwise_relation()
        payload = {"conjecture": 2, "n": dist.n, "a_row": list(dist.a_row),
                   "b_row": list(dist.b_row), "pointwise": list(rel),
                   "cumulative": list(dist.cumulative_relation()),
                   "verdict": dist.verdict()}
        header = ["k", "a", "b", "rel"]
        table = [[k, *cells] for k, cells in enumerate(zip(dist.a_row, dist.b_row, rel))]
        verdict = json.dumps(payload["verdict"], sort_keys=True)
        mismatches = harness.distribution_mismatches(dist)
    _report(args.format, out, payload, header, table, pretty=True)
    if args.format == "lines":  # csv holds the table alone
        out.write(f"verdict: {verdict}\n")
    # The verdict is reported; a count or table off the vendored data fails.
    for reason in mismatches:
        print(f"mismatch: {reason}", file=sys.stderr)
    return 1 if mismatches else 0


def _cmd_diagram(args, out) -> int:
    p = Permutation.from_text(args.perm)
    grid = render_diagram(p)
    if grid:
        out.write(grid + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dumont",
        description="Construct, count, and verify pattern-restricted Dumont permutations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(sp):
        sp.add_argument("--format", choices=("lines", "json", "csv"), default="lines")

    sp = sub.add_parser("enumerate", help="list all Dumont permutations of a kind")
    sp.add_argument("--kind", type=_kind, required=True)
    sp.add_argument("--size", type=int, required=True)
    add_format(sp)
    sp.set_defaults(fn=_cmd_enumerate)

    sp = sub.add_parser("avoid", help="count or list pattern-restricted members")
    sp.add_argument("--kind", type=_kind, required=True)
    sp.add_argument("--size", type=int, required=True)
    sp.add_argument("--pattern", required=True,
                    help="comma-separated classical patterns, e.g. 1342,1423")
    sp.add_argument("--exactly", type=int, default=None,
                    help="count members with exactly this many occurrences")
    sp.add_argument("--list", action="store_true", help="list the members (json adds the count)")
    sp.add_argument("--budget", type=float, default=None, metavar="SECONDS",
                    help="stop the count after this many seconds (exit 3)")
    add_format(sp)
    sp.set_defaults(fn=_cmd_avoid)

    sp = sub.add_parser("map", help="apply one of the constructive bijections")
    sp.add_argument("--name", required=True, choices=(*_MAPS, "split321"))
    sp.add_argument("--input", required=True,
                    help="permutation, E/N path, or +-joined composition")
    add_format(sp)
    sp.set_defaults(fn=_cmd_map)

    sp = sub.add_parser("series", help="print sequence values or cross-check the series")
    sp.add_argument("--id", required=True, choices=[s.value for s in SequenceId])
    sp.add_argument("--upto", type=int, default=10,
                    help="last index printed, or the order of --cross-check")
    sp.add_argument("--cross-check", action="store_true",
                    help="compare the continued fraction against the block system")
    add_format(sp)
    sp.set_defaults(fn=_cmd_series)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("--suite", choices=harness.SUITES, default=None)
    sp.add_argument("--max-n", type=int, default=None)
    sp.add_argument("--sanity-s3", type=int, default=None, metavar="N",
                    help="run the Catalan sanity check on S_n instead")
    sp.add_argument("--timings", action="store_true",
                    help="include elapsed times (non-deterministic output; "
                         "--format lines only)")
    add_format(sp)
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("conjecture", help="run a conjecture experiment")
    sp.add_argument("--which", type=int, choices=(1, 2), required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--budget", type=float, default=None, metavar="SECONDS")
    sp.add_argument("--checkpoint", default=None, metavar="PATH")
    add_format(sp)
    sp.set_defaults(fn=_cmd_conjecture)

    sp = sub.add_parser("diagram", help="ASCII diagram of a permutation")
    sp.add_argument("perm", help="permutation in text form")
    sp.set_defaults(fn=_cmd_diagram)

    return parser


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    stream = out if out is not None else sys.stdout
    try:
        code = args.fn(args, stream)
        if out is None:
            stream.flush()  # so that a closed pipe raises here, not at exit
        return code
    except harness.BudgetExceeded:
        print("budget exhausted" + ("; rerun with the same --checkpoint to resume"
                                    if getattr(args, "checkpoint", None) else ""), file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout (as head does); quiet the flush at exit.
        if out is None:
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), stream.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
