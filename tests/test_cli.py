import csv
import errno
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time

import pytest

import dumont
from dumont.cli import main
from dumont.gfseries import SequenceId
from dumont.kinds import DumontKind, generate
from dumont.patterns import AvoidanceQuery, ClassicalPattern, generate_avoiders


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_enumerate_lines():
    code, out = run_cli("enumerate", "--kind", "4", "--size", "4")
    assert code == 0
    assert out.splitlines() == ["1234", "1342", "1432"]


def test_enumerate_json():
    code, out = run_cli("enumerate", "--kind", "1", "--size", "4", "--format", "json")
    payload = json.loads(out)
    assert payload == {"kind": 1, "size": 4, "count": 3,
                       "elements": ["2143", "3421", "4213"]}


def test_enumerate_csv():
    code, out = run_cli("enumerate", "--kind", "2", "--size", "2", "--format", "csv")
    assert out.splitlines() == ["permutation", "21"]


@pytest.mark.parametrize("argv, digest", [
    # 2,073 members under the header.
    (("enumerate", "--kind", "3", "--size", "10", "--format", "csv"),
     "7b0175fc1ffbf3a1cd562afefc03fe733bc1f04121955b9612b20dc8a14c9fed"),
    (("enumerate", "--kind", "1", "--size", "10"),
     "96536e3498f12c3f123b83a4b6ffdbb07dd5e36968bb5c8e771f89ad7354d3c6"),
    (("avoid", "--kind", "4", "--size", "10", "--pattern", "321", "--exactly", "1",
      "--list", "--format", "csv"),
     "5c7c672c179dabcdfc382840c2f2df01f89a650ea9be42f232bb18879535dd6f"),
    # The header and the empty permutation's row, "".
    (("enumerate", "--kind", "2", "--size", "0", "--format", "csv"),
     "11ab280d7d33694ee0e02fb79567ee8aa5fd0282451b38ff0d2eab0628483d8e"),
])
def test_listing_bytes_are_pinned(argv, digest):
    # Listings are written in blocks of rows; the bytes, csv's "\r\n" line
    # ends included, stay those of one write per row.
    code, out = run_cli(*argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("fmt", ["lines", "csv", "json"])
@pytest.mark.parametrize("size", [0, 2, 8, 10])
def test_listings_print_what_the_permutations_print(size, fmt):
    # The listing formatter against the to_text of each member, on both
    # sides of the switch to commas at ten letters and on the empty member,
    # which csv quotes as it quotes a text with commas.
    n = str(size)
    cases = [(["enumerate", "--kind", str(kind.value), "--size", n],
              {"kind": kind.value, "size": size}, generate(kind, size)) for kind in DumontKind]
    for pats, target in (("1342,2413", None), ("321", 1)):
        query = AvoidanceQuery(DumontKind.D4 if target else DumontKind.D1, size,
                               frozenset(map(ClassicalPattern.parse, pats.split(","))), target)
        argv = ["avoid", "--kind", str(query.kind.value), "--size", n, "--pattern", pats,
                "--list"] + ([] if target is None else ["--exactly", str(target)])
        cases.append((argv, {"kind": query.kind.value, "size": size,
                             "patterns": pats.split(","), "exactly": target},
                      generate_avoiders(query)))
    for argv, payload, perms in cases:
        texts = [p.to_text() for p in perms]
        if fmt == "json":
            want = json.dumps({**payload, "count": len(texts), "elements": texts}) + "\n"
        elif fmt == "csv":
            buf = io.StringIO()
            csv.writer(buf).writerows([["permutation"], *([t] for t in texts)])
            want = buf.getvalue()
        else:
            want = "".join(t + "\n" for t in texts)
        assert run_cli(*argv, "--format", fmt) == (0, want), argv


def test_enumerate_odd_size_is_an_error():
    code, out = run_cli("enumerate", "--kind", "1", "--size", "3")
    assert code == 2


@pytest.mark.parametrize("kind", ["5", "x"])
def test_bad_kind_is_a_usage_error(kind, capsys):
    out = io.StringIO()
    with pytest.raises(SystemExit) as stop:
        main(["enumerate", "--kind", kind, "--size", "2"], out=out)
    assert stop.value.code == 2
    captured = capsys.readouterr()
    assert out.getvalue() == captured.out == ""
    assert f"kind must be 1, 2, 3 or 4, got {kind!r}" in captured.err


def test_avoid_count_and_list():
    code, out = run_cli("avoid", "--kind", "4", "--size", "8",
                        "--pattern", "1342", "--format", "json")
    payload = json.loads(out)
    assert payload["count"] == 8
    assert payload["patterns"] == ["1342"]
    assert payload["exactly"] is None
    assert "elements" not in payload

    code, out = run_cli("avoid", "--kind", "4", "--size", "8",
                        "--pattern", "1342", "--list", "--format", "json")
    payload = json.loads(out)
    assert "16325478" in payload["elements"]
    assert payload["count"] == 8


def test_avoid_multiple_patterns():
    code, out = run_cli("avoid", "--kind", "1", "--size", "8",
                        "--pattern", "1342,1423", "--format", "json")
    assert json.loads(out)["count"] == 45


def test_avoid_1423_at_size_16():
    code, out = run_cli("avoid", "--kind", "4", "--size", "16", "--pattern", "1423")
    assert (code, out) == (0, "28474\n")


def test_avoid_exactly():
    code, out = run_cli("avoid", "--kind", "4", "--size", "6",
                        "--pattern", "321", "--exactly", "1", "--format", "json")
    payload = json.loads(out)
    assert payload["count"] == 7
    assert payload["exactly"] == 1


@pytest.mark.parametrize("target", ["1000000", "99999999999999999999"])
def test_avoid_exactly_beyond_every_member_prints_0(target):
    # No member of size 8 holds that many 321s: the count is 0 at once, with
    # no work or memory per unit of the target.
    t0 = time.perf_counter()
    code, out = run_cli("avoid", "--kind", "4", "--size", "8", "--pattern", "321",
                        "--exactly", target)
    assert time.perf_counter() - t0 < 2
    assert (code, out) == (0, "0\n")


def test_avoid_exactly_list_comes_from_the_pruned_walk():
    # Only the identity has no inversion; a filter over all 28,820,619
    # members of size 16 would not finish in time.
    t0 = time.perf_counter()
    code, out = run_cli("avoid", "--kind", "4", "--size", "16", "--pattern", "21",
                        "--exactly", "0", "--list")
    assert time.perf_counter() - t0 < 10
    assert code == 0
    assert out == ",".join(str(v) for v in range(1, 17)) + "\n"


_SERIES_ERRORS = {
    ("series", "--id", "a343795_d4_312", "--cross-check", "--upto", "-1"):
        "--upto must be >= 0, got -1",
}


@pytest.mark.parametrize("argv", [
    ["avoid", "--kind", "1", "--size", "4", "--pattern", "12,21", "--exactly", "1"],
    ["avoid", "--kind", "1", "--size", "4", "--pattern", ","],
    ["series", "--id", "genocchi", "--cross-check"],
    ["series", "--id", "genocchi", "--upto", "-3"],
    ["conjecture", "--which", "1", "--n", "-1"],
    ["verify", "--suite", "d1_len3", "--max-n", "-1"],
    ["verify", "--sanity-s3", "-1"],
    ["verify", "--max-n", "-1"],
    ["conjecture", "--which", "1", "--n", "2", "--budget", "-1", "--checkpoint", "JOURNAL"],
    ["conjecture", "--which", "2", "--n", "-1", "--checkpoint", "JOURNAL"],
    ["conjecture", "--which", "2", "--n", "3", "--budget", "nan", "--checkpoint", "JOURNAL"],
    ["series", "--id", "a343795_d4_312", "--cross-check", "--upto", "-1"],
    ["diagram", "1,2,"],
    # Each map parses its input with the parser that the map table gives it.
    ["map", "--name", "dyck-inv", "--input", "UUD"],
    ["map", "--name", "comp-inv", "--input", "2,0,1"],
    # The size is checked before the csv header is written.
    ["enumerate", "--kind", "1", "--size", "3", "--format", "csv"],
    ["enumerate", "--kind", "1", "--size", "-2", "--format", "csv"],
    # An empty item or a repeated pattern is refused, not dropped or merged.
    ["avoid", "--kind", "1", "--size", "4", "--pattern", "12,"],
    ["avoid", "--kind", "1", "--size", "4", "--pattern", ",12"],
    ["avoid", "--kind", "1", "--size", "4", "--pattern", "12,,21"],
    ["avoid", "--kind", "1", "--size", "4", "--pattern", "321,321"],
    # Times are printed in the lines report only.
    ["verify", "--suite", "d4_single", "--max-n", "2", "--timings", "--format", "csv"],
    ["verify", "--suite", "d4_single", "--max-n", "2", "--timings", "--format", "json"],
    # A budget bounds a count: a listing takes none, and it is never negative.
    ["avoid", "--kind", "1", "--size", "4", "--pattern", "123", "--list", "--budget", "5"],
    ["avoid", "--kind", "1", "--size", "4", "--pattern", "123", "--budget", "-1"],
    ["avoid", "--kind", "1", "--size", "4", "--pattern", "123", "--budget", "nan"],
    # The Catalan check runs alone: a suite or an n_max given beside it is
    # refused, not dropped, so a failing suite cannot pass as exit 0.
    ["verify", "--sanity-s3", "3", "--suite", "d1_pairs", "--max-n", "5"],
    ["verify", "--sanity-s3", "3", "--suite", "all"],
    ["verify", "--sanity-s3", "3", "--max-n", "5"],
])
def test_bad_input_exits_2(argv, tmp_path, capsys):
    journal = tmp_path / "journal"
    code, out = run_cli(*(str(journal) if a == "JOURNAL" else a for a in argv))
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    pinned = _SERIES_ERRORS.get(tuple(argv))
    if pinned:  # the message names the option the user gave, not a library parameter
        assert err == f"error: {pinned}\n"
    assert not journal.exists()  # refused before a journal is opened


class ClosedPipe(io.StringIO):
    """A stream whose reader has gone, as stdout is under ``| head -1``."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def test_closed_pipe_exits_141_quietly(capsys):
    assert main(["enumerate", "--kind", "1", "--size", "6"], out=ClosedPipe()) == 141
    assert capsys.readouterr() == ("", "")


def test_stdout_closed_before_the_report_exits_141_quietly():
    # With stdout buffered, as it is by default, a short report is still
    # buffered when main returns; it must not raise when the interpreter
    # flushes stdout at exit.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(dumont.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "dumont.cli", "series", "--id", "catalan", "--upto", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # long before the interpreter has imported dumont
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_verify_timings_print_one_time_per_row():
    argv = ["verify", "--suite", "d1d2_single", "--max-n", "4"]
    code, plain = run_cli(*argv)
    timed_code, timed = run_cli(*argv, "--timings")
    assert code == timed_code == 0
    rows = timed.splitlines()[1:-1]
    assert len(rows) == len(plain.splitlines()) - 2 > 0
    assert all(re.fullmatch(r".* ok  \[\d+\.\d{3}s\]", row) for row in rows)
    assert re.sub(r"  \[\d+\.\d{3}s\]", "", timed) == plain


def test_series_first_terms_of_every_sequence():
    buf = io.StringIO()
    for seq in SequenceId:
        assert main(["series", "--id", seq.value, "--upto", "14"], out=buf) == 0
    text = buf.getvalue()
    assert text.count("\n") == 649
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1e30e8158765d13de1adc3a64e7f9c8f5f7df88123ae725763d771cac12bc5a1")


def test_map_subcommands():
    cases = [
        (["map", "--name", "foata", "--input", "435621"], "614352"),
        (["map", "--name", "foata-inv", "--input", "614352"], "435621"),
        (["map", "--name", "dyck", "--input", "1,3,5,2,6,4,7,8,9,11,12,10"],
         "EENENNENEENN"),
        (["map", "--name", "dyck-inv", "--input", "EENN"], "1342"),
        (["map", "--name", "comp", "--input", "16325478"], "3+1"),
        (["map", "--name", "comp-inv", "--input", "3+1"], "16325478"),
        (["map", "--name", "reflect-inv",
          "--input", "1,8,3,4,5,6,7,9,10,11,12,2,13,14,15,16"],
         "1,2,3,4,5,7,8,9,10,16,11,12,13,14,15,6"),
        (["map", "--name", "split321", "--input", "135462"], "1342 1342 even_b"),
        (["map", "--name", "foata", "--input", "435621", "--format", "json"],
         '{"name": "foata", "input": "435621", "output": "614352"}'),
    ]
    for argv, expected in cases:
        code, out = run_cli(*argv)
        assert code == 0, argv
        assert out.strip() == expected


def test_map_split321_json():
    code, out = run_cli("map", "--name", "split321", "--input", "135462",
                        "--format", "json")
    assert json.loads(out) == {"rho1": "1342", "rho2": "1342", "case": "even_b"}


def test_map_rejects_bad_input():
    code, _ = run_cli("map", "--name", "dyck", "--input", "1432")
    assert code == 2


def test_series_values():
    code, out = run_cli("series", "--id", "little_schroder", "--upto", "7",
                        "--format", "json")
    payload = json.loads(out)
    assert payload["start"] == 1
    assert payload["values"] == [1, 1, 3, 11, 45, 197, 903]

    code, out = run_cli("series", "--id", "a343795_d4_312", "--upto", "11",
                        "--format", "csv")
    rows = out.splitlines()
    assert rows[0] == "n,value"
    assert rows[1] == "0,1"
    assert rows[-1] == "11,7803860"


@pytest.mark.parametrize("argv, digest", [
    (("series", "--id", "a343795_d4_312", "--upto", "150", "--format", "json"),
     "bb5fcaba0ad017d22c04dad33c4afd1e7fd462ddef21950cbe44ceeb9a0c4d01"),
    (("series", "--id", "a343795_d4_312", "--upto", "150", "--cross-check",
      "--format", "json"),
     "fad90473ed4a5cfb6ee71108591ab7745ab48cf4e3340a3cdf03a002759a67e3"),
])
def test_a343795_to_order_150_is_pinned(argv, digest):
    # The two sweeps share one level source, so the cross-check alone cannot
    # catch a fault in it; the bytes pin every coefficient to order 150.
    code, out = run_cli(*argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (("enumerate", "--kind", "1", "--size", "6", "--format", "json"),
     "705685edadd464f05cb0b86046a61fe88e25ccff5dc31ccecde5a7bb76086c2f"),
    (("avoid", "--kind", "4", "--size", "8", "--pattern", "1342", "--format", "json"),
     "c0eeec0c7f9998c388366e2ede7be2f1598a058c929db158d513dfede5dbfdbf"),
    (("avoid", "--kind", "4", "--size", "8", "--pattern", "1342", "--list", "--format", "json"),
     "787d1cf2ec8afe2db400077dd876559b868a5db8fb9e721317e704c249cb4beb"),
    (("map", "--name", "foata", "--input", "435621", "--format", "csv"),
     "030d897388b1c10ca73e99254e29e5842683a7d30f0cf4386bd454c8acee851f"),
    (("map", "--name", "split321", "--input", "135462", "--format", "json"),
     "09436ec2c4268d559e1cf85530ae0ed916e4bcda1dbe535f81a38d55bacd14ad"),
    (("map", "--name", "split321", "--input", "135462", "--format", "csv"),
     "0d554f7574babb19f940d9cb1eddb922d1932bbf71a453a02d2af0eb8065f066"),
    (("series", "--id", "a343795_d4_312", "--upto", "24", "--cross-check", "--format", "json"),
     "1b5286176c68c9b283f0ed384ff68271fe2e86de168cf0cfbfd0c634b1a9764a"),
    (("series", "--id", "a343795_d4_312", "--upto", "24", "--cross-check", "--format", "csv"),
     "f655021c6cc3ad2db1a0c744a9e5650928f73b3f7921d657ba8e2147cbc2dd7b"),
    (("verify", "--suite", "d4_avoid", "--max-n", "4", "--format", "json"),
     "866ee2dae12f7c1c69b5f8b4cd0189591caded4f1f29d0358ac7a98ba8769cfe"),
    (("verify", "--suite", "d4_avoid", "--max-n", "4", "--format", "csv"),
     "af2e816d6f874064d975f8ed13d0e3107f714ea69696012c782714099f2ac47b"),
    (("verify", "--sanity-s3", "4", "--format", "json"),
     "09ca658b3a708c25de80765daa7b16bca43727cd049c5cc7b81a8d98b2e33461"),
    (("conjecture", "--which", "1", "--n", "4", "--format", "json"),
     "4012c1e87c131b75211af86034127b765a92932b611bba17d4d877ba41442fca"),
    (("conjecture", "--which", "1", "--n", "4", "--format", "csv"),
     "1df263b052fe75b2359e2c7794ce04149bd15106296fba87dc26acad294d5409"),
    (("conjecture", "--which", "2", "--n", "4", "--format", "json"),
     "92fb90ca219e91c43567e9112a1c64a91d8db4e2144cee870d27e8716b4d5b10"),
    (("conjecture", "--which", "2", "--n", "4", "--format", "csv"),
     "59665076504afa503a4833aaf0ee5f87839198960c78f77a27ad3e262ed4a77f"),
], ids=["enumerate-json", "avoid-json", "avoid-list-json", "map-csv", "map-split321-json",
        "map-split321-csv", "cross-check-json", "cross-check-csv", "verify-json",
        "verify-csv", "sanity-s3-json", "conjecture-1-json", "conjecture-1-csv",
        "conjecture-2-json", "conjecture-2-csv"])
def test_json_and_csv_report_bytes_are_pinned(argv, digest):
    # The verify and conjecture json is indented and sorted, the rest is one
    # line; csv ends its lines with "\r\n".  The bytes fix both styles.
    code, out = run_cli(*argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_series_cross_check():
    code, out = run_cli("series", "--id", "a343795_d4_312", "--upto", "24",
                        "--cross-check")
    assert code == 0
    assert "consistent" in out
    assert run_cli("series", "--id", "a343795_d4_312", "--cross-check") == (
        0, "continued fraction vs block system to order 10: consistent\n")


def test_verify_suite():
    code, out = run_cli("verify", "--suite", "d4_single", "--max-n", "4")
    assert code == 0
    assert out.endswith("overall PASS\n")
    code, out = run_cli("verify", "--suite", "d4_single", "--max-n", "4",
                        "--format", "json")
    payload = json.loads(out)
    assert payload["overall"] is True


def test_verify_csv():
    code, out = run_cli("verify", "--suite", "d4_single", "--max-n", "2",
                        "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "theorem,n,enumerated,formula,match"
    assert "d4_321_once,2,1,1,True" in out


@pytest.mark.parametrize("argv, header", [
    (("enumerate", "--kind", "4", "--size", "4"), ["permutation"]),
    (("avoid", "--kind", "4", "--size", "8", "--pattern", "1342"), ["count"]),
    (("avoid", "--kind", "4", "--size", "8", "--pattern", "1342", "--list"), ["permutation"]),
    (("map", "--name", "foata", "--input", "435621"), ["output"]),
    (("map", "--name", "split321", "--input", "135462"), ["rho1", "rho2", "case"]),
    (("series", "--id", "genocchi", "--upto", "5"), ["n", "value"]),
    (("series", "--id", "a343795_d4_312", "--cross-check"), ["order", "consistent"]),
    (("verify", "--suite", "d4_single", "--max-n", "2"),
     ["theorem", "n", "enumerated", "formula", "match"]),
    (("conjecture", "--which", "1", "--n", "3"), ["n", "avoid_2143", "avoid_3421", "reference"]),
    (("conjecture", "--which", "2", "--n", "3"), ["k", "a", "b", "rel"]),
], ids=["enumerate", "avoid", "avoid-list", "map", "map-split321", "series",
        "series-cross-check", "verify", "conjecture-1", "conjecture-2"])
def test_csv_output_is_one_table(argv, header):
    code, out = run_cli(*argv, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out, newline="")))
    assert rows[0] == header and len(rows) >= 2
    assert all(len(row) == len(header) for row in rows)
    assert out.count("\n") == out.count("\r\n") == len(rows)  # every line ends as csv's


def test_verify_sanity_s3():
    code, out = run_cli("verify", "--sanity-s3", "4")
    assert code == 0
    assert "s3_123" in out


def test_verify_reports_mismatch_with_exit_1():
    code, out = run_cli("verify", "--suite", "d1_pairs", "--max-n", "4")
    assert code == 1
    assert "MISMATCH" in out


def test_verify_determinism():
    _, first = run_cli("verify", "--suite", "all", "--max-n", "3")
    _, second = run_cli("verify", "--suite", "all", "--max-n", "3")
    assert first == second


def test_conjecture_1():
    code, out = run_cli("conjecture", "--which", "1", "--n", "3",
                        "--format", "json")
    payload = json.loads(out)
    assert payload["equinumerous"] is True
    assert payload["rows"][3] == {"n": 3, "count_2143": 7, "count_3421": 7,
                                  "reference": 7, "match": True}


def test_conjecture_1_count_off_its_reference_exits_1(tmp_path, capsys):
    journal = tmp_path / "c1"
    code, _ = run_cli("conjecture", "--which", "1", "--n", "3", "--checkpoint", str(journal))
    assert code == 0
    assert capsys.readouterr().err == ""
    text = journal.read_text()
    assert "c1|n=3\t[7, 7]\n" in text
    journal.write_text(text.replace("c1|n=3\t[7, 7]", "c1|n=3\t[1006, 1006]"))
    code, out = run_cli("conjecture", "--which", "1", "--n", "3", "--checkpoint", str(journal))
    assert code == 1
    assert "3 1006 1006 7" in out
    assert "verdict: equinumerous" in out  # reported, not asserted
    assert capsys.readouterr().err == (
        "mismatch: count_2143 at n=3 is 1006, but d1_wilf_pair gives 7 avoiders\n"
        "mismatch: count_3421 at n=3 is 1006, but d1_wilf_pair gives 7 avoiders\n")


def test_conjecture_2():
    code, out = run_cli("conjecture", "--which", "2", "--n", "3",
                        "--format", "json")
    payload = json.loads(out)
    assert sum(payload["a_row"]) == sum(payload["b_row"]) == 7
    assert payload["verdict"]["totals_equal"] is True


def _tamper(journal, tag, edit):
    """Rewrite the payload journaled under ``tag`` with ``edit(payload)``."""
    lines = journal.read_text().splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.startswith(tag + "\t"):
            payload = json.loads(line.split("\t", 1)[1])
            edit(payload)
            lines[i] = f"{tag}\t{json.dumps(payload)}\n"
    journal.write_text("".join(lines))


def test_conjecture_2_table_off_its_reference_exits_1(tmp_path, capsys):
    journal = tmp_path / "c2"
    argv = ("conjecture", "--which", "2", "--n", "5", "--checkpoint", str(journal))
    code, clean = run_cli(*argv)
    assert code == 0
    assert capsys.readouterr().err == ""
    assert run_cli(*argv) == (0, clean)  # resumed from the journal, still checked
    # The k=0 cell of row a off by 900: the row sum breaks.
    _tamper(journal, "c2|n=5", lambda p: p[0].update({"0": p[0]["0"] + 900}))
    code, out = run_cli(*argv)
    assert code == 1
    assert out.splitlines()[0] == "0 901 1 >"
    assert capsys.readouterr().err == (
        "mismatch: row a at n=5 sums to 1139, but d1_wilf_pair gives 239 avoiders\n"
        "mismatch: row a at n=5 differs from vincular_distributions\n")
    # One member moved from k=0 to k=1: the sum holds, the vendored row does not.
    _tamper(journal, "c2|n=5", lambda p: p[0].update(
        {"0": p[0]["0"] - 901, "1": p[0].get("1", 0) + 1}))
    code, out = run_cli(*argv)
    assert code == 1
    assert capsys.readouterr().err == \
        "mismatch: row a at n=5 differs from vincular_distributions\n"


def test_journal_of_another_experiment_exits_2(tmp_path, capsys):
    journal = tmp_path / "j"
    assert run_cli("conjecture", "--which", "1", "--n", "3", "--checkpoint", str(journal))[0] == 0
    code, out = run_cli("conjecture", "--which", "2", "--n", "3", "--checkpoint", str(journal))
    assert (code, out) == (2, "")
    assert "error: checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("which, record", [
    ("1", "c1|n=0\t5"),
    ("1", "c1|n=0\t[1]"),
    ("1", "c1|n=0\t{}"),
    ("2", "c2|n=2\t[1,2]"),
], ids=["c1-number", "c1-short-list", "c1-object", "c2-list-of-numbers"])
def test_malformed_journal_record_exits_2(tmp_path, capsys, which, record):
    # The header is right, so the record itself must be refused.
    journal = tmp_path / "j"
    journal.write_text(f"# dumont-journal schema=2 experiment=c{which}\n{record}\n")
    n = record.split("=")[1].split("\t")[0]
    code, out = run_cli("conjecture", "--which", which, "--n", n,
                        "--checkpoint", str(journal))
    assert (code, out) == (2, "")
    tag = record.split("\t")[0]
    assert capsys.readouterr().err == (f"error: checkpoint {journal}: the record {tag} "
                                       f"is malformed; pass another --checkpoint path\n")


def test_conjecture_budget_exit_code(tmp_path, capsys):
    # The budget message goes to stderr in every format; stdout stays empty.
    for fmt in ("lines", "json", "csv"):
        code, out = run_cli("conjecture", "--which", "1", "--n", "5", "--budget", "0",
                            "--checkpoint", str(tmp_path / fmt), "--format", fmt)
        assert (code, out) == (3, "")
        assert capsys.readouterr().err == \
            "budget exhausted; rerun with the same --checkpoint to resume\n"
        # Without a checkpoint there is nothing to resume from.
        code, out = run_cli("conjecture", "--which", "2", "--n", "5", "--budget", "0",
                            "--format", fmt)
        assert (code, out) == (3, "")
        assert capsys.readouterr().err == "budget exhausted\n"


def test_avoid_budget_exit_code(capsys):
    # A spent budget stops the count with nothing on stdout, in every format.
    for fmt in ("lines", "json", "csv"):
        code, out = run_cli("avoid", "--kind", "1", "--size", "26", "--pattern", "123",
                            "--budget", "0", "--format", fmt)
        assert (code, out) == (3, "")
        assert capsys.readouterr().err == "budget exhausted\n"
    # A budget that lasts changes nothing.
    argv = ("avoid", "--kind", "1", "--size", "8", "--pattern", "123")
    assert run_cli(*argv, "--budget", "60") == run_cli(*argv) == (0, "4\n")


def test_torn_journal_lines_are_not_extended(tmp_path, capsys):
    # A record or a header left without its newline is torn: the next run
    # drops it (or starts a new journal) instead of appending to it.
    journal = tmp_path / "c1"
    argv = ("conjecture", "--which", "1", "--n", "2", "--checkpoint", str(journal))
    header = "# dumont-journal schema=2 experiment=c1\n"
    whole = header + "c1|n=0\t[1, 1]\nc1|n=1\t[1, 1]\nc1|n=2\t[2, 2]\n"
    journal.write_text(header + "c1|n=0\t[1, 1]")
    assert run_cli(*argv) == (0, "0 1 1 1\n1 1 1 1\n2 2 2 2\n"
                                 "verdict: equinumerous over the computed range\n")
    assert capsys.readouterr().err == \
        f"warning: checkpoint {journal}: dropped the torn last line 2\n"
    assert journal.read_text() == whole
    for torn in (header[:-1], header[:9]):
        journal.write_text(torn)
        assert run_cli(*argv)[0] == 0
        assert journal.read_text() == whole
        assert run_cli(*argv)[0] == 0  # resumed, not refused
        assert journal.read_text() == whole
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("where, reason", [
    ("dir", "Is a directory"),
    ("missing/c1", "No such file or directory"),
], ids=["directory", "missing-parent"])
def test_unusable_checkpoint_path_exits_2(tmp_path, capsys, where, reason):
    (tmp_path / "dir").mkdir()
    path = tmp_path / where
    code, out = run_cli("conjecture", "--which", "1", "--n", "2", "--checkpoint", str(path))
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == \
        f"error: checkpoint {path}: {reason}; pass another --checkpoint path\n"
    assert not (tmp_path / "missing").exists()


def test_diagram():
    code, out = run_cli("diagram", "12")
    assert out == ".*\n*.\n"
    code, out = run_cli("diagram", "")
    assert out == ""
