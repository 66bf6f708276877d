import os

import pytest

from dumont import golden, harness, kinds, patterns
from dumont.harness import (BudgetExceeded, conjecture1_counts,
                            conjecture2_distribution, run_suite, sanity_s3)
from dumont.kinds import DumontKind
from dumont.patterns import AvoidanceQuery, ClassicalPattern, count_avoiders
from dumont.permcore import Permutation, render_diagram

SLOW = os.environ.get("DUMONT_SLOW") == "1"


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("d9_mystery", 3)


@pytest.mark.parametrize("suite", ["d1_len3", "d2_len3", "d2_len4",
                                   "d4_avoid", "d4_single", "d1d2_single"])
def test_suites_pass_at_n4(suite):
    report = run_suite(suite, 4)
    bad = [(r.theorem, r.n) for r in report.rows if not r.match]
    assert report.overall, bad


def test_d1_pairs_known_discrepancy():
    # Two of the three pair classes follow the little Schroeder numbers; the
    # third actually counts 1, 1, 3, 11, 44, 185, ... and the suite reports
    # the mismatch instead of hiding it.
    report = run_suite("d1_pairs", 4)
    bad = {(r.theorem, r.n) for r in report.rows if not r.match}
    assert bad == {("d1_pair_1342_2413", 4)}
    by_row = {(r.theorem, r.n): r for r in report.rows}
    assert by_row[("d1_pair_1342_2413", 4)].enumerated == "44"
    assert by_row[("d1_pair_1342_2413", 4)].formula == "45"
    assert by_row[("d1_pair_1342_1423", 4)].match
    assert by_row[("d1_pair_2341_2413", 4)].match


def test_run_suite_all_collects_everything():
    report = run_suite("all", 2)
    names = {r.theorem for r in report.rows}
    assert {"d1_132", "d2_321", "d4_1432", "d4_321_once", "d1_321_set"} <= names
    assert report.overall  # the pair discrepancy only appears from n = 4


def test_report_serialization_is_deterministic():
    a = run_suite("d4_avoid", 3)
    b = run_suite("d4_avoid", 3)
    assert a.to_text() == b.to_text()
    assert a.to_json() == b.to_json()
    assert "elapsed" not in a.to_text()
    assert a.to_text(include_timing=True) != a.to_text()


def test_rows_of_one_builder_at_one_n_share_one_elapsed():
    # A builder hands out all its rows of an n at once, timed as one.
    rows = [r for r in run_suite("d4_avoid", 3).rows if r.theorem.startswith("d4_1423_")]
    for n in range(4):
        at_n = [r for r in rows if r.n == n]
        assert {r.theorem for r in at_n} == {"d4_1423_series", "d4_1423_reference"}
        assert len({r.elapsed for r in at_n}) == 1
    s3 = sanity_s3(4).rows
    for n in range(5):
        at_n = [r for r in s3 if r.n == n]
        assert len(at_n) == 6 and all(r.theorem.startswith("s3_") for r in at_n)
        assert len({r.elapsed for r in at_n}) == 1


def test_sanity_s3():
    report = sanity_s3(6)
    assert report.overall
    values = {(r.theorem, r.n): int(r.enumerated) for r in report.rows}
    assert values[("s3_123", 5)] == 42
    assert values[("s3_321", 0)] == 1
    with pytest.raises(ValueError):
        sanity_s3(10)


def test_conjecture1_small():
    rows = conjecture1_counts(4)
    assert [(r.n, r.count_2143, r.count_3421) for r in rows] == [
        (0, 1, 1), (1, 1, 1), (2, 2, 2), (3, 7, 7), (4, 36, 36)]
    assert all(r.match for r in rows)
    assert rows[4].reference == 36


def test_conjecture2_table_n5_matches_reference():
    table = conjecture2_distribution(5)
    ref = golden.vincular_distribution(5)
    with pytest.raises(KeyError, match="no reference distribution for n=4"):
        golden.vincular_distribution(4)
    assert list(table.a_row) == ref["a"]
    assert list(table.b_row) == ref["b"]
    assert table.total == 239
    assert table.pointwise_relation() == (
        "=", "=", ">", ">", ">", "<", "<", "<", "=", "=", "=")
    verdict = table.verdict()
    assert verdict["cumulative_dominance_holds"]
    assert verdict["a_unimodal"] and verdict["b_unimodal"]
    assert verdict["sign_switch_k"] == 5  # 2n - 5 at n = 5


def test_conjecture2_row_sums_match_conjecture1():
    rows = conjecture1_counts(4)
    for n in (2, 3, 4):
        table = conjecture2_distribution(n)
        assert sum(table.a_row) == rows[n].count_2143
        assert sum(table.b_row) == rows[n].count_3421


def test_checkpoint_resume(tmp_path):
    path = str(tmp_path / "c1.ckpt")
    rows_direct = conjecture1_counts(3)
    rows_ckpt = conjecture1_counts(3, checkpoint_path=path)
    assert rows_ckpt == rows_direct
    assert os.path.exists(path)
    before = open(path).read()
    # A second run consumes the journal without recomputing or rewriting.
    rows_again = conjecture1_counts(3, checkpoint_path=path)
    assert rows_again == rows_direct
    assert open(path).read() == before


def test_torn_last_journal_line_is_dropped(tmp_path, capsys):
    path = tmp_path / "c1.ckpt"
    rows = conjecture1_counts(3, checkpoint_path=str(path))
    whole = path.read_text()
    last = whole.splitlines()[-1]
    path.write_text(whole[:-len(last) // 2 - 1])  # a crash halfway through the last append
    assert conjecture1_counts(3, checkpoint_path=str(path)) == rows
    assert "dropped the torn last line" in capsys.readouterr().err
    # The last n is recomputed and journaled again on a line of its own.
    assert path.read_text() == whole


def test_malformed_journal_line_is_refused(tmp_path):
    path = tmp_path / "c1.ckpt"
    conjecture1_counts(3, checkpoint_path=str(path))
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = lines[1][:-5] + "\n"
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match=rf"{path.name}: line 2 is malformed"):
        conjecture1_counts(3, checkpoint_path=str(path))
    # A malformed last line that ends in its newline was not torn mid-append.
    path.write_text("# dumont-journal schema=2 experiment=c1\nc1|n=0\t[1, 1\n")
    with pytest.raises(ValueError, match=rf"{path.name}: line 2 is malformed"):
        conjecture1_counts(3, checkpoint_path=str(path))


def test_journal_header_is_written_and_checked(tmp_path):
    path = tmp_path / "c1.ckpt"
    conjecture1_counts(2, checkpoint_path=str(path))
    header = "# dumont-journal schema=2 experiment=c1\n"
    assert path.read_text().startswith(header)
    # A journal of first-value shards (schema 1) and one without a header
    # (as written before journals had one) are refused, not extended.
    shard = "c1|n=2|2\t[1, 1]\n"
    old = "# dumont-journal schema=1 experiment=c1 shard-depth=1\n"
    for text in (old + shard, shard):
        path.write_text(text)
        with pytest.raises(ValueError, match="pass another --checkpoint path"):
            conjecture1_counts(2, checkpoint_path=str(path))
        assert path.read_text() == text
    # An empty file is a new journal.
    path.write_text("")
    assert conjecture1_counts(2, checkpoint_path=str(path)) == conjecture1_counts(2)
    assert path.read_text().startswith(header)


def test_c1_and_c2_journals_are_not_mixed(tmp_path):
    c1 = tmp_path / "c1.ckpt"
    c2 = tmp_path / "c2.ckpt"
    conjecture1_counts(2, checkpoint_path=str(c1))
    conjecture2_distribution(2, checkpoint_path=str(c2))
    with pytest.raises(ValueError, match="experiment=c1.*experiment=c2"):
        conjecture2_distribution(2, checkpoint_path=str(c1))
    with pytest.raises(ValueError, match="experiment=c2.*experiment=c1"):
        conjecture1_counts(2, checkpoint_path=str(c2))


def test_budget_exceeded_raises_and_resumes(tmp_path):
    path = str(tmp_path / "c1budget.ckpt")
    with pytest.raises(BudgetExceeded):
        conjecture1_counts(5, budget=0.0, checkpoint_path=path)
    rows = conjecture1_counts(5, checkpoint_path=path)
    assert rows[5].count_2143 == rows[5].count_3421 == 239


def test_budget_is_checked_between_dp_layers(tmp_path):
    # The two DPs at n = 7 take over a second, so a 0.05 s budget stops them
    # between two layers, and nothing but the header is journaled.
    path = tmp_path / "c2budget.ckpt"
    with pytest.raises(BudgetExceeded):
        conjecture2_distribution(7, budget=0.05, checkpoint_path=str(path))
    assert path.read_text() == "# dumont-journal schema=2 experiment=c2\n"
    table = conjecture2_distribution(7, checkpoint_path=str(path))
    ref = golden.vincular_distribution(7)
    assert (list(table.a_row), list(table.b_row)) == (ref["a"], ref["b"])


def test_render_diagram():
    assert render_diagram(Permutation.from_text("12")) == ".*\n*."
    assert render_diagram(Permutation(())) == ""
    got = render_diagram(Permutation.from_text("435621"))
    assert got == "\n".join([
        "...*..",
        "..*...",
        "*.....",
        ".*....",
        "....*.",
        ".....*",
    ])


def take_route(monkeypatch, route, n_max):
    """Make :func:`conjecture1_counts` count each pattern on ``route`` up to
    ``n_max`` and return the list of the transitions the folded DP runs
    with.  "hand" is the default, the hand-written transition on folded
    keys; "value keys" hides its rank form behind a plain wrapper; "generic"
    adds a decoy no member can contain (an increasing pattern longer than
    the size), which takes the generic transition."""
    if route == "value keys":
        def plain(make):
            def made(size):
                step, state = make(size)
                return (lambda s, w, used: step(s, w, used)), state
            return made
        monkeypatch.setattr(patterns, "_TRANSITIONS",
                            {p: plain(make) for p, make in patterns._TRANSITIONS.items()})
    elif route == "generic":
        decoy = ",".join(map(str, range(1, 2 * n_max + 2)))
        monkeypatch.setattr(harness, "_patterns", lambda texts: frozenset(
            map(ClassicalPattern.parse, [*texts, decoy])))
    folded = []
    count_ranks = kinds._count_ranks

    def spy(kind_id, size, by_rank, *args):
        folded.append(by_rank.__qualname__.split(".")[0])
        return count_ranks(kind_id, size, by_rank, *args)

    monkeypatch.setattr(kinds, "_count_ranks", spy)
    return folded


@pytest.mark.parametrize("route", ["hand", "value keys", "generic"])
def test_conjecture_routes_agree_to_n7(monkeypatch, route):
    folded = take_route(monkeypatch, route, 7)
    rows = conjecture1_counts(7)
    wilf = golden.d1_wilf_pair_counts()[:8]
    assert [r.count_2143 for r in rows] == [r.count_3421 for r in rows] == wilf
    assert all(r.match for r in rows)
    # Every count folds, one per pattern and n, except behind the plain wrapper.
    want = {"hand": {"_avoid_2143", "_avoid_3421"}, "value keys": set(),
            "generic": {"_avoid_classical"}}[route]
    assert set(folded) == want
    assert len(folded) == (0 if route == "value keys" else 2 * 8)


@pytest.mark.skipif(not SLOW, reason="opt-in: set DUMONT_SLOW=1")
@pytest.mark.parametrize("route", ["hand", "generic"])
def test_conjecture_routes_agree_at_n10(monkeypatch, route):
    # The n = 10 counts alone, a fresh process each on a 2-vCPU Xeon: hand
    # 3421 0.8 s, hand 2143 0.6 s, generic 3421 7.4 s, generic 2143 5.0 s.
    take_route(monkeypatch, route, 10)
    row = conjecture1_counts(10)[10]
    assert row.count_2143 == row.count_3421 == row.reference == 20409644


@pytest.mark.skipif(not SLOW, reason="opt-in: set DUMONT_SLOW=1")
def test_hand_routes_agree_at_n12(monkeypatch):
    # Past the vendored table: the term both generic routes give at n = 12
    # (README, Long runs), from both hand-written transitions, 6.5 s for
    # 3421 and 5.9 s for 2143 as above.
    folded = take_route(monkeypatch, "hand", 12)
    for pattern in ("2143", "3421"):
        query = AvoidanceQuery(DumontKind.D1, 24, frozenset([ClassicalPattern.parse(pattern)]))
        assert count_avoiders(query) == 3022143791
    assert folded == ["_avoid_2143", "_avoid_3421"]
