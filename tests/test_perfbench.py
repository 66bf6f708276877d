"""The benchmark's ``conjecture``, ``verify``, ``series`` and ``enumerate``
workloads run in process on the package as it is, and every answer passes
the workload's own check (``verify`` fails only its two recorded known
findings), so a change to the API the benchmark calls, to the counts of the
conjecture DPs or the suites, or to the bytes a listing prints, fails here
first."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = str(ROOT / "perfbench")

sys.path.insert(0, PERFBENCH)
try:
    import workloads
finally:
    sys.path.remove(PERFBENCH)


def test_conjecture_workload_passes_its_check(tmp_path):
    # The resume op reads the journal the first op wrote, so the ops run in
    # the order the workload lists them.
    answers = {op: fn() for op, fn in workloads.conjecture_ops(0, str(tmp_path))}
    verdicts = workloads.conjecture_check(answers, str(ROOT), True)
    assert len(verdicts) == 17
    assert [v.op for v in verdicts if not v.ok] == []


def test_verify_workload_passes_its_check(tmp_path):
    answers = {op: fn() for op, fn in workloads.verify_ops(0, str(tmp_path))}
    verdicts = workloads.verify_check(answers, str(ROOT), True)
    assert len(verdicts) == 220
    # Criterion 7's finding: the closed form for D1(1342, 2413) disagrees
    # with enumeration from n = 4 on, and the check recognises it as known.
    failed = [v for v in verdicts if not v.ok]
    assert [v.op for v in failed] == ["d1_pair_1342_2413 n=4", "d1_pair_1342_2413 n=5"]
    assert all(v.known for v in failed)


def test_series_workload_passes_its_check(tmp_path):
    answers = {op: fn() for op, fn in workloads.series_ops(0, str(tmp_path))}
    verdicts = workloads.series_check(answers, str(ROOT), True)
    assert verdicts
    assert [v.op for v in verdicts if not v.ok] == []


def test_enumerate_workload_passes_its_check(tmp_path):
    answers = {op: fn() for op, fn in workloads.enumerate_ops(0, str(tmp_path))}
    verdicts = workloads.enumerate_check(answers, str(ROOT), deep=True)
    assert len(verdicts) == 4 * len(workloads.COMMANDS)
    assert [v.op for v in verdicts if not v.ok] == []
