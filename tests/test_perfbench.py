"""The benchmark's ``conjecture``, ``series`` and ``enumerate`` workloads
run in process on the package as it is, and every answer passes the
workload's own check, so a change to the API the benchmark calls, to the
counts of the conjecture DPs, or to the bytes a listing prints, fails here
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
