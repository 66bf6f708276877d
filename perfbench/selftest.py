"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py        (from the root of a checkout)

Runs each workload's operations once in this process, checks the true
answers, then corrupts one answer at a time and checks that the number of
failed operations not excused as a known finding rises (so ``correct``
turns false). Exits 0 when every corruption is caught.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import shutil
import sys
import tempfile

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (needs src on sys.path)


def failures(name: str, answers: dict, deep: bool = True) -> list:
    return [v for v in workloads.WORKLOADS[name].check(answers, ROOT, deep) if not v.ok]


def run(name: str, work: str) -> dict:
    return {op: fn() for op, fn in workloads.WORKLOADS[name].ops(0, work)}


def corrupt_conjecture(answers: dict) -> None:
    rows = list(answers["conjecture1_counts"])
    rows[6] = dataclasses.replace(rows[6], count_2143=rows[6].count_2143 + 1)
    answers["conjecture1_counts"] = rows


def corrupt_verify(answers: dict) -> None:
    report = answers["suite d1_len3"]
    report.rows[0] = dataclasses.replace(report.rows[0], enumerated="999")


def corrupt_known_finding(answers: dict) -> None:
    report = answers["suite d1_pairs"]
    for i, row in enumerate(report.rows):
        if (row.theorem, row.n) == ("d1_pair_1342_2413", 4):
            report.rows[i] = dataclasses.replace(row, enumerated="43")


def corrupt_enumerate(answers: dict) -> None:
    out = answers["enumerate --kind 1 --size 12"]
    with open(out.path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lines[0] = ",".join(str(v) for v in range(1, 13))  # identity: not kind 1
    with open(out.path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def corrupt_series(answers: dict) -> None:
    answers["genocchi"][10] += 1


def lose_answer(answers: dict) -> None:
    # An exception in the timed region leaves later answers missing.
    answers.pop(next(iter(answers)))


CASES = (
    ("conjecture", corrupt_conjecture),
    ("verify", corrupt_verify),
    ("verify", corrupt_known_finding),
    ("enumerate", corrupt_enumerate),
    ("series", corrupt_series),
    ("series", lose_answer),
)


def main() -> int:
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, ".perfbench"))
    bad = 0
    try:
        baseline = {}
        for name in workloads.WORKLOADS:
            os.makedirs(os.path.join(work, name))
            baseline[name] = run(name, os.path.join(work, name))
            found = failures(name, baseline[name])
            unexplained = [v.op for v in found if not v.known]
            print(f"{name}: {len(found)} failed, {len(found) - len(unexplained)} known findings")
            if unexplained:
                print(f"  FAIL: true answers rejected: {unexplained}")
                bad += 1
        for name, corrupt in CASES:
            answers = copy.deepcopy(baseline[name])
            before = failures(name, answers)
            corrupt(answers)
            after = failures(name, answers)
            # A corrupted known-finding row already failed; it must lose its excuse.
            caught = sum(not v.known for v in after) > sum(not v.known for v in before)
            print(f"{name} / {corrupt.__name__}: ops_failed {len(before)} -> {len(after)}, "
                  f"unexplained {sum(not v.known for v in before)} -> "
                  f"{sum(not v.known for v in after)}: {'caught' if caught else 'NOT CAUGHT'}")
            bad += not caught
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
