"""Benchmark of the ``dumont`` toolkit: four checked workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``dumont`` is imported from ``src``. Each
execution of a workload runs in a fresh single-process interpreter (with
DUMONT_THREADS removed), one at a time, with fresh journal paths, so every
execution pays the cold ``lru_cache`` cost that a CLI user pays. Executions
repeat until the next one would end after S seconds (at least three).

Times are reported in reference seconds: each measured time, less the time
the speed probe itself took, is divided by the mean duration of the probe's
samples taken during it and multiplied by PROBE_REF_S; the median over the
executions is reported. On a shared host the speed of the processor drifts
by tens of percent over minutes and switches between a fast and a slow mode
within seconds, which moves raw times far more than the bounds allow; the
probe, sampled every 20 ms, moves with it. The raw times are printed beside
the reported ones and kept in the results file.

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it alternates untraced and traced executions and prints the
per-layer metrics. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--workload all``
runs every workload in turn. Each result is also appended, with the seed and
a machine note, to ``.perfbench/results.jsonl``; traced runs write their spans
under ``.perfbench/spans/``.

The exit code is 0 when every answer is correct, 1 when one is not, and 2
when the checkout holds no ``dumont`` sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench"
MIN_EXECUTIONS = 3
MIN_TRACED_PAIRS = 2
# Duration of one SpeedProbe sample (child.py) that defines a reference second.
PROBE_REF_S = 0.00025
RUN_LIMIT_S = 170  # a run must end within 180 s, even when an execution hangs


def machine_note() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}


def loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return "unavailable"


def execute(root: str, workload: str, seed: int, trace: bool, deep: bool,
            work: str, spans: str, timeout: float) -> tuple[dict | None, float]:
    """Run one child; return its result (None if it crashed) and the spawn time."""
    os.makedirs(work)
    env = {k: v for k, v in os.environ.items() if k != "DUMONT_THREADS"}
    cmd = [sys.executable, os.path.join(HERE, "child.py"), root, workload, str(seed),
           "1" if trace else "0", "1" if deep else "0", work, spans]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        print(f"{workload}: execution killed after {timeout:.0f} s", file=sys.stderr)
        return None, spawned
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        print(f"{workload}: execution exited with {proc.returncode}", file=sys.stderr)
        return None, spawned
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def reference_s(raw: float, samples: list) -> float:
    """A time in reference seconds: less the speed probe's own time, over the
    mean probe sample taken during it (see SpeedProbe in child.py)."""
    count, total = samples
    return (raw - total) / (total / count) * PROBE_REF_S


def run_workload(root: str, spec: dict, workload: str, seed: int, seconds: float,
                 trace: bool) -> tuple[dict, list[str]]:
    start = time.monotonic()
    scratch = os.path.join(root, OUT_DIR, f"tmp-{os.getpid()}")
    note = machine_note()
    note["loadavg_before"] = loadavg()
    plain: list[dict] = []
    traced: list[dict] = []
    crashed = 0
    durations: list[float] = []
    counter = 0

    def once(trace_it: bool, deep: bool = False) -> dict | None:
        nonlocal crashed, counter
        counter += 1
        spans = ""
        if trace_it:
            os.makedirs(os.path.join(root, OUT_DIR, "spans"), exist_ok=True)
            spans = os.path.join(root, OUT_DIR, "spans",
                                 f"{workload}-seed{seed}-{len(traced)}.jsonl")
        t0 = time.monotonic()
        result, spawned = execute(root, workload, seed, trace_it, deep,
                                  os.path.join(scratch, f"x{counter}"), spans,
                                  RUN_LIMIT_S - (t0 - start))
        if result is None:
            crashed += 1
            return None
        result["setup_s"] = result["setup_end"] - spawned
        durations.append(time.monotonic() - t0)
        return result

    try:
        while True:
            result = once(False, deep=not plain)
            if result is not None:
                plain.append(result)
            if trace:
                result = once(True)
                if result is not None:
                    traced.append(result)
            done = len(traced) if trace else len(plain)
            need = MIN_TRACED_PAIRS if trace else MIN_EXECUTIONS
            step = statistics.median(durations) * (2 if trace else 1) if durations else 0
            if crashed or (done >= need and time.monotonic() - start + step > seconds):
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    note["loadavg_after"] = loadavg()

    executions = plain + traced
    known: dict[str, str] = {}
    unexplained: dict[str, str] = {}
    for r in executions:
        for op, detail, is_known in r["failed"]:
            (known if is_known else unexplained)[op] = detail
        if r["error"]:
            unexplained["exception"] = r["error"].strip().splitlines()[-1]
    ops = max((r["ops"] for r in executions), default=1)
    attempted = sum(r["ops"] for r in executions) + crashed * ops
    failed = sum(len(r["failed"]) for r in executions) + crashed * ops

    walls = [r["wall_s"] for r in plain]
    values: dict[str, tuple[float, str]] = {}
    if trace:
        layer_runs = [r["layers"] for r in traced if r["layers"] is not None]
        tw = [r["wall_s"] for r in traced]
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "trace.wall_s":
                value = statistics.median(tw) if tw else 0.0
            elif name == "trace.overhead_s":
                ref = [[reference_s(r["wall_s"], r["probes"][1]) for r in rs]
                       for rs in (traced, plain)]
                value = statistics.median(ref[0]) - statistics.median(ref[1]) \
                    if all(ref) else 0.0
            elif m["unit"] in ("count", "B"):
                # Work counts repeat exactly between executions.
                seen = {lr.get(name, 0) for lr in layer_runs}
                value = max(seen, default=0)
                if len(seen) > 1:
                    unexplained[name] = f"count differs between executions: {sorted(seen)}"
            else:
                value = statistics.median(lr.get(name, 0.0) for lr in layer_runs) \
                    if layer_runs else 0.0
            how = "same in" if m["unit"] in ("count", "B") else "median of"
            values[name] = (value, f"{how} {len(layer_runs)} traced")
    elif plain:
        wall_ref = [reference_s(r["wall_s"], r["probes"][1]) for r in plain]
        setup_ref = [reference_s(r["setup_s"], r["probes"][0] if r["probes"][0][0]
                                 else r["probes"][1]) for r in plain]
        rss = [r["peak_rss_mib"] for r in plain]
        computed = {
            "wall_s": (statistics.median(wall_ref),
                       f"median of {len(plain)}, reference seconds; raw median "
                       f"{statistics.median(walls):.4f} s"),
            "setup_s": (statistics.median(setup_ref),
                        f"median of {len(plain)}, reference seconds; raw median "
                        f"{statistics.median(r['setup_s'] for r in plain):.4f} s"),
            "peak_rss_mib": (statistics.median(rss), f"median of {len(rss)}"),
            "ops": (ops, "answers checked per execution"),
        }
        values = {m["name"]: computed[m["name"]] for m in spec["end_to_end"]}

    correct = not crashed and not unexplained and bool(executions)
    per_exec_failed = max((len(r["failed"]) for r in executions), default=ops)
    lines = [
        f"workload {workload}  seed {seed}  trace {int(trace)}  "
        f"executions {len(plain)} untraced, {len(traced)} traced, {crashed} crashed",
        "machine " + json.dumps(note, sort_keys=True),
        "order " + json.dumps(executions[0]["order"] if executions else []),
    ]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, (value, how) in values.items():
        shown = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
        lines.append(f"  {name:<44} {shown:>16} {units[name]:<6} {how}")
    if not trace:
        lines.append(f"  {'ops_failed':<44} {per_exec_failed:>16} {'count':<6} per execution")
    for op, detail in sorted(known.items()):
        lines.append(f"  known finding: {op}: {detail}; exhaustive enumeration agrees "
                     "with the enumerated value")
    for op, detail in unexplained.items():
        lines.append(f"  FAILED {op}: {detail}")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, (value, _) in values.items()}}
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    with open(os.path.join(root, OUT_DIR, "results.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": workload, "seed": seed, "trace": int(trace),
                             "seconds": seconds, "machine": note,
                             "wall_s": walls,
                             "setup_s": [r["setup_s"] for r in plain],
                             "probes": [r["probes"] for r in plain],
                             "traced_wall_s": [r["wall_s"] for r in traced],
                             "ops_failed": per_exec_failed, **result}) + "\n")
    return result, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dumont", "__init__.py")):
        print("error: run from the root of a dumont checkout (no src/dumont here)",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)} or all")

    results = {}
    for workload in (names if args.workload == "all" else [args.workload]):
        result, lines = run_workload(root, spec, workload, args.seed, args.seconds,
                                     bool(args.trace))
        print("\n".join(lines), flush=True)
        results[workload] = result
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
