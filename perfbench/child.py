"""One execution of one workload in a fresh interpreter.

    python3 perfbench/child.py ROOT WORKLOAD SEED TRACE DEEP WORKDIR [SPANS]

Imports ``dumont`` from ROOT/src, loads the golden tables the workload reads
(set-up), runs the workload's operations (the timed region), then checks the
answers. A SpeedProbe samples the host's speed through set-up and the timed
region. With TRACE=1 the operations run under the tracer and the spans are
written to SPANS; span times then include the probe's samples, about 1 %.
DEEP=1 asks for the line-by-line checks that a digest otherwise stands for.
Prints one JSON object on stdout.
"""

import os
import signal
import sys
import time

GOLDEN = {
    "conjecture": ("d1_wilf_pair_counts",),
    "verify": ("d1_123_size6_set", "a343795_prefix", "d4_1234_avoiders_upto_size6"),
    "enumerate": (),
    "series": (),
}


class SpeedProbe:
    """Samples the host's current speed while the program runs.

    Every 20 ms a SIGALRM handler times a fixed snippet of interpreter work
    that uses nothing from ``dumont``, so no change to the program moves it,
    but it slows down with the host as the workloads do. ``split`` returns
    the number and total duration of the samples taken since the last split.
    """

    INTERVAL_S = 0.02

    def __init__(self):
        self.count = 0
        self.total = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        acc = 0
        table = {}
        for i in range(1000):
            acc = (acc * 31 + i) % 1_000_003
            table[i & 255] = table.get(i & 255, 0) + len((i, acc))
        self.total += time.perf_counter() - t0
        self.count += 1

    def split(self) -> list:
        out = [self.count, self.total]
        self.count, self.total = 0, 0.0
        return out

    def stop(self) -> list:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        return self.split()


def main(argv: list) -> int:
    root, workload, seed, trace, deep, work = argv[1:7]
    trace = trace == "1"
    probe = SpeedProbe()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import dumont
    from dumont import golden
    if not os.path.abspath(dumont.__file__).startswith(src + os.sep):
        raise SystemExit(f"dumont imported from {dumont.__file__}, not from {src}")

    tracer = None
    if trace:
        import tracing
        import workloads
        tracer = tracing.Tracer(workload, os.path.splitext(os.path.basename(argv[7]))[0])
        tracer.install(workloads)
        with tracer.span("bench.setup"):
            for name in GOLDEN[workload]:
                getattr(golden, name)()
    else:
        for name in GOLDEN[workload]:
            getattr(golden, name)()
    setup_end = time.monotonic()
    probes = [probe.split()]

    import json
    import resource
    import traceback

    import workloads
    spec = workloads.WORKLOADS[workload]
    ops = spec.ops(int(seed), work)
    answers = {}
    error = None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            for name, fn in ops:
                answers[name] = fn()
        else:
            with tracer.span("bench.workload"):
                for name, fn in ops:
                    with tracer.span(f"bench.op.{name}"):
                        answers[name] = fn()
    except Exception:
        error = traceback.format_exc()
        print(error, file=sys.stderr)
    wall = time.perf_counter() - t0
    probes.append(probe.stop())
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        tracer.uninstall()
        tracer.write(argv[7])
        layers = tracer.summary()
        if error is None:
            layers.update(spec.layers(answers, work))
    verdicts = spec.check(answers, root, deep == "1")
    print(json.dumps({
        "setup_end": setup_end,
        "wall_s": wall,
        "probes": probes,
        "peak_rss_mib": peak_rss_mib,
        "order": [name for name, _ in ops],
        "ops": len(verdicts),
        "failed": [[v.op, v.detail, v.known] for v in verdicts if not v.ok],
        "error": error,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
