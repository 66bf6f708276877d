"""Spans around the public functions of each ``dumont`` layer, for traced runs only.

The tracer rebinds public names in the modules that import them (for example
``dumont.harness.count_avoiders`` or ``dumont.cli.generate``) to wrappers that
record a span per call, and restores the originals on ``uninstall``. The
program itself is not changed. Spans stay in memory until the run ends.

A generator's span covers only the time spent inside its ``next()`` calls,
so the consumer's work between items is not charged to it. The self time of
a span is its busy time minus the busy time of the spans it caused.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
from time import perf_counter

LAYERS = ("bench", "cli", "harness", "patterns", "kinds", "gfseries", "golden")

# Public names wrapped in every module that imports them: attribute ->
# (span name, tag), where the tag selects what else the wrapper records.
_PATTERNS = {
    "count_avoiders": ("patterns.count_avoiders", "count"),
    "count_exact_occurrences": ("patterns.count_exact_occurrences", "count"),
    "vincular_histogram": ("patterns.vincular_histogram", "histogram"),
    "count_occurrences": ("patterns.count_occurrences", None),
    "generate_avoiders": ("patterns.generate_avoiders", "generator"),
}
_GFSERIES = {
    "d4_1423_series": ("gfseries.d4_1423_series", None),
    "solve_prst_system": ("gfseries.solve_prst_system", None),
    "genocchi": ("gfseries.genocchi", None),
    "closed_form": ("gfseries.closed_form", None),
}


class Span:
    __slots__ = ("id", "name", "layer", "parent", "start", "end", "busy", "child",
                 "items", "shard")

    def __init__(self, sid: int, name: str, parent: "Span | None"):
        self.id = sid
        self.name = name
        self.layer = name.split(".", 1)[0]
        self.parent = parent.id if parent is not None else None
        self.start = self.end = 0.0
        self.busy = self.child = 0.0
        self.items = 0
        self.shard = False


class Tracer:
    def __init__(self, workload: str, run_id: str):
        self.workload = workload
        self.run_id = run_id
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.counts: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _new(self, name: str) -> Span:
        span = Span(len(self.spans), name, self.stack[-1] if self.stack else None)
        self.spans.append(span)
        return span

    def _enter(self, span: Span) -> float:
        self.stack.append(span)
        t = perf_counter()
        if not span.start:
            span.start = t
        return t

    def _leave(self, span: Span, t0: float) -> None:
        t = perf_counter()
        self.stack.pop()
        span.end = t
        span.busy += t - t0
        if self.stack:
            self.stack[-1].child += t - t0

    def add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span of the benchmark's own code."""
        span = self._new(name)
        t0 = self._enter(span)
        try:
            yield span
        finally:
            self._leave(span, t0)

    def _wrap(self, fn, name: str, tag):
        tracer = self

        if tag == "generator":
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                span = tracer._new(name)
                inner = fn(*args, **kwargs)
                while True:
                    t0 = tracer._enter(span)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._leave(span, t0)
                    span.items += 1
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._new(name)
            span.shard = bool(kwargs.get("prefix"))
            t0 = tracer._enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(span, t0)
            if tag == "count":
                tracer.add("patterns.members", result)
            elif tag == "histogram":
                tracer.add("patterns.members", sum(result.values()))
            return result
        return traced

    def _rebind(self, module, attr: str, name: str, tag=None) -> None:
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, self._wrap(original, name, tag))

    # -- installation ------------------------------------------------------

    def install(self, bench_module) -> None:
        """Wrap the public names used by ``dumont.harness``, ``dumont.cli``,
        ``dumont.golden`` and the benchmark's own workload module."""
        from dumont import cli, golden, harness
        from dumont.gfseries import TruncatedSeries

        importers = (harness, cli, bench_module)
        for module in importers:
            for attr, (name, tag) in {**_PATTERNS, **_GFSERIES}.items():
                if hasattr(module, attr):
                    self._rebind(module, attr, name, tag)
            if hasattr(module, "split_prefixes"):
                self._rebind(module, "split_prefixes", "kinds.split_prefixes")
            if hasattr(module, "generate"):
                self._rebind(module, "generate", "kinds.generate", "generator")
        for attr in ("run_suite", "conjecture1_counts", "conjecture2_distribution"):
            self._rebind(harness, attr, f"harness.{attr}")
        self._rebind(cli, "main", "cli.main")
        for attr, value in list(vars(golden).items()):
            if callable(value) and not attr.startswith("_") and \
                    getattr(value, "__module__", None) == golden.__name__:
                self._rebind(golden, attr, "golden.load")
        self._rebind(TruncatedSeries, "__mul__", "gfseries.mul")
        self._rebind(TruncatedSeries, "__truediv__", "gfseries.div")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent,
                    "start": s.start, "end": s.end, "busy": s.busy,
                    "self": s.busy - s.child, "items": s.items,
                    "workload": self.workload, "run": self.run_id}) + "\n")

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of this traced execution."""
        out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        shard_ms = []
        roots = 0.0
        for s in self.spans:
            out[f"{s.layer}.self_s"] += s.busy - s.child
            out[f"{s.name}.calls"] = out.get(f"{s.name}.calls", 0) + 1
            out[f"{s.name}.busy_s"] = out.get(f"{s.name}.busy_s", 0.0) + s.busy
            out[f"{s.name}.items"] = out.get(f"{s.name}.items", 0) + s.items
            if s.shard:
                shard_ms.append(1000.0 * s.busy)
            if s.parent is None:
                roots += s.busy
        attributed = sum(out[f"{layer}.self_s"] for layer in LAYERS)
        if abs(attributed - roots) > 1e-6 * max(1.0, roots):
            raise AssertionError(f"self times sum to {attributed}, spans cover {roots}")
        out["golden.load_s"] = out.pop("golden.self_s")
        if shard_ms:
            out["harness.shard_p50_ms"] = statistics.median(shard_ms)
            out["harness.shard_p90_ms"] = (statistics.quantiles(shard_ms, n=10)[8]
                                           if len(shard_ms) > 1 else shard_ms[0])
        out.update(self.counts)
        return out
