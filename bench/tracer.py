"""In-memory layer tracing for the benchmark.

The tracer replaces, for the duration of a `with` block, the functions each
sepcodes module imports from the layer below (for example
`sepcodes.extremal.is_isomorphic`) with wrappers that record what the
layer did, and puts the original attributes back on exit.

Two kinds of wrapper exist:

* span wrappers record one Span (name, start, end, parent, op) per call;
  they sit at boundaries crossed a few times per CLI call;
* folded wrappers sit on the hot boundaries crossed up to millions of
  times per call (the mask test, graph decoding, isomorphism tests).
  They keep only counts and busy time, and add their duration to the
  enclosing span's `folded` field so that its self time excludes it. The
  mask test is timed on one call in MASK_CHECK_TIMED_EVERY, so its busy
  time, and the self time of its callers, are estimates.

The wrappers' own cost lands in the self time of the caller; the traced
run reports it as trace.overhead_s, each wrapper style's cost per call
(timed around a no-op) times the calls made through it.

A span's self time is its duration minus the part of its interval that its
child spans cover, minus the time of folded calls made directly inside it.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    op: int  # index of the CLI call the span belongs to
    folded: float = 0.0  # seconds of folded calls made directly inside


@dataclass
class LayerStats:
    calls: int = 0
    busy: float = 0.0
    hits: int = 0  # calls that returned True: admissible, isomorphic, a code
    work: int = 0  # subsets tested, for the solver


def covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the part of [start, end] covered by the union of intervals."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time summed per span name."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        out[s.name] += (s.end - s.start) - covered(s.start, s.end, children[i]) - s.folded
    return dict(out)


@dataclass
class FanoutStats:
    workers: int = 0
    tasks: int = 0
    wait: float = 0.0  # parent time blocked on worker results and pool shutdown


LAYER_UNITS = {
    "cli.main.self_s": "s",
    "serialize.parse_graph6.calls": "count",
    "serialize.parse_graph6.busy_s": "s",
    "serialize.emit_graph6.busy_s": "s",
    "codes.is_admissible.calls": "count",
    "codes.is_admissible.busy_s": "s",
    "codes.is_admissible.pass_ratio": "ratio",
    "solver.min_code.calls": "count",
    "solver.min_code.self_s": "s",
    "solver.min_code.subsets_tested": "count",
    "solver.make_mask_checker.calls": "count",
    "solver.mask_check.calls": "count",
    "solver.mask_check.busy_s": "s",
    "solver.mask_check.hit_ratio": "ratio",
    "solver.census.self_s": "s",
    "extremal.audit_characterization.self_s": "s",
    "graphs.is_isomorphic.calls": "count",
    "graphs.is_isomorphic.busy_s": "s",
    "graphs.is_isomorphic.match_ratio": "ratio",
    "graphs.graph_from_code.calls": "count",
    "fanout.workers": "count",
    "fanout.tasks": "count",
    "fanout.wait_s": "s",
    "trace.overhead_s": "s",
}

# (module, attribute, layer name, wrapper style). A style names a method of
# Tracer that builds the wrapper.
LAYER_PATCHES = (
    ("sepcodes.cli", "main", "cli.main", "_span"),
    ("sepcodes.cli", "parse_graph6", "serialize.parse_graph6", "_span"),
    ("sepcodes.cli", "emit_graph6", "serialize.emit_graph6", "_span"),
    ("sepcodes.extremal", "emit_graph6", "serialize.emit_graph6", "_span"),
    ("sepcodes.solver", "is_admissible", "codes.is_admissible", "_span"),
    ("sepcodes.extremal", "is_admissible", "codes.is_admissible", "_span"),
    ("sepcodes.cli", "min_code", "solver.min_code", "_solve_span"),
    ("sepcodes.extremal", "min_code", "solver.min_code", "_solve_span"),
    ("sepcodes.cli", "census", "solver.census", "_span"),
    ("sepcodes.solver", "make_mask_checker", "solver.make_mask_checker", "_checker_factory"),
    ("sepcodes.extremal", "make_mask_checker", "solver.make_mask_checker", "_checker_factory"),
    ("sepcodes.cli", "audit_characterization", "extremal.audit_characterization", "_span"),
    ("sepcodes.extremal", "is_isomorphic", "graphs.is_isomorphic", "_folded"),
    ("sepcodes.extremal", "graph_from_code", "graphs.graph_from_code", "_folded"),
)

# The mask test runs about 1 us and up to 5e7 times per CLI call; timing one
# call in 64 keeps the traced audit within its time limit, and the estimate
# still rests on about a million timed calls.
MASK_CHECK_TIMED_EVERY = 64

# Both sharding call sites; the wrapper runs in the parent only.
FANOUT_PATCHES = (
    ("sepcodes.solver", "ProcessPoolExecutor", "fanout", "_pool"),
    ("sepcodes.extremal", "ProcessPoolExecutor", "fanout", "_pool"),
)


class Tracer:
    """Records spans and per-layer counts while installed.

    `layers=False` installs only the fan-out wrapper, which runs in the
    parent process, so that a sharded pass keeps its workers untraced."""

    def __init__(self, layers: bool = True, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.patches = (LAYER_PATCHES if layers else ()) + FANOUT_PATCHES
        self.spans: list[Span] = []
        self.stats: dict[str, LayerStats] = defaultdict(LayerStats)
        self.fanout = FanoutStats()
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Tracer":
        try:
            for module_name, attr, name, style in self.patches:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                wrapper = getattr(self, style)(name, original)
                self._saved.append((module, attr, original))
                setattr(module, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def next_op(self) -> None:
        self.op += 1

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn: Callable, outcome: Callable[[Any], None] | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, self.clock
        stats = self.stats[name]

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                stats.calls += 1
                stats.busy += span.end - span.start
            if result is True:
                stats.hits += 1
            if outcome is not None:
                outcome(result)
            return result

        return wrapper

    def _solve_span(self, name: str, fn: Callable) -> Callable:
        stats = self.stats[name]

        def count(report: Any) -> None:
            stats.work += report.subsets_tested

        return self._span(name, fn, count)

    def _folded(self, name: str, fn: Callable, every: int = 1) -> Callable:
        """Count every call; time one call in `every` (a power of two) and
        scale it, which keeps the cost of tracing a very hot leaf low."""
        spans, stack, clock = self.spans, self._stack, self.clock
        stats = self.stats[name]
        untimed = every - 1

        def wrapper(*args: Any) -> Any:
            stats.calls += 1
            if stats.calls & untimed:
                result = fn(*args)
            else:
                t0 = clock()
                result = fn(*args)
                dt = (clock() - t0) * every
                stats.busy += dt
                if stack:
                    spans[stack[-1]].folded += dt
            if result is True:
                stats.hits += 1
            return result

        return wrapper

    def _checker_factory(self, name: str, fn: Callable) -> Callable:
        make = self._folded(name, fn)
        wrap_check = self._folded

        def wrapper(*args: Any) -> Callable:
            return wrap_check("solver.mask_check", make(*args), MASK_CHECK_TIMED_EVERY)

        return wrapper

    def _pool(self, name: str, base: type) -> type:
        fanout, clock = self.fanout, self.clock

        class TracedPool(base):  # type: ignore[misc, valid-type]
            def __init__(self, max_workers: int | None = None, *args: Any, **kwargs: Any):
                super().__init__(max_workers, *args, **kwargs)
                fanout.workers = max(fanout.workers, self._max_workers)

            def submit(self, *args: Any, **kwargs: Any) -> Any:
                fanout.tasks += 1
                return super().submit(*args, **kwargs)

            def map(self, *args: Any, **kwargs: Any) -> Any:
                # The pool submits every task here, before the first result
                # is asked for, as the unwrapped map does.
                return self._timed(super().map(*args, **kwargs))

            @staticmethod
            def _timed(results: Any) -> Any:
                while True:
                    t0 = clock()
                    try:
                        item = next(results)
                    except StopIteration:
                        fanout.wait += clock() - t0
                        return
                    fanout.wait += clock() - t0
                    yield item

            def shutdown(self, *args: Any, **kwargs: Any) -> None:
                t0 = clock()
                super().shutdown(*args, **kwargs)
                fanout.wait += clock() - t0

        TracedPool.__name__ = TracedPool.__qualname__ = base.__name__
        return TracedPool

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics, by name, without trace.overhead_s."""
        st = self.stats
        selfs = self_times(self.spans)

        def ratio(name: str) -> float:
            return st[name].hits / st[name].calls if st[name].calls else 0.0

        return {
            "cli.main.self_s": selfs.get("cli.main", 0.0),
            "serialize.parse_graph6.calls": st["serialize.parse_graph6"].calls,
            "serialize.parse_graph6.busy_s": st["serialize.parse_graph6"].busy,
            "serialize.emit_graph6.busy_s": st["serialize.emit_graph6"].busy,
            "codes.is_admissible.calls": st["codes.is_admissible"].calls,
            "codes.is_admissible.busy_s": st["codes.is_admissible"].busy,
            "codes.is_admissible.pass_ratio": ratio("codes.is_admissible"),
            "solver.min_code.calls": st["solver.min_code"].calls,
            "solver.min_code.self_s": selfs.get("solver.min_code", 0.0),
            "solver.min_code.subsets_tested": st["solver.min_code"].work,
            "solver.make_mask_checker.calls": st["solver.make_mask_checker"].calls,
            "solver.mask_check.calls": st["solver.mask_check"].calls,
            "solver.mask_check.busy_s": st["solver.mask_check"].busy,
            "solver.mask_check.hit_ratio": ratio("solver.mask_check"),
            "solver.census.self_s": selfs.get("solver.census", 0.0),
            "extremal.audit_characterization.self_s": selfs.get(
                "extremal.audit_characterization", 0.0
            ),
            "graphs.is_isomorphic.calls": st["graphs.is_isomorphic"].calls,
            "graphs.is_isomorphic.busy_s": st["graphs.is_isomorphic"].busy,
            "graphs.is_isomorphic.match_ratio": ratio("graphs.is_isomorphic"),
            "graphs.graph_from_code.calls": st["graphs.graph_from_code"].calls,
            "fanout.workers": self.fanout.workers,
            "fanout.tasks": self.fanout.tasks,
            "fanout.wait_s": self.fanout.wait,
        }

    def overhead(self, calls: int = 50_000, repeats: int = 7) -> float:
        """Seconds the wrappers added to the traced pass: each wrapper
        style's cost per call, timed here around a no-op in the same
        process and host state, times the calls made through that style.
        The styles are timed in turn, `repeats` times, and each keeps its
        fastest time."""
        probe = Tracer(clock=self.clock)

        def noop(arg: Any) -> bool:
            return False

        styles = {
            "bare": noop,
            "span": probe._span("span", noop),
            "folded": probe._folded("folded", noop),
            "sampled": probe._folded("sampled", noop, MASK_CHECK_TIMED_EVERY),
        }
        best = dict.fromkeys(styles, float("inf"))
        for _ in range(repeats):
            probe.spans.clear()
            for style, fn in styles.items():
                t0 = time.perf_counter()
                for _ in range(calls):
                    fn(0)
                best[style] = min(best[style], (time.perf_counter() - t0) / calls)
        cost = {style: best[style] - best["bare"] for style in styles}
        st = self.stats
        # make_mask_checker pays a folded wrapper and builds a sampled one
        folded_calls = (2 * st["solver.make_mask_checker"].calls + st["graphs.is_isomorphic"].calls
                        + st["graphs.graph_from_code"].calls)
        return max(0.0, cost["span"] * len(self.spans) + cost["folded"] * folded_calls
                   + cost["sampled"] * st["solver.mask_check"].calls)

    def dump(self) -> dict[str, Any]:
        """Spans and counts in a JSON-ready form."""
        return {
            "spans": [
                {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "op": s.op, "folded": s.folded}
                for s in self.spans
            ],
            "layers": {
                name: {"calls": s.calls, "busy_s": s.busy, "hits": s.hits, "work": s.work}
                for name, s in sorted(self.stats.items())
            },
            "fanout": {"workers": self.fanout.workers, "tasks": self.fanout.tasks,
                       "wait_s": self.fanout.wait},
        }
