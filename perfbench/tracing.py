"""Host-time spans around the program's public entry points.

Nothing under ``src/`` knows about this module. For a traced pass,
:class:`Tracer` replaces each boundary's public functions (class
attributes or module attributes) with timing wrappers and restores the
originals afterwards, so untraced passes run the unmodified program.

Each wrapped call records a span: layer name, start, end, parent span
and step id. A layer's self time is its span durations minus the time
of the spans nested inside them. The benchmark's own bookkeeping after
a call (reading counters off a result) runs outside the call's span and
is charged to ``bench``, together with step time that no layer covers,
so per-layer self times plus ``bench.self_s`` add up to the traced wall
time exactly.
"""

from __future__ import annotations

import inspect
import json
from collections import Counter
from time import perf_counter
from typing import Any, Callable

#: Most spans kept per run for the Chrome trace; later spans still count
#: towards self times and calls, and the number dropped is reported.
SPAN_CAP = 100_000


def _public_methods(cls: type) -> list[str]:
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(value)
    ]


def boundaries() -> dict[str, list[tuple[Any, str]]]:
    """layer -> the (owner, attribute) pairs timed as that layer."""
    import repro.analyzer.processing as processing
    import repro.analyzer.sweep as sweep
    import repro.chaos.harness as harness
    import repro.fleet.scheduler as scheduler
    import repro.fleet.worker as worker
    import repro.net.cluster as cluster
    import repro.traces.synthetic as synthetic
    from repro.analyzer.structures import EmulatedMatcher
    from repro.core.engine import OptimisticMatcher
    from repro.core.threadsim import SteppedExecutor
    from repro.dpa.costs import DpaCostModel
    from repro.matching.fallback import FallbackMatcher
    from repro.matching.list_matcher import ListMatcher
    from repro.net.fabric import Fabric
    from repro.net.fabricwire import FabricWire
    from repro.obs.ledger import FlightRecorder
    from repro.pressure.controller import PressuredPipeline
    from repro.rdma.protocol import RdmaReceiver, RdmaSender
    from repro.rdma.reliability import ReliableWire

    def on(owner, *names):
        return [(owner, name) for name in names]

    return {
        "core.engine": on(
            OptimisticMatcher, "post_receive", "submit_message", "process_all", "process_block"
        ),
        "core.executor": on(SteppedExecutor, "run"),
        "dpa.costs": on(DpaCostModel, "block_cycles"),
        "matching": on(ListMatcher, *_public_methods(ListMatcher))
        + on(FallbackMatcher, *_public_methods(FallbackMatcher)),
        "analyzer.process": on(processing, "analyze"),
        "analyzer.emu": on(EmulatedMatcher, "post_receive", "deliver"),
        "traces.gen": on(synthetic, "generate") + on(cluster, "cluster_workload"),
        "fleet.scheduler": on(sweep, "run_jobs"),
        "fleet.codec": on(worker, "encode_result") + on(scheduler, "decode_result"),
        "rdma.protocol": on(RdmaSender, "send") + on(RdmaReceiver, "post_receive", "progress"),
        "rdma.wire": on(ReliableWire, "transmit", "receive", "drain"),
        "net.fabric": on(Fabric, "inject", "deliver") + on(FabricWire, "transmit"),
        "net.cluster": on(cluster.ClusterSim, "__init__", "run"),
        "obs.ledger": on(
            FlightRecorder,
            "open", "stamp", "stamp_at", "complete", "note", "mark", "rewind",
            "label", "open_receive", "close_receive", "event",
        ),
        "chaos.harness": on(harness, "run_chaos"),
        "pressure": on(PressuredPipeline, *_public_methods(PressuredPipeline)),
    }


#: The layer boundaries, in report order (keys of :func:`boundaries`).
LAYERS = (
    "core.engine",
    "core.executor",
    "dpa.costs",
    "matching",
    "analyzer.process",
    "analyzer.emu",
    "traces.gen",
    "fleet.scheduler",
    "fleet.codec",
    "rdma.protocol",
    "rdma.wire",
    "net.fabric",
    "net.cluster",
    "obs.ledger",
    "chaos.harness",
    "pressure",
)

#: Counters read off public results -> unit (beyond calls/self_s/share).
COUNTERS = {
    "core.engine.conflict_frac": "fraction",
    "core.executor.steps": "count",
    "core.executor.wait_polls": "count",
    "core.executor.useful_ratio": "fraction",
    "fleet.codec.bytes": "bytes",
    "rdma.wire.retransmits": "count",
    "rdma.wire.useful_ratio": "fraction",
    "net.fabric.peak_wait_ticks": "ticks",
}


class Tracer:
    """Span recorder for the traced passes of one run."""

    def __init__(self) -> None:
        self.layers = boundaries()
        assert tuple(self.layers) == LAYERS
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.peak_wait = 0
        #: (layer, start, end, span id, parent id, step) in end order.
        self.spans: list[tuple] = []
        self.dropped = 0
        self.wall_s = 0.0
        self.bench_s = 0.0
        self.step = -1
        self._next_id = 0
        #: Open spans: [child time, span id]; the root is the step.
        self._stack: list[list] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self._engines: list = []
        self._wires: list = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        from repro.core.engine import OptimisticMatcher
        from repro.rdma.reliability import ReliableWire

        hooks = {
            ("core.executor", "run"): self._executor_stats,
            ("fleet.codec", "encode_result"): self._codec_bytes,
            ("net.cluster", "run"): self._link_waits,
        }
        for layer, targets in self.layers.items():
            for owner, name in targets:
                original = self._original(owner, name)
                self._patch(owner, name, self._wrap(layer, original, hooks.get((layer, name))))
        for cls, sink in ((OptimisticMatcher, self._engines), (ReliableWire, self._wires)):
            self._patch(cls, "__init__", self._register(self._original(cls, "__init__"), sink))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    @staticmethod
    def _original(owner, name: str):
        return vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)

    def _patch(self, owner, name: str, replacement) -> None:
        self._saved.append((owner, name, self._original(owner, name)))
        setattr(owner, name, replacement)

    @staticmethod
    def _register(init: Callable, sink: list) -> Callable:
        def registering_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            sink.append(obj)

        return registering_init

    def _wrap(self, layer: str, fn: Callable, hook: Callable | None) -> Callable:
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        spans = self.spans

        def timed(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [0.0, span_id]
            parent = stack[-1]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self_s[layer] += end - start - frame[0]
                calls[layer] += 1
                if len(spans) < SPAN_CAP:
                    spans.append((layer, start, end, span_id, parent[1], self.step))
                else:
                    self.dropped += 1
                parent[0] += end - start
            if hook is not None:
                hook(result)
                done = perf_counter()
                self.bench_s += done - end
                parent[0] += done - end
            return result

        return timed

    # -- counters read off results ---------------------------------------

    def _executor_stats(self, stats) -> None:
        self.counts["core.executor.steps"] += stats.total_steps()
        self.counts["core.executor.wait_polls"] += stats.total_wait_polls()

    def _codec_bytes(self, payload) -> None:
        self.counts["fleet.codec.bytes"] += len(json.dumps(payload, separators=(",", ":")))

    def _link_waits(self, report) -> None:
        for link in report.results["links"].values():
            self.peak_wait = max(self.peak_wait, link["peak_wait"])

    def _collect_instances(self) -> None:
        seen = set()
        for engine in self._engines:
            if id(engine.stats) in seen:
                continue  # engine generations share one stats object
            seen.add(id(engine.stats))
            mix = engine.stats.path_mix()
            self.counts["engine.conflicted"] += mix["fast"] + mix["slow"]
            self.counts["engine.matched"] += sum(mix.values())
        for wire in self._wires:
            self.counts["rdma.wire.retransmits"] += wire.stats.retransmits
            self.counts["wire.delivered"] += wire.stats.delivered
            self.counts["wire.transmitted"] += wire.stats.data_sent + wire.stats.retransmits
        self._engines.clear()
        self._wires.clear()

    # -- steps ------------------------------------------------------------

    def run_step(self, step: int, fn: Callable[[], Any]) -> Any:
        """Run one step as the root span; counters are read after it."""
        self.step = step
        span_id = self._next_id
        self._next_id = span_id + 1
        root = [0.0, span_id]
        self._stack.append(root)
        start = perf_counter()
        try:
            return fn()
        finally:
            end = perf_counter()
            self._stack.pop()
            self.wall_s += end - start
            self.bench_s += end - start - root[0]
            if len(self.spans) < SPAN_CAP:
                self.spans.append(("step", start, end, span_id, -1, step))
            else:
                self.dropped += 1
            self._collect_instances()

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of the traced passes."""
        out: dict[str, float] = {}
        wall = self.wall_s
        for layer in self.layers:
            out[f"{layer}.calls"] = float(self.calls[layer])
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.share"] = self.self_s[layer] / wall if wall else 0.0
        counts = self.counts
        out["core.engine.conflict_frac"] = _ratio(counts["engine.conflicted"], counts["engine.matched"])
        out["core.executor.steps"] = float(counts["core.executor.steps"])
        out["core.executor.wait_polls"] = float(counts["core.executor.wait_polls"])
        out["core.executor.useful_ratio"] = _ratio(
            counts["core.executor.steps"],
            counts["core.executor.steps"] + counts["core.executor.wait_polls"],
        )
        out["fleet.codec.bytes"] = float(counts["fleet.codec.bytes"])
        out["rdma.wire.retransmits"] = float(counts["rdma.wire.retransmits"])
        out["rdma.wire.useful_ratio"] = _ratio(counts["wire.delivered"], counts["wire.transmitted"])
        out["net.fabric.peak_wait_ticks"] = float(self.peak_wait)
        out["bench.self_s"] = self.bench_s
        out["trace.wall_s"] = wall
        return out

    def chrome_trace(self, meta: dict) -> dict:
        """The spans as Chrome ``trace_event`` JSON (complete "X" events)."""
        events: list[dict] = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": f"perfbench {meta.get('workload', '')} (host time)"}},
        ]
        origin = min((span[1] for span in self.spans), default=0.0)
        for layer, start, end, span_id, parent, step in sorted(
            self.spans, key=lambda span: (span[1], -span[2])
        ):
            events.append({
                "name": layer, "cat": "host", "ph": "X", "pid": 1, "tid": 1,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"step": step, "span": span_id, "parent": parent},
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {**meta, "spans_dropped": self.dropped},
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
