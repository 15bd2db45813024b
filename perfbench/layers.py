"""Per-layer tracing of the simulator from outside, through its public calls.

A traced repetition patches the public entry points of each layer
(``Simulation.run``, ``MetricRegistry.counter`` ... ``SpaceSaving.add_many``)
with wrappers that record host-time spans — name, start, end, parent — into
a :class:`SpanRecorder`.  Nothing under ``src/`` knows it is being measured.
Self time is a span's duration minus the time its child spans cover.

The wrappers' own cost is charged to no layer: a parent's child time
covers each child span plus its wrapper bookkeeping.  ``bench.trace_overhead``
reports what tracing costs in all.

A call that re-enters its own group (``distribution`` -> ``histogram``,
``Tracer.record`` -> ``start_span``, ``schedule_after`` -> ``schedule_at``)
folds into the outer span, so a count is the number of calls made from
outside the layer.

:data:`LAYER_MAP` is the benchmark's layer map: each per-layer metric, the
end-to-end metric it should move and the workloads on which it should
move it.
"""

from __future__ import annotations

import array
import contextlib
import json
import time

__all__ = [
    "LAYER_MAP",
    "SpanRecorder",
    "patched",
    "layer_metrics",
]

#: Per-layer metric -> (end-to-end metric it should move, workloads on
#: which it should move it).  Names, units and directions are those of
#: ``per_layer`` in BENCHMARK.json; counts are exact at a fixed seed,
#: ``*_us*`` values are host time.
LAYER_MAP = {
    "sim.engine.events_per_op":
        ("ops_per_s", "faas-bare faas-stack pulsar-stream"),
    "sim.engine.run_self_us_per_op": ("ops_per_s", "faas-bare"),
    "sim.engine.pending_after_setup": ("setup_s peak_rss_mb", "faas-stack"),
    "sim.metrics.lookups_per_op": ("ops_per_s", "faas-bare faas-stack"),
    "sim.metrics.self_us_per_op": ("ops_per_s", "faas-bare faas-stack"),
    "core.invoke_self_us_per_op": ("ops_per_s", "faas-bare"),
    "core.cold_start_ratio": ("sim_latency_p99_ms", "faas-bare"),
    "core.attempts_per_op": ("failed_op_ratio", "faas-stack"),
    "core.handler_us_per_op":
        ("(control: never moves)", "faas-bare faas-stack"),
    "obs.spans_per_op": ("ops_per_s", "faas-stack pulsar-stream"),
    "obs.tracer_self_us_per_op": ("ops_per_s", "faas-stack pulsar-stream"),
    "obs.spans_retained_per_op":
        ("rss_bytes_per_op", "faas-stack pulsar-stream"),
    "obs.monitor_ticks": ("ops_per_s", "faas-stack"),
    "obs.monitor_tick_us": ("ops_per_s", "faas-stack"),
    "obs.recorder_ticks": ("ops_per_s", "faas-stack"),
    "obs.recorder_tick_us": ("ops_per_s", "faas-stack"),
    "chaos.guard_calls_per_op": ("ops_per_s", "faas-stack"),
    "chaos.guard_self_us_per_op": ("ops_per_s", "faas-stack"),
    "chaos.faults_fired": ("ops_per_s rss_bytes_per_op", "faas-stack"),
    "chaos.faults_without_target":
        ("ops_per_s rss_bytes_per_op", "faas-stack"),
    "durable.apply_calls_per_op": ("ops_per_s", "faas-stack"),
    "durable.apply_self_us_per_op": ("ops_per_s", "faas-stack"),
    "durable.journal_bytes_per_op": ("rss_bytes_per_op", "faas-stack"),
    "durable.recoveries":
        ("failed_op_ratio sim_latency_p99_ms", "faas-stack"),
    "durable.effects_replayed":
        ("failed_op_ratio sim_latency_p99_ms", "faas-stack"),
    "baas.kv_read_us_per_call": ("ops_per_s", "faas-stack"),
    "baas.kv_write_us_per_call": ("ops_per_s", "faas-stack"),
    "pulsar.send_self_us_per_op": ("ops_per_s", "pulsar-stream"),
    "pulsar.deliveries_per_message": ("ops_per_s", "pulsar-stream"),
    "pulsar.batch_size_mean": ("ops_per_s", "pulsar-stream"),
    "pulsar.redeliveries": ("failed_op_ratio", "pulsar-stream"),
    "pulsar.dead_lettered": ("failed_op_ratio", "pulsar-stream"),
    "sketches.scalar_add_us": ("ops_per_s", "pulsar-stream"),
    "sketches.batch_add_us_per_item": ("ops_per_s", "pulsar-stream"),
    "workload.generate_s":
        ("setup_s", "faas-bare faas-stack pulsar-stream"),
    "bench.trace_overhead":
        ("(tracing cost)", "faas-bare faas-stack pulsar-stream"),
}

#: Per-layer metrics that are exact at a fixed seed but not of unit
#: ``count`` (those are exact too).
EXACT_METRICS = ("core.cold_start_ratio", "durable.journal_bytes_per_op")


class SpanRecorder:
    """Host-time spans kept in compact arrays, plus per-name aggregates.

    Spans are appended in start order; ``parents[i]`` is the index of the
    enclosing span or -1.  Per-name ``calls``, ``total_ns`` and ``self_ns``
    accumulate as spans close, so metrics need no pass over the arrays.
    """

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_ids = array.array("H")
        self.starts = array.array("q")
        self.ends = array.array("q")
        self.parents = array.array("q")
        self.calls: list = []
        self.total_ns: list = []
        self.self_ns: list = []
        #: Items handed to batch calls, per span name (``add_many``).
        self.items: list = []
        #: Kernel entries scheduled through the public ``schedule_*`` calls.
        self.entries = 0
        self._scheduling = False
        #: Open spans: [span index, name id, child ns].
        self._stack: list = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._name_ids[name] = nid
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
            self.items.append(0)
        return nid

    def wrap(self, name: str, fn, group=None, items=None):
        """``fn`` recording one span named ``name`` per outside call.

        Calls made while a span of the same ``group`` is open run
        unrecorded inside it.  ``items(args)`` counts the work items of a
        batch call.
        """
        nid = self.name_id(name)
        group_ids = frozenset(self.name_id(n) for n in (group or (name,)))
        stack = self._stack
        clock = time.perf_counter_ns
        name_ids, starts, ends, parents = (
            self.name_ids, self.starts, self.ends, self.parents
        )
        calls, total_ns, self_ns, item_counts = (
            self.calls, self.total_ns, self.self_ns, self.items
        )

        def wrapper(*args, **kwargs):
            if stack and stack[-1][1] in group_ids:
                return fn(*args, **kwargs)
            entered = clock()
            index = len(starts)
            parents.append(stack[-1][0] if stack else -1)
            name_ids.append(nid)
            starts.append(0)
            ends.append(0)
            frame = [index, nid, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                starts[index] = start
                ends[index] = end
                calls[nid] += 1
                total_ns[nid] += duration
                self_ns[nid] += duration - frame[2]
                if items is not None:
                    item_counts[nid] += items(args)
                if stack:
                    # The parent's child time includes this wrapper's own
                    # bookkeeping, so no layer's self time carries it.
                    stack[-1][2] += clock() - entered

        wrapper.__wrapped__ = fn
        return wrapper

    def count_entries(self, fn, weight=None):
        """``fn`` adding its scheduled-entry count to :attr:`entries`."""

        def wrapper(*args, **kwargs):
            if self._scheduling:
                return fn(*args, **kwargs)
            self._scheduling = True
            try:
                self.entries += 1 if weight is None else weight(args)
                return fn(*args, **kwargs)
            finally:
                self._scheduling = False

        wrapper.__wrapped__ = fn
        return wrapper

    def stat(self, name: str, field: str) -> int:
        nid = self._name_ids.get(name)
        return 0 if nid is None else getattr(self, field)[nid]

    def save(self, path) -> None:
        """Write every span as ``.npz`` columns plus the name table."""
        import numpy

        numpy.savez(
            path,
            name=numpy.frombuffer(self.name_ids, dtype=numpy.uint16),
            start_ns=numpy.frombuffer(self.starts, dtype=numpy.int64),
            end_ns=numpy.frombuffer(self.ends, dtype=numpy.int64),
            parent=numpy.frombuffer(self.parents, dtype=numpy.int64),
            names=numpy.array(json.dumps(self.names)),
        )


def _patch_table():
    """(owner class, attribute, span name, group, items) for every layer."""
    from taureau.baas import KvStore
    from taureau.chaos.faults import ChaosController
    from taureau.core.platform import FaasPlatform
    from taureau.durable import DurabilityManager
    from taureau.obs import Monitor, RunRecorder
    from taureau.obs.trace import Span, Tracer
    from taureau.pulsar.cluster import Producer
    from taureau.sim.metrics import MetricRegistry
    from taureau.sketches import CountMinSketch, SpaceSaving

    lookups = ("counter", "gauge", "histogram", "distribution", "series",
               "labeled_counter", "labeled_gauge", "labeled_histogram")
    lookup_group = tuple(f"sim.metrics.{name}" for name in lookups)
    tracer_group = ("obs.tracer.start_span", "obs.tracer.record",
                    "obs.tracer.finish")
    table = [(MetricRegistry, name, f"sim.metrics.{name}", lookup_group, None)
             for name in lookups]
    table += [
        (Tracer, "start_span", "obs.tracer.start_span", tracer_group, None),
        (Tracer, "record", "obs.tracer.record", tracer_group, None),
        (Span, "finish", "obs.tracer.finish", tracer_group, None),
        (Monitor, "tick", "obs.monitor.tick", None, None),
        (RunRecorder, "tick", "obs.recorder.tick", None, None),
        (FaasPlatform, "invoke", "core.invoke", None, None),
        (ChaosController, "guard", "chaos.guard", None, None),
        (DurabilityManager, "apply", "durable.apply", None, None),
        (KvStore, "get", "baas.kv.get", None, None),
        (KvStore, "counter_add", "baas.kv.counter_add", None, None),
        (Producer, "send", "pulsar.send", None, None),
        (CountMinSketch, "add", "sketches.countmin.add", None, None),
        (SpaceSaving, "add_many", "sketches.spacesaving.add_many", None,
         lambda args: len(args[1])),
    ]
    return table


@contextlib.contextmanager
def patched(recorder: SpanRecorder):
    """Install the layer wrappers for the duration of the block."""
    from taureau.sim import Simulation

    saved = []

    def patch(owner, attribute, replacement):
        saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    try:
        patch(Simulation, "run",
              recorder.wrap("sim.engine.run", Simulation.run))
        for attribute in ("schedule_at", "schedule_after", "schedule_daemon"):
            patch(Simulation, attribute,
                  recorder.count_entries(getattr(Simulation, attribute)))
        patch(Simulation, "schedule_many", recorder.count_entries(
            Simulation.schedule_many, weight=lambda args: len(args[1])))
        for owner, attribute, name, group, items in _patch_table():
            patch(owner, attribute, recorder.wrap(
                name, owner.__dict__[attribute], group=group, items=items))
        yield recorder
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def _us(ns: float) -> float:
    return ns / 1e3


def layer_metrics(recorder: SpanRecorder, scenario, ops: int,
                  pending_after_setup: int) -> dict:
    """Every per-layer metric of one traced repetition (0 where idle)."""
    stat = recorder.stat

    def group_stat(prefix: str, field: str) -> int:
        return sum(
            getattr(recorder, field)[nid]
            for nid, name in enumerate(recorder.names)
            if name.startswith(prefix)
        )

    def per_call_us(name: str) -> float:
        calls = stat(name, "calls")
        return _us(stat(name, "total_ns")) / calls if calls else 0.0

    spans = (stat("obs.tracer.start_span", "calls")
             + stat("obs.tracer.record", "calls"))
    items = stat("sketches.spacesaving.add_many", "items")
    sim = scenario.sim_layer_counts()
    return {
        "sim.engine.events_per_op": recorder.entries / ops,
        "sim.engine.run_self_us_per_op":
            _us(stat("sim.engine.run", "self_ns")) / ops,
        "sim.engine.pending_after_setup": pending_after_setup,
        "sim.metrics.lookups_per_op":
            group_stat("sim.metrics.", "calls") / ops,
        "sim.metrics.self_us_per_op":
            _us(group_stat("sim.metrics.", "self_ns")) / ops,
        "core.invoke_self_us_per_op": _us(stat("core.invoke", "self_ns")) / ops,
        "core.cold_start_ratio": sim["cold_starts"] / ops,
        "core.attempts_per_op": sim["attempts"] / ops,
        "core.handler_us_per_op": _us(stat("core.handler", "self_ns")) / ops,
        "obs.spans_per_op": spans / ops,
        "obs.tracer_self_us_per_op":
            _us(group_stat("obs.tracer.", "self_ns")) / ops,
        "obs.spans_retained_per_op": sim["spans_retained"] / ops,
        "obs.monitor_ticks": stat("obs.monitor.tick", "calls"),
        "obs.monitor_tick_us": per_call_us("obs.monitor.tick"),
        "obs.recorder_ticks": stat("obs.recorder.tick", "calls"),
        "obs.recorder_tick_us": per_call_us("obs.recorder.tick"),
        "chaos.guard_calls_per_op": stat("chaos.guard", "calls") / ops,
        "chaos.guard_self_us_per_op": _us(stat("chaos.guard", "self_ns")) / ops,
        "chaos.faults_fired": sim["faults_fired"],
        "chaos.faults_without_target": sim["faults_without_target"],
        "durable.apply_calls_per_op": stat("durable.apply", "calls") / ops,
        "durable.apply_self_us_per_op":
            _us(stat("durable.apply", "self_ns")) / ops,
        "durable.journal_bytes_per_op": sim["journal_bytes"] / ops,
        "durable.recoveries": sim["recoveries"],
        "durable.effects_replayed": sim["effects_replayed"],
        "baas.kv_read_us_per_call": per_call_us("baas.kv.get"),
        "baas.kv_write_us_per_call": per_call_us("baas.kv.counter_add"),
        "pulsar.send_self_us_per_op": _us(stat("pulsar.send", "self_ns")) / ops,
        "pulsar.deliveries_per_message": sim["deliveries"] / ops,
        "pulsar.batch_size_mean": sim["batch_size_mean"],
        "pulsar.redeliveries": sim["redeliveries"],
        "pulsar.dead_lettered": sim["dead_lettered"],
        "sketches.scalar_add_us": per_call_us("sketches.countmin.add"),
        "sketches.batch_add_us_per_item":
            _us(stat("sketches.spacesaving.add_many", "total_ns")) / items
            if items else 0.0,
        "workload.generate_s": scenario.generate_s,
    }
