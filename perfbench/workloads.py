"""The benchmark's three workloads, driven through the public facade.

Every workload is open loop in *simulated* time: arrivals come from a
:class:`~taureau.workload.WorkloadSpec` trace generated from the seed, and
they fire whatever the completions do.  In *host* time each one is a batch
job of a fixed input size.  A :class:`Scenario` has two timed phases —
:meth:`Scenario.setup` (trace generation, platform and subsystem
construction, registration, chaos-plan compilation, the arrival schedule)
and :meth:`Scenario.run` (``Simulation.run`` to drain, in slices of
simulated time, each timed in CPU time) — followed by
untimed bookkeeping: :meth:`Scenario.check` (correctness),
:meth:`Scenario.sim_metrics` (simulated results) and :meth:`Scenario.digest`.

Per-op bookkeeping is a few numpy columns (final time, final-state count,
outcome), so it barely shows in ``rss_bytes_per_op``; anything derived from
them is computed after the timed run.
"""

# Host clock reads are what this benchmark measures; they never
# reach simulated state, which the digest checks.
# taurlint: disable-file=TAU001

from __future__ import annotations

import collections
import hashlib
import math
import statistics
import time

import numpy

import taureau
from taureau.chaos import FaultPlan, ResiliencePolicy
from taureau.core.function import FunctionSpec
from taureau.durable import DurabilityPolicy
from taureau.obs import SloObjective
from taureau.pulsar import PulsarFunction
from taureau.sketches import CountMinSketch, SpaceSaving
from taureau.workload import WorkloadSpec, generate_trace

from probe import timed_probe

__all__ = ["SCENARIOS", "Scenario", "FaasBare", "FaasStack", "PulsarStream"]

#: Execution time of a function, from Shahrad et al., "Serverless in the
#: Wild" (USENIX ATC'20), Section 3.4: the per-function average execution
#: time of the Azure Functions trace fits a log-normal with log-mean -0.38
#: and log-sigma 2.36 (seconds).
EXEC_LOG_MEAN, EXEC_LOG_SIGMA = -0.38, 2.36
#: Memory, same paper, Section 3.5: 50% of applications allocate at most
#: 170 MB and 90% at most 400 MB.  The benchmark lays a log-normal through
#: those two points.
MEMORY_P50_MB, MEMORY_P90_MB = 170.0, 400.0
#: Which of the 8 equal-probability bands of each distribution function
#: slot i gets.  Slot 0 is a tenant's hottest function (popularity inside a
#: tenant is Zipf); the paper reports the three distributions separately,
#: so the bands are interleaved rather than rank-matched.
DURATION_BANDS = (3, 6, 1, 4, 0, 7, 2, 5)
MEMORY_BANDS = (4, 1, 6, 3, 7, 0, 5, 2)


def function_bank() -> tuple:
    """(memory MB, mean duration s) of the 8 functions every tenant deploys:
    the midpoint quantile of each distribution's band, per slot."""
    normal = statistics.NormalDist()
    bands = len(DURATION_BANDS)
    z = [normal.inv_cdf((band + 0.5) / bands) for band in range(bands)]
    memory_sigma = (math.log(MEMORY_P90_MB / MEMORY_P50_MB)
                    / normal.inv_cdf(0.9))
    return tuple(
        (round(MEMORY_P50_MB * math.exp(memory_sigma * z[memory])),
         math.exp(EXEC_LOG_MEAN + EXEC_LOG_SIGMA * z[duration]))
        for duration, memory in zip(DURATION_BANDS, MEMORY_BANDS)
    )


FUNCTION_BANK = function_bank()
#: Log-normal shape of each invocation's duration around its function's
#: mean.  The paper gives no per-invocation spread that maps onto one
#: number; this is the benchmark's own choice, so latency percentiles do
#: not sit on a step between functions.
DURATION_SIGMA = 0.5

#: Simulated hour over which faas-stack's sandbox crashes arrive: it
#: outlasts the arrivals, so the fault tail runs with no work to hit.
FAULT_WINDOW_S = 60 * 60
#: Simulated-time slices :meth:`Scenario.run` times separately over the
#: arrivals (and, on faas-stack, over the fault tail): about 50 ms of host
#: time each, short enough that the host-speed probes on either side of a
#: slice see the speed it ran at.
SLICES = 40
#: Monitor and recorder tick interval of faas-stack, a common scrape
#: interval.  Both daemons tick through the whole fault tail.
SCRAPE_INTERVAL_S = 5.0
#: Chaos event kinds of a discrete crash that hit a live target.
CRASH_KINDS = ("machine_crash", "sandbox_crash", "broker_crash",
               "bookie_crash", "jiffy_node_loss")


def recoveries_outliving(window_s: float) -> int:
    """Durable recoveries whose exponential backoffs add up to more than
    ``window_s``, so an invocation crashed again and again inside a fault
    window is re-driven after the window has closed."""
    policy = DurabilityPolicy()
    recoveries, waited = 0, 0.0
    while waited <= window_s:
        waited += (policy.recovery_backoff_s
                   * policy.recovery_backoff_multiplier ** recoveries)
        recoveries += 1
    return recoveries


def duration_model(mean_s: float):
    """A FunctionSpec duration model: log-normal with mean ``mean_s``."""
    mu = math.log(mean_s) - DURATION_SIGMA ** 2 / 2

    def draw(event, rng):
        return rng.lognormvariate(mu, DURATION_SIGMA)

    return draw


class Scenario:
    """One workload at one seed and input size; see the module docstring."""

    name = ""
    #: Input size name -> WorkloadSpec.
    SPECS: dict = {}

    def __init__(self, seed: int, size: str = "full", queue: str = "heap",
                 wrap=None):
        self.seed = seed
        self.size = size
        self.queue = queue
        #: ``wrap(name, fn)`` marks benchmark-owned code (handlers, the
        #: arrival loop, bookkeeping) for the traced run, so it stays out
        #: of every layer's self time; identity when untraced.
        self.wrap = wrap if wrap is not None else (lambda name, fn: fn)
        self.spec = self.SPECS[size]
        self.generate_s = 0.0
        self.app = None
        self.trace = None

    # -- timed phases ------------------------------------------------------

    def setup(self) -> None:
        start = time.process_time()
        self.trace = generate_trace(self.spec, seed=self.seed)
        self.generate_s = time.process_time() - start
        self.ops = len(self.trace)
        self.times = self.trace.times
        self.build()

    def slice_bounds(self) -> list:
        """Simulated times at which :meth:`run` closes a slice."""
        horizon = self.spec.horizon_s
        return [horizon * k / SLICES for k in range(1, SLICES + 1)]

    def run(self) -> None:
        """Drain the simulation slice by slice; ``slice_s`` is each
        slice's CPU time, the last one the drain after the final bound,
        and ``probe_s`` the host-speed probes taken before, between and
        after the slices (see ``probe.py``).

        ``run(until=t)`` then ``run()`` executes the same entries in the
        same order as one ``run()``; the digest checks it.  Only the first
        slice goes through ``Platform.run``, which arms the daemons."""
        clock = time.process_time
        sim = self.app.sim
        bounds = self.slice_bounds()
        self.slice_s = []
        self.probe_s = [timed_probe()]
        start = clock()
        self.app.run(until=bounds[0])
        for bound in bounds[1:] + [None]:
            self.slice_s.append(clock() - start)
            self.probe_s.append(timed_probe())
            start = clock()
            sim.run(until=bound)
        self.slice_s.append(clock() - start)
        self.probe_s.append(timed_probe())

    # -- per-workload hooks -----------------------------------------------

    def build(self) -> None:  # pragma: no cover - abstract
        """Build the platform and schedule the trace.  Afterwards the
        workload keeps, per op, ``final_at`` (simulated time of its final
        state), ``finals`` (how many final states it reached; must end at
        exactly 1) and ``ok`` (whether it succeeded)."""
        raise NotImplementedError

    def check(self) -> list:
        """Correctness failures (empty when the run is correct)."""
        failures = []
        bad = int(numpy.count_nonzero(self.finals != 1))
        if bad:
            failures.append(
                f"{bad} of {self.ops} arrivals did not reach exactly one "
                f"final state"
            )
        return failures

    def sim_layer_counts(self) -> dict:
        """Simulated per-layer counts read from public state after a run."""
        counts = dict.fromkeys((
            "cold_starts", "attempts", "spans_retained", "faults_fired",
            "faults_without_target", "journal_bytes", "recoveries",
            "effects_replayed", "deliveries", "redeliveries",
            "dead_lettered",
        ), 0)
        counts["batch_size_mean"] = 0.0
        tracer = self.app.tracer
        if tracer is not None:
            store = tracer.store
            counts["spans_retained"] = sum(
                len(store.trace(trace_id).spans)
                for trace_id in store.trace_ids()
            )
        chaos = self.app.chaos
        if chaos is not None:
            for event in chaos.events:
                if event.target == "(no target)":
                    counts["faults_without_target"] += 1
                elif event.kind in CRASH_KINDS:
                    counts["faults_fired"] += 1
        return counts

    # -- results -----------------------------------------------------------

    def latencies_s(self) -> numpy.ndarray:
        """Simulated arrival -> final-state latency of every op."""
        return self.final_at - self.times

    def failed(self) -> int:
        return int(self.ops - numpy.count_nonzero(self.ok))

    def sim_metrics(self) -> dict:
        """Simulated results; latency percentiles are over succeeded ops."""
        latency_ms = self.latencies_s()[self.ok] * 1e3
        p50, p99 = numpy.percentile(latency_ms, [50, 99])
        return {
            "failed_op_ratio": self.failed() / self.ops,
            "sim_latency_p50_ms": float(p50),
            "sim_latency_p99_ms": float(p99),
            "latency_samples": int(latency_ms.size),
        }

    def digest_parts(self) -> list:
        return [self.final_at.tobytes(), self.ok.tobytes()]

    def digest(self) -> str:
        """blake2b over every simulated result of the run."""
        hasher = hashlib.blake2b(digest_size=16)
        hasher.update(f"{self.name}:{self.seed}:{self.size}".encode())
        for part in self.digest_parts():
            hasher.update(part)
        return hasher.hexdigest()


class FaasBare(Scenario):
    """``Platform(tracing=False)``, no subsystems, every arrival invoked."""

    name = "faas-bare"
    SPECS = {
        "full": WorkloadSpec(
            tenants=2_000, functions_per_tenant=len(FUNCTION_BANK),
            horizon_s=600.0, mean_rps=40.0, peak_to_mean=3.0,
            period_s=600.0, phases=4,
        ),
        "small": WorkloadSpec(
            tenants=200, functions_per_tenant=len(FUNCTION_BANK),
            horizon_s=60.0, mean_rps=25.0, peak_to_mean=3.0,
            period_s=60.0, phases=4,
        ),
    }

    def make_platform(self):
        return taureau.Platform(seed=self.seed, tracing=False,
                                queue=self.queue)

    def handlers(self) -> list:
        """One handler per function-bank slot, shared by every tenant."""

        def handler(tenant, ctx):
            return tenant

        return [handler] * len(FUNCTION_BANK)

    def build(self) -> None:
        app = self.app = self.make_platform()
        per_tenant = len(FUNCTION_BANK)
        handlers = [self.wrap("core.handler", h) for h in self.handlers()]
        durations = [duration_model(mean_s) for __, mean_s in FUNCTION_BANK]
        names = []
        for tenant in range(self.spec.tenants):
            for index, (memory_mb, __) in enumerate(FUNCTION_BANK):
                name = f"t{tenant}.f{index}"
                app.register(FunctionSpec(
                    name=name, handler=handlers[index], memory_mb=memory_mb,
                    duration_model=durations[index], tenant=f"t{tenant}",
                ))
                names.append(name)
        trace = self.trace
        tenants = trace.tenants.tolist()
        slots = (trace.tenants.astype(numpy.int64) * per_tenant
                 + trace.functions).tolist()
        self.tenants = trace.tenants
        self.functions = trace.functions
        self.final_at = numpy.full(self.ops, numpy.nan)
        self.finals = numpy.zeros(self.ops, dtype=numpy.uint8)
        self.ok = numpy.zeros(self.ops, dtype=bool)
        self.cost_usd = 0.0
        self.cold_starts = 0
        self.attempts = 0
        invoke = app.faas.invoke
        final = self.wrap("bench.harness", self._final)

        def fire(index):
            invoke(names[slots[index]], tenants[index]).add_callback(
                lambda event, index=index: final(index, event.value)
            )

        app.with_workload(trace, fire=self.wrap("bench.harness", fire))

    def _final(self, index: int, record) -> None:
        self.finals[index] += 1
        self.final_at[index] = self.app.sim.now
        self.ok[index] = record.succeeded
        self.cost_usd += record.cost_usd
        self.cold_starts += record.cold_start
        self.attempts += record.attempts

    def check(self) -> list:
        failures = super().check()
        total = self.app.total_cost_usd()
        if not math.isclose(self.cost_usd, total, rel_tol=1e-9, abs_tol=1e-15):
            failures.append(
                f"summed record costs {self.cost_usd!r} != platform total "
                f"{total!r}"
            )
        return failures

    def sim_layer_counts(self) -> dict:
        counts = super().sim_layer_counts()
        counts["cold_starts"] = self.cold_starts
        counts["attempts"] = self.attempts
        return counts

    def sim_metrics(self) -> dict:
        metrics = super().sim_metrics()
        metrics["sim_cost_usd_per_1k_ops"] = (
            self.app.total_cost_usd() / self.ops * 1e3
        )
        return metrics

    def digest_parts(self) -> list:
        return super().digest_parts() + [
            repr((self.app.total_cost_usd(), self.cold_starts,
                  self.attempts)).encode()
        ]


class FaasStack(FaasBare):
    """The full per-invocation stack: tracing, KV, monitor, recorder,
    chaos, resilience and durability.  Even bank slots do a journaled
    read-modify-write (``counter_add``); odd slots do a live ``get``."""

    name = "faas-stack"
    SPECS = {
        # 50 tenants keep the recorder's per-function lanes few, and 70
        # arrivals/s make per-invocation work about 70% of the run phase;
        # the rest is the idle fault tail after the arrivals.
        "full": WorkloadSpec(
            tenants=50, functions_per_tenant=len(FUNCTION_BANK),
            horizon_s=300.0, mean_rps=70.0, peak_to_mean=3.0,
            period_s=300.0, phases=4,
        ),
        "small": WorkloadSpec(
            tenants=20, functions_per_tenant=len(FUNCTION_BANK),
            horizon_s=60.0, mean_rps=25.0, peak_to_mean=3.0,
            period_s=60.0, phases=4,
        ),
    }

    def slice_bounds(self) -> list:
        """The arrivals' slices, then as many over the fault tail."""
        horizon = self.spec.horizon_s
        tail = FAULT_WINDOW_S - horizon
        return super().slice_bounds() + [
            horizon + tail * k / SLICES for k in range(1, SLICES + 1)
        ]

    def make_platform(self):
        horizon = self.spec.horizon_s
        plan = (
            FaultPlan()
            .crash_sandbox(rate_hz=0.05, start_s=0.0, end_s=FAULT_WINDOW_S)
            .partition("baas.kv", start_s=0.40 * horizon,
                       end_s=0.40 * horizon + 0.5)
            .degrade("baas.kv", start_s=0.70 * horizon,
                     end_s=0.75 * horizon, extra_latency_s=0.050)
        )
        app = (
            taureau.Platform(seed=self.seed, queue=self.queue)
            .with_kvstore()
            .with_monitoring(slos=[SloObjective(
                "latency", objective=0.99, window_s=300.0,
                latency="faas.e2e_latency_s", threshold_s=1.0,
            )], interval_s=SCRAPE_INTERVAL_S)
            .with_recorder(interval_s=SCRAPE_INTERVAL_S)
            .with_chaos(plan)
            .with_resilience(ResiliencePolicy())
            # The default 8 recoveries back off for about 2 minutes in
            # all, and a long invocation that is the only sandbox left in
            # the tail is crashed again and again; with a budget that
            # outlives the hour every invocation succeeds.
            .with_durability(DurabilityPolicy(
                max_recoveries=recoveries_outliving(FAULT_WINDOW_S)))
        )
        for tenant in range(self.spec.tenants):
            app.kv.put(self.key(tenant), 0.0)
        return app

    @staticmethod
    def key(tenant: int) -> str:
        return f"count/t{tenant}"

    def handlers(self) -> list:
        key = self.key

        def write(tenant, ctx):
            return ctx.service("kv").counter_add(key(tenant), 1.0, ctx=ctx)

        def read(tenant, ctx):
            return ctx.service("kv").get(key(tenant), ctx=ctx)

        return [read if index % 2 else write
                for index in range(len(FUNCTION_BANK))]

    def tally(self) -> numpy.ndarray:
        """Per-tenant count of successful read-modify-write invocations."""
        writes = self.ok & (self.functions % 2 == 0)
        return numpy.bincount(self.tenants[writes],
                              minlength=self.spec.tenants)

    def check(self, tally=None) -> list:
        failures = Scenario.check(self)
        tally = self.tally() if tally is None else tally
        kv = self.app.kv
        wrong = [
            tenant for tenant in range(self.spec.tenants)
            if kv.get(self.key(tenant)) != float(tally[tenant])
        ]
        if wrong:
            tenant = wrong[0]
            failures.append(
                f"{len(wrong)} tenants' KV counters differ from their "
                f"successful read-modify-writes (t{tenant}: "
                f"{kv.get(self.key(tenant))} != {int(tally[tenant])})"
            )
        duplicates = self.app.durable.summary()["duplicate_effect_executions"]
        if duplicates:
            failures.append(f"{duplicates} duplicate effect executions")
        return failures

    def sim_layer_counts(self) -> dict:
        counts = super().sim_layer_counts()
        summary = self.app.durable.summary()
        counts["journal_bytes"] = summary["journal_bytes"]
        counts["recoveries"] = summary["recoveries"]
        counts["effects_replayed"] = summary["effects_replayed"]
        return counts

    def digest_parts(self) -> list:
        return super().digest_parts() + [self.tally().tobytes()]


class PulsarStream(Scenario):
    """A partitioned Zipf-keyed topic feeding a per-message Count-Min
    function (Figure 3, publishing threshold alerts) and a batched
    SpaceSaving top-k function, with one bookie crash and recovery."""

    name = "pulsar-stream"
    SPECS = {
        "full": WorkloadSpec(
            tenants=5_000, functions_per_tenant=1, horizon_s=25.0,
            mean_rps=600.0, peak_to_mean=2.0, period_s=25.0, phases=4,
        ),
        "small": WorkloadSpec(
            tenants=500, functions_per_tenant=1, horizon_s=10.0,
            mean_rps=150.0, peak_to_mean=2.0, period_s=10.0, phases=4,
        ),
    }
    PARTITIONS = 4
    WRITE_QUORUM, ACK_QUORUM = 3, 2
    ALERT_THRESHOLD = 100

    def build(self) -> None:
        horizon = self.spec.horizon_s
        plan = FaultPlan().crash_bookie(at_s=0.5 * horizon,
                                        recover_after_s=0.05 * horizon)
        app = self.app = (
            taureau.Platform(seed=self.seed, queue=self.queue)
            # Every entry goes to all three bookies and acks on two, so
            # the ledger rides out one bookie crash.  (With write = ack
            # quorum 2 an append whose quorum holds the crashed bookie
            # never acks: the ledger has no ensemble change; see the
            # xfail test in test_perfbench.py.)
            .with_pulsar(broker_count=3, bookie_count=3,
                         write_quorum=self.WRITE_QUORUM,
                         ack_quorum=self.ACK_QUORUM)
            .with_chaos(plan)
        )
        cluster = app.pulsar.cluster
        cluster.create_topic("events", partitions=self.PARTITIONS)
        cluster.create_topic("alerts")
        self.alerts = 0

        def on_alert(message, consumer):
            self.alerts += 1
            consumer.ack(message)

        cluster.subscribe("alerts", "ops", listener=on_alert)

        key_names = [f"k{tenant}" for tenant in range(self.spec.tenants)]
        keys = self.keys = [key_names[t] for t in self.trace.tenants.tolist()]
        n = self.ops
        # Row 0 is the Count-Min function, row 1 the top-k function.
        done_at = self.done_at = numpy.full((2, n), numpy.nan)
        processed = self.processed = numpy.zeros((2, n), dtype=numpy.uint8)
        dead = self.dead = numpy.zeros((2, n), dtype=numpy.uint8)
        self.batches = 0
        self.batched_items = 0
        sim = app.sim
        sketch = self.sketch = CountMinSketch(epsilon=0.001, delta=0.001)
        top = self.top = SpaceSaving(k=64)
        threshold = self.ALERT_THRESHOLD

        def count_min(index, ctx):
            key = keys[index]
            sketch.add(key)
            processed[0, index] += 1
            done_at[0, index] = sim.now
            if sketch.estimate(key) == threshold:
                return {"key": key, "count": threshold}
            return None

        def top_k(indices, ctx):
            top.add_many([keys[index] for index in indices])
            self.batches += 1
            self.batched_items += len(indices)
            now = sim.now
            for index in indices:
                processed[1, index] += 1
                done_at[1, index] = now

        wrap = self.wrap
        for row, function in enumerate((
            PulsarFunction("count-min",
                           process=wrap("bench.harness", count_min),
                           input_topics=["events"], output_topic="alerts",
                           dead_letter_topic="dlq-count-min"),
            PulsarFunction("top-k", process_batch=wrap("bench.harness", top_k),
                           input_topics=["events"],
                           dead_letter_topic="dlq-top-k"),
        )):
            cluster.create_topic(function.dead_letter_topic)

            def on_dead(message, consumer, row=row):
                dead[row, message.payload] += 1
                done_at[row, message.payload] = sim.now
                consumer.ack(message)

            cluster.subscribe(function.dead_letter_topic, "dlq",
                              listener=on_dead)
            app.pulsar.deploy(function)
        send = cluster.producer("events").send

        def fire(index):
            send(index, key=keys[index])

        app.with_workload(self.trace, fire=self.wrap("bench.harness", fire))

    # A message is final once each function processed or dead-lettered it
    # exactly once.  It succeeded when both processed it in finite time: an
    # append that never reaches its ack quorum acks at t=inf, so its
    # message is delivered only "never".

    @property
    def finals(self) -> numpy.ndarray:
        per_function = self.processed + self.dead
        return numpy.where(
            per_function.max(axis=0) > 1, 2, per_function.min(axis=0)
        )

    @property
    def final_at(self) -> numpy.ndarray:
        return self.done_at.max(axis=0)

    @property
    def ok(self) -> numpy.ndarray:
        return ((self.processed == 1).all(axis=0)
                & (self.dead == 0).all(axis=0)
                & numpy.isfinite(self.final_at))

    def runtime_counter(self, suffix: str) -> int:
        return int(sum(
            value for name, value in self.app.pulsar.metrics.snapshot().items()
            if name.endswith(suffix)
        ))

    def check(self, exact=None) -> list:
        failures = super().check()
        exact = collections.Counter(self.keys) if exact is None else exact
        sketch = self.sketch
        bound = sketch.epsilon * sketch.total
        under = [key for key, count in exact.items()
                 if sketch.estimate(key) < count]
        over = [key for key, count in exact.items()
                if sketch.estimate(key) > count + bound]
        if under:
            failures.append(
                f"Count-Min undercounts {len(under)} keys (e.g. {under[0]}: "
                f"{sketch.estimate(under[0])} < {exact[under[0]]})"
            )
        if over:
            failures.append(
                f"Count-Min exceeds its eps*N bound on {len(over)} keys"
            )
        exact_top = exact.most_common(1)[0][0]
        sketch_top = self.top.top(1)[0][0]
        if sketch_top != exact_top:
            failures.append(
                f"SpaceSaving top-1 {sketch_top} != exact top-1 {exact_top}"
            )
        return failures

    def sim_layer_counts(self) -> dict:
        counts = super().sim_layer_counts()
        counts["deliveries"] = int(self.processed.sum())
        counts["batch_size_mean"] = (
            self.batched_items / self.batches if self.batches else 0.0
        )
        counts["redeliveries"] = self.runtime_counter(".process_errors")
        counts["dead_lettered"] = self.runtime_counter(".dead_lettered")
        return counts

    def digest_parts(self) -> list:
        return super().digest_parts() + [
            self.done_at.tobytes(),
            self.sketch.estimate_many(sorted(set(self.keys))).tobytes(),
            repr((self.top.top(), self.alerts)).encode(),
        ]


SCENARIOS = {cls.name: cls for cls in (FaasBare, FaasStack, PulsarStream)}
