"""Golden pins for the observability outputs of a faas-stack-shaped run.

The Monitor and the run recorder are pure observers, so making their
ticks cheaper must not move a single byte of what they report.  These
pins are blake2b digests of the run artifact JSON, the Monitor's result
series, its alert log and its SLO status, the durable summary and the
platform snapshot, for one fixed-seed platform with KV, a latency SLO
under the default burn policies, the recorder, chaos, resilience and
durability.  A change that moves one of them changes what the
simulation reports, and has to say so.
"""

import hashlib
import json

import taureau
from taureau.chaos import FaultPlan, ResiliencePolicy
from taureau.durable import DurabilityPolicy
from taureau.obs import SloObjective

GOLDEN = {
    "artifact": "362398d12ea32cc9b62b469c99e96036",
    "monitor_series": "3bc94d7f81e378db10cf3e54e614801f",
    "alerts": "08c7e8501c16b07b8190269e3ecfb366",
    "slo_status": "a35453733090f34cbe27e078b6c25cb3",
    "durable_summary": "c1e4ec98c2c9d73578054a498cb287fb",
    "snapshot": "8072ed78adfe77124b767533b6ae3f8d",
}


def digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def build_stack(seed=11, until=900.0):
    """Tenants x (read, write) KV functions under faults and queueing."""
    app = (
        taureau.Platform(seed=seed, machines=2)
        .with_kvstore()
        .with_monitoring(slos=[SloObjective(
            "latency", objective=0.99, window_s=300.0,
            latency="faas.e2e_latency_s", threshold_s=0.3,
        )], interval_s=5.0)
        .with_recorder(interval_s=5.0, max_function_lanes=4)
        .with_chaos(
            FaultPlan()
            .crash_sandbox(rate_hz=0.05, start_s=0.0, end_s=until)
            .partition("baas.kv", start_s=120.0, end_s=121.0)
            .degrade("baas.kv", start_s=300.0, end_s=420.0,
                     extra_latency_s=0.4)
        )
        .with_resilience(ResiliencePolicy())
        .with_durability(DurabilityPolicy())
    )
    for tenant in range(3):
        key = f"count/t{tenant}"
        app.kv.put(key, 0.0)

        def write(event, ctx, key=key):
            ctx.charge(0.08)
            return ctx.service("kv").counter_add(key, 1.0, ctx=ctx)

        def read(event, ctx, key=key):
            ctx.charge(0.25)
            return ctx.service("kv").get(key, ctx=ctx)

        # Reads run one at a time near saturation, so their queue lanes
        # fill and drain.
        for kind, handler, reserved in (("write", write, 2), ("read", read, 1)):
            name = f"t{tenant}.{kind}"
            app.function(name, memory_mb=256, reserved_concurrency=reserved)(
                handler
            )
            app.schedule_periodic(name, 0.3 + 0.1 * tenant, jitter=0.9)
    app.run(until=until)
    return app


def outputs(app) -> dict:
    monitor = app.monitor
    series = {
        name: [metric.times, metric.values]
        for kind, name, metric in monitor.results.walk()
    }
    alerts = [
        [event.name, event.kind, event.time, event.severity]
        for event in monitor.events
    ]
    return {
        "artifact": digest(app.run_artifact().to_json()),
        "monitor_series": digest(canonical(series)),
        "alerts": digest(canonical(alerts)),
        "slo_status": digest(canonical(monitor.slo_status())),
        "durable_summary": digest(canonical(app.durable.summary())),
        "snapshot": digest(canonical(app.snapshot())),
    }


def test_observability_outputs_match_golden_pins():
    assert outputs(build_stack()) == GOLDEN


def test_scenario_exercises_what_the_pins_cover():
    app = build_stack()
    series = app.run_artifact().data["samples"]["series"]
    assert {event.kind for event in app.monitor.events} == {"fire", "resolve"}
    assert max(series["faas.queue_depth"]) > 0
    assert max(series['queue{function="t0.read"}']) > 0
    assert 0 < max(series["faas.cold_fraction"]) < 1
    assert max(series["durable.entries_open"]) > 0
    assert max(series["durable.recoveries"]) > 0
