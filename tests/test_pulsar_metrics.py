"""Bound metric handles on the Pulsar message path and the BaaS stack.

Brokers, bookies, the metadata store and the functions runtime resolve
their metric instruments at first use, so once a topic has carried a
message (and a function has processed, batched or dead-lettered one) a
further message makes no registry lookup at all; topics and functions
that never see a message leave no trace in the snapshot.  The same
holds for KV reads and writes, the chaos guard and durable apply.  A
cluster's brokers (and bookies) share one registry, so the merged
snapshot sums them.
"""

import taureau
from taureau.chaos import FaultPlan, ResiliencePolicy
from taureau.core import FunctionSpec
from taureau.durable import DurabilityPolicy
from taureau.pulsar import Bookie, Broker, PulsarFunction
from taureau.sim import Simulation


def pulsar_app(durable=False):
    """Two partitions into a per-message, a batched and a poison-prone
    function; the first two also publish side outputs."""
    app = taureau.Platform(seed=5).with_pulsar()
    if durable:
        app.with_durability(DurabilityPolicy())
    cluster = app.pulsar.cluster
    for topic, partitions in (("events", 2), ("out", 1), ("idle", 1)):
        cluster.create_topic(topic, partitions=partitions)
    cluster.subscribe("out", "sink", listener=lambda m, c: c.ack(m))

    def each(payload, ctx):
        ctx.publish("out", payload)
        return None

    def batch(payloads, ctx):
        if "poison" in payloads:
            raise ValueError("poison")
        return payloads

    def picky(payload, ctx):
        if payload == "poison":
            raise ValueError("poison")

    for function in (
        PulsarFunction("each", process=each, input_topics=["events"]),
        PulsarFunction("batch", process_batch=batch, input_topics=["events"],
                       output_topic="out", max_redeliveries=0,
                       dead_letter_topic="dlq"),
        PulsarFunction("picky", process=picky, input_topics=["events"],
                       max_redeliveries=1, dead_letter_topic="dlq"),
        PulsarFunction("never", process=picky, input_topics=["idle"]),
    ):
        app.pulsar.deploy(function)
    return app


def send_wave(app):
    producer = app.pulsar.cluster.producer("events")
    for payload in ("a", "b", "poison", "c"):  # round-robin: both partitions
        producer.send(payload)
    app.run()


def test_further_messages_make_no_registry_lookups(lookups):
    app = pulsar_app()
    send_wave(app)
    snapshot = app.snapshot()
    assert snapshot["pulsar.functions.batch.batches"] >= 1
    assert snapshot["pulsar.functions.picky.dead_lettered"] == 1
    assert snapshot["pulsar.functions.batch.dead_lettered"] == 1
    before = len(lookups)
    for _ in range(3):
        send_wave(app)
    assert lookups[before:] == []
    snapshot = app.snapshot()
    assert snapshot["pulsar.functions.each.processed"] == 16
    assert snapshot["pulsar.functions.picky.dead_lettered"] == 4
    assert snapshot['pulsar.functions.dead_letters_by{function="batch"}'] == 4


def test_durable_message_path_makes_no_registry_lookups(lookups):
    app = pulsar_app(durable=True)
    send_wave(app)
    before = len(lookups)
    send_wave(app)
    assert lookups[before:] == []
    assert app.durable.summary()["effects_journaled"] == 8


def test_unused_topics_and_functions_add_no_snapshot_keys():
    app = pulsar_app()
    send_wave(app)
    keys = list(app.snapshot())
    assert any('topic="events-partition-1"' in key for key in keys)
    assert not [key for key in keys if "idle" in key or "never" in key]


def kv_app():
    app = (
        taureau.Platform(seed=7)
        .with_kvstore()
        .with_chaos(FaultPlan()
                    .partition("baas.kv", start_s=0.0, end_s=0.3)
                    .partition("baas.kv", start_s=0.6, end_s=0.65)
                    .degrade("baas.kv", start_s=0.0, end_s=1e6,
                             extra_latency_s=0.001))
        .with_resilience(ResiliencePolicy())
        .with_durability(DurabilityPolicy())
    )

    def handler(event, ctx):
        kv = ctx.service("kv")
        kv.put(f"k{event}", event, ctx=ctx)
        kv.counter_add("n", 1.0, ctx=ctx)
        return kv.get("n", ctx=ctx)

    app.register(FunctionSpec(name="f", handler=handler))
    return app


def test_kv_chaos_and_durable_ops_make_no_registry_lookups(lookups):
    app = kv_app()
    app.invoke_sync("f", 0)  # retries through the first partition
    before = len(lookups)
    for event in range(1, 20):
        assert app.invoke_sync("f", event).succeeded
    assert lookups[before:] == []
    snapshot = app.snapshot()
    assert snapshot['baas.kv.ops_by{op="get"}'] == 20
    assert snapshot["chaos.injected_delay_s"] > 0
    # One retried op per partition window: the second one was measured.
    assert snapshot[
        'chaos.retries_by{component="baas.kv",outcome="recovered"}'] == 2
    assert snapshot["durable.effects_journaled"] == 40


def test_cluster_snapshot_sums_every_broker_and_bookie():
    app = taureau.Platform(seed=1).with_pulsar(broker_count=3, bookie_count=3)
    cluster = app.pulsar.cluster
    cluster.create_topic("t", partitions=3)
    producer = cluster.producer("t")
    for index in range(30):
        producer.send(index)
    app.run()
    snapshot = app.snapshot()
    assert snapshot["pulsar.messages_persisted"] == 30
    assert snapshot["pulsar.bookie.appends"] == 60  # write quorum 2
    assert snapshot["pulsar.bookie.admission_wait_s"]["count"] == 60
    assert sum(
        value for key, value in snapshot.items()
        if key.startswith("pulsar.messages_by{")
    ) == 30
    registries = app.registries()
    assert len({id(registry) for registry in registries}) == len(registries)


def test_standalone_nodes_keep_their_own_registries():
    sim = Simulation(seed=0)
    bookies = [Bookie(sim), Bookie(sim)]
    brokers = [Broker(sim, bookies), Broker(sim, bookies)]
    assert bookies[0].metrics is not bookies[1].metrics
    assert brokers[0].metrics is not brokers[1].metrics
