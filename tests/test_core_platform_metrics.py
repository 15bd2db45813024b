"""Bound metric handles on the FaaS invocation path.

The platform resolves its metric instruments once — platform-wide ones
at construction, per-function ones at a function's first invocation —
so a warm invocation makes no registry lookups at all, and functions
that are never invoked leave no trace in the metric snapshot.
"""

import pytest

import taureau
from taureau.core import CostReport, FaasPlatform, FunctionSpec
from taureau.sim import Simulation


def work(event, ctx):
    ctx.charge(0.05)
    return event


@pytest.mark.parametrize("machines", [None, 2])
def test_warm_invocations_make_no_registry_lookups(lookups, machines):
    app = taureau.Platform(seed=3, tracing=False, machines=machines)
    app.register(FunctionSpec(
        name="f", handler=work, tenant="acme",
        duration_model=lambda event, rng: rng.uniform(0.01, 0.02),
    ))
    first = app.invoke_sync("f", 0)
    assert first.cold_start
    before = len(lookups)
    for index in range(1, 20):
        record = app.invoke_sync("f", index)
        assert record.succeeded and not record.cold_start
    assert lookups[before:] == []
    assert app.metrics.counter("invocations").value == 20


def test_cold_start_and_expiry_make_no_registry_lookups(lookups):
    app = taureau.Platform(seed=3, tracing=False, machines=2)
    app.register(FunctionSpec(name="f", handler=work))
    app.invoke_sync("f", 0)
    app.run()  # the warm sandbox expires
    before = len(lookups)
    assert app.invoke_sync("f", 1).cold_start
    app.run()
    assert lookups[before:] == []


def test_never_invoked_functions_have_no_snapshot_keys():
    sim = Simulation(seed=0)
    platform = FaasPlatform(sim)
    for index in range(50):
        platform.register(FunctionSpec(name=f"g{index}", handler=work))
    platform.invoke_sync("g7", None)
    keys = [key for key in platform.metrics.snapshot() if "{" in key]
    assert keys and all('function="g7"' in key for key in keys)
    assert [line.function_name for line in
            CostReport.from_platform(platform).lines] == ["g7"]


def test_labeled_children_bind_on_first_use():
    sim = Simulation(seed=0)
    platform = FaasPlatform(sim)
    platform.register(FunctionSpec(name="f", handler=work, tenant="acme"))
    platform.invoke_sync("f", None)
    snapshot = platform.metrics.snapshot()
    assert snapshot['faas.invocations_by{function="f",outcome="ok"}'] == 1
    assert 'faas.invocations_by{function="f",outcome="error"}' not in snapshot
    assert 'faas.interarrival_by{function="f"}' not in snapshot  # one arrival
    assert 'faas.starts_by{function="f",start="warm"}' not in snapshot
    assert snapshot[
        'faas.billing.requests_by{function="f",tenant="acme"}'] == 1


def test_redeploying_rebinds_billing_to_the_new_tenant():
    sim = Simulation(seed=0)
    platform = FaasPlatform(sim)
    platform.register(FunctionSpec(name="f", handler=work, tenant="acme"))
    platform.invoke_sync("f", None)
    platform.register(FunctionSpec(name="f", handler=work, tenant="globex"))
    platform.invoke_sync("f", None)
    report = CostReport.from_platform(platform)
    assert sorted((line.tenant, line.invocations) for line in report.lines) == [
        ("acme", 1), ("globex", 1)]
    assert report.total_usd == pytest.approx(platform.total_cost_usd())
