"""Tests for profiling: trace-derived folded stacks, metric-derived cost tables."""

import pytest

import taureau
from taureau.core import FaasPlatform, FunctionSpec
from taureau.obs import (
    Tracer,
    cost_table,
    folded_profile,
    folded_stacks,
    render_cost_table,
    validate_folded,
)
from taureau.sim import MetricRegistry, Simulation


def build_trace(tracer, offset=0.0):
    """root(1.0s) -> a(0.4s) -> a.leaf(0.1s), plus b(0.2s) under root."""
    root = tracer.start_span(
        "faas.invoke.f", start=offset, function="f", tenant="acme"
    )
    a = tracer.start_span("stage.a", parent=root, start=offset + 0.1)
    leaf = tracer.start_span("stage.a leaf", parent=a, start=offset + 0.2)
    leaf.finish(offset + 0.3)
    a.finish(offset + 0.5)
    b = tracer.start_span("stage.b", parent=root, start=offset + 0.6)
    b.finish(offset + 0.8)
    tracer.record(
        "faas.billing", parent=root, start=offset + 1.0, end=offset + 1.0,
        gb_s=0.5, cost_usd=0.002,
    )
    root.finish(offset + 1.0)
    return tracer.trace(root.trace_id)


class TestFoldedStacks:
    def test_self_times_partition_the_root(self):
        sim = Simulation(seed=0)
        tracer = Tracer(sim)
        trace = build_trace(tracer)
        lines = folded_stacks(trace)
        assert validate_folded(lines) == []
        by_path = dict(
            (path, int(value))
            for path, _sep, value in (line.rpartition(" ") for line in lines)
        )
        # root: 1.0s minus children a (0.4s) + b (0.2s) = 0.4s self.
        assert by_path["faas.invoke.f"] == 400_000
        # a: 0.4s minus leaf 0.1s = 0.3s self; the leaf keeps its 0.1s.
        assert by_path["faas.invoke.f;stage.a"] == 300_000
        assert by_path["faas.invoke.f;stage.a;stage.a_leaf"] == 100_000
        assert by_path["faas.invoke.f;stage.b"] == 200_000
        # Frames partition the root exactly (billing span is zero-width).
        assert sum(by_path.values()) == 1_000_000

    def test_unfinished_root_yields_no_lines(self):
        sim = Simulation(seed=0)
        tracer = Tracer(sim)
        tracer.start_span("open")  # never finished
        assert folded_stacks(tracer.last_trace()) == []

    def test_aggregation_merges_identical_paths(self):
        sim = Simulation(seed=0)
        tracer = Tracer(sim)
        build_trace(tracer, offset=0.0)
        build_trace(tracer, offset=10.0)
        merged = folded_profile(tracer.store)
        assert validate_folded(merged) == []
        by_path = dict(
            (path, int(value))
            for path, _sep, value in (line.rpartition(" ") for line in merged)
        )
        # Two identical traces -> every path doubles.
        assert by_path["faas.invoke.f;stage.b"] == 400_000
        assert merged == sorted(merged)

    def test_validator_flags_malformed_lines(self):
        assert validate_folded(["a;b 100"]) == []
        assert validate_folded(["a;b"]) != []          # no value
        assert validate_folded(["a;b 0"]) != []        # non-positive
        assert validate_folded(["a;b -5"]) != []
        assert validate_folded(["a;;b 10"]) != []      # empty frame
        assert validate_folded(["a b;c 10"]) != []     # space inside frame

    def test_determinism(self):
        def build():
            sim = Simulation(seed=0)
            tracer = Tracer(sim)
            build_trace(tracer)
            build_trace(tracer, offset=5.0)
            return folded_profile(tracer.store)

        assert build() == build()


def billed_platform(tracing=True):
    """Two invocations of ``f`` and one of ``g`` (tenant acme), one of
    ``h`` (tenant beta), and a registered ``idle`` never invoked."""
    app = taureau.Platform(seed=0, tracing=tracing)
    for name, tenant in (("f", "acme"), ("g", "acme"), ("h", "beta"),
                         ("idle", "acme")):
        app.register(FunctionSpec(
            name=name, handler=lambda event, ctx: ctx.charge(0.25),
            memory_mb=1024, tenant=tenant,
        ))
    for name in ("f", "f", "g", "h"):
        app.invoke_sync(name)
    return app


class TestCostTable:
    def test_attribution_by_function_and_tenant(self):
        app = billed_platform()
        table = cost_table(app.metrics)
        assert list(table["by_function"]) == ["f", "g", "h"]
        f_row = table["by_function"]["f"]
        assert f_row["requests"] == 2
        # 0.25 s rounds up to 0.3 billed seconds at 1 GB.
        assert f_row["gb_s"] == pytest.approx(0.6)
        assert table["by_tenant"]["acme"]["requests"] == 3
        assert table["by_tenant"]["beta"]["requests"] == 1
        total = sum(row["cost_usd"] for row in table["by_tenant"].values())
        assert total == pytest.approx(app.total_cost_usd())

    def test_unbilled_traces_do_not_appear(self):
        app = billed_platform()
        app.faas.set_concurrency_limit("idle", 1)
        app.config.queue_on_throttle = False
        app.invoke("idle")
        throttled = app.invoke_sync("idle")
        assert throttled.status.value == "throttled"
        assert throttled.trace_id is not None  # traced, but never billed
        app.run()
        table = cost_table(app.metrics)
        assert table["by_function"]["idle"]["requests"] == 1

    def test_tracing_off_still_costs(self):
        traced = cost_table(billed_platform().metrics)
        untraced = billed_platform(tracing=False).profiler().cost_table()
        assert untraced["by_function"]["f"]["requests"] == 2
        assert untraced == traced

    def test_render_is_stable_text(self):
        text = render_cost_table(cost_table(billed_platform().metrics))
        assert "cost by function:" in text
        assert "cost by tenant:" in text
        assert "acme" in text
        assert text == render_cost_table(cost_table(billed_platform().metrics))

    def test_empty_store(self):
        for metrics in (MetricRegistry(), FaasPlatform(Simulation()).metrics):
            table = cost_table(metrics)
            assert table == {"by_function": {}, "by_tenant": {}}
            assert "(nothing billed)" in render_cost_table(table)


class TestPlatformProfileSurface:
    def test_facade_profile_includes_tenant_costs(self):
        import taureau

        app = taureau.Platform(seed=11)

        @app.function("job", tenant="acme")
        def job(event, ctx):
            ctx.charge(0.05)
            return "ok"

        for _ in range(3):
            app.invoke_sync("job")
        lines = app.profile()
        assert validate_folded(lines) == []
        assert any(line.startswith("faas.invoke.job") for line in lines)
        table = app.profiler().cost_table()
        assert table["by_function"]["job"]["requests"] == 3
        assert table["by_tenant"]["acme"]["requests"] == 3
        assert table["by_tenant"]["acme"]["cost_usd"] > 0
