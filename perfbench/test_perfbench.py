"""Tests of the end-to-end benchmark, at the small input size.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import collections
import json
import pathlib
import shutil
import subprocess
import sys

import numpy
import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from layers import EXACT_METRICS, LAYER_MAP  # noqa: E402
from probe import PROBE_NOMINAL_S  # noqa: E402
from workloads import SCENARIOS, FaasBare, FaasStack, PulsarStream  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


def small_run(workload, seed=3, trace=0):
    done = cli("--workload", workload, "--seed", str(seed), "--seconds", "0",
               "--trace", str(trace), "--size", "small")
    assert done.returncode == 0, done.stderr
    return done.stdout, json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=sorted(SCENARIOS))
def traced_twice(request):
    return request.param, [small_run(request.param, trace=1) for _ in range(2)]


def ran(cls, seed=3, queue="heap"):
    scenario = cls(seed, "small", queue=queue)
    scenario.setup()
    scenario.run()
    return scenario


@pytest.mark.parametrize("workload", sorted(SCENARIOS))
def test_plain_run_prints_every_end_to_end_metric(workload):
    stdout, result = small_run(workload)
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for name, m in result["metrics"].items()
               if name != "rss_bytes_per_op")
    for metric, unit in [*declared.items(), *run.PRINT_ONLY]:
        faas_only = metric == "sim_cost_usd_per_1k_ops"
        printed = any(
            line.split()[:1] == [metric] and unit in line.split()
            for line in stdout.splitlines()
        )
        assert printed == (not faas_only or workload != "pulsar-stream"), metric
    assert "samples)" in stdout and "digest" in stdout
    assert "recorded results untouched" in stdout


def test_traced_run_prints_every_layer_metric(traced_twice):
    workload, ((stdout, result), __) = traced_twice
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert set(LAYER_MAP) == set(declared)
    for metric, unit in declared.items():
        assert any(line.split()[:1] == [metric] and unit in line.split()
                   for line in stdout.splitlines()), metric
    assert result["metrics"]["bench.trace_overhead"]["value"] > 0
    spans = ROOT / ".perfbench" / "spans" / f"{workload}.npz"
    with numpy.load(spans) as columns:
        names = json.loads(str(columns["names"][()]))
        assert "sim.engine.run" in names
        parents = columns["parent"]
        assert (parents < numpy.arange(parents.size)).all()
        assert (columns["end_ns"] >= columns["start_ns"]).all()


def test_layer_counts_repeat_exactly(traced_twice):
    workload, ((__, first), (___, second)) = traced_twice
    exact = [m["name"] for m in BENCH["per_layer"] if m["unit"] == "count"]
    for metric in exact + list(EXACT_METRICS):
        assert first["metrics"][metric] == second["metrics"][metric], metric
    for metric in ("sim.metrics.lookups_per_op", "sim.engine.events_per_op"):
        assert first["metrics"][metric]["value"] > 0
    if workload != "faas-bare":
        assert first["metrics"]["obs.spans_per_op"]["value"] > 0
    else:
        assert first["metrics"]["obs.spans_per_op"]["value"] == 0
    if workload == "faas-stack":
        assert first["metrics"]["durable.apply_calls_per_op"]["value"] > 0


@pytest.mark.parametrize("cls", [FaasBare, FaasStack, PulsarStream])
def test_digest_repeats_at_a_seed_and_moves_with_it(cls):
    first = ran(cls)
    assert first.check() == []
    assert first.failed() == 0
    assert ran(cls).digest() == first.digest()
    assert ran(cls, seed=4).digest() != first.digest()


@pytest.mark.parametrize("cls", [FaasBare, FaasStack, PulsarStream])
def test_heap_and_wheel_backends_agree_on_the_digest(cls):
    assert ran(cls, queue="wheel").digest() == ran(cls).digest()


@pytest.mark.parametrize("cls", [FaasBare, FaasStack, PulsarStream])
def test_slicing_the_run_changes_no_result(cls):
    whole = cls(3, "small")
    whole.setup()
    whole.app.run()
    sliced = ran(cls)
    assert len(sliced.slice_s) == len(sliced.slice_bounds()) + 1
    assert sliced.digest() == whole.digest()


def test_run_time_is_the_sum_of_each_slices_median_calibrated_time():
    nominal = PROBE_NOMINAL_S
    reps = [
        {"slice_s": [1.0, 5.0], "probe_s": [nominal] * 3},
        {"slice_s": [3.0, 2.0], "probe_s": [nominal] * 3},
        # A host at half speed: twice the time, and twice the probe time.
        {"slice_s": [4.0, 18.0], "probe_s": [2 * nominal] * 3},
    ]
    assert run.calibrated_run_s(reps) == pytest.approx(2.0 + 5.0)
    # A probe between the slices scales the slices on either side.
    rep = {"slice_s": [1.0, 1.0], "probe_s": [nominal, 3 * nominal, nominal]}
    assert run.calibrated_slices(rep) == pytest.approx([0.5, 0.5])


class PulsarStreamQuorumTwo(PulsarStream):
    WRITE_QUORUM = ACK_QUORUM = 2


@pytest.mark.xfail(strict=True, reason=(
    "known defect: a ledger has no ensemble change, so with write quorum = "
    "ack quorum an append whose quorum holds the crashed bookie acks at "
    "t=inf and its message is never delivered (the wheel queue raises "
    "OverflowError on that entry)"))
@pytest.mark.parametrize("queue", ["heap", "wheel"])
def test_bookie_crash_loses_no_message_at_write_equal_ack_quorum(queue):
    assert ran(PulsarStreamQuorumTwo, queue=queue).failed() == 0


def test_kv_tally_off_by_one_fails_the_check():
    scenario = ran(FaasStack)
    tally = scenario.tally()
    assert scenario.check(tally) == []
    tally[int(tally.argmax())] += 1
    assert any("KV counters" in failure for failure in scenario.check(tally))


def test_undercounting_reference_fails_the_check():
    scenario = ran(PulsarStream)
    exact = collections.Counter(scenario.keys)
    assert scenario.check(exact) == []
    key = exact.most_common(1)[0][0]
    exact[key] = scenario.sketch.estimate(key) + 1
    assert any("undercounts" in failure for failure in scenario.check(exact))


def test_failed_check_exits_without_a_result(monkeypatch, capsys):
    monkeypatch.setattr(FaasBare, "check", lambda self: ["wrong on purpose"])
    status = run.main(["--workload", "faas-bare", "--seed", "3",
                       "--seconds", "0", "--size", "small"])
    out, err = capsys.readouterr()
    assert status == 1
    assert "wrong on purpose" in err
    assert '"correct"' not in out


def test_smoke_run_leaves_recorded_results_alone():
    recorded = {
        path: path.read_bytes() for path in (HERE / "results").glob("*.json")
    }
    done = cli("--workload", "faas-bare", "--seed", "5", "--seconds", "1")
    assert done.returncode == 0, done.stderr
    assert "recorded results untouched" in done.stdout
    assert {
        path: path.read_bytes() for path in (HERE / "results").glob("*.json")
    } == recorded


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = cli("--workload", "faas-bare", "--seed", "1", "--seconds", "1",
               cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
