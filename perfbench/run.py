"""End-to-end simulator benchmark: faas-bare, faas-stack, pulsar-stream.

Run from the repository root::

    python3 perfbench/run.py --workload faas-bare --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

One invocation measures one workload (``all`` runs each in its own
process, one after another).  The command first builds and runs a small
warm-up copy of the workload, then repeats the full workload in forked
child processes until ``--seconds`` have passed (at least three times), so
every repetition starts from the same warm interpreter and the same heap.
Each repetition's set-up and run phases are timed in its own CPU time
(the layer spans of traced repetitions in wall-clock time).

The host's speed swings by half and more as other load on it comes and
goes, for seconds to minutes at a time, so host time is calibrated: the
run phase is timed in slices of simulated time (see ``Scenario.run``)
with a fixed host-speed probe (``probe.py``) before, between and after
them, and each slice's time, like the set-up time, is scaled to the
reference host speed by the probes next to it.  Repetitions at one seed
do the same work, entry for entry, so ``ops_per_s`` divides the ops by
the sum over slices of each slice's median calibrated time, and
``setup_s`` is the median calibrated set-up time.  The table also prints
both uncalibrated, as ``raw_ops_per_s`` and ``raw_setup_s``.  The other
host metrics are medians over repetitions.

- ``--trace 0`` measures the end-to-end metrics with tracing off;
- ``--trace 1`` alternates plain and traced repetitions: traced ones wrap
  every layer's public calls (see ``layers.py``) and give the per-layer
  metrics, plain ones give ``bench.trace_overhead``.  The spans of the
  first traced repetition are written to ``.perfbench/spans/<workload>.npz``.

Every repetition checks the workload's outputs (see ``workloads.py``) and
prints a digest of its simulated results; repetitions at one seed must
agree on it.  Any failed check exits with status 1 before a number is
printed.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Full-size runs of at least ``run_seconds`` (from ``BENCHMARK.json``) are
recorded under ``perfbench/results/``; shorter or ``--size small`` runs
only print, so a smoke run never overwrites recorded numbers.
"""

# Host clock reads are what this benchmark measures; they never
# reach simulated state, which the digest checks.
# taurlint: disable-file=TAU001

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time
import traceback

from probe import calibrated, timed_probe

# One process, no threads: keep numpy's BLAS pool from starting threads
# that a forked repetition would not inherit.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SPANS = ROOT / ".perfbench" / "spans"
MIN_REPS = 3

#: (name, unit) of the end-to-end metrics the table prints after those
#: BENCHMARK.json lists.  They are not bounded: the ``raw_*`` host times
#: follow the host's load, ``failed_op_ratio`` is 0 on every workload and
#: there is no ``sim_cost_usd_per_1k_ops`` on pulsar-stream.
PRINT_ONLY = (
    ("raw_setup_s", "s"),
    ("raw_ops_per_s", "1/s"),
    ("failed_op_ratio", "ratio"),
    ("sim_cost_usd_per_1k_ops", "USD"),
)
#: Host metrics reported as the median over plain repetitions.
MEDIAN_METRICS = ("setup_s", "raw_setup_s", "peak_rss_mb", "rss_bytes_per_op")


def _proc_kb(field: str) -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith(field):
                return int(line.split()[1])
    raise RuntimeError(f"{field} missing from /proc/self/status")


def rss_bytes() -> int:
    return _proc_kb("VmRSS:") * 1024


def peak_rss_bytes() -> int:
    """This process's RSS high-water mark (fresh in a forked child)."""
    return _proc_kb("VmHWM:") * 1024


def in_child(task):
    """Run ``task()`` in a forked child; returns its JSON-able result."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        os.close(read_fd)
        try:
            payload = {"ok": True, "result": task()}
        except BaseException:
            payload = {"ok": False, "error": traceback.format_exc()}
        with os.fdopen(write_fd, "w", encoding="utf-8") as pipe:
            json.dump(payload, pipe)
        os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "r", encoding="utf-8") as pipe:
        data = pipe.read()
    __, status = os.waitpid(pid, 0)
    if not data or os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"repetition process failed (status {status})")
    payload = json.loads(data)
    if not payload["ok"]:
        raise RuntimeError(f"repetition raised:\n{payload['error']}")
    return payload["result"]


def timings(scenario, setup_s: float, setup_probe_s: float) -> dict:
    """A repetition's host times: raw and calibrated set-up, per-slice
    run phase and its probes."""
    return {
        "raw_setup_s": setup_s,
        "setup_s": calibrated(setup_s, setup_probe_s, scenario.probe_s[0]),
        "run_s": sum(scenario.slice_s),
        "slice_s": scenario.slice_s,
        "probe_s": scenario.probe_s,
    }


def plain_rep(cls, seed: int, size: str) -> dict:
    """Set up and run one untraced repetition; host and simulated results.

    Set-up and run are timed in this process's CPU time: the workload is
    one process with no threads, and CPU time leaves out the time other
    load on the host keeps it waiting for a core (not the slow-down from
    sharing caches and memory with that load, which the probes measure).
    """
    scenario = cls(seed, size)
    setup_probe_s = timed_probe()
    start = time.process_time()
    scenario.setup()
    setup_s = time.process_time() - start
    rss_before = rss_bytes()
    scenario.run()
    rss_after = rss_bytes()
    ops = scenario.ops
    return {
        **timings(scenario, setup_s, setup_probe_s),
        "peak_rss_mb": peak_rss_bytes() / 2**20,
        "rss_bytes_per_op": (rss_after - rss_before) / ops,
        "ops": ops,
        "failed": scenario.failed(),
        "failures": scenario.check(),
        "digest": scenario.digest(),
        "sim": scenario.sim_metrics(),
    }


def traced_rep(cls, seed: int, size: str, spans_path=None) -> dict:
    """One repetition with every layer wrapped; returns per-layer metrics."""
    from layers import SpanRecorder, layer_metrics, patched

    recorder = SpanRecorder()
    with patched(recorder):
        scenario = cls(seed, size, wrap=recorder.wrap)
        setup_probe_s = timed_probe()
        start = time.process_time()
        scenario.setup()
        setup_s = time.process_time() - start
        pending_after_setup = recorder.entries
        scenario.run()
    ops = scenario.ops
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        recorder.save(spans_path)
    return {
        **timings(scenario, setup_s, setup_probe_s),
        "ops": ops,
        "failed": scenario.failed(),
        "failures": scenario.check(),
        "digest": scenario.digest(),
        "layers": layer_metrics(recorder, scenario, ops, pending_after_setup),
    }


def measure(name: str, seed: int, seconds: float, trace: bool,
            size: str) -> dict:
    """Warm up, then repeat the workload in child processes for ``seconds``."""
    from workloads import SCENARIOS

    cls = SCENARIOS[name]
    warm = cls(seed, "small")
    warm.setup()
    warm.run()
    del warm
    gc.collect()
    gc.freeze()
    plain, traced = [], []
    spans_path = SPANS / f"{name}.npz"
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or len(plain) < MIN_REPS
           or (trace and len(traced) < MIN_REPS)):
        plain.append(in_child(lambda: plain_rep(cls, seed, size)))
        if trace:
            path = spans_path if not traced else None
            traced.append(in_child(lambda: traced_rep(cls, seed, size, path)))
    return {"plain": plain, "traced": traced,
            "spans": str(spans_path.relative_to(ROOT)) if trace else None}


def calibrated_slices(rep: dict) -> list:
    """A repetition's slice times at the reference host speed."""
    probes = rep["probe_s"]
    return [calibrated(seconds, probes[index], probes[index + 1])
            for index, seconds in enumerate(rep["slice_s"])]


def calibrated_run_s(reps: list) -> float:
    """The run phase at the reference host speed: the sum over slices of
    each slice's median calibrated time across repetitions."""
    return sum(statistics.median(times)
               for times in zip(*map(calibrated_slices, reps)))


def failures_of(reps: list) -> list:
    failures = []
    for index, rep in enumerate(reps):
        failures.extend(f"repetition {index}: {text}" for text in rep["failures"])
    digests = sorted({rep["digest"] for rep in reps})
    if len(digests) > 1:
        failures.append(f"repetitions disagree on the digest: {digests}")
    return failures


def summarize(name: str, measured: dict, trace: bool) -> dict:
    plain, traced = measured["plain"], measured["traced"]
    reps = plain + traced
    end_to_end = {
        metric: statistics.median(rep[metric] for rep in plain)
        for metric in MEDIAN_METRICS
    }
    end_to_end["ops_per_s"] = plain[0]["ops"] / calibrated_run_s(plain)
    end_to_end["raw_ops_per_s"] = plain[0]["ops"] / statistics.median(
        rep["run_s"] for rep in plain)
    sim = dict(plain[0]["sim"])
    samples = sim.pop("latency_samples")
    end_to_end.update(sim)
    summary = {
        "workload": name,
        "digest": plain[0]["digest"],
        "repetitions": {"plain": len(plain), "traced": len(traced)},
        "ops_per_repetition": plain[0]["ops"],
        "slices": len(plain[0]["slice_s"]),
        "latency_samples": samples,
        "attempted": sum(rep["ops"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "end_to_end": end_to_end,
        "failures": failures_of(reps),
    }
    if trace:
        layers = {
            metric: statistics.median(rep["layers"][metric] for rep in traced)
            for metric in traced[0]["layers"]
        }
        layers["bench.trace_overhead"] = (calibrated_run_s(traced)
                                          / calibrated_run_s(plain))
        summary["layers"] = layers
        summary["spans"] = measured["spans"]
    return summary


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def print_table(summary: dict, seed: int, spec: dict) -> None:
    print(f"== {summary['workload']}  seed={seed}  "
          f"ops/repetition={summary['ops_per_repetition']}  "
          f"repetitions={summary['repetitions']}")
    print(f"   digest {summary['digest']}")
    samples = summary["latency_samples"]
    declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    for metric, unit in declared + list(PRINT_ONLY):
        if metric not in summary["end_to_end"]:
            continue
        value = summary["end_to_end"][metric]
        if metric.startswith("sim_latency"):
            note = f"(n={samples} samples)"
        elif metric == "ops_per_s":
            note = (f"(calibrated, median of {summary['repetitions']['plain']}"
                    f" repetitions in each of {summary['slices']} slices)")
        elif metric == "setup_s":
            note = (f"(calibrated, median of "
                    f"{summary['repetitions']['plain']} repetitions)")
        elif metric.startswith("raw_"):
            note = (f"(uncalibrated, median of "
                    f"{summary['repetitions']['plain']} repetitions)")
        elif metric in MEDIAN_METRICS:
            note = f"(median of {summary['repetitions']['plain']} repetitions)"
        else:
            note = ""
        print(f"   {metric:<26} {value:>14.6g} {unit:<6} {note}")
    if "layers" in summary:
        from layers import LAYER_MAP

        print("   per layer (metric -> end-to-end metric it should move, "
              "on which workloads):")
        for entry in spec["per_layer"]:
            metric, unit = entry["name"], entry["unit"]
            moves, workloads = LAYER_MAP[metric]
            value = summary["layers"][metric]
            print(f"   {metric:<34} {value:>12.6g} {unit:<6} -> {moves} "
                  f"[{workloads}]")
        print(f"   spans written to {summary['spans']}")


def run_one(args) -> int:
    summary = summarize(
        args.workload,
        measure(args.workload, args.seed, args.seconds, args.trace,
                args.size),
        args.trace,
    )
    spec = benchmark_spec()
    print_table(summary, args.seed, spec)
    if summary["failures"]:
        for failure in summary["failures"]:
            print(f"CHECK FAILED: {failure}", file=sys.stderr)
        return 1
    values = dict(summary["end_to_end"])
    values.update(summary.get("layers", {}))
    result = {
        "correct": True,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            metric["name"]: {"value": values[metric["name"]],
                             "unit": metric["unit"]}
            for metric in spec["per_layer" if args.trace else "end_to_end"]
        },
    }
    if args.size == "full" and args.seconds >= spec["run_seconds"]:
        RESULTS.mkdir(exist_ok=True)
        kind = "traced" if args.trace else "plain"
        record = dict(summary, seed=args.seed, seconds=args.seconds)
        path = RESULTS / f"{args.workload}.{kind}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"   recorded full run in {path.relative_to(ROOT)}")
    else:
        print("   smoke-sized run: printed only, recorded results untouched")
    print(json.dumps(result))
    return 0


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="input size (small is for tests and smoke runs)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "taureau" / "__init__.py").is_file():
        print(f"error: the taureau sources are missing ({SRC / 'taureau'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import SCENARIOS

    args = parse_args(argv, SCENARIOS)
    if args.workload == "all":
        status = 0
        for name in SCENARIOS:
            command = [sys.executable, str(pathlib.Path(__file__)),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--size", args.size]
            status = max(status, subprocess.run(command, check=False).returncode)
        return status
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
