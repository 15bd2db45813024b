#!/usr/bin/env bash
# Tier-1 gate: lint (when available), the full test suite, a smoke of
# the end-to-end perfbench workloads, and 2-second smokes of the
# benches. Run from the repo root:
#
#   scripts/check.sh
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src

echo "== repo hygiene: no tracked bytecode =="
if git ls-files | grep -q '\.pyc$'; then
    echo "error: compiled bytecode is tracked in git:" >&2
    git ls-files | grep '\.pyc$' >&2
    exit 1
fi

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff =="
    ruff check src tests benchmarks scripts
else
    echo "== ruff not installed; skipping lint =="
fi

echo "== taurlint: determinism static analysis (per-file + whole-program) =="
python -m taureau.lint src tests benchmarks scripts examples --flow

echo "== lint smoke: self-hosting + byte-determinism + wiring audit =="
python scripts/lint_smoke.py

echo "== pytest (tier-1) =="
python -m pytest -x -q

# Smoke runs must not rewrite committed benchmark results: remember the
# state of benchmarks/ now and compare it once every smoke has run.
bench_status_before="$(git status --porcelain -- benchmarks)"

echo "== perfbench smoke: end-to-end workloads (small runs print only) =="
python3 perfbench/run.py --workload all --seed 1 --seconds 2 --size small

echo "== bench smoke: batch data plane =="
python benchmarks/bench_sketch_batch.py --smoke

echo "== bench smoke: metrics overhead =="
python benchmarks/bench_metrics_overhead.py --smoke

echo "== trace smoke: end-to-end tracing =="
python scripts/trace_smoke.py

echo "== metrics smoke: monitoring determinism =="
python scripts/metrics_smoke.py

echo "== sanitizer smoke: runtime race detection =="
python scripts/sanitizer_smoke.py

echo "== bench smoke: sanitizer overhead =="
python benchmarks/bench_sanitizer_overhead.py --smoke

echo "== chaos smoke: fault-injection determinism =="
python scripts/chaos_smoke.py

echo "== bench smoke: chaos overhead + recovery =="
python benchmarks/bench_chaos_overhead.py --smoke

echo "== durable smoke: journaled replay determinism =="
python scripts/durable_smoke.py

echo "== bench smoke: durable recovery vs re-execution =="
python benchmarks/bench_durable_recovery.py --smoke

echo "== bench smoke: simulation kernel =="
python benchmarks/bench_sim_kernel.py --smoke

echo "== workload smoke: trace generation + replay determinism =="
python scripts/workload_smoke.py

echo "== control smoke: policy-lab byte-stability =="
python scripts/control_smoke.py

echo "== bench smoke: control plane vs static baseline =="
python benchmarks/bench_control_plane.py --smoke

echo "== report smoke: run-explorer byte-stability + self-containedness =="
python scripts/report_smoke.py

echo "== bench smoke: run-recorder overhead =="
python benchmarks/bench_report_overhead.py --smoke

echo "== bench smoke: incremental lint speedup =="
python benchmarks/bench_lint_scale.py --smoke

echo "== repo hygiene: smoke runs left benchmarks/ as they found it =="
bench_status_after="$(git status --porcelain -- benchmarks)"
if [ "$bench_status_before" != "$bench_status_after" ]; then
    echo "error: a smoke run changed files under benchmarks/:" >&2
    diff <(echo "$bench_status_before") <(echo "$bench_status_after") >&2 || true
    exit 1
fi

echo "check.sh: all gates passed"
