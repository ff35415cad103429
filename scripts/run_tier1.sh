#!/usr/bin/env bash
# Tier-1 verification: the full unit/integration suite plus fast
# serving/cluster smoke benchmarks (marker: smoke).  Extra args pass
# through to the first pytest invocation, e.g.
# `scripts/run_tier1.sh -k serving`.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# Static-analysis gate: the tree must carry zero unsuppressed lint
# violations (determinism, clock-domain, drift rules — see the "Static
# analysis" section of the serving guide).  The JSON report is written
# before the exit code is decided, so CI uploads it pass or fail.
mkdir -p benchmarks/results
python -m repro.cli lint --out benchmarks/results/lint_report.json

# Exact-tier bit identity rests on NumPy's batched matmul calling BLAS
# slice by slice as the per-head 2-D product does, and CI installs an
# unpinned numpy: name both, so a bit-identity failure names its cause.
python - <<'EOF'
import numpy

try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
except (TypeError, KeyError):  # numpy < 1.25 has no "dicts" mode
    blas = "unknown"
print(f"numpy {numpy.__version__}, BLAS {blas}")
EOF

# --durations=10: the suite's budget (~70 s) is a number somebody sees
# — the ten slowest tests print under every run's summary.
python -m pytest -x -q --durations=10 "$@"
python -m pytest -q -m smoke tests/test_serving.py \
    tests/test_packed_decode.py \
    tests/test_cluster.py \
    tests/test_faults.py \
    benchmarks/bench_serving_throughput.py \
    benchmarks/bench_decode_step.py \
    benchmarks/bench_numerics.py \
    benchmarks/bench_cluster_scaling.py \
    benchmarks/bench_preemption.py \
    benchmarks/bench_chaos.py

# Traced serving smoke: one fully-instrumented run through the CLI,
# archived under benchmarks/results/ so CI uploads the trace and
# metrics artifacts, then rendered by trace-report as a format check.
mkdir -p benchmarks/results/telemetry
python -m repro.cli serve --mode spatten --requests 8 --layers 2 \
    --audit-every 4 --profile \
    --slo all:ttft:p95:50 --slo all:e2e:p99:400 \
    --trace-out benchmarks/results/telemetry/serve_trace.json \
    --metrics-out benchmarks/results/telemetry/serve_metrics.jsonl \
    --prom-out benchmarks/results/telemetry/serve_metrics.prom \
    --stats-json benchmarks/results/telemetry/serve_stats.json
# The four artifacts are checked in and reproduce byte for byte, so a
# drifting lifecycle event stream is its own red line.
git diff --exit-code -- \
    benchmarks/results/telemetry/serve_trace.json \
    benchmarks/results/telemetry/serve_metrics.jsonl \
    benchmarks/results/telemetry/serve_metrics.prom \
    benchmarks/results/telemetry/serve_stats.json
python -m repro.cli trace-report \
    benchmarks/results/telemetry/serve_trace.json

# SLO + latency-attribution report over the same trace (repro.insight):
# deterministic text + JSON artifacts, exit 1 on a missed objective.
python -m repro.cli slo-report \
    benchmarks/results/telemetry/serve_trace.json \
    --slo all:ttft:p95:50 --slo all:e2e:p99:400 \
    --out benchmarks/results/telemetry/slo_report.json \
    | tee benchmarks/results/telemetry/slo_report.txt

# Perf-regression gate: judge each smoke bench's newest history record
# (appended by the smoke run above) against the median of its earlier
# ones; noise-aware thresholds, exit 1 on regression.
python -m repro.cli bench-compare \
    --history benchmarks/results/history \
    --out benchmarks/results/bench_compare.json

# Size of src/: all lines / code lines (non-docstring, non-comment).
# CHANGES.md's per-PR "net src/ lines, code vs prose" is this total at
# the change minus the same total at the parent commit.
python scripts/count_loc.py src

# Settable values of src/ (defaulted public parameters and dataclass
# fields), for information only: a default no caller overrides is a
# constant written as a knob.  `--against <rev>` gives the per-file delta.
python scripts/count_knobs.py src
