"""Tier-1 smoke test of the end-to-end benchmark (< 10 s).

Runs all four workloads at ``--smoke`` scale in this process (one timed
repetition plus the traced one, every output check on) and pins the
contract between ``BENCHMARK.json`` and the runner: same metric and
workload names, legal names, counts within the caps, and the span
accounting identity.
"""

import json
import re
from time import perf_counter_ns

import numpy as np
import pytest

import e2e_worker
import run
from e2e_spans import LAYER_GROUPS, SpanAccountingError, SpanRecorder
from e2e_workloads import WORKLOADS
from repro.nn import functional

SPEC = run.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def test_benchmark_json_agrees_with_runner():
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"][-1] == "benchmarks/e2e/run.py"
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert SPEC["per_layer"] == e2e_worker.per_layer_spec()
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert len(LAYER_GROUPS) == 40 and len(SPEC["per_layer"]) == 96 <= 128
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[key]
    ]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["better"] in ("higher", "lower")
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.fixture(scope="module")
def smoke_results():
    return {
        name: e2e_worker.measure(
            workload, seed=0, seconds=0.0, trace=True, smoke=True
        )
        for name, workload in WORKLOADS.items()
    }


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_workload(smoke_results, name):
    result = smoke_results[name]
    checks = result["checks"]
    assert checks["problems"] == [] and checks["failed"] == 0
    assert checks["attempted"] >= 1
    assert checks["stream_match"] >= WORKLOADS[name].min_stream_match
    # The runner measures exactly the metrics BENCHMARK.json names
    # (setup_s is added by run.py, which owns the child processes).
    assert {"setup_s", *result["samples"]} == {
        m["name"] for m in SPEC["end_to_end"]
    }
    assert list(result["per_layer"]) == [m["name"] for m in SPEC["per_layer"]]
    assert all(v > 0 for values in result["samples"].values() for v in values)
    # Span identity: self times plus the unattributed rest are the
    # traced wall (exact in ns; float seconds only add rounding).
    per_layer = result["per_layer"]
    attributed = sum(per_layer[f"{group}.self_s"] for group in LAYER_GROUPS)
    assert attributed + per_layer["bench.unattributed_s"] == pytest.approx(
        result["traced_wall_s"], rel=1e-9
    )
    assert 0 <= per_layer["bench.unattributed_s"] < 0.05 * result["traced_wall_s"]


def test_calls_repeat_exactly(smoke_results):
    name = "fleet_mixed_exact"
    again = e2e_worker.measure(
        WORKLOADS[name], seed=0, seconds=0.0, trace=True, smoke=True
    )
    for key, value in smoke_results[name]["per_layer"].items():
        if key.endswith(".calls"):
            assert again["per_layer"][key] == value, key


def test_span_recorder_sums_exactly_and_restores():
    original = functional.softmax
    x = np.ones((4, 8))
    with SpanRecorder() as recorder:
        assert functional.softmax is not original
        start = perf_counter_ns()
        functional.layer_norm(functional.softmax(x), np.ones(8), np.zeros(8))
        end = perf_counter_ns()
    assert functional.softmax is original
    spans = recorder.summarize(start, end)
    groups = spans["groups"]
    assert groups["nn.functional.softmax"]["calls"] == 1
    assert groups["nn.functional.layer_norm"]["calls"] == 1
    assert spans["unattributed_ns"] >= 0
    assert (
        sum(g["self_ns"] for g in groups.values()) + spans["unattributed_ns"]
        == spans["wall_ns"] == end - start
    )
    with pytest.raises(SpanAccountingError):
        recorder.summarize(end, end)  # spans escape the wall: raise


def test_host_clock_reads_reference_seconds():
    clock = e2e_worker.HostClock()
    k = e2e_worker.KERNEL_REF_S
    # The kernel at reference speed, then twice at half that speed.
    clock.samples = [(0.0, k), (1.0, 1.0 + 2 * k), (2.0, 2.0 + 2 * k)]
    assert clock.slowdowns() == pytest.approx([1.0, 2.0, 2.0])
    first_gap = (1.0 - k) / 1.5  # mean slowdown of its two samples
    second_gap = (1.0 - 2 * k) / 2.0
    stamps = [k, 1.0, 1.0 + 2 * k, 2.0]  # no time passes inside a sample
    assert clock.reference_seconds(stamps, 1.0) == pytest.approx(
        [0.0, first_gap, first_gap, first_gap + second_gap]
    )
    assert clock.reference_seconds(stamps, 0.0) == pytest.approx(
        [0.0, 1.0 - k, 1.0 - k, 2.0 - 3 * k]
    )
    assert clock.kernel_seconds(0.5, 3.0) == pytest.approx(4 * k)


def _results(tok_s, q1, q3, calls=7):
    entry = {"value": tok_s, "median": tok_s, "q1": q1, "q3": q3}
    steady = {"value": 1.0, "median": 1.0, "q1": 1.0, "q3": 1.0}
    workload = {
        "end_to_end": {
            m["name"]: entry if m["name"] == "wall_tok_s" else steady
            for m in SPEC["end_to_end"]
        },
        "per_layer": {"core.topk.topk_indices.calls": calls},
        "checks": {"failed": 0, "stream_match": 1.0},
    }
    return {"workloads": {w["name"]: workload for w in SPEC["workloads"]}}


def test_compare_marks_breach_and_unresolved(tmp_path, capsys):
    base = _results(1000.0, 990.0, 1010.0)

    def statuses(other):
        return {row["status"] for row in run.compare(SPEC, base, other)}

    assert statuses(_results(995.0, 990.0, 1000.0)) == {"ok"}
    # Within the bound, but a quartile range wider than the bound.
    assert "unresolved" in statuses(_results(995.0, 700.0, 1300.0))
    assert "breach" in statuses(_results(500.0, 495.0, 505.0))
    assert "breach (quartiles overlap)" in statuses(
        _results(500.0, 400.0, 995.0)
    )
    assert "breach (must repeat exactly)" in statuses(
        _results(1000.0, 990.0, 1010.0, calls=8)
    )
    paths = []
    for label, data in (("a", base), ("b", _results(500.0, 495.0, 505.0))):
        paths.append(tmp_path / f"{label}.json")
        paths[-1].write_text(json.dumps(data))
    assert run.main(["--compare", str(paths[0]), str(paths[0])]) == 0
    assert run.main(["--compare", str(paths[0]), str(paths[1])]) == 1
    assert "breach" in capsys.readouterr().out
