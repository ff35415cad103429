"""``scripts/paired_runs.py`` against fake checkouts (standard library only).

Each fake checkout is a directory with a ``benchmarks/e2e/run.py`` that
prints a verdict line — or exits non-zero, which must not abort the
study: the run is reported ``NOT CORRECT``, its pair leaves the
medians, every workload still prints its table, and the exit status
is 1.
"""

import importlib.util
import json
import textwrap
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "paired_runs.py"

SPECS = {
    "run_seconds": 1,
    "workloads": [{"name": "w1"}, {"name": "w2"}],
    "end_to_end": [
        {"name": "wall_tok_s", "unit": "tok/s", "better": "higher",
         "bound": 0.2},
    ],
}


def _paired_runs():
    spec = importlib.util.spec_from_file_location("paired_runs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checkout(root: Path, name: str, value: float, fail_first: int) -> Path:
    """A checkout whose run prints ``value`` as ``wall_tok_s``, after
    exiting 1 on its first ``fail_first`` runs."""
    checkout = root / name
    bench = checkout / "benchmarks" / "e2e"
    bench.mkdir(parents=True)
    (checkout / "BENCHMARK.json").write_text(json.dumps(SPECS))
    verdict = {"correct": True, "failed": 0,
               "metrics": {"wall_tok_s": {"value": value}}}
    (bench / "run.py").write_text(textwrap.dedent(f"""\
        import json, pathlib, sys
        counter = pathlib.Path(__file__).with_name("runs")
        runs = int(counter.read_text()) if counter.exists() else 0
        counter.write_text(str(runs + 1))
        if runs < {fail_first}:
            print("Traceback (most recent call last): ...")
            sys.exit(1)
        print("a line before the verdict")
        print(json.dumps({verdict!r}))
        """))
    return checkout


def test_a_failed_run_is_reported_and_the_study_goes_on(tmp_path, capsys):
    paired_runs = _paired_runs()
    parent = _checkout(tmp_path, "parent", 100.0, fail_first=0)
    change = _checkout(tmp_path, "change", 110.0, fail_first=1)
    status = paired_runs.main([
        "--parent", str(parent), "--change", str(change),
        "--workload", "all", "--pairs", "3", "--seed", "0",
    ])
    out = capsys.readouterr().out
    assert status == 1
    assert out.count("NOT CORRECT") == 1
    assert "exited without a verdict" in out
    # The failed run's pair leaves the medians; the rest are judged, and
    # the second workload runs and reports after the first was not clean.
    assert "w1, seed 0, 2 of 3 pairs" in out
    assert "w2, seed 0, 3 of 3 pairs" in out
    assert "parent 100 [100, 100] -> change 110 [110, 110]" in out
    assert "change wins 2, loses 0 of 2" in out
    assert "w1: NOT CLEAN" in out and "w2: every run correct" in out
    assert "NOT CLEAN: w1" in out


def test_a_checkout_that_never_gives_a_verdict(tmp_path, capsys):
    paired_runs = _paired_runs()
    parent = _checkout(tmp_path, "parent", 100.0, fail_first=0)
    change = _checkout(tmp_path, "change", 110.0, fail_first=99)
    status = paired_runs.main([
        "--parent", str(parent), "--change", str(change),
        "--workload", "w2", "--pairs", "2", "--seed", "0",
    ])
    out = capsys.readouterr().out
    assert status == 1
    assert out.count("NOT CORRECT") == 2
    assert "w2, seed 0, 0 of 2 pairs" in out
    assert "wall_tok_s: no pair to judge" in out


def test_clean_runs_exit_zero(tmp_path, capsys):
    paired_runs = _paired_runs()
    parent = _checkout(tmp_path, "parent", 100.0, fail_first=0)
    change = _checkout(tmp_path, "change", 100.0, fail_first=0)
    assert paired_runs.main([
        "--parent", str(parent), "--change", str(change),
        "--workload", "w1", "--pairs", "1", "--seed", "0",
    ]) == 0
    assert "NOT CORRECT" not in capsys.readouterr().out
