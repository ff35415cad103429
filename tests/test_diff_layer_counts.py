"""``scripts/diff_layer_counts.py`` against fake checkouts (standard
library only).

Each fake checkout is a directory with a ``benchmarks/e2e/run.py`` that
prints a traced verdict whose counters depend on the workload — or
exits non-zero for one workload, which is reported and counts as a
moved pin without stopping the other workloads.
"""

import importlib.util
import json
import textwrap
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "diff_layer_counts.py"

SPECS = {"workloads": [{"name": "w1"}, {"name": "w2"}]}


def _diff_layer_counts():
    spec = importlib.util.spec_from_file_location("diff_layer_counts", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checkout(root: Path, name: str, calls: dict, fails=()) -> Path:
    """A checkout whose traced run of workload ``w`` prints ``calls[w]``
    as ``a.calls`` (and a timing that always moves), and exits 1 for
    the workloads in ``fails``."""
    checkout = root / name
    bench = checkout / "benchmarks" / "e2e"
    bench.mkdir(parents=True)
    (checkout / "BENCHMARK.json").write_text(json.dumps(SPECS))
    (bench / "run.py").write_text(textwrap.dedent(f"""\
        import json, sys
        args = sys.argv[1:]
        workload = args[args.index("--workload") + 1]
        assert args[args.index("--trace") + 1] == "1"
        seed = int(args[args.index("--seed") + 1])
        if workload in {list(fails)!r}:
            print("Traceback (most recent call last): ...")
            sys.exit(1)
        metrics = {{
            "a.calls": {{"value": {calls!r}[workload] + seed,
                        "unit": "count"}},
            "a.self_s": {{"value": {len(name)}, "unit": "s"}},
        }}
        print("a line before the verdict")
        print(json.dumps({{"metrics": metrics}}))
        """))
    return checkout


def _main(parent, change, *extra):
    return _diff_layer_counts().main([
        "--parent", str(parent), "--change", str(change), "--seed", "3",
        "--equal", "*.calls", *extra,
    ])


def test_every_workload_is_judged_and_the_worst_status_wins(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", {"w1": 10, "w2": 20})
    change = _checkout(tmp_path, "change", {"w1": 10, "w2": 21})
    assert _main(parent, change, "--workload", "all") == 1
    out = capsys.readouterr().out
    assert "== w1 (seed 3)" in out and "== w2 (seed 3)" in out
    assert "a.calls: 23 -> 24 (count)  [pinned by --equal]" in out
    assert "a.self_s" not in out  # timings are never compared
    assert "0 of 1 pinned by --equal moved" in out
    assert "1 of 1 pinned by --equal moved" in out


def test_except_unpins_a_counter_in_every_workload(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", {"w1": 10, "w2": 20})
    change = _checkout(tmp_path, "change", {"w1": 11, "w2": 21})
    assert _main(parent, change, "--workload", "all",
                 "--except", "a.calls") == 0
    assert capsys.readouterr().out.count("[excepted by --except]") == 2


def test_a_failed_run_is_reported_and_the_others_still_run(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", {"w1": 10, "w2": 20})
    change = _checkout(tmp_path, "change", {"w1": 10, "w2": 20},
                       fails=("w1",))
    assert _main(parent, change, "--workload", "all") == 1
    out = capsys.readouterr().out
    assert "w1: run exited 1: FAILED" in out
    assert "0 of 1 pinned by --equal moved" in out  # w2 still judged


def test_equal_runs_exit_zero_and_the_two_file_form_stays(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", {"w1": 10, "w2": 20})
    change = _checkout(tmp_path, "change", {"w1": 10, "w2": 20})
    assert _main(parent, change, "--workload", "w2") == 0
    verdicts = []
    for value in (5, 6):
        path = tmp_path / f"v{value}.txt"
        path.write_text(json.dumps(
            {"metrics": {"a.calls": {"value": value, "unit": "count"}}}
        ))
        verdicts.append(str(path))
    module = _diff_layer_counts()
    assert module.main(verdicts + ["--equal", "a.calls"]) == 1
    assert module.main(verdicts + ["--except", "a.calls"]) == 0
