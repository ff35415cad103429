"""Tests for the repro.analysis static lint pass.

Every rule family gets at least one positive fixture (the rule fires on
a minimal violation) and a negative fixture (the rule stays silent on
the fixed version); plus suppression-comment handling, JSON reporter
byte-stability, the golden stats-schema round trip (the ``--stats-json``
schema gate), the CLI surface, and the repo-clean gate the acceptance
criteria require.  The KV-ledger contracts are not linted: see
``test_ledger_machine.py``.
"""

import json
from dataclasses import fields

import pytest

from repro.analysis import (
    LintEngine,
    all_rule_classes,
    domain_of,
    find_repo_root,
    render_json,
    render_text,
)
from repro.cli import main as cli_main
from repro.cluster import ClusterStats, ShardedKVPool
from repro.config import GPT2_SMALL
from repro.faults import ReplicaRecord
from repro.serving.stats import STATS_SCHEMA_VERSION, ServingStats


def make_repo(tmp_path, files):
    """Materialize a fixture repo ({relpath: source}) under tmp_path."""
    (tmp_path / "src" / "repro").mkdir(parents=True, exist_ok=True)
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return tmp_path


def lint(tmp_path, files, rules=None, paths=None):
    root = make_repo(tmp_path, files)
    engine = LintEngine(root=root, rules=rules)
    return engine.run(paths)


def rule_ids(result):
    return [f.rule for f in result.unsuppressed]


# ----------------------------------------------------------------------
# Determinism family
# ----------------------------------------------------------------------
class TestWallClockRule:
    def test_fires_on_wall_clock_reads(self, tmp_path):
        result = lint(tmp_path, {
            "src/repro/serving/bad.py": (
                "import time\n"
                "from datetime import datetime\n"
                "def stamp():\n"
                "    return time.time(), time.perf_counter(), "
                "datetime.now()\n"
            ),
        }, rules=["det-wallclock"])
        assert rule_ids(result).count("det-wallclock") == 3
        assert result.exit_code == 1

    def test_silent_on_simulated_clock(self, tmp_path):
        result = lint(tmp_path, {
            "src/repro/serving/good.py": (
                "class Clock:\n"
                "    def __init__(self):\n"
                "        self.now = 0.0\n"
                "    def advance(self, dt):\n"
                "        self.now += dt\n"
            ),
        }, rules=["det-wallclock"])
        assert result.unsuppressed == []
        assert result.exit_code == 0

    def test_manifest_sanctions_the_profiler(self, tmp_path):
        # Same wall-clock read, but in the module the clock-domain
        # manifest declares 'wall': no finding.
        result = lint(tmp_path, {
            "src/repro/telemetry/profiler.py": (
                "import time\n"
                "def t0():\n"
                "    return time.perf_counter()\n"
            ),
        }, rules=["det-wallclock"])
        assert result.unsuppressed == []

    def test_resolves_import_aliases(self, tmp_path):
        result = lint(tmp_path, {
            "src/repro/serving/alias.py": (
                "from time import perf_counter as pc\n"
                "def t():\n"
                "    return pc()\n"
            ),
        }, rules=["det-wallclock"])
        assert rule_ids(result) == ["det-wallclock"]


class TestGlobalRngRule:
    def test_fires_on_numpy_legacy_and_stdlib_random(self, tmp_path):
        result = lint(tmp_path, {
            "src/repro/serving/bad.py": (
                "import random\n"
                "import numpy as np\n"
                "def draw():\n"
                "    return np.random.rand(3) + random.random()\n"
            ),
        }, rules=["det-global-rng"])
        ids = rule_ids(result)
        assert len(ids) == 3  # the import, np.random.rand, random.random
        assert set(ids) == {"det-global-rng"}

    def test_silent_on_seeded_generator(self, tmp_path):
        result = lint(tmp_path, {
            "src/repro/serving/good.py": (
                "import numpy as np\n"
                "def draw(seed):\n"
                "    rng = np.random.default_rng(seed)\n"
                "    ss = np.random.SeedSequence(seed)\n"
                "    return rng.random(), ss\n"
            ),
        }, rules=["det-global-rng"])
        assert result.unsuppressed == []


class TestEnvReadRule:
    def test_fires_on_environ_and_getenv(self, tmp_path):
        result = lint(tmp_path, {
            "src/repro/serving/bad.py": (
                "import os\n"
                "def conf():\n"
                "    a = os.environ['THREADS']\n"
                "    b = os.environ.get('DEBUG')\n"
                "    c = os.getenv('SEED')\n"
                "    return a, b, c\n"
            ),
        }, rules=["det-env-read"])
        assert rule_ids(result) == ["det-env-read"] * 3
        assert result.exit_code == 1

    def test_silent_on_explicit_config(self, tmp_path):
        result = lint(tmp_path, {
            "src/repro/serving/good.py": (
                "def conf(threads, debug, seed):\n"
                "    return threads, debug, seed\n"
            ),
        }, rules=["det-env-read"])
        assert result.unsuppressed == []


class TestSetOrderRule:
    def test_fires_on_set_iteration_shapes(self, tmp_path):
        result = lint(tmp_path, {
            "src/repro/serving/bad.py": (
                "def shapes(xs):\n"
                "    a = [x for x in set(xs)]\n"
                "    b = list({1, 2, 3})\n"
                "    c = ','.join({'x', 'y'})\n"
                "    for item in set(xs) - {0}:\n"
                "        a.append(item)\n"
                "    return a, b, c\n"
            ),
        }, rules=["det-set-order"])
        assert rule_ids(result) == ["det-set-order"] * 4

    def test_silent_on_sorted_sets(self, tmp_path):
        result = lint(tmp_path, {
            "src/repro/serving/good.py": (
                "def shapes(xs):\n"
                "    a = [x for x in sorted(set(xs))]\n"
                "    b = sorted({1, 2, 3})\n"
                "    c = ','.join(sorted({'x', 'y'}))\n"
                "    for item in sorted(set(xs) - {0}):\n"
                "        a.append(item)\n"
                "    return a, b, c\n"
            ),
        }, rules=["det-set-order"])
        assert result.unsuppressed == []


class TestDtypeLiteralRule:
    def test_fires_in_governed_module(self, tmp_path):
        result = lint(tmp_path, {
            "src/repro/nn/kv_cache.py": (
                "import numpy as np\n"
                "def store(x):\n"
                "    a = np.asarray(x, dtype=np.float64)\n"
                "    b = np.zeros(3, dtype=float)\n"
                "    return a, b\n"
            ),
        }, rules=["det-dtype-literal"])
        assert rule_ids(result) == ["det-dtype-literal"] * 2
        assert result.exit_code == 1

    def test_silent_outside_governed_modules(self, tmp_path):
        # Same code in a non-hot-path module: the oracle baselines and
        # eval helpers are *supposed* to be fp64.
        result = lint(tmp_path, {
            "src/repro/eval/accuracy.py": (
                "import numpy as np\n"
                "def score(x):\n"
                "    return np.asarray(x, dtype=np.float64)\n"
            ),
        }, rules=["det-dtype-literal"])
        assert result.unsuppressed == []

    def test_silent_on_policy_threaded_dtype(self, tmp_path):
        result = lint(tmp_path, {
            "src/repro/nn/kv_cache.py": (
                "import numpy as np\n"
                "def store(x, policy):\n"
                "    return np.asarray(x, dtype=policy.kv_dtype)\n"
            ),
        }, rules=["det-dtype-literal"])
        assert result.unsuppressed == []

    def test_suppression_with_reason(self, tmp_path):
        result = lint(tmp_path, {
            "src/repro/nn/functional.py": (
                "import numpy as np\n"
                "def softmax(x):\n"
                "    # repro: allow[det-dtype-literal] -- fp64 oracle\n"
                "    return np.asarray(x, dtype=np.float64)\n"
            ),
        }, rules=["det-dtype-literal"])
        assert result.unsuppressed == []
        assert len(result.suppressed) == 1


# ----------------------------------------------------------------------
# Clock-domain family
# ----------------------------------------------------------------------
class TestClockDomainRule:
    def test_manifest_domains(self):
        assert domain_of("repro.serving.engine") == "simulated"
        assert domain_of("repro.telemetry.profiler") == "wall"
        assert domain_of("repro.telemetry") == "neutral"
        assert domain_of("repro.core.schedule") == "neutral"

    def test_fires_on_simulated_importing_wall(self, tmp_path):
        result = lint(tmp_path, {
            "src/repro/serving/bad.py": (
                "from repro.telemetry.profiler import HotPathProfiler\n"
                "profiler = HotPathProfiler()\n"
            ),
        }, rules=["clock-domain-import"])
        assert rule_ids(result) == ["clock-domain-import"]

    def test_fires_on_from_pkg_import_submodule(self, tmp_path):
        # `from repro.telemetry import profiler` binds to the more
        # specific manifest entry, not the neutral package.
        result = lint(tmp_path, {
            "src/repro/cluster/bad.py": (
                "from repro.telemetry import profiler\n"
            ),
        }, rules=["clock-domain-import"])
        assert rule_ids(result) == ["clock-domain-import"]

    def test_fires_on_wall_importing_simulated(self, tmp_path):
        result = lint(tmp_path, {
            "src/repro/telemetry/profiler.py": (
                "from repro.serving.stats import SimulatedClock\n"
            ),
        }, rules=["clock-domain-import"])
        assert rule_ids(result) == ["clock-domain-import"]

    def test_silent_on_neutral_bridge(self, tmp_path):
        # The fixed version: simulated code imports the neutral bundle
        # package, which is allowed to aggregate both sides.
        result = lint(tmp_path, {
            "src/repro/serving/good.py": (
                "from repro.telemetry import Telemetry\n"
            ),
            "src/repro/telemetry/__init__.py": (
                "from .profiler import HotPathProfiler\n"
                "class Telemetry:\n"
                "    pass\n"
            ),
        }, rules=["clock-domain-import"])
        assert result.unsuppressed == []

    def test_relative_imports_resolve(self, tmp_path):
        result = lint(tmp_path, {
            "src/repro/serving/bad.py": (
                "from ..telemetry.profiler import HotPathProfiler\n"
            ),
        }, rules=["clock-domain-import"])
        assert rule_ids(result) == ["clock-domain-import"]


# ----------------------------------------------------------------------
# Drift family
# ----------------------------------------------------------------------
_CLI_DRIFTED = '''\
"""Usage: repro serve --ghost-flag 3 --requests 8."""
import argparse

def build():
    p = argparse.ArgumentParser()
    p.add_argument("--requests", type=int)
    p.add_argument("--rate", type=float)
    return p
'''

_CLI_SYNCED = '''\
"""Usage: repro serve --requests 8 --rate 100."""
import argparse

def build():
    p = argparse.ArgumentParser()
    p.add_argument("--requests", type=int)
    p.add_argument("--rate", type=float)
    return p
'''


class TestCliDocDriftRule:
    def test_fires_both_directions(self, tmp_path):
        result = lint(tmp_path, {
            "src/repro/cli.py": _CLI_DRIFTED,
        }, rules=["drift-cli-doc"])
        messages = [f.message for f in result.unsuppressed]
        assert len(messages) == 2
        assert any("--ghost-flag" in m and "stale" in m for m in messages)
        assert any("--rate" in m and "neither" in m for m in messages)

    def test_silent_when_synced(self, tmp_path):
        result = lint(tmp_path, {
            "src/repro/cli.py": _CLI_SYNCED,
        }, rules=["drift-cli-doc"])
        assert result.unsuppressed == []

    def test_markdown_guide_is_a_doc_source(self, tmp_path):
        """``docs/serving.md`` narrates flags as whole text: it documents
        ``--rate`` for the parser and its own stale flag fires there."""
        result = lint(tmp_path, {
            "src/repro/cli.py": _CLI_SYNCED.replace(" --rate 100", ""),
            "docs/serving.md": "# Guide\n\nPass `--rate 100`, `--gone 1`.\n",
        }, rules=["drift-cli-doc"])
        assert [(f.path, f.line) for f in result.unsuppressed] == [
            ("docs/serving.md", 3)
        ]
        assert "--gone" in result.unsuppressed[0].message

    def test_section_underlines_are_not_flags(self, tmp_path):
        result = lint(tmp_path, {
            "src/repro/cli.py": (
                '"""Guide\n'
                "-----\n"
                "\n"
                "No flags here, just a reST underline.\n"
                '"""\n'
            ),
        }, rules=["drift-cli-doc"])
        assert result.unsuppressed == []


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_same_line_suppression(self, tmp_path):
        result = lint(tmp_path, {
            "src/repro/serving/mod.py": (
                "import time\n"
                "t = time.time()  "
                "# repro: allow[det-wallclock] -- fixture reason\n"
            ),
        }, rules=["det-wallclock", "lint-suppression"])
        assert result.unsuppressed == []
        assert len(result.suppressed) == 1
        assert result.suppressed[0].reason == "fixture reason"

    def test_standalone_suppression_covers_next_code_line(self, tmp_path):
        result = lint(tmp_path, {
            "src/repro/serving/mod.py": (
                "import time\n"
                "# repro: allow[det-wallclock] -- reason spans a block\n"
                "# and continues on a plain comment line.\n"
                "t = time.time()\n"
            ),
        }, rules=["det-wallclock", "lint-suppression"])
        assert result.unsuppressed == []
        assert len(result.suppressed) == 1

    def test_file_level_suppression(self, tmp_path):
        result = lint(tmp_path, {
            "src/repro/serving/mod.py": (
                "# repro: allow-file[det-wallclock] -- whole-module fixture\n"
                "import time\n"
                "a = time.time()\n"
                "b = time.time()\n"
            ),
        }, rules=["det-wallclock", "lint-suppression"])
        assert result.unsuppressed == []
        assert len(result.suppressed) == 2

    def test_wrong_rule_id_does_not_suppress(self, tmp_path):
        result = lint(tmp_path, {
            "src/repro/serving/mod.py": (
                "import time\n"
                "t = time.time()  # repro: allow[det-env-read] -- wrong id\n"
            ),
        }, rules=["det-wallclock", "lint-suppression"])
        assert rule_ids(result) == ["det-wallclock"]

    def test_reasonless_suppression_is_a_finding(self, tmp_path):
        result = lint(tmp_path, {
            "src/repro/serving/mod.py": (
                "import time\n"
                "t = time.time()  # repro: allow[det-wallclock]\n"
            ),
        }, rules=["det-wallclock", "lint-suppression"])
        # The target finding is silenced, but the missing reason fails
        # the lint — every suppression must carry its justification.
        assert rule_ids(result) == ["lint-suppression"]
        assert "no reason" in result.unsuppressed[0].message

    def test_malformed_repro_comment_is_a_finding(self, tmp_path):
        result = lint(tmp_path, {
            "src/repro/serving/mod.py": (
                "# repro: allowed[det-wallclock] -- typoed directive\n"
                "x = 1\n"
            ),
        }, rules=["lint-suppression"])
        assert rule_ids(result) == ["lint-suppression"]


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------
class TestReporters:
    FILES = {
        "src/repro/serving/mod.py": (
            "import time\n"
            "a = time.time()\n"
            "b = time.time()  # repro: allow[det-wallclock] -- fixture\n"
        ),
    }

    def test_json_report_is_byte_identical_across_runs(self, tmp_path):
        root = make_repo(tmp_path, self.FILES)
        runs = [
            render_json(LintEngine(root=root).run()).encode()
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_json_report_shape(self, tmp_path):
        result = lint(tmp_path, dict(self.FILES))
        doc = json.loads(render_json(result))
        assert doc["tool"] == "repro.analysis"
        assert doc["summary"]["findings"] == 1
        assert doc["summary"]["suppressed"] == 1
        (finding,) = doc["findings"]
        assert finding["rule"] == "det-wallclock"
        assert finding["path"] == "src/repro/serving/mod.py"
        assert finding["line"] == 2
        (suppressed,) = doc["suppressed"]
        assert suppressed["reason"] == "fixture"

    def test_text_report_names_rule_and_location(self, tmp_path):
        result = lint(tmp_path, dict(self.FILES))
        text = render_text(result)
        assert "src/repro/serving/mod.py:2: [det-wallclock]" in text
        assert "1 finding(s)" in text


# ----------------------------------------------------------------------
# Engine plumbing
# ----------------------------------------------------------------------
class TestEngine:
    def test_unknown_rule_id_raises(self, tmp_path):
        make_repo(tmp_path, {})
        with pytest.raises(ValueError, match="unknown rule"):
            LintEngine(root=tmp_path, rules=["no-such-rule"])

    def test_bad_path_raises(self, tmp_path):
        make_repo(tmp_path, {})
        engine = LintEngine(root=tmp_path)
        with pytest.raises(ValueError, match="lint path"):
            engine.run(["does/not/exist"])

    def test_syntax_error_is_reported_not_crashed(self, tmp_path):
        result = lint(tmp_path, {
            "src/repro/serving/broken.py": "def broken(:\n",
        })
        assert result.unsuppressed == []
        assert [f.rule for f in result.parse_errors] == ["lint-parse"]
        assert result.exit_code == 1

    def test_path_restriction_limits_scan(self, tmp_path):
        root = make_repo(tmp_path, {
            "src/repro/serving/bad.py": "import time\nt = time.time()\n",
            "src/repro/other/bad.py": "import time\nt = time.time()\n",
        })
        result = LintEngine(root=root, rules=["det-wallclock"]).run(
            ["src/repro/other"]
        )
        assert [f.path for f in result.unsuppressed] == [
            "src/repro/other/bad.py"
        ]


# ----------------------------------------------------------------------
# Golden schema round trip: the --stats-json schema gate
# ----------------------------------------------------------------------
class TestGoldenSchemaRoundTrip:
    @pytest.fixture(scope="class")
    def golden(self):
        path = find_repo_root() / "benchmarks/results/stats_schema_v2.json"
        return json.loads(path.read_text())

    @pytest.fixture(scope="class")
    def serving_stats(self):
        return ServingStats.from_run(
            mode="dense", records=[], makespan_s=1.0, batch_sizes=[2],
            occupancy_samples=[0.5], pool_pages=8, pool_page_tokens=16,
            occupancy_peak=0.75, reclaimed_pages=1, reclaimed_tokens=16,
        )

    def test_schema_version_matches(self, golden):
        assert golden["schema_version"] == STATS_SCHEMA_VERSION

    def test_serving_stats_round_trip(self, golden, serving_stats):
        assert sorted(serving_stats.to_dict()) == golden["serving_stats"]

    def test_cluster_stats_round_trip(self, golden, serving_stats):
        stats = ClusterStats.from_run(
            policy="round_robin", records=[],
            replica_stats=[serving_stats], makespan_s=1.0,
            global_occupancy_samples=[0.5], global_occupancy_peak=0.75,
            replicas=[ReplicaRecord(0)],
            pool=ShardedKVPool(GPT2_SMALL, 1 << 20, n_replicas=1),
        )
        assert sorted(stats.to_dict()) == golden["cluster_stats"]
        assert sorted(stats.to_dict()["fleet"]) == golden["serving_stats"]

    def test_dataclass_fields_match_golden(self, golden):
        expected = sorted(
            ({f.name for f in fields(ServingStats)} - {"records"})
            | {"schema_version"}
        )
        assert expected == golden["serving_stats"]


# ----------------------------------------------------------------------
# The repo itself is clean — the acceptance gate
# ----------------------------------------------------------------------
@pytest.mark.smoke
class TestRepoIsClean:
    @pytest.fixture(scope="class")
    def result(self):
        """One full-tree lint (seconds) shared by the class."""
        return LintEngine().run()

    def test_repo_lints_clean(self, result):
        assert result.parse_errors == []
        assert result.unsuppressed == [], render_text(result)

    def test_every_suppression_carries_a_reason(self, result):
        for finding in result.suppressed:
            assert finding.reason, (
                f"{finding.path}:{finding.line} suppresses {finding.rule} "
                f"without a reason"
            )

    def test_each_rule_family_is_registered(self):
        rules = all_rule_classes()
        assert len(rules) == 8
        assert {cls.family for cls in rules.values()} == {
            "determinism", "clock-domain", "drift", "lint"}


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestLintCli:
    def test_lint_exits_zero_on_clean_repo(self, capsys):
        assert cli_main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_json_format(self, capsys):
        assert cli_main(["lint", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tool"] == "repro.analysis"
        assert doc["summary"]["findings"] == 0

    def test_out_writes_json_report(self, tmp_path, capsys):
        out_path = tmp_path / "lint_report.json"
        assert cli_main(["lint", "--out", str(out_path)]) == 0
        capsys.readouterr()
        doc = json.loads(out_path.read_text())
        assert doc["summary"]["findings"] == 0

    def test_rules_filter(self, capsys):
        assert cli_main(["lint", "--rules", "det-wallclock"]) == 0
        capsys.readouterr()

    def test_unknown_rule_exits_2(self, capsys):
        assert cli_main(["lint", "--rules", "bogus"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        lines = capsys.readouterr().out.splitlines()
        ids = [line.split()[0] for line in lines]
        assert ids == list(all_rule_classes())
        assert len(ids) == 8
        assert {"det-wallclock", "clock-domain-import", "drift-cli-doc",
                "lint-suppression"} <= set(ids)

    def test_nonzero_exit_on_findings(self, tmp_path, capsys, monkeypatch):
        # The CLI lints the repo the operator is standing in: chdir to a
        # violating fixture tree and the gate must fail.
        make_repo(tmp_path, {
            "src/repro/serving/bad.py": "import time\nt = time.time()\n",
        })
        monkeypatch.chdir(tmp_path)
        rc = cli_main(["lint"])
        assert rc == 1
        assert "det-wallclock" in capsys.readouterr().out
