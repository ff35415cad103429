"""The request lifecycle: one table, one transition function.

* a hypothesis state machine drives random event sequences over a bare
  :class:`RequestRecord` and checks, after every step, what the table
  promises by construction — legal pairs only, one writer, spans that
  tile the request's life, counters that follow the rows;
* four seeded end-to-end scenarios (``lifecycle_scenarios.py``) must
  reproduce the artifacts recorded at the commit before the lifecycle
  moved into the table;
* the cluster chaos scenario also runs off the ``exact`` tier, and a
  second ``run()`` of one engine or one fleet equals its first.

The fleet's own table (``repro.faults.REPLICA_LIFECYCLE``) has its
machine in ``tests/test_fleet_machine.py``; the serving guide renders
both tables and the test here holds the rendering to the code.
"""

import collections
import dataclasses
import json
import pathlib

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from lifecycle_scenarios import (
    GOLDEN_PATH,
    PRUNING,
    SCENARIOS,
    _pool,
    _sharded,
    _trace,
    build_setup,
    cluster_chaos,
    digest,
)
from repro.cluster import ClusterEngine
from repro.faults import REPLICA_LIFECYCLE, FaultEvent
from repro.insight import TraceAttribution
from repro.serving import (
    LIFECYCLE,
    IllegalTransitionError,
    Request,
    RequestRecord,
    RequestStatus,
    ServingEngine,
    transition,
)
from repro.serving.request import SPAN_PHASES
from repro.serving.stats import STATS_SCHEMA_VERSION
from repro.telemetry import NULL_TELEMETRY, Telemetry, chrome_trace

#: Event sequence that takes a fresh record into each phase.
PATH_TO_PHASE = {
    "unrouted": (),
    "pending": ("submitted",),
    "queued": ("submitted", "queued"),
    "prefill": ("submitted", "queued", "admitted"),
    "decode": ("submitted", "queued", "admitted", "promoted"),
    "finished": ("submitted", "queued", "admitted", "promoted", "finished"),
    "failed": ("route_failed",),
}
#: Args the rows read (strike tallies, failure reason).
EVENT_ARGS = {
    "preempted": {"work_tokens": 5},
    "quarantined": {"work_tokens": 3},
    "shed": {"reason": "deadline"},
    "route_failed": {"reason": "unplaceable"},
}
STATUS_OF_PHASE = {
    "prefill": RequestStatus.RUNNING, "decode": RequestStatus.RUNNING,
    "finished": RequestStatus.FINISHED, "failed": RequestStatus.FAILED,
}
GUARDED = ("status", "admit_time", "first_token_time", "finish_time",
           "phase", "phase_start", "admitted_before")

#: Time steps are multiples of 1/8 s, so span arithmetic is exact.
ticks = st.integers(0, 8)


def fresh_record():
    return RequestRecord(Request(7, [1, 2, 3], max_new_tokens=4))


def test_every_pair_outside_the_table_raises():
    for phase, path in PATH_TO_PHASE.items():
        for event, row in LIFECYCLE.items():
            record = fresh_record()
            for step in path:
                transition(record, step, 0.0, NULL_TELEMETRY, "engine",
                           **EVENT_ARGS.get(step, {}))
            assert record.phase == phase
            args = EVENT_ARGS.get(event, {})
            if phase in row.sources:
                transition(record, event, 1.0, NULL_TELEMETRY, "engine",
                           **args)
                continue
            before = dict(vars(record))
            with pytest.raises(IllegalTransitionError, match=event):
                transition(record, event, 1.0, NULL_TELEMETRY, "engine",
                           **args)
            assert vars(record) == before
    with pytest.raises(IllegalTransitionError):
        transition(fresh_record(), "teleported", 0.0, NULL_TELEMETRY,
                   "engine")


def rendered_rows(heading):
    """event -> cells of the table under a serving-guide heading."""
    guide = pathlib.Path(__file__).parents[1] / "docs" / "serving.md"
    section = guide.read_text().split(f"## {heading}\n")[1]
    rule = next(ln for ln in section.splitlines() if ln.startswith("==="))
    body = section.split(rule + "\n")[2]
    return {
        line.split()[0]: [c.strip() for c in line.split("  ") if c.strip()]
        for line in body.splitlines()
    }


def rendered_counters(row):
    return ", ".join(
        name[len("repro_"):-len("_total")]
        + "".join("{%s}" % key for key in keys)
        for name, *keys in row.counters
    ) or "—"


def test_the_serving_guide_renders_the_table():
    rows = rendered_rows("Request lifecycle")
    assert list(rows) == list(LIFECYCLE)
    for event, row in LIFECYCLE.items():
        _, sources, target, outcome, instants, counters = rows[event]
        if event != "drained":  # rendered as the range "pending … decode"
            assert sources == ", ".join(row.sources)
        assert target == (row.target or "—")
        assert outcome == (row.outcome or "—")
        assert instants == (", ".join(row.instants) or "—")
        assert counters == rendered_counters(row)
    rows = rendered_rows("Replica lifecycle")
    assert list(rows) == list(REPLICA_LIFECYCLE)
    for event, row in REPLICA_LIFECYCLE.items():
        _, sources, target, ledger, effect, instants, counters = rows[event]
        if len(row.sources) < 3:  # all three phases render as "any"
            assert sources == f"{row.axis}: " + ", ".join(row.sources)
        assert target == (row.target or "—")
        assert ledger == (", ".join(row.ledger) or "—")
        assert effect == (row.effect or "—")
        assert instants == ", ".join(row.instants)
        assert counters == rendered_counters(row)


class LifecycleMachine(RuleBasedStateMachine):
    """Random lifecycle walks over one record with real sinks."""

    def __init__(self):
        super().__init__()
        self.tel = Telemetry(trace=True, metrics=True)
        self.record = fresh_record()
        self.now = 0.0
        self.first_queue_entry = None
        self.counts = collections.Counter()

    def fire(self, event, dt):
        record, args = self.record, EVENT_ARGS.get(event, {})
        # Time passes only while a span is open: a record between
        # engines re-enters a queue at the instant it was handed back,
        # so the closed spans tile its life with no gap.
        t = self.now + (dt / 8.0 if record.phase in SPAN_PHASES else 0.0)
        n_events = len(self.tel.tracer)
        if record.phase not in LIFECYCLE[event].sources:
            before = dict(vars(record))
            with pytest.raises(IllegalTransitionError):
                transition(record, event, t, self.tel, "engine", **args)
            assert vars(record) == before
            assert len(self.tel.tracer) == n_events
            return
        self.now = t
        transition(record, event, t, self.tel, "engine", **args)
        for name, *label_args in LIFECYCLE[event].counters:
            labels = tuple(sorted(
                [("engine", "engine")] + [(k, args[k]) for k in label_args]
            ))
            self.counts[name, labels] += 1
        if event == "queued" and self.first_queue_entry is None:
            self.first_queue_entry = self.now

    @rule()
    def submit(self):
        self.fire("submitted", 0)

    @rule()
    def queue(self):
        self.fire("queued", 0)

    @rule(dt=ticks)
    def admit(self, dt):
        self.fire("admitted", dt)

    @rule(dt=ticks)
    def promote(self, dt):
        self.fire("promoted", dt)

    @rule(dt=ticks)
    def token(self, dt):
        self.fire("token", dt)

    @rule(dt=ticks)
    def finish(self, dt):
        self.fire("finished", dt)

    @rule(dt=ticks)
    def preempt(self, dt):
        self.fire("preempted", dt)

    @rule(dt=ticks)
    def quarantine(self, dt):
        self.fire("quarantined", dt)

    @rule(dt=ticks)
    def drain(self, dt):
        self.fire("drained", dt)

    @rule(dt=ticks)
    def shed(self, dt):
        self.fire("shed", dt)

    @rule(dt=ticks)
    def reprune(self, dt):
        self.fire("repruned", dt)

    @rule(dt=ticks)
    def retry(self, dt):
        retries = self.record.n_retries
        self.fire("retry", dt)
        assert self.record.n_retries == retries + (
            self.record.phase == "unrouted")

    @rule(dt=ticks)
    def route_fail(self, dt):
        self.fire("route_failed", dt)

    @invariant()
    def spans_tile_the_life(self):
        spans = [e for e in self.tel.tracer.events if e.kind == "span"]
        assert all(e.name in SPAN_PHASES for e in spans)
        cursor = self.first_queue_entry
        for span in spans:
            assert span.t == cursor
            cursor = span.t + span.dur
        # Exactly one phase is open, continuing the tiling up to now,
        # unless the record is terminal or between engines.
        if self.record.phase in SPAN_PHASES:
            assert self.record.phase_start == cursor <= self.now

    @invariant()
    def fields_follow_the_phase(self):
        record, phase = self.record, self.record.phase
        assert record.status is STATUS_OF_PHASE.get(
            phase, RequestStatus.QUEUED)
        assert (record.admit_time is not None) == (
            phase in ("prefill", "decode", "finished"))
        assert (record.first_token_time is not None) == (
            phase in ("decode", "finished"))
        assert (record.finish_time is not None) == (phase == "finished")
        assert (record.failure is not None) == (phase == "failed")

    @invariant()
    def counters_follow_the_rows(self):
        metrics = self.tel.metrics
        assert {key: m.value for key, m in metrics._metrics.items()} \
            == dict(self.counts)

    @invariant()
    def lifecycle_fields_have_one_writer(self):
        for name in GUARDED:
            with pytest.raises(AttributeError, match="transition"):
                setattr(self.record, name, getattr(self.record, name))


TestLifecycleMachine = LifecycleMachine.TestCase
TestLifecycleMachine.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None,
)


@pytest.fixture(scope="module")
def setup():
    return build_setup()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_artifacts_match_the_recorded_parent(setup, name):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert digest(SCENARIOS[name](setup)) == golden[name]


def test_cluster_stats_dict_is_its_dataclass_fields(setup):
    """``ClusterStats.to_dict()`` is derived: value for value the
    fields, nested reports through their own ``to_dict``, NaN as None."""
    [(_, stats)] = cluster_chaos(setup)
    doc = stats.to_dict()
    assert doc.pop("schema_version") == STATS_SCHEMA_VERSION
    assert doc.pop("fleet") == stats.fleet.to_dict()
    assert doc.pop("replicas") == [s.to_dict() for s in stats.replicas]
    assert stats.n_recovered and stats.n_retries and stats.n_breaker_trips
    assert doc == {
        f.name: getattr(stats, f.name) for f in dataclasses.fields(stats)
        if f.name not in ("fleet", "replicas")
    }
    slo = {"objectives": []}
    edited = dataclasses.replace(stats, mttr_s=float("nan"), slo=slo)
    assert edited.to_dict()["mttr_s"] is None
    assert edited.to_dict()["slo"] is slo


@pytest.mark.parametrize("numerics", ["fp32", "int8"])
def test_cluster_chaos_off_the_exact_tier(setup, numerics):
    """ROADMAP item 12 cells: drain / fail / recover / corrupt, the
    breaker and retry backoff on ``fp32`` and ``int8``."""
    # cluster_chaos() audits the sharded ledger before returning.
    [(tel, stats)] = cluster_chaos(setup, numerics=numerics)
    records = stats.fleet.records
    finished = [r for r in records if r.status is RequestStatus.FINISHED]
    assert finished and len(finished) < len(records)
    assert sum(r.n_preemptions + r.n_corruptions for r in records) > 0
    for record in records:
        if record.status is RequestStatus.FINISHED:
            assert record.n_generated == record.request.max_new_tokens
        else:
            assert record.status is RequestStatus.FAILED
    # Every timeline reaches a terminal and tiles: attribution raises
    # on overlap and on a blame vector that does not sum to e2e.
    attribution = TraceAttribution.from_events(
        chrome_trace(tel.tracer)["traceEvents"]
    )
    assert attribution.n_unattributed == 0
    assert len(attribution.vectors) == len(records)


def test_a_second_run_inherits_nothing(setup):
    """Run-scoped state is built per run, not reset: two ``run()``s of
    one fleet — through a crash, a rejoin, a straggler window, the
    breaker and retry backoff — and of one engine under preemption
    report the same."""
    config, model, corpus = setup
    requests = _trace(corpus, 12, 1500.0, (6, 12), seed=11)
    span = requests[-1].arrival_time
    cluster = ClusterEngine(
        model, _sharded(config, 72, 2), policy="round_robin",
        pruning=PRUNING, prefill_chunk=8, admission="optimistic",
        faults=[
            FaultEvent(0.10 * span, 1, "slow_start", factor=8.0),
            FaultEvent(0.20 * span, 0, "fail"),
            FaultEvent(0.40 * span, 1, "slow_end"),
            FaultEvent(0.50 * span, 0, "recover"),
        ],
        heartbeat_timeout_s=0.02 * span, retry_budget=1,
        retry_backoff_s=0.04 * span,
    )
    first = cluster.run(requests).to_dict()
    assert first["n_recovered"] and first["n_requeued"]
    assert first["n_breaker_trips"] and first["availability"] < 1.0
    assert cluster.run(requests).to_dict() == first

    requests = _trace(corpus, 16, 2000.0, (8, 16), seed=3)
    engine = ServingEngine(
        model, _pool(config, 36), pruning=PRUNING, prefill_chunk=8,
        admission="optimistic",
    )
    first = engine.run(requests).to_dict()
    assert first["n_preemptions"]
    assert engine.run(requests).to_dict() == first
