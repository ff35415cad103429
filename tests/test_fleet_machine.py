"""The replica lifecycle under a hypothesis state machine.

``repro.faults.REPLICA_LIFECYCLE`` states once what each fleet event
needs of the replica it hits and what it leaves behind;
``replica_transition`` is its one writer.  This machine fires the
table's events at random (strictly increasing) times on a three-replica
fleet — records plus a real ``ShardedKVPool`` whose shards bill
sequences — and checks after every rule what the table promises by
construction: a (phase, event) pair outside the table raises the named
error and changes nothing, the ledger's membership flags follow the
records and its audit stays clean, ``validate_fault_events`` accepts
exactly the schedules whose live replay raised nothing, tallies and
ledger telemetry follow the rows, and ``availability`` is the integral
of the phase histories.
"""

import copy

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.cluster import ShardedKVPool
from repro.cluster.stats import availability
from repro.config import GPT2_SMALL
from repro.faults import (
    FAULT_KINDS,
    REPLICA_LIFECYCLE,
    FaultEvent,
    IllegalReplicaEvent,
    ReplicaRecord,
    replica_transition,
    validate_fault_events,
)
from repro.telemetry import Telemetry

CONFIG = GPT2_SMALL.with_overrides(n_layers=2)
PAGE_TOKENS = 4
N_REPLICAS = 3
AXES = ("phase", "pace", "breaker")

replicas = st.integers(0, N_REPLICAS - 1)
#: Times are multiples of 1/8 s, so interval arithmetic is exact; every
#: event is later than the last, so a schedule sorts to firing order.
ticks = st.integers(1, 8)


class FleetMachine(RuleBasedStateMachine):
    """Random walks over ``REPLICA_LIFECYCLE`` with a real ledger."""

    def __init__(self):
        super().__init__()
        self.pool = ShardedKVPool(
            CONFIG, n_replicas=N_REPLICAS, page_tokens=PAGE_TOKENS,
            total_budget_bytes=(N_REPLICAS * 8 * PAGE_TOKENS
                                * CONFIG.kv_bytes_per_token),
        )
        self.fleet = [ReplicaRecord(i) for i in range(N_REPLICAS)]
        self.tel = Telemetry(trace=True, metrics=True)
        self.now = 0.0
        self.next_seq = 0
        #: Schedulable events that applied, in firing order.
        self.schedule = []
        #: (replica, event) -> times applied; (replica) -> [(start, end)]
        #: closed active intervals, the machine's own phase history.
        self.applied = {}
        self.active_since = {i: 0.0 for i in range(N_REPLICAS)}
        self.active_spans = {i: [] for i in range(N_REPLICAS)}
        self.ledger_steps = []

    def snapshot(self):
        return (copy.deepcopy(self.fleet), self.pool.ledger(),
                len(self.tel.tracer))

    @rule(event=st.sampled_from(sorted(REPLICA_LIFECYCLE)),
          replica=replicas, dt=ticks)
    def fire(self, event, replica, dt):
        """Any row of the table, on any replica, whatever its state."""
        record, row = self.fleet[replica], REPLICA_LIFECYCLE[event]
        self.now += dt / 8.0
        held = getattr(record, row.axis)
        fault = FaultEvent(self.now, replica, event, factor=2.0)
        if held not in row.sources:
            before = self.snapshot()
            with pytest.raises(IllegalReplicaEvent) as err:
                replica_transition(record, event, self.now, self.tel,
                                   self.pool)
            assert (err.value.replica, err.value.phase, err.value.event) \
                == (replica, held, event)
            assert self.snapshot() == before
            if event in FAULT_KINDS:
                with pytest.raises(IllegalReplicaEvent):
                    validate_fault_events(self.schedule + [fault],
                                          N_REPLICAS)
            return
        others = {axis: getattr(record, axis) for axis in AXES
                  if axis != row.axis}
        assert replica_transition(
            record, event, self.now, self.tel, self.pool) is row
        assert getattr(record, row.axis) == (row.target or held)
        assert {axis: getattr(record, axis) for axis in others} == others
        self.applied[replica, event] = self.applied.get((replica, event), 0) + 1
        self.ledger_steps += [(step, replica) for step in row.ledger]
        if event in FAULT_KINDS:
            self.schedule.append(fault)
            assert validate_fault_events(self.schedule, N_REPLICAS) \
                == self.schedule
        if row.axis == "phase" and row.target is not None:
            if row.target == "active":
                self.active_since[replica] = self.now
            else:
                self.active_spans[replica].append(
                    (self.active_since.pop(replica), self.now))
                # What the cluster engine's hand-back does: the retired
                # shard's sequences leave before anything audits it.
                shard = self.pool.shard(replica)
                for seq in sorted(shard.tracked_sequences):
                    shard.release(seq)

    @rule(replica=replicas)
    def admit(self, replica):
        """Bill a sequence on an active shard (what a retire hands back)."""
        shard, lengths = self.pool.shard(replica), [PAGE_TOKENS] * 2
        if self.pool.is_active(replica) and shard.can_admit(lengths):
            shard.admit(self.next_seq, lengths)
            self.next_seq += 1

    @rule(replica=replicas, dt=ticks)
    def rejoin_over_pages(self, replica, dt):
        """A retired shard that still holds pages cannot rejoin."""
        record, shard = self.fleet[replica], self.pool.shard(replica)
        if record.phase == "active":
            return
        self.now += dt / 8.0
        shard.admit(self.next_seq, [PAGE_TOKENS] * 2)
        before = self.snapshot()
        with pytest.raises(IllegalReplicaEvent, match="still holds 2 "):
            replica_transition(record, "recover", self.now, self.tel,
                               self.pool)
        assert self.snapshot() == before
        shard.release(self.next_seq)
        self.next_seq += 1

    @invariant()
    def the_ledger_follows_the_records(self):
        self.pool.audit()
        for record in self.fleet:
            i = record.index
            assert self.pool.phase(i) == record.phase
            assert self.pool.is_active(i) == (record.phase == "active")
            assert self.pool.is_failed(i) == (record.phase == "failed")
        assert self.pool.n_active == len(self.active_since)

    @invariant()
    def tallies_and_ledger_telemetry_follow_the_rows(self):
        for record in self.fleet:
            for event, row in REPLICA_LIFECYCLE.items():
                if row.tally is not None:
                    assert getattr(record, row.tally) \
                        == self.applied.get((record.index, event), 0)
        assert [
            (e.name, e.args_dict["replica"]) for e in self.tel.tracer.events
        ] == [(f"ledger_{step}", i) for step, i in self.ledger_steps]
        for kind in ("drain", "fail", "recover"):
            counter = self.tel.metrics.counter(
                "repro_ledger_transitions_total", engine="fleet", kind=kind)
            assert counter.value == sum(
                step == kind for step, _ in self.ledger_steps)

    @invariant()
    def availability_is_the_integral_of_the_phase_history(self):
        for makespan in (self.now, self.now / 2):
            if makespan <= 0:
                assert availability(self.fleet, makespan) == 1.0
                continue
            spans = [
                span for i in range(N_REPLICAS)
                for span in self.active_spans[i] + (
                    [(self.active_since[i], makespan)]
                    if i in self.active_since else [])
            ]
            active = sum(
                max(0.0, min(end, makespan) - min(start, makespan))
                for start, end in spans
            )
            got = availability(self.fleet, makespan)
            assert got == active / (N_REPLICAS * makespan)
            assert 0.0 <= got <= 1.0


TestFleetMachine = FleetMachine.TestCase
TestFleetMachine.settings = settings(
    max_examples=80, stateful_step_count=40, deadline=None,
)


def test_an_event_outside_the_table_raises_the_named_error():
    record = ReplicaRecord(4)
    with pytest.raises(IllegalReplicaEvent, match="replica 4: event "
                       "'teleport' is not legal in phase 'active'"):
        replica_transition(record, "teleport", 0.0)
    assert record == ReplicaRecord(4)
