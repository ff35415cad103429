"""Seeded fault plans for the simulated-clock chaos engine.

A :class:`FaultPlan` is a validated, time-ordered list of
:class:`FaultEvent` records — replica crashes and recoveries, transient
straggler windows, and KV-page corruption strikes — either scripted by
hand or generated deterministically from a seed with
:meth:`FaultPlan.generate`.  :class:`repro.cluster.ClusterEngine`
takes the events (``faults=plan.events``) and fires each one on the
simulated clock, so a (seed, profile) pair replays to byte-identical
fleet behaviour.

Event taxonomy (``FaultEvent.kind``):

``drain``
    Graceful retirement: the replica stops taking traffic, in-flight
    work is requeued, the shard leaves the ledger clean.
``fail``
    Crash: the shard's pages are torn down immediately and in-flight
    work is requeued elsewhere.
``recover``
    Rejoin: a previously drained/failed replica re-registers its
    (empty) shard with the ledger and becomes routable again.
``slow_start`` / ``slow_end``
    A transient straggler window: every cost-model step time on the
    replica is multiplied by ``factor`` until the matching
    ``slow_end``.  Token streams are unaffected — only the clock.
``corrupt``
    Flip a stored KV-page checksum on the replica's shard.  The victim
    sequence/page is chosen deterministically from the event's
    ``u_seq``/``u_page`` coordinates over the pages resident when the
    event fires (a no-op on an empty shard).

Sequencing rules are the rows of :data:`REPLICA_LIFECYCLE` — what each
event needs of the replica it hits and what it leaves behind — applied
by :func:`replica_transition`, the one writer of a
:class:`ReplicaRecord`: the cluster engine fires schedules through it,
:class:`repro.cluster.ShardedKVPool` moves its membership flags through
it, and :func:`validate_fault_events` is a dry replay of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..serving.request import Transition
from ..telemetry import NULL_TELEMETRY

__all__ = [
    "FAULT_KINDS",
    "REPLICA_LIFECYCLE",
    "CHAOS_PROFILES",
    "ChaosProfile",
    "FaultEvent",
    "FaultPlan",
    "IllegalReplicaEvent",
    "ReplicaRecord",
    "replica_transition",
    "validate_fault_events",
]


FAULT_KINDS = ("drain", "fail", "recover", "slow_start", "slow_end",
               "corrupt")

_RETIREMENT_COUNTERS = (
    ("repro_requests_requeued_total",),
    ("repro_replica_retirements_total", "kind"),
)
#: Every event of a replica's life, by name: the schedulable
#: :data:`FAULT_KINDS`, the heartbeat breaker's two and
#: ``corrupt_noop`` (a strike that found no page).  A replica has three
#: axes — membership ``phase`` (``active`` / ``drained`` / ``failed``),
#: ``pace`` (``steady`` / ``slowed``) and ``breaker`` (``closed`` /
#: ``open``); a row speaks of one.  ``ledger`` steps flip the shard's
#: membership flags and are each a ``ledger_<step>`` instant and a
#: ``repro_ledger_transitions_total{kind=<step>}`` count.  Counters
#: carry ``kind=<event>`` where a row asks for it.
REPLICA_LIFECYCLE: Dict[str, Transition] = {
    "drain": Transition(
        ("active",), "drained", ledger=("drain",), effect="hand_back",
        instants=("replica_drain",), counters=_RETIREMENT_COUNTERS,
        track="scheduler",
    ),
    "fail": Transition(
        ("active",), "failed", ledger=("drain", "fail"),
        effect="hand_back", instants=("replica_fail",),
        counters=_RETIREMENT_COUNTERS, track="scheduler",
    ),
    "recover": Transition(
        ("drained", "failed"), "active", tally="n_recovered",
        ledger=("recover",), effect="rejoin",
        instants=("replica_recover",),
        counters=(("repro_replica_recoveries_total",),), track="scheduler",
    ),
    "slow_start": Transition(
        ("steady",), "slowed", axis="pace", effect="set_pace",
        instants=("straggler_start",),
        counters=(("repro_straggler_windows_total",),), track="faults",
    ),
    "slow_end": Transition(
        ("slowed",), "steady", axis="pace", effect="set_pace",
        instants=("straggler_end",), track="faults",
    ),
    "breaker_open": Transition(
        ("closed",), "open", axis="breaker", tally="n_breaker_trips",
        instants=("breaker_open",),
        counters=(("repro_breaker_trips_total",),), track="router",
    ),
    "breaker_close": Transition(
        ("open",), "closed", axis="breaker",
        instants=("breaker_close",), track="router",
    ),
    "corrupt": Transition(
        ("active", "drained", "failed"), effect="strike",
        instants=("corruption_injected",),
        counters=(("repro_corruptions_injected_total",),), track="faults",
    ),
    "corrupt_noop": Transition(
        ("active", "drained", "failed"),
        instants=("corruption_noop",), track="faults",
    ),
}

# Deterministic tiebreak for events sharing a timestamp on one replica:
# close out the previous episode (recover / slow_end) before opening a
# new one, and strike corruption before the replica retires.
_KIND_ORDER = {
    "recover": 0, "slow_end": 1, "corrupt": 2,
    "slow_start": 3, "drain": 4, "fail": 5,
}


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    Attributes:
        time: simulated-clock firing time (seconds, >= 0).
        replica: target replica index.
        kind: one of :data:`FAULT_KINDS`.
        factor: slowdown multiplier (``slow_start`` only, >= 1).
        u_seq: victim-sequence coordinate in ``[0, 1)`` (``corrupt``).
        u_page: victim-page coordinate in ``[0, 1)`` (``corrupt``).
    """

    time: float
    replica: int
    kind: str
    factor: float = 1.0
    u_seq: float = 0.0
    u_page: float = 0.0

    def sort_key(self) -> Tuple[float, int, int]:
        # .get so an unknown kind still sorts (validation rejects it
        # with a proper message instead of a KeyError mid-sort).
        return (self.time, self.replica, _KIND_ORDER.get(self.kind, -1))


class IllegalReplicaEvent(ValueError):
    """A replica event fired where :data:`REPLICA_LIFECYCLE` has no row
    for it (recover an active replica, retire a retired one, close a
    straggler window that never opened, rejoin a shard that still holds
    pages).  Nothing was touched."""

    def __init__(self, replica: int, phase: str, event: str, why: str = ""):
        self.replica, self.phase, self.event = replica, phase, event
        super().__init__(
            f"replica {replica}: event {event!r} is not legal in phase "
            f"{phase!r}{why}"
        )


@dataclass
class ReplicaRecord:
    """Where one replica is in :data:`REPLICA_LIFECYCLE`, and its
    tallies.  Only :func:`replica_transition` moves the three axes."""

    index: int
    phase: str = "active"
    pace: str = "steady"
    breaker: str = "closed"
    #: ``(time, phase)`` change points of the membership phase, from
    #: the phase the record was built in; availability and MTTR are
    #: integrals over it.
    history: List[Tuple[float, str]] = field(init=False)
    n_recovered: int = 0
    n_breaker_trips: int = 0
    #: In-flight requests the replica handed back when it retired.
    n_requeued: int = 0
    #: Placements the router made on the replica, requeues included.
    n_routed: int = 0

    def __post_init__(self) -> None:
        self.history = [(0.0, self.phase)]


def replica_transition(
    record: ReplicaRecord, event: str, now: float, tel=NULL_TELEMETRY,
    pool=None,
) -> Transition:
    """Apply one :data:`REPLICA_LIFECYCLE` row to ``record`` at ``now``.

    Raises :class:`IllegalReplicaEvent` — before anything moves — unless
    the row is legal where the record stands and, for a rejoin, the
    replica's shard of ``pool`` (:class:`repro.cluster.ShardedKVPool`)
    is empty.  Then the shard takes the row's ledger steps, the record
    its target and tally.  Returns the row: its ``effect`` and its own
    instants and counters are the driver's to run and emit
    (:func:`repro.serving.request.emit_row`) once that work is done.
    """
    row = REPLICA_LIFECYCLE.get(event)
    held = getattr(record, row.axis) if row is not None else record.phase
    if row is None or held not in row.sources:
        raise IllegalReplicaEvent(record.index, held, event)
    if pool is not None and row.target == "active":
        shard = pool.shard(record.index)
        if shard.reserved_pages or shard.allocated_pages:
            raise IllegalReplicaEvent(
                record.index, held, event,
                f": its shard still holds {shard.reserved_pages} reserved "
                f"/ {shard.allocated_pages} allocated pages",
            )
    for step in row.ledger:
        if pool is not None:
            pool._set_membership(record.index, step)
        tel.instant(f"ledger_{step}", now, "fleet", "ledger",
                    replica=record.index)
        tel.count("repro_ledger_transitions_total", engine="fleet", kind=step)
    if row.target is not None:
        setattr(record, row.axis, row.target)
        if row.axis == "phase":
            record.history.append((now, row.target))
    if row.tally is not None:
        setattr(record, row.tally, getattr(record, row.tally) + 1)
    return row


def validate_fault_events(
    events: Iterable[FaultEvent], n_replicas: int
) -> List[FaultEvent]:
    """Validate and time-order a fault schedule.

    Returns the events sorted by ``(time, replica, kind)`` after a dry
    replay of :data:`REPLICA_LIFECYCLE` over a fleet of fresh records:
    an illegal sequence raises :class:`IllegalReplicaEvent`, an unknown
    kind or replica, a negative time or a payload out of range a plain
    ``ValueError``.
    """
    ordered = sorted(events, key=FaultEvent.sort_key)
    fleet = [ReplicaRecord(i) for i in range(n_replicas)]
    for event in ordered:
        if event.kind not in _KIND_ORDER:
            raise ValueError(
                f"unknown fault kind {event.kind!r}; choose from "
                f"{FAULT_KINDS}"
            )
        if not 0 <= event.replica < n_replicas:
            raise ValueError(
                f"unknown replica {event.replica} in fault event "
                f"(fleet has {n_replicas})"
            )
        if not event.time >= 0:
            raise ValueError("fault event times must be non-negative")
        if not event.factor >= 1.0:
            raise ValueError("slow_start factor must be >= 1")
        if not (0.0 <= event.u_seq < 1.0 and 0.0 <= event.u_page < 1.0):
            raise ValueError("corrupt event coordinates must lie in [0, 1)")
        replica_transition(fleet[event.replica], event.kind, event.time)
    return ordered


@dataclass(frozen=True)
class ChaosProfile:
    """Fault intensities for one cell of the chaos sweep.

    Rates are expected event counts *per replica* over the plan
    horizon; durations are fractions of the horizon.
    """

    name: str
    crash_cycles: float
    downtime_frac: Tuple[float, float]
    straggler_windows: float
    slowdown: Tuple[float, float]
    window_frac: Tuple[float, float]
    corruptions: float
    heartbeat_timeout_s: float


CHAOS_PROFILES = {
    "light": ChaosProfile(
        name="light", crash_cycles=0.25, downtime_frac=(0.05, 0.1),
        straggler_windows=0.5, slowdown=(2.0, 3.0),
        window_frac=(0.05, 0.1), corruptions=0.5,
        heartbeat_timeout_s=0.05,
    ),
    "moderate": ChaosProfile(
        name="moderate", crash_cycles=0.75, downtime_frac=(0.08, 0.16),
        straggler_windows=1.0, slowdown=(3.0, 5.0),
        window_frac=(0.08, 0.16), corruptions=1.5,
        heartbeat_timeout_s=0.05,
    ),
    "heavy": ChaosProfile(
        name="heavy", crash_cycles=1.5, downtime_frac=(0.1, 0.25),
        straggler_windows=2.0, slowdown=(4.0, 8.0),
        window_frac=(0.1, 0.25), corruptions=3.0,
        heartbeat_timeout_s=0.05,
    ),
}


@dataclass(frozen=True)
class FaultPlan:
    """A validated, time-ordered fault schedule for one cluster run."""

    n_replicas: int
    events: Tuple[FaultEvent, ...] = ()
    seed: Optional[int] = None
    profile: Optional[str] = None

    def __post_init__(self) -> None:
        if self.n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")
        ordered = validate_fault_events(self.events, self.n_replicas)
        object.__setattr__(self, "events", tuple(ordered))

    @classmethod
    def generate(
        cls,
        seed: int,
        n_replicas: int,
        horizon_s: float,
        profile: str = "moderate",
    ) -> "FaultPlan":
        """Deterministically generate a plan from a seeded Generator.

        Per replica, crash/recover cycles and straggler windows are
        laid out on a forward time walk (so episodes never overlap and
        the schedule is always legal), and corruption strikes are
        scattered uniformly.  Identical ``(seed, n_replicas,
        horizon_s, profile)`` always yields an identical plan.
        """
        if horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        if profile not in CHAOS_PROFILES:
            raise ValueError(
                f"unknown chaos profile {profile!r}; choose from "
                f"{sorted(CHAOS_PROFILES)}"
            )
        prof = CHAOS_PROFILES[profile]
        rng = np.random.default_rng(seed)
        events: List[FaultEvent] = []
        for idx in range(n_replicas):
            episodes = (
                ["crash"] * int(rng.poisson(prof.crash_cycles))
                + ["straggle"] * int(rng.poisson(prof.straggler_windows))
            )
            episodes = [episodes[i] for i in rng.permutation(len(episodes))]
            cursor = horizon_s * float(rng.uniform(0.05, 0.25))
            for episode in episodes:
                start = cursor + horizon_s * float(rng.uniform(0.02, 0.1))
                if episode == "crash":
                    lo, hi = prof.downtime_frac
                    duration = horizon_s * float(rng.uniform(lo, hi))
                    events.append(FaultEvent(start, idx, "fail"))
                    events.append(
                        FaultEvent(start + duration, idx, "recover")
                    )
                else:
                    lo, hi = prof.window_frac
                    duration = horizon_s * float(rng.uniform(lo, hi))
                    factor = float(rng.uniform(*prof.slowdown))
                    events.append(
                        FaultEvent(start, idx, "slow_start", factor=factor)
                    )
                    events.append(
                        FaultEvent(start + duration, idx, "slow_end")
                    )
                cursor = start + duration
            for _ in range(int(rng.poisson(prof.corruptions))):
                events.append(FaultEvent(
                    horizon_s * float(rng.uniform(0.05, 0.9)), idx,
                    "corrupt",
                    u_seq=float(rng.uniform()),
                    u_page=float(rng.uniform()),
                ))
        return cls(
            n_replicas=n_replicas, events=tuple(events), seed=seed,
            profile=profile,
        )

    @property
    def heartbeat_timeout_s(self) -> Optional[float]:
        if self.profile is None:
            return None
        return CHAOS_PROFILES[self.profile].heartbeat_timeout_s

    def counts(self) -> Dict[str, int]:
        """Event counts by kind (for reports and plan summaries)."""
        out = {kind: 0 for kind in FAULT_KINDS}
        for event in self.events:
            out[event.kind] += 1
        return out
