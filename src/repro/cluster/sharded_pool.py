"""Sharded KV memory: per-replica pools under one global page ledger.

Every cluster replica owns a private :class:`~repro.serving.
memory_pool.KVMemoryPool` shard — admission control, page growth, and
pruning reclamation stay replica-local, exactly as in single-engine
serving.  The :class:`ShardedKVPool` layers a *global ledger* on top:

* the fleet's total page budget is split across shards (evenly by
  default, or per-replica via ``replica_budgets_bytes`` — heterogeneous
  replica sizes are a first-class configuration);
* global occupancy/reservation views aggregate the shards, and the
  cluster driver samples a *true* global allocation peak (simultaneous
  across shards, not a sum of per-shard peaks);
* :meth:`drain` / :meth:`fail` retire a shard from the active set so
  the router stops placing work on it; its in-flight sequences requeue
  through the router (see :class:`repro.cluster.engine.ClusterEngine`);
  :meth:`recover` re-activates an *empty* retired shard — a crashed
  replica rejoining the fleet re-registers with the ledger under the
  same audit that governed its departure.  All three are rows of
  :data:`repro.faults.REPLICA_LIFECYCLE`, whose one writer is the only
  code that moves the membership flags;
* :meth:`audit` enforces the ledger invariants — every shard passes
  its own audit, every live sequence is billed by **exactly one**
  shard, and retired shards hold nothing.  A drain/requeue bug that
  double-billed pages (freed on the drained shard *and* still reserved
  there, or reserved on two shards at once) fails the audit
  immediately.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..config import ModelConfig
from ..faults import ReplicaRecord, replica_transition
from ..serving.memory_pool import KVMemoryPool, PoolExhausted

__all__ = ["ShardedKVPool"]


class ShardedKVPool:
    """Per-replica KV pools under one global page ledger.

    Args:
        model: geometry the pages are sized for (shared by all shards).
        total_budget_bytes: fleet-wide KV budget, split evenly across
            ``n_replicas`` shards.  Ignored when
            ``replica_budgets_bytes`` is given.
        n_replicas: number of shards (one per serving replica).
        page_tokens: cache columns per page, identical on every shard.
        replica_budgets_bytes: explicit per-replica budgets; overrides
            the even split (heterogeneous replica sizes).
    """

    def __init__(
        self,
        model: ModelConfig,
        total_budget_bytes: Optional[int] = None,
        n_replicas: Optional[int] = None,
        page_tokens: int = 16,
        replica_budgets_bytes: Optional[Sequence[int]] = None,
    ):
        if replica_budgets_bytes is not None:
            budgets = [int(b) for b in replica_budgets_bytes]
            if n_replicas is not None and n_replicas != len(budgets):
                raise ValueError(
                    f"n_replicas={n_replicas} disagrees with "
                    f"{len(budgets)} replica budgets"
                )
        else:
            if total_budget_bytes is None or n_replicas is None:
                raise ValueError(
                    "provide total_budget_bytes + n_replicas, or explicit "
                    "replica_budgets_bytes"
                )
            if n_replicas < 1:
                raise ValueError("n_replicas must be >= 1")
            budgets = [int(total_budget_bytes) // n_replicas] * n_replicas
        self.model = model
        self.page_tokens = page_tokens
        self.shards: List[KVMemoryPool] = [
            KVMemoryPool(model, budget, page_tokens) for budget in budgets
        ]
        self._active = [True] * len(self.shards)
        self._failed = [False] * len(self.shards)

    # ------------------------------------------------------------------
    # Shard access / lifecycle
    # ------------------------------------------------------------------
    @property
    def n_replicas(self) -> int:
        return len(self.shards)

    def shard(self, replica: int) -> KVMemoryPool:
        return self.shards[self._check_index(replica)]

    def __getitem__(self, replica: int) -> KVMemoryPool:
        return self.shard(replica)

    def is_active(self, replica: int) -> bool:
        return self._active[self._check_index(replica)]

    def is_failed(self, replica: int) -> bool:
        return self._failed[self._check_index(replica)]

    @property
    def active_indices(self) -> List[int]:
        return [i for i, a in enumerate(self._active) if a]

    @property
    def n_active(self) -> int:
        return sum(self._active)

    def phase(self, replica: int) -> str:
        """The shard's membership as a ``REPLICA_LIFECYCLE`` phase."""
        if self.is_active(replica):
            return "active"
        return "failed" if self._failed[replica] else "drained"

    def drain(self, replica: int) -> None:
        """Gracefully retire a shard: no new placements land on it.

        The caller (the cluster engine) is responsible for requeueing
        the replica's in-flight sequences *before* expecting the audit
        to see the shard empty.
        """
        self._apply(replica, "drain")

    def fail(self, replica: int) -> None:
        """Abruptly retire a shard (simulated replica failure).

        Ledger-wise identical to :meth:`drain` — the failed shard's
        pages must still return to the ledger via requeue — but the
        shard is flagged failed for the fleet report.
        """
        self._apply(replica, "fail")

    def recover(self, replica: int) -> None:
        """Re-activate a retired shard (replica rejoin after a crash).

        The shard must be empty — a failed replica's in-flight
        sequences were requeued (and re-billed elsewhere) when it went
        down, so a rejoining shard starts from a clean ledger.  The
        rejoin clears the failed flag: the replica is a full member of
        the active set again and the router may place new work on it.
        """
        self._apply(replica, "recover")

    def _apply(self, replica: int, event: str) -> None:
        """One membership event on a bare ledger (no fleet record): the
        lifecycle's writer checks it against the shard's phase and
        raises :class:`repro.faults.IllegalReplicaEvent` if illegal."""
        record = ReplicaRecord(replica, self.phase(replica))
        replica_transition(record, event, 0.0, pool=self)

    def _set_membership(self, replica: int, step: str) -> None:
        """Flip a shard's membership flags — ``replica_transition``'s to
        call, once per ledger step of a row: only a ``recover`` leaves
        it active, only a ``fail`` leaves it failed."""
        self._active[replica] = step == "recover"
        self._failed[replica] = step == "fail"

    def _check_index(self, replica: int) -> int:
        if not 0 <= replica < len(self.shards):
            raise IndexError(
                f"replica {replica} out of range (cluster has "
                f"{len(self.shards)} replicas)"
            )
        return replica

    # ------------------------------------------------------------------
    # Global ledger views
    # ------------------------------------------------------------------
    @property
    def total_pages(self) -> int:
        return sum(shard.n_pages for shard in self.shards)

    @property
    def reserved_pages(self) -> int:
        return sum(shard.reserved_pages for shard in self.shards)

    @property
    def allocated_pages(self) -> int:
        return sum(shard.allocated_pages for shard in self.shards)

    @property
    def free_reservation_pages(self) -> int:
        """Unreserved pages across *active* shards only.

        Retired shards' pages are stranded capacity: still in the
        budget, no longer placeable.
        """
        return sum(
            shard.free_reservation_pages
            for i, shard in enumerate(self.shards)
            if self._active[i]
        )

    @property
    def global_occupancy(self) -> float:
        """Fraction of the fleet budget backing live cache columns."""
        return self.allocated_pages / self.total_pages

    @property
    def reclaimed_pages(self) -> int:
        return sum(shard.reclaimed_pages for shard in self.shards)

    @property
    def reclaimed_tokens(self) -> int:
        return sum(shard.reclaimed_tokens for shard in self.shards)

    @property
    def n_preempted(self) -> int:
        """Fleet-wide preemptions (optimistic admission pool pressure)."""
        return sum(shard.n_preempted for shard in self.shards)

    @property
    def preempted_pages(self) -> int:
        """Pages returned to the ledger by preemption victims."""
        return sum(shard.preempted_pages for shard in self.shards)

    @property
    def n_sequences(self) -> int:
        return sum(shard.n_sequences for shard in self.shards)

    def ledger(self) -> Dict[str, object]:
        """Per-shard and fleet-total page accounting, as plain data."""
        rows = [
            {
                "replica": i,
                "active": self._active[i],
                "failed": self._failed[i],
                "pages": shard.n_pages,
                "reserved": shard.reserved_pages,
                "allocated": shard.allocated_pages,
                "reclaimed": shard.reclaimed_pages,
                "preempted": shard.n_preempted,
                "sequences": sorted(shard.tracked_sequences),
            }
            for i, shard in enumerate(self.shards)
        ]
        return {
            "shards": rows,
            "total_pages": self.total_pages,
            "reserved_pages": self.reserved_pages,
            "allocated_pages": self.allocated_pages,
        }

    def audit(self) -> None:
        """Enforce the global-ledger invariants; raises on violation.

        * every shard passes its own internal audit
          (:meth:`~repro.serving.memory_pool.KVMemoryPool.audit` —
          allocations and reservations fit, reserve-mode accounts never
          outgrow their bound, optimistic accounts bill exactly
          ``max(floor, allocated)``);
        * a sequence id is billed by at most one shard (no
          double-billed pages after a drain requeue or a preemption);
        * retired (drained/failed) shards hold zero reservations and
          zero allocations once their requeue has landed.
        """
        owners: Dict[int, int] = {}
        for i, shard in enumerate(self.shards):
            shard.audit()
            for seq_id in shard.tracked_sequences:
                if seq_id in owners:
                    raise PoolExhausted(
                        f"ledger violation: sequence {seq_id} billed by "
                        f"replica {owners[seq_id]} and replica {i}"
                    )
                owners[seq_id] = i
            if not self._active[i] and (
                shard.reserved_pages or shard.allocated_pages
            ):
                raise PoolExhausted(
                    f"ledger violation: retired replica {i} still holds "
                    f"{shard.reserved_pages} reserved / "
                    f"{shard.allocated_pages} allocated pages"
                )
