"""Paged, pruning-aware KV-cache memory pool with admission control.

The pool divides a global byte budget into fixed-size pages.  One page
holds the K and V vectors of ``page_tokens`` cache columns of one layer
(all heads), at the model's storage width — the same dtype-aware byte
arithmetic as :attr:`repro.nn.kv_cache.LayerKVCache.nbytes`.

The pool is a pure page ledger: it speaks per-layer KV *column counts*
and knows nothing about pruning schedules.  Callers hand it the columns
to bill — the serving engine reads them off each request's
:class:`~repro.core.SequencePlan` — and every page count comes from one
helper, :meth:`KVMemoryPool.pages_for_lengths`.

Two accounting planes:

* **reservations** gate admission.  A request reserves, per layer, the
  pages of the worst-case column bound its caller passes.  For a dense
  sequence that is ``prompt + max_new_tokens`` columns in every layer;
  a SpAtten sequence's plan caps layer ``l`` at its per-layer keep
  target, so deep layers reserve only a fraction of the dense
  footprint.  This is what lets pruned serving admit more concurrent
  sequences into the same budget.
* **allocations** track the pages actually backing live cache columns.
  Each engine step syncs them against the executor's real per-layer
  lengths; when cascade pruning evicts columns, whole pages drain back
  to the free list and are counted as *reclaimed*.

Admission control blocks (the request waits in the queue) whenever the
reservation would overflow the budget, so the pool can never be forced
to drop live KV state mid-decode.

Optimistic admission
--------------------

Worst-case reservations are safe but pessimistic: cascade pruning
shrinks the *actual* KV footprint well below the schedule bound, and
pages reclaimed mid-generation drain back to the free list yet cannot
admit work already refused at reservation time.  The optimistic plane
(:meth:`KVMemoryPool.admit_optimistic`) bills a sequence only for its
post-prefill prompt footprint (a floor that covers the in-flight
prefill's committed growth) and thereafter for the pages it *actually*
holds — the account's ``reserved_pages`` tracks
``max(floor, allocated)`` and shrinks as pruning evicts columns, so
reclaimed pages become admissible capacity immediately.  Safety moves
from admission time to run time: the serving engine projects each
step's growth (:meth:`KVMemoryPool.pressure_pages`), preempts victims
under pressure (:meth:`KVMemoryPool.preempt_release`), and uses
:meth:`KVMemoryPool.try_grow` as the commit-time backstop.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

from ..config import ModelConfig

__all__ = ["PoolExhausted", "KVMemoryPool"]


class PoolExhausted(RuntimeError):
    """Raised when an allocation cannot fit the configured budget."""


@dataclass
class _SequenceAccount:
    #: Pages billed against admission.  Reserve-mode accounts fix this
    #: at the schedule-bound worst case for the sequence's lifetime;
    #: optimistic accounts keep it at ``max(floor_pages, allocated)``,
    #: updated on every :meth:`KVMemoryPool.sync`.
    reserved_pages: int
    allocated_per_layer: List[int] = field(default_factory=list)
    optimistic: bool = False
    #: Optimistic accounts only: the post-prefill prompt footprint,
    #: held while the prompt is still committing (its growth is already
    #: promised) and cleared by :meth:`KVMemoryPool.finish_prefill` so
    #: decode-time billing follows actual usage.
    floor_pages: int = 0

    @property
    def allocated_pages(self) -> int:
        return sum(self.allocated_per_layer)


class KVMemoryPool:
    """Fixed-budget page allocator for per-sequence, per-layer KV state.

    Args:
        model: geometry (layer/head/dim and storage width) the pages
            are sized for.
        budget_bytes: global KV memory budget shared by all sequences.
        page_tokens: cache columns per page (per layer, all heads).
    """

    def __init__(
        self,
        model: ModelConfig,
        budget_bytes: int,
        page_tokens: int = 16,
    ):
        if page_tokens < 1:
            raise ValueError("page_tokens must be >= 1")
        self.model = model
        self.page_tokens = page_tokens
        # One column stores K and V across all heads at the model's
        # storage width — identical arithmetic to LayerKVCache.nbytes.
        self.bytes_per_token = model.kv_bytes_per_token
        self.page_bytes = self.bytes_per_token * page_tokens
        self.n_pages = int(budget_bytes) // self.page_bytes
        if self.n_pages < 1:
            raise ValueError(
                f"budget_bytes={budget_bytes} holds no page "
                f"(page_bytes={self.page_bytes})"
            )
        self._accounts: Dict[int, _SequenceAccount] = {}
        #: Integrity plane: per-sequence, per-layer checksum of every
        #: allocated page, maintained in lockstep with the allocation
        #: plane by :meth:`sync`.  The modeled stand-in for hashing
        #: real KV bytes — a page's checksum is a pure function of
        #: ``(seq_id, layer, page)``, so any deviation (a chaos-engine
        #: :meth:`corrupt_page` strike) is detectable by recomputation.
        self._checksums: Dict[int, List[List[int]]] = {}
        #: Running totals over the accounts, written only where an
        #: account opens, closes or resizes (``_open``, ``_close``,
        #: ``sync``, ``finish_prefill``); :meth:`audit` recomputes them.
        self.reserved_pages = 0
        self.allocated_pages = 0
        self.reset_counters()
        #: Duck-typed observability hook: anything with a
        #: ``pool_event(kind, seq_id, **info)`` method (the serving
        #: engine, when telemetry is on).  Kept as an attribute rather
        #: than an import so the pool has no dependency on
        #: :mod:`repro.telemetry`; ``None`` (the default) costs one
        #: ``is None`` check per ledger mutation.
        self.observer = None

    def reset_counters(self) -> None:
        """Start the cumulative statistics over (a new serving run).

        The ledger itself — accounts, pages, integrity tags — is not
        touched; the peak restarts from what is allocated now.
        """
        self.reclaimed_pages = 0
        self.reclaimed_tokens = 0
        self.peak_allocated_pages = self.allocated_pages
        self.n_preempted = 0
        self.preempted_pages = 0
        self.n_corrupt_events = 0
        self.n_quarantined = 0
        self.quarantined_pages = 0

    def _notify(self, kind: str, seq_id: int, **info) -> None:
        if self.observer is not None:
            self.observer.pool_event(kind, seq_id, **info)

    # ------------------------------------------------------------------
    # Page arithmetic
    # ------------------------------------------------------------------
    def pages_for_tokens(self, n_tokens: int) -> int:
        return math.ceil(n_tokens / self.page_tokens)

    def pages_for_lengths(self, kv_lengths: Sequence[int]) -> int:
        """Pages backing the given per-layer KV column counts."""
        if len(kv_lengths) != self.model.n_layers:
            raise ValueError("kv_lengths must cover every layer")
        return sum(self.pages_for_tokens(length) for length in kv_lengths)

    @staticmethod
    def _page_checksum(seq_id: int, layer: int, page: int) -> int:
        """Expected integrity tag of one allocated page (pure function)."""
        return zlib.crc32(f"{seq_id}:{layer}:{page}".encode())

    # ------------------------------------------------------------------
    # Occupancy views
    # ------------------------------------------------------------------
    @property
    def free_reservation_pages(self) -> int:
        return self.n_pages - self.reserved_pages

    @property
    def occupancy(self) -> float:
        """Fraction of the budget backing live cache columns right now."""
        return self.allocated_pages / self.n_pages

    @property
    def n_sequences(self) -> int:
        return len(self._accounts)

    @property
    def tracked_sequences(self) -> frozenset:
        """Ids of every sequence currently holding a reservation.

        The sharded cluster ledger audits these across shards: a
        sequence id appearing in more than one shard means its pages
        are double-billed against the global budget.
        """
        return frozenset(self._accounts)

    def reserved_pages_of(self, seq_id: int) -> int:
        """Pages reserved by one live sequence (ledger audits)."""
        return self._account(seq_id).reserved_pages

    def allocated_pages_of(self, seq_id: int) -> int:
        """Pages actually backing one live sequence's cache columns."""
        return self._account(seq_id).allocated_pages

    def allocated_pages_per_layer(self, seq_id: int) -> List[int]:
        """Per-layer allocated page counts (copy) of one live sequence.

        The chaos engine's corruption injector uses this to pick a
        deterministic victim page among the pages that exist right now.
        """
        return list(self._account(seq_id).allocated_per_layer)

    # ------------------------------------------------------------------
    # Admission / lifecycle
    # ------------------------------------------------------------------
    def can_admit(self, kv_bounds: Sequence[int]) -> bool:
        need = self.pages_for_lengths(kv_bounds)
        return need <= self.free_reservation_pages

    def admit(self, seq_id: int, kv_bounds: Sequence[int]) -> int:
        """Reserve the pages of a sequence's worst-case per-layer column
        bounds for its whole lifetime; returns the count.

        Raises :class:`PoolExhausted` if the reservation does not fit —
        callers use :meth:`can_admit` first and keep the request queued.
        """
        return self._open(seq_id, kv_bounds, 0, optimistic=False)

    def can_admit_optimistic(
        self, prompt_kv_lengths: Sequence[int], headroom_pages: int = 0
    ) -> bool:
        need = self.pages_for_lengths(prompt_kv_lengths)
        return need + headroom_pages <= self.free_reservation_pages

    def admit_optimistic(
        self,
        seq_id: int,
        prompt_kv_lengths: Sequence[int],
        headroom_pages: int = 0,
    ) -> int:
        """Admit against actual usage: bill only the prompt footprint.

        ``prompt_kv_lengths`` is the sequence's per-layer post-prefill
        column count — unlike :meth:`admit`'s bounds it excludes the
        decode budget entirely.  The account reserves those pages as a
        floor while the prompt commits; afterwards (once the caller
        signals :meth:`finish_prefill`) the reservation tracks the
        pages actually allocated, shrinking as cascade pruning evicts
        columns.  ``headroom_pages`` must also be free at admission —
        slack that absorbs the decode growth of the sequences already
        resident before preemption has to step in.
        Returns the floor; raises :class:`PoolExhausted` when it does
        not fit (callers use :meth:`can_admit_optimistic` first).
        """
        return self._open(
            seq_id, prompt_kv_lengths, headroom_pages, optimistic=True
        )

    def _open(
        self,
        seq_id: int,
        lengths: Sequence[int],
        headroom_pages: int,
        optimistic: bool,
    ) -> int:
        """The one site that opens an account (both admission modes).

        Bills the pages of ``lengths`` once they — plus
        ``headroom_pages`` of slack — fit the unreserved pool; an
        optimistic account also holds them as its prompt floor.
        """
        if seq_id in self._accounts:
            raise ValueError(f"sequence {seq_id} already admitted")
        if headroom_pages < 0:
            raise ValueError("headroom_pages must be >= 0")
        need = self.pages_for_lengths(lengths)
        free = self.free_reservation_pages
        if need + headroom_pages > free:
            bill = (
                f"{need} prompt pages plus {headroom_pages} headroom"
                if optimistic else f"{need} pages"
            )
            raise PoolExhausted(
                f"request needs {bill}; the pool has {self.n_pages} pages, "
                f"{free} of them unreserved"
            )
        self._accounts[seq_id] = _SequenceAccount(
            reserved_pages=need,
            allocated_per_layer=[0] * self.model.n_layers,
            optimistic=optimistic,
            floor_pages=need if optimistic else 0,
        )
        self._checksums[seq_id] = [[] for _ in range(self.model.n_layers)]
        self.reserved_pages += need
        self._notify("admit", seq_id, pages=need, optimistic=optimistic)
        return need

    def finish_prefill(self, seq_id: int) -> None:
        """Drop a sequence's prompt floor once its prefill committed.

        From here an optimistic account is billed for its *actual*
        pages only, so columns evicted by cascade pruning immediately
        become admissible capacity.  No-op for reserve-mode accounts
        (their worst-case reservation is immutable by design).
        """
        account = self._account(seq_id)
        freed = account.reserved_pages
        account.floor_pages = 0
        if account.optimistic:
            account.reserved_pages = account.allocated_pages
        freed -= account.reserved_pages
        self.reserved_pages -= freed
        if freed:  # floor drops below allocation: billing actually shrank
            self._notify("finish_prefill", seq_id, pages=freed)

    def sync(self, seq_id: int, kv_lengths: List[int]) -> int:
        """Match a sequence's pages to its executor's real cache lengths.

        Growth allocates pages; shrinkage (cascade token pruning
        evicting columns) returns whole pages to the pool and counts
        toward :attr:`reclaimed_pages`.  Returns pages freed this call.
        Growth past the pool raises :class:`PoolExhausted` and changes
        nothing: the new page counts are validated, then committed.
        """
        account = self._account(seq_id)
        if len(kv_lengths) != self.model.n_layers:
            raise ValueError("kv_lengths must cover every layer")
        freed = 0
        grown = 0
        wanted = []
        for held, length in zip(account.allocated_per_layer, kv_lengths):
            pages = self.pages_for_tokens(length)
            if pages < held:
                freed += held - pages
            else:
                grown += pages - held
            wanted.append(pages)
        if not (grown or freed):  # every layer holds the pages it wants
            return 0
        allocated = self.allocated_pages + grown - freed
        if allocated > self.n_pages:
            raise PoolExhausted(
                f"allocations ({allocated} pages) overflow the "
                f"pool ({self.n_pages}); reservation accounting is broken"
            )
        account.allocated_per_layer = wanted
        self.allocated_pages = allocated
        # Keep the integrity plane in lockstep: freed pages drop their
        # tags, new pages are stamped with the expected tag.
        rows = zip(self._checksums[seq_id], wanted)
        for layer, (row, pages) in enumerate(rows):
            if pages < len(row):
                del row[pages:]
            else:
                row.extend(
                    self._page_checksum(seq_id, layer, page)
                    for page in range(len(row), pages)
                )
        if account.optimistic:
            self.reserved_pages -= account.reserved_pages
            account.reserved_pages = max(
                account.floor_pages, account.allocated_pages
            )
            self.reserved_pages += account.reserved_pages
        self.reclaimed_pages += freed
        self.peak_allocated_pages = max(self.peak_allocated_pages, allocated)
        self._notify("sync", seq_id, grown=grown, freed=freed)
        return freed

    def _projected_reserved(
        self, account: _SequenceAccount, projected_pages: int
    ) -> int:
        """What the account would reserve at the projected allocation.

        Optimistic accounts bill ``max(floor, allocated)``, so a
        mid-prefill sequence's *promised* prompt pages count even while
        its allocation is still catching up — growth that only checked
        allocations could eat pages the floor has already promised,
        pushing total reservations past the pool (the invariant
        :meth:`audit` enforces).  Reserve-mode reservations are
        immutable regardless of allocation.
        """
        if account.optimistic:
            return max(account.floor_pages, projected_pages)
        return account.reserved_pages

    def try_grow(self, seq_id: int, kv_lengths: List[int]) -> bool:
        """Attempt to sync a sequence's pages; ``False`` means pressure.

        The commit-time counterpart of :meth:`pressure_pages`: when the
        requested lengths would push total *reservations* — other
        accounts' ``max(floor, allocated)`` plus this sequence's
        projected bill — past the pool, nothing mutates and the caller
        gets a pressure signal to act on (preempt a victim, then retry)
        instead of the hard :class:`PoolExhausted` that :meth:`sync`
        raises — which, under optimistic admission, would mean dropping
        live KV state.  Gating on the reserved plane (not just
        allocations) keeps mid-prefill floors inviolate: every
        account's allocation is bounded by its reservation, so
        reservations fitting the pool implies allocations do too.
        """
        account = self._account(seq_id)
        new_pages = self.pages_for_lengths(kv_lengths)
        others = self.reserved_pages - account.reserved_pages
        if others + self._projected_reserved(account, new_pages) \
                > self.n_pages:
            return False
        self.sync(seq_id, kv_lengths)
        return True

    def pressure_pages(
        self, projections: Mapping[int, Sequence[int]]
    ) -> int:
        """Pages the given growth projections would overflow the pool by.

        ``projections`` maps sequence ids to projected per-layer KV
        lengths (sequences not mentioned are assumed to stay at their
        current reservation).  Pressure is measured on the *reserved*
        plane — each account contributes ``max(floor, projected
        allocation)`` — so pages promised to a mid-prefill sequence are
        never counted as free for someone else's decode growth.
        Returns ``0`` when everything fits — the serving engine
        preempts victims while this is positive, *before* running the
        step, so optimistic admission never has to drop state it
        already computed.
        """
        total = 0
        for seq_id, account in self._accounts.items():
            lengths = projections.get(seq_id)
            if lengths is None:
                total += account.reserved_pages
            else:
                total += self._projected_reserved(
                    account, self.pages_for_lengths(lengths)
                )
        return max(0, total - self.n_pages)

    def note_reclaimed_tokens(self, n_tokens: int) -> None:
        """Record columns evicted by pruning (for the serving report)."""
        self.reclaimed_tokens += int(n_tokens)

    def release(self, seq_id: int) -> None:
        """Drop a finished sequence's reservation and allocations."""
        self._close(seq_id, "release")

    def preempt_release(self, seq_id: int) -> int:
        """Release a preemption victim's account; returns pages regained.

        Identical ledger effect to :meth:`release` — the account
        disappears whole, so a requeued sequence can never be
        double-billed — plus the cumulative preemption counters the
        serving report and the sharded ledger surface.  The count is
        the account's *reserved* pages (``max(floor, allocated)`` for
        optimistic accounts): that is what the admission plane regains,
        and for a mid-prefill victim it exceeds the pages physically
        allocated so far.
        """
        freed = self._close(seq_id, "preempt_release")
        self.n_preempted += 1
        self.preempted_pages += freed
        return freed

    def _close(self, seq_id: int, kind: str) -> int:
        """The one site that closes an account, announced as ``kind``;
        returns the reserved pages the admission plane regains."""
        account = self._account(seq_id)
        freed = account.reserved_pages
        self.reserved_pages -= freed
        self.allocated_pages -= account.allocated_pages
        self._accounts.pop(seq_id)
        self._checksums.pop(seq_id)
        self._notify(kind, seq_id, pages=freed)
        return freed

    # ------------------------------------------------------------------
    # Integrity plane: corruption, detection, quarantine
    # ------------------------------------------------------------------
    def corrupt_page(self, seq_id: int, layer: int, page: int) -> None:
        """Poison one allocated page's integrity tag (fault injection).

        The chaos engine's stand-in for a bit-flip in real KV storage:
        the stored tag no longer matches the recomputed
        :meth:`_page_checksum`, so the next :meth:`corrupted_pages` /
        :meth:`verify_checksums` scan flags the page.  Raises
        ``ValueError`` when the page is not currently allocated —
        corruption can only strike pages that exist.
        """
        self._account(seq_id)
        rows = self._checksums[seq_id]
        if not 0 <= layer < len(rows):
            raise ValueError(f"sequence {seq_id} has no layer {layer}")
        if not 0 <= page < len(rows[layer]):
            raise ValueError(
                f"sequence {seq_id} layer {layer} has no allocated "
                f"page {page}"
            )
        self._checksums[seq_id][layer][page] ^= 0x5A5A5A5A
        self.n_corrupt_events += 1
        self._notify("corrupt", seq_id, layer=layer, page=page)

    def corrupted_pages(self, seq_id: int) -> List[Tuple[int, int]]:
        """``(layer, page)`` pairs whose stored tag fails verification."""
        return [
            (layer, page)
            for layer, row in enumerate(self._checksums[seq_id])
            for page, tag in enumerate(row)
            if tag != self._page_checksum(seq_id, layer, page)
        ]

    def verify_checksums(self) -> Dict[int, List[Tuple[int, int]]]:
        """Scan every resident sequence; maps seq_id -> corrupted pages.

        Sequences with a clean bill of health are omitted, so a truthy
        return value means quarantine work exists.  Deterministic
        iteration (sorted ids) keeps detection order reproducible.
        """
        report = {}
        for seq_id in sorted(self._accounts):
            bad = self.corrupted_pages(seq_id)
            if bad:
                report[seq_id] = bad
        return report

    def quarantine_release(self, seq_id: int) -> int:
        """Release a corrupted sequence's account; returns pages freed.

        Same ledger effect as :meth:`preempt_release` — the account
        (and its poisoned integrity tags) disappear whole, so the
        recomputed sequence re-admits against a clean slate — but
        tallied under the quarantine counters the fault report
        surfaces.
        """
        freed = self._close(seq_id, "quarantine_release")
        self.n_quarantined += 1
        self.quarantined_pages += freed
        return freed

    def audit(self) -> None:
        """Enforce the pool invariants; raises :class:`PoolExhausted`.

        * total allocations and total reservations fit the pool;
        * reserve-mode accounts never allocate beyond their immutable
          worst-case reservation;
        * optimistic accounts bill exactly ``max(floor, allocated)``;
        * the integrity plane tracks the allocation plane: every
          account carries exactly one checksum tag per allocated page
          (tag *values* are the corruption detector's business — a
          poisoned page is a data fault, not a ledger fault).

        The running totals are recomputed from the accounts first: a
        total that drifted from its accounts is a ledger fault too.
        The serving engine runs this after every preemption cycle, and
        the sharded cluster ledger audits every shard through it.
        """
        for total in ("reserved_pages", "allocated_pages"):
            held = sum(getattr(a, total) for a in self._accounts.values())
            if held != getattr(self, total):
                raise PoolExhausted(
                    f"audit: running total {total} = {getattr(self, total)} "
                    f"but the accounts hold {held}"
                )
        if self.allocated_pages > self.n_pages:
            raise PoolExhausted(
                f"audit: allocations ({self.allocated_pages} pages) "
                f"overflow the pool ({self.n_pages})"
            )
        if self.reserved_pages > self.n_pages:
            raise PoolExhausted(
                f"audit: reservations ({self.reserved_pages} pages) "
                f"overflow the pool ({self.n_pages})"
            )
        for seq_id, account in self._accounts.items():
            if account.optimistic:
                expected = max(account.floor_pages, account.allocated_pages)
                if account.reserved_pages != expected:
                    raise PoolExhausted(
                        f"audit: optimistic sequence {seq_id} reserves "
                        f"{account.reserved_pages} pages, expected "
                        f"{expected} (floor {account.floor_pages}, "
                        f"allocated {account.allocated_pages})"
                    )
            elif account.allocated_pages > account.reserved_pages:
                raise PoolExhausted(
                    f"audit: sequence {seq_id} allocates "
                    f"{account.allocated_pages} pages beyond its "
                    f"reservation of {account.reserved_pages}"
                )
        if set(self._checksums) != set(self._accounts):
            raise PoolExhausted(
                "audit: integrity plane out of step with the accounts "
                f"({sorted(set(self._checksums) ^ set(self._accounts))})"
            )
        for seq_id, account in self._accounts.items():
            tagged = [len(row) for row in self._checksums[seq_id]]
            if tagged != account.allocated_per_layer:
                raise PoolExhausted(
                    f"audit: sequence {seq_id} tags {tagged} pages but "
                    f"allocates {account.allocated_per_layer}"
                )

    def _account(self, seq_id: int) -> _SequenceAccount:
        account = self._accounts.get(seq_id)
        if account is None:
            raise ValueError(
                f"unknown sequence {seq_id}: never admitted or already "
                f"released"
            )
        return account
