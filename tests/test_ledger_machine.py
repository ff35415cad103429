"""The KV page ledgers under a hypothesis state machine.

``KVMemoryPool`` and ``ShardedKVPool`` keep their contracts by
construction — one open / close / resize site per ledger, membership
moved by the replica lifecycle's one writer (whose table
``tests/test_fleet_machine.py`` walks) — and this machine is the
runtime check that the construction holds.  It drives a two-shard fleet
with every public mutator of both classes and keeps its own shadow
ledger; after every rule the fleet audit is clean and the shadow equals
the ledger's own views, every call that moved a shard's bills produced
an observer event, and every call that raised changed nothing.  A
completeness walk fails when a public method of either class is neither
a rule here nor declared read-only, so a new mutator cannot ship
unexercised.
"""

import copy
import inspect

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    consumes,
    initialize,
    invariant,
    multiple,
    precondition,
    rule,
)

from repro.cluster import ShardedKVPool
from repro.config import GPT2_SMALL
from repro.serving import KVMemoryPool, PoolExhausted

CONFIG = GPT2_SMALL.with_overrides(n_layers=2)
PAGE_TOKENS = 4
SHARD_PAGES = 8
N_SHARDS = 2

#: Public methods that only read.  Everything else public must be a
#: rule of the machine (see the completeness walk at the bottom).
READ_ONLY = {
    KVMemoryPool: {
        "pages_for_tokens", "pages_for_lengths", "reserved_pages_of",
        "allocated_pages_of", "allocated_pages_per_layer", "can_admit",
        "can_admit_optimistic", "pressure_pages", "corrupted_pages",
        "verify_checksums", "audit",
    },
    ShardedKVPool: {"shard", "is_active", "is_failed", "phase", "ledger",
                    "audit"},
}
MUTATORS = set()

seqs = st.integers(0, 3)
#: Ids the walk has admitted.  Closing rules consume theirs; a retire
#: closes accounts without consuming, and those stale ids are how every
#: rule meets the unknown-sequence refusal.
live = Bundle("live")


def per_layer(longest):
    return st.lists(st.integers(0, longest), min_size=CONFIG.n_layers,
                    max_size=CONFIG.n_layers)


#: Admissions bill up to half a shard; resizes stay near that or reach
#: past a whole one.
bounds = per_layer(2 * PAGE_TOKENS)
lengths = per_layer(3 * PAGE_TOKENS) | per_layer(SHARD_PAGES * PAGE_TOKENS)
shards = st.integers(0, N_SHARDS - 1)
replicas = st.integers(0, N_SHARDS)  # N_SHARDS itself is out of range


def mutator(**strategies):
    """A rule named after the public ledger method it exercises."""
    def bind(fn):
        MUTATORS.add(fn.__name__)
        return rule(**strategies)(fn)
    return bind


def pages(kv_lengths):
    return [-(-n // PAGE_TOKENS) for n in kv_lengths]


def pool_state(pool):
    """Everything one pool holds (what a refusal must not touch)."""
    return copy.deepcopy({
        k: v for k, v in vars(pool).items() if k not in ("model", "observer")
    })


def state(fleet):
    return fleet.ledger(), [pool_state(shard) for shard in fleet.shards]


def billing(fleet):
    """What telemetry can see: a change here owes an observer event."""
    return fleet.ledger(), [
        {s: (shard.reserved_pages_of(s), shard.allocated_pages_per_layer(s),
             shard.corrupted_pages(s)) for s in shard.tracked_sequences}
        for shard in fleet.shards
    ]


class Account:
    """The machine's own copy of one sequence's bill."""

    def __init__(self, shard, bounds, optimistic):
        self.shard = shard
        self.bounds = bounds
        self.reserved = need = sum(pages(bounds))
        self.allocated = [0] * CONFIG.n_layers
        self.optimistic = optimistic
        self.floor = need if optimistic else 0
        self.corrupt = set()


class LedgerMachine(RuleBasedStateMachine):
    """Random walks over a two-shard fleet and the machine's shadow of it."""

    def __init__(self):
        super().__init__()
        self.fleet = ShardedKVPool(
            CONFIG, n_replicas=N_SHARDS, page_tokens=PAGE_TOKENS,
            total_budget_bytes=(N_SHARDS * SHARD_PAGES * PAGE_TOKENS
                                * CONFIG.kv_bytes_per_token),
        )
        self.events = []
        for shard in self.fleet.shards:
            shard.observer = self
        self.accounts = {}
        self.active = [True] * N_SHARDS
        self.failed = [False] * N_SHARDS
        self.counters = [
            dict.fromkeys(
                ("reclaimed_pages", "reclaimed_tokens", "peak_allocated_pages",
                 "n_preempted", "preempted_pages", "n_quarantined",
                 "quarantined_pages", "n_corrupt_events"), 0)
            for _ in range(N_SHARDS)
        ]

    # The shards' observer hook.
    def pool_event(self, kind, seq_id, **info):
        self.events.append(kind)

    def call(self, method, *args, refused=None):
        """One ledger call under the contracts every call owes; returns
        its result and the observer events it emitted."""
        seen = len(self.events)
        if refused is not None:
            before = state(self.fleet)
            with pytest.raises(refused):
                method(*args)
            assert state(self.fleet) == before, "a refusal changes nothing"
            assert len(self.events) == seen
            return None, []
        before = billing(self.fleet)
        result = method(*args)
        if billing(self.fleet) != before:
            assert len(self.events) > seen, "silent ledger mutation"
        return result, self.events[seen:]

    def home(self, seq):
        """Index of the shard billing ``seq`` (any shard, if none does)."""
        account = self.accounts.get(seq)
        return seq % N_SHARDS if account is None else account.shard

    def on_shard(self, i):
        return {s: a for s, a in self.accounts.items() if a.shard == i}

    def reserved_on(self, i):
        return sum(a.reserved for a in self.on_shard(i).values())

    # ------------------------------------------------------------------
    # Open
    # ------------------------------------------------------------------
    def open(self, seq, i, kv_lengths, headroom, optimistic):
        # Like a router: a live id stays where it is billed, a new one
        # lands on an active shard.
        if seq in self.accounts:
            i = self.accounts[seq].shard
        elif not self.active[i]:
            i = (i + 1) % N_SHARDS
        if not self.active[i]:
            return multiple()
        shard, need = self.fleet.shard(i), sum(pages(kv_lengths))
        refused = None
        if seq in self.accounts or headroom < 0:
            refused = ValueError
        elif need + headroom > SHARD_PAGES - self.reserved_on(i):
            refused = PoolExhausted
        can_admit, admit, args = shard.can_admit, shard.admit, (kv_lengths,)
        if optimistic:
            can_admit, admit = (shard.can_admit_optimistic,
                                shard.admit_optimistic)
            args = (kv_lengths, headroom)
        if refused is not ValueError:
            assert can_admit(*args) == (refused is None)
        got, events = self.call(admit, seq, *args, refused=refused)
        if refused is not None:
            return multiple()
        assert got == need and events == ["admit"]
        self.accounts[seq] = Account(i, kv_lengths, optimistic)
        return seq

    @initialize(target=live, reserve=bounds, optimistic=bounds)
    def residents(self, reserve, optimistic):
        """One account of each mode to start from, so a walk whose draw
        left the admit rules out still has sequences to work on."""
        self.open(0, 0, reserve, 0, optimistic=False)
        self.open(1, 0, optimistic, 0, optimistic=True)
        return multiple(0, 1)

    @mutator(target=live, seq=seqs, shard=shards, kv_lengths=bounds)
    def admit(self, seq, shard, kv_lengths):
        return self.open(seq, shard, kv_lengths, 0, optimistic=False)

    @mutator(target=live, seq=seqs, shard=shards, kv_lengths=bounds,
             headroom=st.integers(-1, 2))
    def admit_optimistic(self, seq, shard, kv_lengths, headroom):
        return self.open(seq, shard, kv_lengths, headroom, optimistic=True)

    @rule(seq=live)
    def double_bill(self, seq):
        """A live id admitted on a second shard: the fleet audit objects
        until the stray account is released."""
        other = (self.home(seq) + 1) % N_SHARDS
        stray, kv_lengths = self.fleet.shard(other), [1] * CONFIG.n_layers
        if seq not in self.accounts or not self.active[other] \
                or not stray.can_admit(kv_lengths):
            return
        self.call(stray.admit, seq, kv_lengths)
        with pytest.raises(PoolExhausted, match=f"sequence {seq} billed by"):
            self.fleet.audit()
        self.call(stray.release, seq)

    # ------------------------------------------------------------------
    # Resize
    # ------------------------------------------------------------------
    def resize(self, seq, kv_lengths, kind):
        """``sync`` or ``try_grow`` against the shadow's own arithmetic."""
        i, account = self.home(seq), self.accounts.get(seq)
        method = getattr(self.fleet.shard(i), kind)
        if account is None:
            self.call(method, seq, kv_lengths, refused=ValueError)
            return
        if not account.optimistic:
            # A reserve-mode caller stays inside its admitted bounds.
            kv_lengths = [
                min(n, bound) for n, bound in zip(kv_lengths, account.bounds)
            ]
        wanted = pages(kv_lengths)
        reserved = max(account.floor, sum(wanted)) if account.optimistic \
            else account.reserved
        if self.reserved_on(i) - account.reserved + reserved > SHARD_PAGES:
            # Only an optimistic bill can outgrow the pool: try_grow
            # says so, sync refuses once the allocations overflow too
            # and otherwise trusts its caller (audit() polices that).
            allocated = sum(wanted) - sum(account.allocated) + sum(
                sum(a.allocated) for a in self.on_shard(i).values())
            if kind == "try_grow":
                assert self.call(method, seq, kv_lengths) == (False, [])
            elif allocated > SHARD_PAGES:
                self.call(method, seq, kv_lengths, refused=PoolExhausted)
            return
        freed = sum(max(0, have - want)
                    for have, want in zip(account.allocated, wanted))
        got, events = self.call(method, seq, kv_lengths)
        assert got == (True if kind == "try_grow" else freed)
        assert events == (["sync"] if wanted != account.allocated else [])
        account.allocated, account.reserved = wanted, reserved
        account.corrupt = {(l, p) for l, p in account.corrupt if p < wanted[l]}
        tally = self.counters[i]
        tally["reclaimed_pages"] += freed
        tally["peak_allocated_pages"] = max(
            tally["peak_allocated_pages"],
            sum(sum(a.allocated) for a in self.on_shard(i).values()))

    @rule(seq=live)
    def a_layer_short(self, seq):
        """Column counts that do not cover every layer bill nothing."""
        shard = self.fleet.shard(self.home(seq))
        for method in (shard.admit, shard.admit_optimistic, shard.sync,
                       shard.try_grow):
            self.call(method, seq, [PAGE_TOKENS], refused=ValueError)

    @mutator(seq=live, kv_lengths=lengths)
    def sync(self, seq, kv_lengths):
        self.resize(seq, kv_lengths, "sync")

    @mutator(seq=live, kv_lengths=lengths)
    def try_grow(self, seq, kv_lengths):
        self.resize(seq, kv_lengths, "try_grow")

    @mutator(seq=live)
    def finish_prefill(self, seq):
        account = self.accounts.get(seq)
        method = self.fleet.shard(self.home(seq)).finish_prefill
        if account is None:
            self.call(method, seq, refused=ValueError)
            return
        before = account.reserved
        account.floor = 0
        if account.optimistic:
            account.reserved = sum(account.allocated)
        _, events = self.call(method, seq)
        assert events == (
            ["finish_prefill"] if account.reserved != before else [])

    @mutator(seq=live, n_tokens=st.integers(0, 9))
    def note_reclaimed_tokens(self, seq, n_tokens):
        i = self.home(seq)
        self.call(self.fleet.shard(i).note_reclaimed_tokens, n_tokens)
        self.counters[i]["reclaimed_tokens"] += n_tokens

    @mutator(shard=shards)
    def reset_counters(self, shard):
        """A new serving run: the statistics start over — no ledger
        mutation, so no event is owed — and every bill stays."""
        bills, seen = billing(self.fleet)[1], len(self.events)
        self.fleet.shard(shard).reset_counters()
        assert billing(self.fleet)[1] == bills and len(self.events) == seen
        tally = self.counters[shard]
        tally.update(dict.fromkeys(tally, 0))
        tally["peak_allocated_pages"] = sum(
            sum(a.allocated) for a in self.on_shard(shard).values())

    # ------------------------------------------------------------------
    # Close
    # ------------------------------------------------------------------
    def close(self, seq, kind, tallies=()):
        i = self.home(seq)
        method = getattr(self.fleet.shard(i), kind)
        if seq not in self.accounts:
            self.call(method, seq, refused=ValueError)
            return
        freed = self.accounts.pop(seq).reserved
        got, events = self.call(method, seq)
        assert events == [kind]
        assert got == (None if kind == "release" else freed)
        for name, amount in zip(tallies, (1, freed)):
            self.counters[i][name] += amount

    @mutator(seq=consumes(live))
    def release(self, seq):
        self.close(seq, "release")

    @mutator(seq=consumes(live))
    def preempt_release(self, seq):
        self.close(seq, "preempt_release", ("n_preempted", "preempted_pages"))

    @mutator(seq=consumes(live))
    def quarantine_release(self, seq):
        self.close(seq, "quarantine_release",
                   ("n_quarantined", "quarantined_pages"))

    # ------------------------------------------------------------------
    # Integrity plane
    # ------------------------------------------------------------------
    @mutator(seq=live, layer=st.integers(0, CONFIG.n_layers),
             page=st.integers(0, 3))
    def corrupt_page(self, seq, layer, page):
        i, account = self.home(seq), self.accounts.get(seq)
        method = self.fleet.shard(i).corrupt_page
        if account is None or layer == CONFIG.n_layers \
                or page >= account.allocated[layer]:
            self.call(method, seq, layer, page, refused=ValueError)
            return
        _, events = self.call(method, seq, layer, page)
        assert events == ["corrupt"]
        account.corrupt ^= {(layer, page)}  # a second strike flips it back
        self.counters[i]["n_corrupt_events"] += 1

    # ------------------------------------------------------------------
    # Fleet membership
    # ------------------------------------------------------------------
    def move(self, replica, kind):
        """``drain`` / ``fail`` / ``recover``; True once the fleet took it."""
        refused = None
        if replica == N_SHARDS:
            refused = IndexError
        elif self.active[replica] == (kind == "recover"):
            refused = ValueError
        if refused is not None:
            self.call(getattr(self.fleet, kind), replica, refused=refused)
            return False
        # Membership is the fleet's own: no shard's bills move, so no
        # shard event is owed (the shadow invariant checks the flags).
        bills, seen = billing(self.fleet)[1], len(self.events)
        getattr(self.fleet, kind)(replica)
        assert billing(self.fleet)[1] == bills and len(self.events) == seen
        self.active[replica] = kind == "recover"
        self.failed[replica] = kind == "fail"
        return True

    def retire(self, replica, kind):
        if not self.move(replica, kind):
            return
        # The cluster engine requeues what the shard held; until then
        # the fleet audit refuses the retired shard's pages.
        if self.reserved_on(replica):
            with pytest.raises(PoolExhausted, match="retired replica"):
                self.fleet.audit()
        for seq in sorted(self.on_shard(replica)):
            self.close(seq, "release")

    # Retiring only while something is billed keeps the walk from
    # idling in an all-retired fleet.
    @precondition(lambda self: self.accounts)
    @mutator(replica=replicas)
    def drain(self, replica):
        self.retire(replica, "drain")

    @precondition(lambda self: self.accounts)
    @mutator(replica=replicas)
    def fail(self, replica):
        self.retire(replica, "fail")

    @precondition(lambda self: not all(self.active))
    @mutator(replica=replicas)
    def recover(self, replica):
        self.move(replica, "recover")

    # ------------------------------------------------------------------
    @invariant()
    def audit_is_clean(self):
        self.fleet.audit()

    @invariant()
    def shadow_equals_the_ledger(self):
        fleet = self.fleet
        for i, shard in enumerate(fleet.shards):
            accounts = self.on_shard(i)
            assert shard.tracked_sequences == set(accounts)
            assert shard.reserved_pages == self.reserved_on(i)
            assert shard.allocated_pages == sum(
                sum(a.allocated) for a in accounts.values())
            for seq, account in accounts.items():
                assert shard.reserved_pages_of(seq) == account.reserved
                assert shard.allocated_pages_per_layer(seq) \
                    == account.allocated
            assert shard.verify_checksums() == {
                seq: sorted(a.corrupt) for seq, a in accounts.items()
                if a.corrupt
            }
            assert {k: getattr(shard, k) for k in self.counters[i]} \
                == self.counters[i]
            assert fleet.is_active(i) == self.active[i]
            assert fleet.is_failed(i) == self.failed[i]
            assert fleet.phase(i) == (
                "active" if self.active[i]
                else "failed" if self.failed[i] else "drained")
        assert fleet.active_indices == [
            i for i in range(N_SHARDS) if self.active[i]]
        assert fleet.reserved_pages == sum(
            a.reserved for a in self.accounts.values())
        assert fleet.n_sequences == len(self.accounts)


TestLedgerMachine = LedgerMachine.TestCase
TestLedgerMachine.settings = settings(
    max_examples=80, stateful_step_count=30, deadline=None,
)


def test_refused_sync_leaves_the_ledger_untouched():
    """A sync past the pool raises before it commits anything."""
    pool = KVMemoryPool(
        CONFIG, budget_bytes=4 * 16 * CONFIG.kv_bytes_per_token)
    pool.admit(1, [16] * CONFIG.n_layers)
    before = pool_state(pool)
    with pytest.raises(PoolExhausted, match="overflow"):
        pool.sync(1, [80] * CONFIG.n_layers)
    assert pool_state(pool) == before
    assert pool.allocated_pages == 0
    pool.audit()


@pytest.mark.parametrize("total", ["reserved_pages", "allocated_pages"])
def test_audit_recomputes_the_running_totals(total):
    """The pool-wide totals are kept, not summed per read: audit()
    holds them to the accounts they summarise."""
    pool = KVMemoryPool(
        CONFIG, budget_bytes=8 * 16 * CONFIG.kv_bytes_per_token)
    pool.admit(1, [32] * CONFIG.n_layers)
    pool.admit_optimistic(2, [16] * CONFIG.n_layers)
    pool.sync(1, [20] * CONFIG.n_layers)
    pool.sync(2, [16] * CONFIG.n_layers)
    pool.finish_prefill(2)
    pool.sync(2, [3] * CONFIG.n_layers)
    pool.release(1)
    pool.audit()
    assert (pool.reserved_pages, pool.allocated_pages) == (2, 2)
    setattr(pool, total, getattr(pool, total) + 1)
    with pytest.raises(PoolExhausted, match=f"running total {total}"):
        pool.audit()


def unexercised():
    """Public methods neither bound as a rule nor declared read-only."""
    missing = []
    for cls, reads in READ_ONLY.items():
        public = {
            name for name, _ in inspect.getmembers(cls, inspect.isfunction)
            if not name.startswith("_")
        }
        assert reads <= public, f"stale read-only names: {reads - public}"
        missing += [
            f"{cls.__name__}.{name}"
            for name in sorted(public - reads - MUTATORS)
        ]
    return missing


def test_every_public_method_is_a_rule_or_declared_read_only(monkeypatch):
    assert unexercised() == []
    monkeypatch.setattr(
        KVMemoryPool, "rebill", lambda self, seq_id: None, raising=False)
    assert unexercised() == ["KVMemoryPool.rebill"]
