"""Fault-injected multi-user flows: rollback equivalence, leases, retry.

The rollback tests reuse ``tests/test_bulk.py``'s equivalence style: a
check-in that dies mid-apply, or whose journal append fails, must
leave the master's canonical image *and* its index snapshots
byte-identical to the pre-check-in state, with the client's copy and
locks intact for a retry. Lease and retry
tests drive an injected fake clock — no wall-clock sleeps anywhere.
"""

from __future__ import annotations

import warnings

import pytest

from repro.core import ConsistencyError, LockError, SchemaBuilder, faults
from repro.core.errors import CheckInError, RecoveryWarning
from repro.core.faults import FaultPlan, SimulatedCrash
from repro.core.schema.attached import AttachedProcedure, ProcedureRegistry
from repro.core.storage import (
    GroupCommitPolicy,
    JournaledDatabase,
    database_to_dict,
)
from repro.multiuser import RetryPolicy, SeedServer
from repro.spades import spades_schema

#: a batch that only barriers drain: nothing flushes on its own
GROUP_COMMIT = GroupCommitPolicy(max_txns=1000, max_bytes=1 << 30, max_delay_s=1e9)


def canonical_image(db):
    """The comparable state of a database (name aside)."""
    state = database_to_dict(db)
    state.pop("name")
    return state


def populate(master):
    alarms = master.create_object("Data", "Alarms")
    handler = master.create_object("Action", "AlarmHandler")
    handler.add_sub_object("Description", "handles")
    sensor = master.create_object("Action", "Sensor")
    sensor.add_sub_object("Description", "senses")
    master.relate("Read", {"from": alarms, "by": handler})


@pytest.fixture
def server():
    server = SeedServer(spades_schema())
    populate(server.master)
    return server


@pytest.fixture
def journaled(tmp_path):
    server = SeedServer.open(tmp_path / "central.seed", schema=spades_schema())
    populate(server.master)
    server.checkpoint()
    return server


class FakeClock:
    """A deterministic monotonic clock; ``sleep`` advances it."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# fault-injected check-ins: master rollback equivalence
# ---------------------------------------------------------------------------

class TestCheckInFaults:
    def edit(self, client):
        local = client.check_out("AlarmHandler")
        local.get_object("AlarmHandler.Description").set_value("edited")
        return local

    def assert_untouched(self, server, image_before, index_before):
        assert canonical_image(server.master) == image_before
        assert server.master.indexes.snapshot() == index_before

    def test_io_error_mid_apply_rolls_back_byte_identical(self, server):
        alice = server.connect("alice")
        self.edit(alice)
        image_before = canonical_image(server.master)
        index_before = server.master.indexes.snapshot()
        plan = FaultPlan().fail_io("checkin.apply.mid")
        with plan, pytest.raises(OSError):
            alice.check_in()
        assert plan.triggered
        self.assert_untouched(server, image_before, index_before)
        # the client still holds its copy and its locks...
        assert alice.has_copy
        bob = server.connect("bob")
        with pytest.raises(LockError, match="held by 'alice'"):
            bob.check_out("AlarmHandler")
        # ...so the retry (fault cleared) lands the edit
        alice.check_in()
        value = server.master.get_object("AlarmHandler.Description").value
        assert value == "edited"

    def test_simulated_crash_mid_apply_rolls_back(self, server):
        alice = server.connect("alice")
        self.edit(alice)
        image_before = canonical_image(server.master)
        index_before = server.master.indexes.snapshot()
        with FaultPlan().crash("checkin.apply.mid"):
            with pytest.raises(SimulatedCrash):
                alice.check_in()
        self.assert_untouched(server, image_before, index_before)
        assert alice.has_copy

    @pytest.mark.parametrize(
        "policy, bulk",
        [(None, False), (GROUP_COMMIT, False), (None, True)],
        ids=["strict", "group", "strict-bulk"],
    )
    def test_journal_append_failure_rolls_back(self, tmp_path, policy, bulk):
        # the check-in commit journals itself; when that append fails the
        # commit is undone, so the master never holds an unjournaled
        # check-in and the client can simply retry
        server = SeedServer.open(
            tmp_path / "central.seed", schema=spades_schema(), group_commit=policy
        )
        populate(server.master)
        server.checkpoint()
        # under group commit a direct commit sits in the buffer: the
        # check-in's append would drain it in the same batch
        server.master.get_object("Sensor.Description").set_value("buffered")
        buffered = server.journal.pending_txns()
        assert buffered == (0 if policy is None else 1)
        alice = server.connect("alice")
        self.edit(alice)
        image_before = canonical_image(server.master)
        index_before = server.master.indexes.snapshot()
        size_before = server.journal._file.size_bytes()
        with FaultPlan().fail_io("txn.journal.pre_append"):
            with pytest.raises(OSError):
                alice.check_in(bulk=bulk)
        self.assert_untouched(server, image_before, index_before)
        assert server.journal._file.size_bytes() == size_before
        assert server.journal.pending_txns() == buffered
        # the client keeps its copy and its locks...
        assert alice.has_copy
        bob = server.connect("bob")
        with pytest.raises(LockError, match="held by 'alice'"):
            bob.check_out("AlarmHandler")
        # ...so the retry lands the edit, durably, with the buffered commit
        alice.check_in(bulk=bulk)
        assert server.journal.pending_txns() == 0
        reopened = JournaledDatabase.open(server.journal.path)
        assert canonical_image(reopened.db) == canonical_image(server.master)
        assert reopened.recovery.applied_deltas == 1
        assert reopened.db.get_object("AlarmHandler.Description").value == "edited"
        assert reopened.db.get_object("Sensor.Description").value == "buffered"

    def test_mid_apply_fault_appends_nothing(self, journaled):
        alice = journaled.connect("alice")
        self.edit(alice)
        size_before = journaled.journal._file.size_bytes()
        with FaultPlan().fail_io("checkin.apply.mid"):
            with pytest.raises(OSError):
                alice.check_in()
        # the commit never happened, so nothing reached the journal
        assert journaled.journal._file.size_bytes() == size_before
        assert journaled.journal.deltas() == 0
        # a reload replays to exactly the live (unchanged) master state
        reopened = JournaledDatabase.open(journaled.journal.path)
        assert canonical_image(reopened.db) == canonical_image(journaled.master)
        assert reopened.recovery.applied_deltas == 0

    def test_successful_checkin_is_durable_without_checkpoint(self, journaled):
        alice = journaled.connect("alice")
        self.edit(alice)
        size_before = journaled.journal._file.size_bytes()
        alice.check_in()
        appended = journaled.journal._file.size_bytes() - size_before
        # O(change), not O(database): the delta is far smaller than an image
        assert 0 < appended < size_before / 2
        reopened = JournaledDatabase.open(journaled.journal._file.path)
        assert canonical_image(reopened.db) == canonical_image(journaled.master)
        assert reopened.recovery.applied_deltas == 1
        value = reopened.db.get_object("AlarmHandler.Description").value
        assert value == "edited"

    def test_empty_checkin_appends_nothing(self, journaled):
        alice = journaled.connect("alice")
        alice.check_out("Sensor")
        size_before = journaled.journal._file.size_bytes()
        alice.check_in()
        assert journaled.journal._file.size_bytes() == size_before
        assert journaled.journal.deltas() == 0

    def test_rejected_checkin_leaves_replayable_journal(self, journaled):
        alice = journaled.connect("alice")
        local = alice.check_out("Sensor")
        local.create_object("Action", "AlarmHandler")  # exists centrally!
        size_before = journaled.journal._file.size_bytes()
        with pytest.raises(ConsistencyError):
            alice.check_in()
        # a rejected check-in rolls back before its commit: no record
        assert journaled.journal._file.size_bytes() == size_before
        reopened = JournaledDatabase.open(journaled.journal.path)
        assert canonical_image(reopened.db) == canonical_image(journaled.master)
        assert reopened.recovery.applied_deltas == 0

    def test_checkin_survives_reopen_under_stricter_guard(self, tmp_path):
        # replay upserts committed states; it never re-runs the attached
        # procedures that accepted them, so a check-in acknowledged
        # under one procedure body survives a reopen under another
        permissive = ProcedureRegistry()
        permissive.register(AttachedProcedure("guard", lambda ctx: None))
        schema = (
            SchemaBuilder("guarded")
            .entity_class("Item", sort="STRING")
            .attach("Item", "guard", registry=permissive)
            .build()
        )
        path = tmp_path / "guarded.seed"
        server = SeedServer.open(path, schema=schema)
        server.master.create_object("Item", "A").set_value("old")
        server.checkpoint()
        alice = server.connect("alice")
        alice.check_out("A").get_object("A").set_value("checked in")
        alice.check_in()
        strict = ProcedureRegistry()
        strict.register(AttachedProcedure("guard", lambda ctx: ["vetoed"]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RecoveryWarning)
            reopened = JournaledDatabase.open(path, registry=strict)
        assert reopened.db.get_object("A").value == "checked in"
        assert reopened.recovery.applied_deltas == 1
        assert reopened.recovery.aborted_deltas == 0

    def test_budget_failure_after_durable_checkin_keeps_it(self, tmp_path):
        server = SeedServer.open(
            tmp_path / "central.seed", schema=spades_schema(), byte_budget=1
        )
        populate(server.master)
        alice = server.connect("alice")
        self.edit(alice)
        # the check-in's record is durable before enforcement compacts:
        # an I/O fault in the rewrite is reported, the commit stands
        with FaultPlan().fail_io("journal.compact.rewrite"):
            with pytest.warns(RecoveryWarning, match="byte-budget"):
                alice.check_in()
        assert not alice.has_copy
        value = server.master.get_object("AlarmHandler.Description").value
        assert value == "edited"
        reopened = JournaledDatabase.open(server.journal.path)
        assert canonical_image(reopened.db) == canonical_image(server.master)


# ---------------------------------------------------------------------------
# lock leases: expiry, reclaim, renewal
# ---------------------------------------------------------------------------

class TestLockLeases:
    def make_server(self, lease=30.0):
        clock = FakeClock()
        server = SeedServer(spades_schema(), lease_seconds=lease, clock=clock)
        populate(server.master)
        return server, clock

    def test_expired_lease_is_reclaimed_by_conflicting_checkout(self):
        server, clock = self.make_server()
        alice = server.connect("alice")
        alice.check_out("Alarms")
        bob = server.connect("bob")
        with pytest.raises(LockError):
            bob.check_out("Alarms")
        clock.now += 31
        bob.check_out("Alarms")  # alice's lease lapsed: reclaimed
        assert bob.has_copy
        assert server.locks.reclaimed >= 1

    def test_live_lease_is_not_reclaimed(self):
        server, clock = self.make_server()
        alice = server.connect("alice")
        alice.check_out("Alarms")
        clock.now += 20
        server.renew(alice.token)
        clock.now += 20  # 40s total, but only 20s since the renewal
        bob = server.connect("bob")
        with pytest.raises(LockError, match="held by 'alice'"):
            bob.check_out("Alarms")

    def test_expired_client_cannot_check_in_over_the_reclaimer(self):
        server, clock = self.make_server()
        alice = server.connect("alice")
        local = alice.check_out("AlarmHandler")
        local.get_object("AlarmHandler.Description").set_value("from alice")
        clock.now += 31
        bob = server.connect("bob")
        bob.check_out("AlarmHandler")
        # alice's stale check-in is rejected, not applied over bob's claim
        with pytest.raises(CheckInError, match="without holding"):
            alice.check_in()
        value = server.master.get_object("AlarmHandler.Description").value
        assert value == "handles"

    def test_renew_after_expiry_raises(self):
        server, clock = self.make_server()
        alice = server.connect("alice")
        alice.check_out("Alarms")
        keys = list(server.locks._locks)
        clock.now += 31
        with pytest.raises(LockError, match="no longer holds"):
            server.locks.renew("alice", keys)
        # the blanket renew sees no live locks left to touch
        assert server.locks.renew("alice") == 0

    def test_purge_expired_counts_reclaims(self):
        server, clock = self.make_server()
        alice = server.connect("alice")
        alice.check_out("Alarms")
        held = len(server.locks)
        assert held > 0
        clock.now += 31
        assert len(server.locks) == 0  # expired locks are invisible
        purged = server.locks.purge_expired()
        assert len(purged) == held
        assert server.locks.reclaimed == held

    def test_no_lease_means_no_expiry(self):
        server = SeedServer(spades_schema())
        populate(server.master)
        alice = server.connect("alice")
        alice.check_out("Alarms")
        bob = server.connect("bob")
        with pytest.raises(LockError):
            bob.check_out("Alarms")


# ---------------------------------------------------------------------------
# bounded retry against contended (and expiring) locks
# ---------------------------------------------------------------------------

class TestRetryPolicy:
    def test_backoff_schedule_is_exponential_and_capped(self):
        policy = RetryPolicy(backoff=0.05, max_backoff=0.3)
        assert [policy.delay(n) for n in range(1, 6)] == [
            0.05, 0.1, 0.2, 0.3, 0.3,
        ]

    def test_zero_attempts_rejected(self):
        with pytest.raises(ValueError, match="at least one attempt"):
            RetryPolicy(attempts=0).run(lambda: None)

    def test_retry_exhausts_attempts_then_reraises(self):
        slept = []
        policy = RetryPolicy(
            attempts=3, backoff=0.05, sleep=slept.append, clock=lambda: 0.0
        )
        calls = []

        def contended():
            calls.append(1)
            raise LockError("held by 'alice'")

        with pytest.raises(LockError):
            policy.run(contended)
        assert len(calls) == 3
        assert slept == [0.05, 0.1]  # no sleep after the final failure

    def test_retry_stops_at_deadline(self):
        clock = FakeClock()
        policy = RetryPolicy(
            attempts=10,
            backoff=5.0,
            max_backoff=5.0,
            deadline=12.0,
            sleep=clock.sleep,
            clock=clock,
        )
        calls = []

        def contended():
            calls.append(clock.now)
            raise LockError("busy")

        with pytest.raises(LockError):
            policy.run(contended)
        # attempts at t=0, 5, 10; at t=10 the next backoff would land at
        # t=15 — past the 12s deadline — so the policy gives up without
        # sleeping (it never overshoots the deadline)
        assert calls == [0.0, 5.0, 10.0]

    def test_retry_never_sleeps_past_the_deadline(self):
        """The fixed invariant, directly: no sleep may overshoot."""
        clock = FakeClock()
        slept_until = []

        def sleeping(seconds):
            clock.sleep(seconds)
            slept_until.append(clock.now)

        policy = RetryPolicy(
            attempts=50,
            backoff=3.0,
            max_backoff=3.0,
            deadline=10.0,
            sleep=sleeping,
            clock=clock,
        )
        with pytest.raises(LockError):
            policy.run(lambda: (_ for _ in ()).throw(LockError("busy")))
        assert slept_until  # it did retry before giving up
        # a backoff landing exactly on the deadline is still allowed;
        # one that would carry past it is not taken
        assert all(at <= 10.0 for at in slept_until)
        assert clock.now <= 10.0

    def test_retry_reclaims_an_expiring_lease(self):
        clock = FakeClock()
        server = SeedServer(spades_schema(), lease_seconds=30, clock=clock)
        populate(server.master)
        alice = server.connect("alice")
        stale = alice.check_out("AlarmHandler")
        stale.get_object("AlarmHandler.Description").set_value("from alice")
        bob = server.connect("bob")
        slept = []

        def sleep(seconds):
            slept.append(seconds)
            clock.sleep(seconds)

        local = bob.check_out(
            "AlarmHandler",
            retry=RetryPolicy(
                attempts=5, backoff=16.0, max_backoff=100.0,
                sleep=sleep, clock=clock,
            ),
        )
        # attempts at t=0 (held), t=16 (held), t=48 (lease expired: won)
        assert slept == [16.0, 32.0]
        assert local is bob.local
        assert server.locks.reclaimed >= 1
        # the dead client's eventual check-in is rejected, not applied
        with pytest.raises(CheckInError, match="without holding"):
            alice.check_in()
        bob.check_in()

    def test_retry_succeeds_after_release(self):
        server = SeedServer(spades_schema())
        populate(server.master)
        alice = server.connect("alice")
        alice.check_out("Alarms")
        bob = server.connect("bob")

        def sleep(seconds):
            if alice.has_copy:
                alice.abandon()

        bob.check_out("Alarms", retry=RetryPolicy(attempts=2, sleep=sleep))
        assert bob.has_copy
