"""Workload ``commit_reopen``: batched journal writes, then recovery.

In-process library use. A journaled ``SeedServer`` over a generated
SPADES specification runs under ``GroupCommitPolicy()`` defaults with a
byte budget small enough that the journal auto-compacts more than a
dozen times per run, so one compaction more or less barely moves the
window. The closed loop is 15 direct transactions, each editing
``values_per_txn`` action descriptions from a fixed pool, per local
check-out / check-in cycle that edits another action and creates
``items_per_checkin`` Data objects, each with a ``Read`` relationship
to it. Group commit flushes on its own when ``max_txns`` (8)
transactions are buffered; the check-in is a flush barrier that drains
the other 7. So one transaction commit in 15 pays an fsync: the commit
p90 is the tail of the commits that do not, and the fsync'd ones show
in the p99.

The reopen template is built before the loop, apart from it, so its
size does not depend on how many ops the loop managed: the set-up
template plus the first ``tail_ops`` ops of the same stream, committed
with no budget. The window is cut into ``reopens`` equal slices. After
each slice one timed template build runs, and one timed reopen on a
fresh copy of the reopen template (publishing after a reopen appends an
O(master) ``version`` record, so reopening one file twice would measure
two different journals), from the open call to the first served pinned
read. After the loop the journal is flushed and a copy of it must
reopen to the live master.
"""

from __future__ import annotations

import gc
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import fmean
from typing import Iterator, Optional

from common import (
    GcWatch,
    Result,
    Timings,
    Tracer,
    durable_copy,
    journal_bytes_by_kind,
    mean_ms,
    median,
    open_quietly,
    overhead_pct,
    peak_rss_mb,
    timed_calibration,
    timed_reopen,
)
from wire_edit import Cycle, edit_local, rebuild_seconds, setup

#: span factory of the untimed paths (a disabled tracer's no-op spans)
NO_SPAN = Tracer(False).span

FLUSH_POLICY = "GroupCommitPolicy() defaults (8 txns / 64 KiB / 50 ms per fsync)"


@dataclass(frozen=True)
class ReopenSizes:
    actions: int = 700
    data: int = 700
    flows: int = 1400
    #: actions whose descriptions the direct transactions rewrite
    pool: int = 64
    #: one op in this many is a local check-out / check-in; above
    #: ``GroupCommitPolicy().max_txns`` the policy's own size trigger
    #: flushes between check-in barriers
    checkin_every: int = 16
    #: Data objects (each with a Read relationship) one check-in creates
    items_per_checkin: int = 1
    #: descriptions one direct transaction rewrites
    values_per_txn: int = 12
    #: journal budget above the template image, in bytes
    budget_slack: int = 3_000_000
    #: deltas in the reopen template, committed with no budget on the
    #: set-up image
    tail_ops: int = 1000
    #: slices of the window; after each, one timed template build and
    #: one timed reopen
    reopens: int = 8
    #: ops in each traced-run pass (op-count bound, not time)
    trace_ops: int = 8000


DEFAULT = ReopenSizes()
TOY = ReopenSizes(
    actions=40, data=40, flows=80, pool=8, values_per_txn=4,
    budget_slack=20_000, tail_ops=60, reopens=1, trace_ops=120,
)


@dataclass
class Op:
    kind: str  # "txn" | "checkin"
    #: the actions edited: several for a transaction, one for a check-in
    actions: list[str]
    value: str
    created: list[str] = field(default_factory=list)


def ops(seed: int, sizes: ReopenSizes, actions: list[str]) -> Iterator[Op]:
    """The endless, seeded op stream."""
    rng = random.Random(seed * 104729 + 3)
    pool = actions[: sizes.pool]
    others = actions[sizes.pool:]
    index = 0
    while True:
        if index % sizes.checkin_every == sizes.checkin_every - 1:
            created = [f"L{index}x{item}" for item in range(sizes.items_per_checkin)]
            yield Op("checkin", [rng.choice(others)], f"local #{index}", created)
        else:
            targets = rng.sample(pool, sizes.values_per_txn)
            yield Op("txn", targets, f"txn #{index} ({rng.random():.6f})")
        index += 1


class Session:
    """A journal-bound server plus one in-process client session."""

    def __init__(self, path: Path, budget: Optional[int]) -> None:
        from repro.core.storage import GroupCommitPolicy
        from repro.multiuser.server import SeedServer

        self.server = SeedServer.open(
            path, byte_budget=budget, group_commit=GroupCommitPolicy()
        )
        self.master = self.server.master
        self.journal = self.server.journal
        self.token = self.server.open_session("local").token
        self.path = path

    def apply(self, op: Op, timings: Optional[Timings], span) -> None:
        """Run one op; times the commit or the check-in when asked."""
        from repro.multiuser.checkin import build_package
        from repro.multiuser.client import materialize_ticket

        if op.kind == "txn":
            began = time.perf_counter()
            with span("core.database.commit"):
                with self.master.transaction():
                    for action in op.actions:
                        self.master.get_object(action).find_sub_object(
                            "Description"
                        ).set_value(op.value)
            if timings is not None:
                timings.add("commit", time.perf_counter() - began)
            return
        began = time.perf_counter()
        ticket = self.server.check_out(self.token, op.actions)
        local = materialize_ticket(self.master.schema, "local", ticket)
        if timings is not None:
            timings.add("check_out", time.perf_counter() - began)
        edit_local(local, Cycle(op.actions[0], op.value, op.created))
        began = time.perf_counter()
        package = build_package(
            local, dict(ticket.objects), dict(ticket.relationships)
        )
        with span("multiuser.server.apply_check_in"):
            self.server.apply_check_in(self.token, package)
        if timings is not None:
            timings.add("check_in", time.perf_counter() - began)


def reopen_template(
    template: Path, path: Path, seed: int, sizes: ReopenSizes, actions: list[str]
) -> dict:
    """The reopen input: the pristine image plus ``tail_ops`` deltas.

    The first ``tail_ops`` ops of the seeded stream, committed with no
    budget on a fresh copy of the set-up template and flushed. Returns
    the canonical image of the state that journal holds.
    """
    from repro.core.storage import database_to_dict

    durable_copy(template, path)
    session = Session(path, None)
    stream = ops(seed, sizes, actions)
    for __ in range(sizes.tail_ops):
        session.apply(next(stream), None, NO_SPAN)
    session.journal.flush()
    return database_to_dict(session.master)


def verify_reopen(path: Path, expected: dict) -> list[str]:
    """The reopened canonical image equals the pre-close master."""
    from repro.core.storage import database_to_dict

    journal = open_quietly(path)
    info = journal.recovery
    problems = []
    if info.skipped_deltas or info.unknown_records or info.aborted_deltas:
        problems.append(
            f"reopen skipped {info.skipped_deltas}, aborted "
            f"{info.aborted_deltas}, met {info.unknown_records} unknown"
        )
    if database_to_dict(journal.db) != expected:
        problems.append("reopened image differs from the pre-close master")
    return problems


def working_copy(template: Path, path: Path, sizes: ReopenSizes) -> Session:
    durable_copy(template, path)
    return Session(path, template.stat().st_size + sizes.budget_slack)


def run(seed: int, seconds: float, work: Path, sizes: ReopenSizes = DEFAULT) -> Result:
    from repro.core.errors import SeedError
    from repro.core.storage import database_to_dict

    result = Result()
    template, actions = setup(work, seed, sizes)
    setup_times: list[float] = []
    failures: list[str] = []
    sealed = work / "sealed.journal"
    expected = reopen_template(template, sealed, seed, sizes, actions)
    sealed_copy = work / "sealed-copy.journal"
    shutil.copyfile(sealed, sealed_copy)
    failures.extend(verify_reopen(sealed_copy, expected))
    # the loop's collections should not traverse the check's image
    del expected

    session = working_copy(template, work / "live.journal", sizes)
    stream = ops(seed, sizes, actions)
    timings = Timings()
    done = 0
    flushes = session.journal.group_flushes
    size = session.path.stat().st_size
    compactions = 0
    elapsed = 0.0
    reopen_times: list[float] = []
    passes: list[float] = []
    gc.collect()
    # the window is cut into one slice per timed reopen: the loop pauses
    # for one timed template build, one reopen of the template and one
    # calibration pass, each in a fresh interpreter, so the commits, the
    # builds, the reopens and the passes all sample the same stretch of
    # the host's changing speed
    for index in range(sizes.reopens):
        deadline = time.perf_counter() + seconds / sizes.reopens
        started = time.perf_counter()
        while time.perf_counter() < deadline:
            op = next(stream)
            try:
                session.apply(op, timings, NO_SPAN)
            except SeedError as exc:
                failures.append(f"{op.kind} {op.actions}: {exc}")
            done += 1
            now = session.path.stat().st_size
            compactions += now < size
            size = now
        elapsed += time.perf_counter() - started
        setup_times.append(rebuild_seconds(work, seed, sizes))
        reopen_times.append(
            timed_reopen(sealed, work / f"reopen{index}.journal", actions[0])
        )
        passes.append(timed_calibration())
    flushes = session.journal.group_flushes - flushes
    # every committed op of the loop is durable once flushed: a copy of
    # the live journal reopens to the live master
    session.journal.flush()
    live_copy = work / "live-copy.journal"
    shutil.copyfile(session.path, live_copy)
    failures.extend(verify_reopen(live_copy, database_to_dict(session.master)))
    result.attempted = done + sizes.tail_ops
    result.failed = len(failures)
    for problem in failures[:10]:
        result.problem(problem)
    commits = timings.count("commit") + timings.count("check_in")
    result.metric("ops_per_s", commits / elapsed, "1/s")
    result.metric("main_op_p50_ms", timings.p50_ms("commit"), "ms")
    result.metric("main_op_p90_ms", timings.pct_ms("commit", 0.9), "ms")
    # the check-in's tail is mostly fsync latency, which moved 1.4-4.6 ms
    # between runs on a 2-vCPU container; it stays in the log, the
    # check-out is gated
    result.metric("side_op_p50_ms", timings.p50_ms("check_out"), "ms")
    result.metric("side_op_p90_ms", timings.pct_ms("check_out", 0.9), "ms")
    result.metric("setup_s", median(setup_times), "s")
    result.metric("ready_s", fmean(reopen_times), "s")
    result.metric("peak_rss_mb", peak_rss_mb(), "MB")
    result.scale_to_reference(passes)
    for name in ("commit", "check_out", "check_in"):
        result.note(timings.describe(name, (0.5, 0.9, 0.99)))
    result.note(
        f"{done} ops in {elapsed:.3f}s, {flushes} group flushes, "
        f"{compactions} compactions; "
        f"reopen template {sealed.stat().st_size} bytes"
    )
    result.note(f"setup: {len(setup_times)} template builds {setup_times}")
    result.note(f"reopen (open -> first pinned read): {reopen_times}")
    result.note(f"error_rate: {result.failed / max(1, result.attempted)}")
    return result


def traced_pass(
    template: Path, work: Path, tag: str, seed: int, sizes: ReopenSizes,
    actions: list[str], tracer: Tracer,
) -> dict:
    """A fixed number of ops with size observation.

    The pass ends with a flush, a checkpoint and a compaction, so its
    journal holds one image of the final state: the same bytes for the
    same op sequence, traced or not.
    """
    session = working_copy(template, work / f"{tag}.journal", sizes)
    stream = ops(seed, sizes, actions)
    span = tracer.span
    gc.collect()
    flushes = session.journal.group_flushes
    size = session.path.stat().st_size
    shrink_ops: list[float] = []
    counts = {"txn": 0, "checkin": 0, "compactions": 0}
    started = time.perf_counter()
    for __ in range(sizes.trace_ops):
        op = next(stream)
        tracer.request()
        began = time.perf_counter()
        with span(op.kind):
            session.apply(op, None, span)
        took = time.perf_counter() - began
        counts[op.kind] += 1
        now = session.path.stat().st_size
        if now < size:
            counts["compactions"] += 1
            shrink_ops.append(took)
        size = now
    counts["elapsed"] = time.perf_counter() - started
    counts["flushes"] = session.journal.group_flushes - flushes
    counts["shrink_ops"] = shrink_ops
    session.journal.flush()
    session.journal.checkpoint()
    session.journal.compact()
    counts["final"] = session.path
    counts["final_bytes"] = session.path.stat().st_size
    return counts


def image_only_copy(source: Path, target: Path) -> None:
    """A copy of *source* that holds only its leading base image unit."""
    from repro.core.storage import RecordFile

    end = 0
    for event in RecordFile(source).scan():
        kind = event.record.get("kind") if isinstance(event.record, dict) else None
        if kind not in ("image", "image.begin", "image.rec", "image.end"):
            break
        end = event.end
    with open(source, "rb") as handle:
        target.write_bytes(handle.read(end))


def reopen_layers(sealed: Path, work: Path, probe: str, tracer: Tracer) -> dict:
    """Break one reopen of a fresh template copy into its layers."""
    from repro.core.storage import RecordFile
    from repro.multiuser.server import SeedServer

    span = tracer.span
    scan_copy = work / "scan.journal"
    durable_copy(sealed, scan_copy)
    with span("core.storage.recordfile.scan"):
        records = sum(1 for __ in RecordFile(scan_copy).records())
    image_copy = work / "image-only.journal"
    image_only_copy(sealed, image_copy)
    with span("core.storage.engine.image_load"):
        open_quietly(image_copy)
    full_copy = work / "full.journal"
    durable_copy(sealed, full_copy)
    tracer.request()
    with span("reopen"):
        with span("core.storage.engine.open"):
            journal = open_quietly(full_copy)
        server = SeedServer(journal=journal)
        with span("multiuser.server.publish_snapshot"):
            server.publish_snapshot()
        with span("core.versions.view_find"):
            server.snapshot(build=False).find(probe)
    info = journal.recovery
    return {
        "records": records,
        "deltas": info.applied_deltas + info.applied_txn_deltas
        + info.applied_change_deltas,
        "checkin_deltas": info.applied_deltas,
        "txn_deltas": info.applied_txn_deltas,
        "change_deltas": info.applied_change_deltas,
    }


def run_traced(seed: int, seconds: float, work: Path, sizes: ReopenSizes = DEFAULT) -> Result:
    result = Result()
    template, actions = setup(work, seed, sizes)
    plain = traced_pass(template, work, "plain", seed, sizes, actions, Tracer(False))
    tracer = Tracer(True)
    gc_watch = GcWatch()
    with gc_watch.watching():
        traced = traced_pass(template, work, "traced", seed, sizes, actions, tracer)
    after = traced_pass(template, work, "after", seed, sizes, actions, Tracer(False))
    for key in ("txn", "checkin", "final_bytes"):
        if not plain[key] == traced[key] == after[key]:
            result.problem(
                f"traced and untraced passes differ in {key}: "
                f"{plain[key]} vs {traced[key]}"
            )
    sealed = work / "sealed.journal"
    reopen_template(template, sealed, seed, sizes, actions)
    recovered = reopen_layers(sealed, work, actions[0], tracer)
    d = tracer.durations
    open_s = d("core.storage.engine.open")[0]
    image_s = d("core.storage.engine.image_load")[0]
    replay_s = open_s - image_s
    ops_done = traced["txn"] + traced["checkin"]
    layer = {
        "core.database.commit_ms": (mean_ms(d("core.database.commit")), "ms"),
        "core.storage.group_flushes": (float(traced["flushes"]), "count"),
        "core.storage.txns_per_flush": (
            traced["txn"] / traced["flushes"] if traced["flushes"] else 0.0, "ratio"
        ),
        "multiuser.server.apply_check_in_ms": (
            mean_ms(d("multiuser.server.apply_check_in")), "ms"
        ),
        "core.storage.compactions": (float(traced["compactions"]), "count"),
        "core.storage.budget_commit_ms": (mean_ms(traced["shrink_ops"]), "ms"),
        "core.storage.recordfile.scan_s": (d("core.storage.recordfile.scan")[0], "s"),
        "core.storage.engine.image_load_s": (image_s, "s"),
        "core.storage.engine.replay_s": (replay_s, "s"),
        "core.storage.engine.replay_us_per_delta": (
            1e6 * replay_s / recovered["deltas"] if recovered["deltas"] else 0.0, "us"
        ),
        "core.storage.recovery.checkin_deltas": (float(recovered["checkin_deltas"]), "count"),
        "core.storage.recovery.txn_deltas": (float(recovered["txn_deltas"]), "count"),
        "core.storage.recovery.change_deltas": (float(recovered["change_deltas"]), "count"),
        "multiuser.server.publish_snapshot_s": (
            d("multiuser.server.publish_snapshot")[0], "s"
        ),
        "gc.pause_ms": (1000.0 * gc_watch.pause_s, "ms"),
        "gc.collections": (float(gc_watch.collections), "count"),
        "trace.overhead_pct": (
            overhead_pct(traced["elapsed"], [plain["elapsed"], after["elapsed"]]), "%"
        ),
    }
    # the reopen template holds the image plus exactly tail_ops deltas
    for family, size in journal_bytes_by_kind(sealed).items():
        layer[f"core.storage.bytes.{family}"] = (size / sizes.tail_ops, "B/op")
    for name, (value, unit) in layer.items():
        result.metric(name, value, unit)
    result.attempted = 3 * ops_done + sizes.tail_ops
    result.note(
        f"passes: {traced['txn']} txns, {traced['checkin']} check-ins, "
        f"{traced['compactions']} compactions; untraced "
        f"{plain['elapsed']:.3f}s, traced {traced['elapsed']:.3f}s"
    )
    result.note(
        f"reopen: {recovered['records']} records, {recovered['deltas']} "
        f"deltas replayed; open {open_s:.3f}s = image {image_s:.3f}s + "
        f"replay {replay_s:.3f}s"
    )
    result.note(tracer.render_self_times())
    spans_path, table_path = tracer.write(f"commit_reopen-seed{seed}")
    result.note(f"spans: {spans_path}; self-time table: {table_path}")
    return result
