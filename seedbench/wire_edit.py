"""Workload ``wire_edit``: the paper's multi-user edit loop over the wire.

A generated SPADES specification is loaded into a journal and
checkpointed; a fresh ``python -m repro serve`` child (strict per-commit
fsync, default maintenance every 8 check-ins) serves it; two closed-loop
``ServiceClient`` threads each own a disjoint partition of the actions.
One edit cycle: check out one Action, change its description, create a
Data object plus a ``Read`` relationship to the action, check in. Every
``read_every`` cycles the client thinks for a seeded time of up to
``think_s``, then browses: it pins the published snapshot and does
``reads_per_pin`` pinned ``find`` reads.

The window is cut into ``reopens`` slices. After each slice the clients
stop, and one timed template build and one timed reopen run while the
server is idle. The served journal is checked (every acknowledged
check-in survives a reopen, ``repro fsck`` is clean) but not timed: it
holds as many cycles as the window managed. The timed reopens run on
fresh copies of a template that holds the set-up image plus exactly
``reopen_cycles`` cycles per client, replayed in process before the
loop.

The traced run replays the same seeded cycles in process — no socket,
cycles alternating between the clients the way the service serializes
them — with spans around each layer call (see :func:`replay`).
"""

from __future__ import annotations

import gc
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import fmean
from typing import Callable, Iterator, Optional

from common import (
    ROOT,
    Result,
    Timings,
    Tracer,
    child_env,
    child_peak_rss_mb,
    durable_copy,
    fsck_clean,
    journal_bytes_by_kind,
    timed_reopen,
    mean_ms,
    median,
    median_ms,
    open_quietly,
    overhead_pct,
    percentile,
    timed_calibration,
)


@dataclass(frozen=True)
class WireSizes:
    actions: int = 700
    data: int = 700
    flows: int = 1400
    clients: int = 2
    read_every: int = 2
    reads_per_pin: int = 12
    #: the longest think time before a browse; drawn uniformly from the
    #: seed, it keeps the two closed loops from locking into one phase,
    #: which decided how many reads waited behind the other client
    think_s: float = 0.05
    #: slices of the window; after each, one timed template build and
    #: one timed reopen run while the clients are stopped
    reopens: int = 8
    #: cycles per client in the reopen template (op-count bound, not time)
    reopen_cycles: int = 30
    #: cycles per client in the traced run (op-count bound, not time)
    trace_cycles: int = 50


FLUSH_POLICY = "strict per-commit fsync (repro serve default)"
DEFAULT = WireSizes()
TOY = WireSizes(
    actions=40, data=40, flows=80, reopens=1, reopen_cycles=3,
    trace_cycles=4,
)


@dataclass
class Cycle:
    action: str
    value: str
    #: names of the Data objects the cycle creates, each read by the action
    created: list[str]
    reads: list[str] = field(default_factory=list)
    #: seconds the user thinks before browsing
    think: float = 0.0


def partition(actions: list[str], client: int, clients: int) -> list[str]:
    return [name for index, name in enumerate(actions) if index % clients == client]


def cycles(
    seed: int, client: int, sizes: WireSizes, actions: list[str]
) -> Iterator[Cycle]:
    """The client's endless, seeded op stream."""
    rng = random.Random(seed * 1009 + client)
    own = partition(actions, client, sizes.clients)
    index = 0
    while True:
        cycle = Cycle(
            action=rng.choice(own),
            value=f"edited by c{client} #{index} ({rng.random():.6f})",
            created=[f"W{client}x{index}"],
        )
        if index % sizes.read_every == sizes.read_every - 1:
            cycle.reads = [
                rng.choice(actions) for __ in range(sizes.reads_per_pin)
            ]
            cycle.think = rng.random() * sizes.think_s
        yield cycle
        index += 1


def edit_local(local, cycle: Cycle) -> None:
    """The user's local work on a checked-out Action."""
    with local.transaction():
        action = local.get_object(cycle.action)
        action.find_sub_object("Description").set_value(cycle.value)
        for name in cycle.created:
            data = local.create_object("Data", name)
            local.relate("Read", {"from": data, "by": action})


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def build_template(path: Path, seed: int, sizes: WireSizes) -> list[str]:
    """Generate the spec into a fresh journal, checkpoint and compact it.

    Returns the action names.
    """
    from repro.core.storage import JournaledDatabase
    from repro.spades import SpadesTool, spades_schema
    from repro.workloads import SpecShape, generate_spec, load_into_spades

    # one note per item and no keywords: the object count, and so the
    # cost of everything O(master), does not depend on the seed
    spec = generate_spec(
        SpecShape(
            actions=sizes.actions, data=sizes.data, flows=sizes.flows,
            notes_per_item=1.0, keywords_per_data=0.0,
        ),
        seed=seed,
    )
    journal = JournaledDatabase.open(path, schema=spades_schema(), name="spec")
    load_into_spades(spec, SpadesTool(db=journal.db))
    journal.checkpoint()
    journal.compact()
    return list(spec.action_names)


def setup(
    work: Path, seed: int, sizes: WireSizes
) -> tuple[Path, list[str]]:
    """Build the template journal under *work*; returns it and the actions."""
    template = work / "template.journal"
    return template, build_template(template, seed, sizes)


def rebuild_seconds(work: Path, seed: int, sizes: WireSizes) -> float:
    """Seconds to build a throwaway template: one ``setup_s`` sample.

    The build runs in a fresh interpreter, as a first set-up does.
    Inside the benchmark process it would also pay for collections that
    traverse the live session's heap, which grows with the ops the
    loop managed.
    """
    path = work / "rebuild.journal"
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "build", str(path),
         str(seed), str(sizes.actions), str(sizes.data), str(sizes.flows)],
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=ROOT,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"template build failed: {proc.stdout}{proc.stderr}")
    path.unlink()
    return float(proc.stdout.split()[-1])


# ---------------------------------------------------------------------------
# the served loop
# ---------------------------------------------------------------------------

class Served:
    """A ``repro serve`` child on a copy of the template journal."""

    def __init__(self, journal: Path) -> None:
        self.journal = journal
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(journal),
             "--port", "0", "--maintain-every", "8"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=child_env(),
            cwd=ROOT,
        )
        line = self.proc.stdout.readline()
        match = re.search(r" on ([\d.]+):(\d+) ", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def stop(self) -> str:
        """SIGTERM (graceful drain + final checkpoint); wait for exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, __ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, __ = self.proc.communicate()
        return out or ""


@dataclass
class ClientLog:
    timings: Timings = field(default_factory=Timings)
    cycles: int = 0
    reads: int = 0
    failed: int = 0
    acked: list[Cycle] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def run_client(
    host: str,
    port: int,
    client: int,
    stream: Iterator[Cycle],
    stop: "threading.Event | int",
    start_gate: threading.Barrier,
    log: ClientLog,
) -> None:
    """Closed loop: run cycles until *stop* is set (or a count is done)."""
    from repro.core.errors import SeedError
    from repro.multiuser.service import ServiceClient
    from repro.spades import spades_schema

    with ServiceClient(
        host, port, spades_schema(), client_id=f"client{client}"
    ) as wire:
        start_gate.wait()
        done = 0
        while True:
            if isinstance(stop, int):
                if done >= stop:
                    break
            elif stop.is_set():
                break
            cycle = next(stream)
            done += 1
            try:
                began = time.perf_counter()
                local = wire.check_out(cycle.action)
                checked_out = time.perf_counter()
                log.timings.add("check_out", checked_out - began)
                edit_local(local, cycle)
                began = time.perf_counter()
                wire.check_in()
                log.timings.add("check_in", time.perf_counter() - began)
                log.acked.append(cycle)
                log.cycles += 1
            except (SeedError, OSError) as exc:
                log.failed += 1
                log.errors.append(f"cycle {cycle.action}: {exc}")
                if wire.has_copy:
                    wire.abandon()
                continue
            if cycle.reads:
                time.sleep(cycle.think)
                browse = began = time.perf_counter()
                wire.pin()
                log.timings.add("pin", time.perf_counter() - began)
                for name in cycle.reads:
                    try:
                        began = time.perf_counter()
                        found = wire.find(name)
                        log.timings.add("read", time.perf_counter() - began)
                    except (SeedError, OSError) as exc:
                        log.failed += 1
                        log.errors.append(f"read {name}: {exc}")
                        continue
                    log.reads += 1
                    if found is None or found["name"] != name:
                        log.failed += 1
                        log.errors.append(f"pinned read of {name} got {found}")
                log.timings.add("browse", time.perf_counter() - browse)
        wire.disconnect()


def run_clients(
    server: Served,
    sizes: WireSizes,
    streams: list[Iterator[Cycle]],
    logs: list[ClientLog],
    stop: "threading.Event | int",
    seconds: Optional[float] = None,
) -> float:
    """Run every client until *stop*; returns the seconds they ran.

    With *seconds*, *stop* is an event set once that time has passed;
    otherwise it is the number of cycles each client runs.
    """
    gate = threading.Barrier(sizes.clients + 1)
    threads = [
        threading.Thread(
            target=run_client,
            args=(
                server.host, server.port, client, streams[client], stop,
                gate, logs[client],
            ),
            name=f"wire-client{client}",
        )
        for client in range(sizes.clients)
    ]
    for thread in threads:
        thread.start()
    gate.wait(timeout=120)
    started = time.perf_counter()
    if seconds is not None:
        time.sleep(seconds)
        stop.set()
    for thread in threads:
        thread.join(timeout=300)
    elapsed = time.perf_counter() - started
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("wire client thread did not finish")
    return elapsed


def serve_loop(
    template: Path,
    work: Path,
    seed: int,
    sizes: WireSizes,
    actions: list[str],
    *,
    seconds: Optional[float] = None,
    between: Optional[Callable[[int], None]] = None,
    cycles_per_client: Optional[int] = None,
) -> dict:
    """Serve a copy of *template* and run the clients; returns observations.

    With *seconds*, the window is cut into ``sizes.reopens`` equal
    slices. The clients stop after each slice, and ``between(index)``
    runs while the server is idle, so that the timed work it does
    samples the same stretch of the host's changing speed as the
    loop. With *cycles_per_client*, each client runs that many cycles
    in one go.
    """
    served_path = work / "served.journal"
    durable_copy(template, served_path)
    before = served_path.stat().st_size
    server = Served(served_path)
    logs = [ClientLog() for __ in range(sizes.clients)]
    streams = [
        cycles(seed, client, sizes, actions) for client in range(sizes.clients)
    ]
    try:
        if seconds is None:
            elapsed = run_clients(server, sizes, streams, logs, cycles_per_client)
        else:
            elapsed = 0.0
            for index in range(sizes.reopens):
                elapsed += run_clients(
                    server, sizes, streams, logs, threading.Event(),
                    seconds / sizes.reopens,
                )
                if between is not None:
                    between(index)
        peak = child_peak_rss_mb(server.proc.pid)
        # every acknowledged check-in is fsync'd before its reply: the
        # file copied now is what a crash right here would leave
        snapshot = work / "acked.journal"
        shutil.copyfile(served_path, snapshot)
    finally:
        server_log = server.stop()
    timings = Timings()
    for log in logs:
        for name, values in log.timings.samples.items():
            for value in values:
                timings.add(name, value)
    return {
        "elapsed": elapsed,
        "timings": timings,
        "logs": logs,
        "peak_rss_mb": peak,
        "journal": snapshot,
        "journal_growth": snapshot.stat().st_size - before,
        "server_log": server_log,
    }


# ---------------------------------------------------------------------------
# correctness and reopen
# ---------------------------------------------------------------------------

def verify_acked(path: Path, acked: list[Cycle]) -> list[str]:
    """Every acknowledged check-in is present in a reopen of *path*."""
    problems: list[str] = []
    db = open_quietly(path).db
    last_value: dict[str, str] = {}
    for cycle in acked:
        last_value[cycle.action] = cycle.value
        for name in cycle.created:
            created = db.find_object(name)
            if created is None:
                problems.append(f"acknowledged object {name} missing")
                continue
            readers = {
                str(rel.bound("by").name)
                for rel in db.relationships_of_object(created, "Read")
            }
            if cycle.action not in readers:
                problems.append(
                    f"acknowledged Read {name}->{cycle.action} missing"
                )
    for action, value in last_value.items():
        got = db.get_object(action).find_sub_object("Description").value
        if got != value:
            problems.append(
                f"{action}: description {got!r}, acknowledged {value!r}"
            )
    return problems


def run(
    seed: int, seconds: float, work: Path, sizes: WireSizes = DEFAULT
) -> Result:
    """The untraced end-to-end run."""
    result = Result()
    template, actions = setup(work, seed, sizes)
    setup_times: list[float] = []
    # the served journal grows with every cycle the window managed, so
    # a faster program would reopen a longer journal: time the reopens
    # on a template with a fixed number of cycles instead
    sealed = work / "sealed.journal"
    replay(
        template, sealed, seed, sizes, actions, Tracer(False),
        cycles_per_client=sizes.reopen_cycles,
    )
    reopen_times: list[float] = []
    passes: list[float] = []

    def between(index: int) -> None:
        setup_times.append(rebuild_seconds(work, seed, sizes))
        reopen_times.append(
            timed_reopen(sealed, work / f"reopen{index}.journal", actions[0])
        )
        passes.append(timed_calibration())

    observed = serve_loop(
        template, work, seed, sizes, actions, seconds=seconds, between=between
    )
    timings: Timings = observed["timings"]
    logs: list[ClientLog] = observed["logs"]
    acked = [cycle for log in logs for cycle in log.acked]
    result.attempted = sum(
        log.cycles + log.reads + log.failed for log in logs
    )
    result.failed = sum(log.failed for log in logs)
    for log in logs:
        for error in log.errors[:5]:
            result.problem(error)
    result.metric("setup_s", median(setup_times), "s")
    result.metric(
        "ops_per_s", sum(log.cycles for log in logs) / observed["elapsed"], "1/s"
    )
    result.metric("main_op_p50_ms", timings.p50_ms("check_in"), "ms")
    result.metric("main_op_p90_ms", timings.pct_ms("check_in", 0.9), "ms")
    result.metric("side_op_p50_ms", timings.p50_ms("browse"), "ms")
    result.metric("side_op_p90_ms", timings.pct_ms("browse", 0.9), "ms")
    result.metric("ready_s", fmean(reopen_times), "s")
    result.metric("peak_rss_mb", observed["peak_rss_mb"], "MB")
    result.scale_to_reference(passes)
    for name in ("check_in", "check_out", "browse", "pin", "read"):
        result.note(timings.describe(name, (0.5, 0.9, 0.99)))
    result.note(f"setup: {len(setup_times)} template builds {setup_times}")
    result.note(
        f"reopen (open -> first pinned read) of {sealed.stat().st_size} "
        f"bytes, {sizes.clients * sizes.reopen_cycles} check-ins: {reopen_times}"
    )

    journal: Path = observed["journal"]
    for problem in verify_acked(journal, acked):
        result.problem(problem)
    clean, report = fsck_clean(journal)
    if not clean:
        result.problem(f"fsck of the served journal is not clean:\n{report}")
    result.note(
        f"acknowledged check-ins: {len(acked)}; journal grew "
        f"{observed['journal_growth']} bytes "
        f"({observed['journal_growth'] / max(1, len(acked)):.0f} B/check-in)"
    )
    result.note(f"error_rate: {result.failed / max(1, result.attempted)}")
    result.note("server: " + observed["server_log"].strip().replace("\n", " | "))
    return result


# ---------------------------------------------------------------------------
# the traced in-process replay
# ---------------------------------------------------------------------------

def replay(
    template: Path,
    copy: Path,
    seed: int,
    sizes: WireSizes,
    actions: list[str],
    tracer: Tracer,
    cycles_per_client: Optional[int] = None,
) -> dict:
    """Run the seeded cycles in process, in service order, under *tracer*.

    *cycles_per_client* defaults to ``sizes.trace_cycles``. Each call
    the service makes for a request is made here directly (check-out,
    ticket encode/decode, materialize, package build and encode/decode,
    apply, publish, maintenance every 8 accepted check-ins, pin and
    pinned finds), plus one probe: building the version view of the
    version just published.
    """
    from repro.multiuser.checkin import (
        build_package,
        package_from_dict,
        package_to_dict,
    )
    from repro.multiuser.client import materialize_ticket
    from repro.multiuser.protocol import (
        decode_message,
        encode_message,
        ok_response,
        ticket_from_dict,
        ticket_to_dict,
    )
    from repro.multiuser.server import SeedServer
    from repro.multiuser.service import DEFAULT_MAINTAIN_EVERY

    durable_copy(template, copy)
    server = SeedServer.open(copy)
    schema = server.master.schema
    streams = [
        cycles(seed, client, sizes, actions) for client in range(sizes.clients)
    ]
    tokens = [
        server.open_session(f"client{client}").token
        for client in range(sizes.clients)
    ]
    span = tracer.span
    accepted = 0
    ops = {"cycles": 0, "reads": 0, "maintain_runs": 0}
    started = time.perf_counter()
    if cycles_per_client is None:
        cycles_per_client = sizes.trace_cycles
    for __ in range(cycles_per_client):
        for client in range(sizes.clients):
            cycle = next(streams[client])
            token = tokens[client]
            tracer.request()
            with span("cycle"):
                with span("check_out"):
                    with span("multiuser.server.check_out"):
                        ticket = server.check_out(token, [cycle.action])
                    with span("multiuser.protocol.encode"):
                        frame = encode_message(
                            ok_response({"ticket": ticket_to_dict(ticket)})
                        )
                    with span("multiuser.protocol.decode"):
                        ticket = ticket_from_dict(
                            decode_message(frame)["result"]["ticket"]
                        )
                    with span("multiuser.client.materialize"):
                        local = materialize_ticket(schema, "local", ticket)
                edit_local(local, cycle)
                with span("check_in"):
                    with span("multiuser.checkin.build_package"):
                        package = build_package(
                            local, dict(ticket.objects),
                            dict(ticket.relationships),
                        )
                    with span("multiuser.protocol.encode"):
                        frame = encode_message(
                            {"op": "check_in", "token": token,
                             "package": package_to_dict(package)}
                        )
                    with span("multiuser.protocol.decode"):
                        package = package_from_dict(
                            decode_message(frame)["package"]
                        )
                    with span("multiuser.server.apply_check_in"):
                        server.apply_check_in(token, package)
                    with span("multiuser.server.publish_snapshot"):
                        version = server.publish_snapshot()
                with span("core.versions.view_build"):
                    server.master.version_view(version)
                ops["cycles"] += 1
                accepted += 1
                if accepted % DEFAULT_MAINTAIN_EVERY == 0:
                    with span("multiuser.server.maintain"):
                        server.maintain()
                    ops["maintain_runs"] += 1
            if cycle.reads:
                tracer.request()
                with span("read"):
                    with span("multiuser.server.pin"):
                        pinned = str(server.publish_snapshot())
                    for name in cycle.reads:
                        with span("core.versions.view_find"):
                            found = server.snapshot(pinned, build=False).find(name)
                        if found is None:
                            raise RuntimeError(f"pinned find lost {name}")
                        ops["reads"] += 1
    ops["elapsed"] = time.perf_counter() - started
    ops["journal_bytes"] = copy.stat().st_size
    return ops


def run_traced(
    seed: int, seconds: float, work: Path, sizes: WireSizes = DEFAULT
) -> Result:
    """The traced run: wire reference, then untraced and traced replays."""
    from common import GcWatch

    result = Result()
    template, actions = setup(work, seed, sizes)
    observed = serve_loop(
        template, work, seed, sizes, actions,
        cycles_per_client=sizes.trace_cycles,
    )
    wire: Timings = observed["timings"]
    logs: list[ClientLog] = observed["logs"]
    result.failed = sum(log.failed for log in logs)
    for log in logs:
        for error in log.errors[:5]:
            result.problem(error)

    gc.collect()
    plain = replay(
        template, work / "plain.journal", seed, sizes, actions, Tracer(False)
    )
    tracer = Tracer(True)
    gc_watch = GcWatch()
    gc.collect()
    with gc_watch.watching():
        traced = replay(
            template, work / "traced.journal", seed, sizes, actions, tracer
        )
    gc.collect()
    after = replay(
        template, work / "after.journal", seed, sizes, actions, Tracer(False)
    )
    for key in ("cycles", "reads", "maintain_runs", "journal_bytes"):
        if not plain[key] == traced[key] == after[key]:
            result.problem(
                f"traced and untraced replays differ in {key}: "
                f"{plain[key]} vs {traced[key]}"
            )
    result.attempted = (
        sum(log.cycles + log.reads + log.failed for log in logs)
        + 3 * (traced["cycles"] + traced["reads"])
    )
    per_request = _per_request(tracer)
    checkout_inproc = per_request["check_out"]
    checkin_inproc = per_request["check_in"]
    d = tracer.durations
    layer = {
        "multiuser.server.check_out_ms": mean_ms(d("multiuser.server.check_out")),
        "multiuser.service.queue_wait_ms": (
            1000.0 * percentile(wire.samples["check_out"], 0.5)
            - median_ms(checkout_inproc)
        ),
        "multiuser.protocol.encode_ms": mean_ms(d("multiuser.protocol.encode")),
        "multiuser.protocol.decode_ms": mean_ms(d("multiuser.protocol.decode")),
        "multiuser.client.materialize_ms": mean_ms(
            d("multiuser.client.materialize")
        ),
        "multiuser.checkin.build_package_ms": mean_ms(
            d("multiuser.checkin.build_package")
        ),
        "multiuser.server.apply_check_in_ms": mean_ms(
            d("multiuser.server.apply_check_in")
        ),
        "multiuser.server.publish_snapshot_ms": mean_ms(
            d("multiuser.server.publish_snapshot")
        ),
        "core.versions.view_build_ms": mean_ms(d("core.versions.view_build")),
        "multiuser.server.maintain_ms": mean_ms(d("multiuser.server.maintain")),
        "multiuser.server.maintain_runs": float(traced["maintain_runs"]),
        "core.versions.view_find_ms": mean_ms(d("core.versions.view_find")),
        "multiuser.service.wire_overhead_ms": (
            1000.0 * percentile(wire.samples["check_in"], 0.5)
            - median_ms(checkin_inproc)
        ),
        "gc.pause_ms": 1000.0 * gc_watch.pause_s,
        "gc.collections": float(gc_watch.collections),
        "trace.overhead_pct": overhead_pct(
            traced["elapsed"], [plain["elapsed"], after["elapsed"]]
        ),
    }
    acked = sum(log.cycles for log in logs)
    for family, size in journal_bytes_by_kind(observed["journal"]).items():
        layer[f"core.storage.bytes.{family}"] = size / max(1, acked)
    for name, value in layer.items():
        result.metric(name, value, _unit(name))
    result.note(
        f"wire reference: {acked} cycles; "
        + wire.describe("check_in", (0.5,)) + "; "
        + wire.describe("check_out", (0.5,))
    )
    result.note(
        f"replay: {traced['cycles']} cycles, {traced['reads']} reads; "
        f"untraced {plain['elapsed']:.3f}s, traced {traced['elapsed']:.3f}s"
    )
    result.note(tracer.render_self_times())
    spans_path, table_path = tracer.write(f"wire_edit-seed{seed}")
    result.note(f"spans: {spans_path}; self-time table: {table_path}")
    return result


def _per_request(tracer: Tracer) -> dict[str, list[float]]:
    """Durations of the ``check_out``/``check_in`` request-level spans."""
    found: dict[str, list[float]] = {"check_out": [], "check_in": []}
    for __, name, start, end, __p, __r in tracer.spans:
        if name in found:
            found[name].append(end - start)
    return found


def _unit(name: str) -> str:
    if name.startswith("core.storage.bytes."):
        return "B/op"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    return "count"


if __name__ == "__main__":
    # ``wire_edit.py build <journal> <seed> <actions> <data> <flows>``: the
    # child side of rebuild_seconds; prints the seconds the build took
    if sys.argv[1:2] != ["build"] or len(sys.argv) != 7:
        raise SystemExit(
            "usage: wire_edit.py build <journal> <seed> <actions> <data> <flows>"
        )
    from common import ensure_program

    ensure_program()
    # imported before the clock starts, as in a process that set up before
    import repro.spades  # noqa: F401
    import repro.workloads  # noqa: F401
    from repro.core.storage import JournaledDatabase  # noqa: F401

    built = WireSizes(
        actions=int(sys.argv[4]), data=int(sys.argv[5]), flows=int(sys.argv[6])
    )
    gc.collect()
    begun = time.perf_counter()
    build_template(Path(sys.argv[2]), int(sys.argv[3]), built)
    print(repr(time.perf_counter() - begun))
