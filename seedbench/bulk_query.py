"""Workload ``bulk_query``: bulk load, then a planned query mix, in memory.

A seeded Doc/Code/Note population (no journal) whose Note extent is
above ``ParallelConfig().threshold``, so the default config takes the
parallel path, is ``bulk_load``-ed afresh in each of ``setups`` rounds.
In each round a single-thread closed loop then runs, for an equal
slice of the window, one selective multi-join — "codes mentioned by
docs covered by notes tagged T" for T drawn from a fixed pool, so the
plan cache both misses (first use of a tag) and hits — followed by
``lookups_per_join`` name-prefix lookups from a fixed prefix pool, the
control. Every result is checked against an oracle computed from the
generated population.
"""

from __future__ import annotations

import bisect
import gc
import random
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean
from typing import Iterator

from common import (
    GcWatch,
    Result,
    Timings,
    Tracer,
    mean_ms,
    median,
    overhead_pct,
    peak_rss_mb,
    timed_calibration,
)

FLUSH_POLICY = "none (in memory, no journal)"


@dataclass(frozen=True)
class BulkSizes:
    #: above ParallelConfig().threshold (100k), so joins take the
    #: parallel path; the rest is kept small, since every round loads
    #: the whole population again
    notes: int = 105_000
    docs: int = 8_000
    codes: int = 8_000
    mentions_per_doc: int = 4
    tags: int = 997
    tag_pool: int = 48
    prefix_pool: int = 16
    lookups_per_join: int = 48
    #: lookups per timed burst (the gated side op); a single lookup's
    #: tail follows GC and the parallel pool winding down after a join
    burst: int = 8
    #: rounds of the run: each a bulk load, its first joins and an equal
    #: slice of the query loop's window
    setups: int = 3
    #: joins timed for ready_s after each load, one per tag of the pool
    first_joins: int = 8
    #: serial-vs-default row checks after the timed loop
    serial_checks: int = 6
    #: query steps (one join + its lookups) in each traced-run pass
    trace_steps: int = 30


DEFAULT = BulkSizes()
TOY = BulkSizes(
    notes=3000, docs=300, codes=300, tag_pool=8, prefix_pool=8,
    setups=1, first_joins=2, serial_checks=2, trace_steps=6,
)


def bench_schema():
    """Value-typed notes over a doc/code web."""
    from repro.core import SchemaBuilder

    builder = SchemaBuilder("bulkq")
    builder.entity_class("Doc")
    builder.entity_class("Code")
    builder.entity_class("Note", sort="STRING")
    builder.association(
        "Mentions", ("doc", "Doc", "0..*"), ("code", "Code", "0..*")
    )
    builder.association(
        "Covers", ("note", "Note", "0..*"), ("doc", "Doc", "0..*")
    )
    return builder.build()


class Population:
    """The seeded inputs: bulk-load specs plus the query oracles."""

    def __init__(self, seed: int, sizes: BulkSizes) -> None:
        rng = random.Random(seed)
        note_tag = [f"tag{rng.randrange(sizes.tags)}" for __ in range(sizes.notes)]
        note_doc = [rng.randrange(sizes.docs) for __ in range(sizes.notes)]
        doc_codes = [
            sorted({rng.randrange(sizes.codes) for __ in range(sizes.mentions_per_doc)})
            for __ in range(sizes.docs)
        ]
        self.objects = (
            [{"class": "Doc", "name": f"Doc{i}"} for i in range(sizes.docs)]
            + [{"class": "Code", "name": f"Code{i}"} for i in range(sizes.codes)]
            + [
                {"class": "Note", "name": f"Note{i}", "value": note_tag[i]}
                for i in range(sizes.notes)
            ]
        )
        self.relationships = [
            {"association": "Mentions",
             "bindings": {"doc": f"Doc{d}", "code": f"Code{c}"}}
            for d, codes in enumerate(doc_codes)
            for c in codes
        ] + [
            {"association": "Covers",
             "bindings": {"note": f"Note{i}", "doc": f"Doc{note_doc[i]}"}}
            for i in range(sizes.notes)
        ]
        self.items = len(self.objects) + len(self.relationships)
        used_tags = sorted(set(note_tag))
        self.tag_pool = rng.sample(used_tags, min(sizes.tag_pool, len(used_tags)))
        wanted = set(self.tag_pool)
        docs_of_tag: dict[str, set[int]] = {tag: set() for tag in wanted}
        for i, tag in enumerate(note_tag):
            if tag in wanted:
                docs_of_tag[tag].add(note_doc[i])
        #: tag -> code names the multi-join must return
        self.join_oracle = {
            tag: {f"Code{c}" for d in docs for c in doc_codes[d]}
            for tag, docs in docs_of_tag.items()
        }
        # a prefix p with notes <= 100p and 10p + 9 < notes matches
        # exactly 11 names (Note<p> and Note<p>0..9), so every seed's
        # lookups do the same work
        self.prefix_pool = [
            f"Note{rng.randrange(-(-sizes.notes // 100), sizes.notes // 10)}"
            for __ in range(sizes.prefix_pool)
        ]
        names = sorted(f"Note{i}" for i in range(sizes.notes))
        #: prefix -> note names the lookup must return
        self.lookup_oracle = {}
        for prefix in self.prefix_pool:
            low = bisect.bisect_left(names, prefix)
            high = bisect.bisect_left(names, prefix + "\U0010ffff")
            self.lookup_oracle[prefix] = set(names[low:high])


def steps(seed: int, population: Population, sizes: BulkSizes) -> Iterator[tuple[str, list[str]]]:
    """The endless, seeded query stream: (tag, lookup prefixes) per step."""
    rng = random.Random(seed * 7919 + 1)
    while True:
        yield (
            rng.choice(population.tag_pool),
            [rng.choice(population.prefix_pool) for __ in range(sizes.lookups_per_join)],
        )


def join_plan(db, tag: str):
    from repro.core.query import on, plan
    from repro.core.query.predicates import value_is

    return (
        plan(db)
        .extent("Note", column="note")
        .select(on("note", value_is(tag)))
        .join(plan(db).relationship("Covers"))
        .join(plan(db).relationship("Mentions"))
        .project("code")
    )


def lookup_plan(db, prefix: str):
    from repro.core.query import on, plan
    from repro.core.query.predicates import name_prefix

    return plan(db).extent("Note", column="note").select(
        on("note", name_prefix(prefix))
    )


def names_of(relation, column: str) -> list[str]:
    return [str(obj.name) for obj in relation.column(column)]


def load(population: Population):
    from repro.core.database import SeedDatabase

    db = SeedDatabase(bench_schema(), "bulkq")
    db.bulk_load(objects=population.objects, relationships=population.relationships)
    return db


def check_join(population: Population, tag: str, codes: list[str]) -> str | None:
    expected = population.join_oracle[tag]
    if len(codes) != len(set(codes)) or set(codes) != expected:
        return (
            f"join for {tag}: {len(codes)} rows, oracle has {len(expected)}"
        )
    return None


def check_lookup(population: Population, prefix: str, names: list[str]) -> str | None:
    expected = population.lookup_oracle[prefix]
    if len(names) != len(set(names)) or set(names) != expected:
        return f"lookup {prefix}: {sorted(names)} != oracle {sorted(expected)}"
    return None


def reap_workers() -> None:
    """Join worker processes the parallel executor left behind."""
    import multiprocessing

    for child in multiprocessing.active_children():
        child.join(timeout=30)


def query_slice(
    db, population: Population, stream, config, sizes: BulkSizes,
    seconds: float, timings: Timings, failures: list[str],
) -> tuple[int, float]:
    """The closed query loop on *db* for *seconds*; (queries, elapsed)."""
    queries = 0
    deadline = time.perf_counter() + seconds
    started = time.perf_counter()
    while time.perf_counter() < deadline:
        tag, prefixes = next(stream)
        began = time.perf_counter()
        rows = join_plan(db, tag).execute(parallel=config)
        timings.add("join", time.perf_counter() - began)
        queries += 1
        problem = check_join(population, tag, names_of(rows, "code"))
        if problem:
            failures.append(problem)
        burst = 0.0
        for index, prefix in enumerate(prefixes):
            began = time.perf_counter()
            rows = lookup_plan(db, prefix).execute(parallel=config)
            took = time.perf_counter() - began
            timings.add("lookup", took)
            # a burst's latency is the sum of its lookups, not counting
            # the oracle checks between them
            burst += took
            if index % sizes.burst == sizes.burst - 1:
                timings.add("burst", burst)
                burst = 0.0
            queries += 1
            problem = check_lookup(population, prefix, names_of(rows, "note"))
            if problem:
                failures.append(problem)
    return queries, time.perf_counter() - started


def run(seed: int, seconds: float, work: Path, sizes: BulkSizes = DEFAULT) -> Result:
    from repro.core.query import ParallelConfig

    result = Result()
    population = Population(seed, sizes)
    config = ParallelConfig()
    stream = steps(seed, population, sizes)
    timings = Timings()
    failures: list[str] = []

    # `setups` rounds, each a fresh bulk_load, its first joins (one per
    # tag of the pool's first `first_joins`, so each plans from a cold
    # cache) and an equal slice of the window on that database.
    # setup_s is the median load; ready_s the mean first join. The load
    # is left out of ready_s: it is the most memory-bound step of all,
    # and in runs where the host was slow throughout, it slowed by up to
    # 45% against 7% for the joins.
    loads, readies, passes = [], [], []
    queries = 0
    elapsed = 0.0
    for __ in range(sizes.setups):
        db = first = None
        gc.collect()
        passes.append(timed_calibration())
        start = time.perf_counter()
        db = load(population)
        loads.append(time.perf_counter() - start)
        for tag in population.tag_pool[: sizes.first_joins]:
            began = time.perf_counter()
            first = join_plan(db, tag).execute(parallel=config)
            readies.append(time.perf_counter() - began)
            queries += 1
            problem = check_join(population, tag, names_of(first, "code"))
            if problem:
                failures.append(problem)
        done, took = query_slice(
            db, population, stream, config, sizes, seconds / sizes.setups,
            timings, failures,
        )
        queries += done
        elapsed += took
        passes.append(timed_calibration())
    result.metric("setup_s", median(loads), "s")
    result.metric("ready_s", fmean(readies), "s")
    result.note(
        f"bulk_load of {population.items} items: {loads} s "
        f"({population.items / median(loads):.0f} items/s at the median); "
        f"first joins after the loads: {readies} s"
    )

    # serial rows must equal default-config rows (outside the timed loop)
    for tag in population.tag_pool[: sizes.serial_checks]:
        serial = sorted(names_of(join_plan(db, tag).execute(parallel=None), "code"))
        default = sorted(names_of(join_plan(db, tag).execute(parallel=config), "code"))
        queries += 2
        if serial != default:
            failures.append(f"serial and default-config rows differ for {tag}")
    reap_workers()

    result.attempted = queries
    result.failed = len(failures)
    for problem in failures[:10]:
        result.problem(problem)
    result.metric("ops_per_s", (timings.count("join") + timings.count("lookup")) / elapsed, "1/s")
    result.metric("main_op_p50_ms", timings.p50_ms("join"), "ms")
    result.metric("main_op_p90_ms", timings.pct_ms("join", 0.9), "ms")
    result.metric("side_op_p50_ms", timings.p50_ms("burst"), "ms")
    result.metric("side_op_p90_ms", timings.pct_ms("burst", 0.9), "ms")
    result.metric("peak_rss_mb", peak_rss_mb(), "MB")
    result.scale_to_reference(passes)
    for name in ("join", "burst", "lookup"):
        result.note(timings.describe(name, (0.5, 0.9, 0.99)))
    result.note(f"parallel backend: {config.resolved_backend()}")
    result.note(f"error_rate: {result.failed / max(1, result.attempted)}")
    return result


def query_pass(db, population, seed, sizes, tracer: Tracer) -> dict:
    """A fixed number of query steps; each join runs serial and default."""
    from repro.core.query import ParallelConfig
    from repro.core.query.parallel import stats as parallel_stats
    from repro.core.query.planner import execute_node, plan_cache

    config = ParallelConfig()
    cache = plan_cache(db)
    cache.clear()
    before = (cache.hits, cache.misses, cache.reoptimizations)
    dispatched = parallel_stats.dispatched_shards
    stream = steps(seed, population, sizes)
    span = tracer.span
    failures: list[str] = []
    counts = {"joins": 0, "lookups": 0}
    gc.collect()
    started = time.perf_counter()
    for __ in range(sizes.trace_steps):
        tag, prefixes = next(stream)
        tracer.request()
        query = join_plan(db, tag)
        with span("join"):
            with span("core.query.planner.optimize"):
                node = query.optimized(parallel=config)
            with span("core.query.parallel.execute"):
                default = execute_node(db, node)
            with span("core.query.planner.optimize"):
                serial_node = query.optimized(parallel=None)
            with span("core.query.planner.execute"):
                serial = execute_node(db, serial_node)
        counts["joins"] += 1
        codes = names_of(default, "code")
        problem = check_join(population, tag, codes)
        if problem:
            failures.append(problem)
        if sorted(codes) != sorted(names_of(serial, "code")):
            failures.append(f"serial and default-config rows differ for {tag}")
        for prefix in prefixes:
            tracer.request()
            with span("lookup"):
                with span("core.query.planner.optimize"):
                    node = lookup_plan(db, prefix).optimized(parallel=config)
                with span("core.query.planner.execute"):
                    rows = execute_node(db, node)
                with span("core.indexes.lookup"):
                    db.indexes.names_with_prefix(prefix)
            counts["lookups"] += 1
            problem = check_lookup(population, prefix, names_of(rows, "note"))
            if problem:
                failures.append(problem)
    counts["elapsed"] = time.perf_counter() - started
    hits = cache.hits - before[0]
    lookups = hits + (cache.misses - before[1]) + (cache.reoptimizations - before[2])
    counts["hit_ratio"] = hits / lookups if lookups else 0.0
    counts["dispatched"] = parallel_stats.dispatched_shards - dispatched
    counts["failures"] = failures
    return counts


def run_traced(seed: int, seconds: float, work: Path, sizes: BulkSizes = DEFAULT) -> Result:
    from repro.core.query import ParallelConfig

    result = Result()
    population = Population(seed, sizes)
    tracer = Tracer(True)
    load_gc = GcWatch()
    gc.collect()
    with load_gc.watching(), tracer.span("core.database.bulk_load"):
        db = load(population)
    plain = query_pass(db, population, seed, sizes, Tracer(False))
    query_gc = GcWatch()
    with query_gc.watching():
        traced = query_pass(db, population, seed, sizes, tracer)
    after = query_pass(db, population, seed, sizes, Tracer(False))
    reap_workers()
    failures = plain["failures"] + traced["failures"] + after["failures"]
    for key in ("joins", "lookups", "dispatched"):
        if not plain[key] == traced[key] == after[key]:
            failures.append(f"traced and untraced passes differ in {key}")
    # each join runs on both configs (two queries), each lookup once
    result.attempted = 1 + 3 * (2 * traced["joins"] + traced["lookups"])
    result.failed = len(failures)
    for problem in failures[:10]:
        result.problem(problem)
    d = tracer.durations
    bulk_s = d("core.database.bulk_load")[0]
    layer = {
        "core.database.bulk_load_s": (bulk_s, "s"),
        "gc.pause_ms": (1000.0 * load_gc.pause_s, "ms"),
        "gc.collections": (float(load_gc.collections), "count"),
        "core.query.planner.optimize_ms": (mean_ms(d("core.query.planner.optimize")), "ms"),
        "core.query.planner.plan_cache_hit_ratio": (traced["hit_ratio"], "ratio"),
        "core.query.planner.execute_ms": (
            mean_ms(_inside(tracer, "join", "core.query.planner.execute")), "ms"
        ),
        "core.query.parallel.execute_ms": (mean_ms(d("core.query.parallel.execute")), "ms"),
        "core.query.parallel.dispatched_shards": (float(traced["dispatched"]), "count"),
        "core.indexes.lookup_ms": (mean_ms(d("core.indexes.lookup")), "ms"),
        "trace.overhead_pct": (
            overhead_pct(traced["elapsed"], [plain["elapsed"], after["elapsed"]]), "%"
        ),
    }
    for name, (value, unit) in layer.items():
        result.metric(name, value, unit)
    result.note(
        f"bulk_load {population.items} items: {bulk_s:.3f}s, GC "
        f"{load_gc.pause_s:.3f}s in {load_gc.collections} collections; "
        f"query-pass GC {query_gc.pause_s:.3f}s"
    )
    result.note(f"parallel backend: {ParallelConfig().resolved_backend()}")
    result.note(
        f"passes: {traced['joins']} joins, {traced['lookups']} lookups; "
        f"untraced {plain['elapsed']:.3f}s, traced {traced['elapsed']:.3f}s"
    )
    result.note(tracer.render_self_times())
    spans_path, table_path = tracer.write(f"bulk_query-seed{seed}")
    result.note(f"spans: {spans_path}; self-time table: {table_path}")
    return result


def _inside(tracer: Tracer, parent_name: str, name: str) -> list[float]:
    """Durations of *name* spans whose parent span is a *parent_name*."""
    parents = {span_id for span_id, n, *__ in tracer.spans if n == parent_name}
    return [
        end - start
        for __, n, start, end, parent, __r in tracer.spans
        if n == name and parent in parents
    ]
