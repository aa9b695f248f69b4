"""The benchmark's own tests, at toy sizes.

* every metric ``BENCHMARK.json`` names is printed, with its unit, by
  every workload in the matching trace mode;
* each correctness check fails on a planted fault;
* the traced and untraced passes execute the same seeded op sequence.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bulk_query  # noqa: E402
import commit_reopen  # noqa: E402
import common  # noqa: E402
import wire_edit  # noqa: E402
from common import Tracer  # noqa: E402

common.ensure_program()

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def run_toy(workload: str, trace: int) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--toy"],
        capture_output=True, text=True, timeout=300, cwd=HERE.parent,
    )
    return proc.returncode, proc.stdout.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    code, lines = run_toy(workload, trace)
    assert code == 0, "\n".join(lines)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in wanted}
    for metric in wanted:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float)
        assert f"metric {metric['name']} = " in "\n".join(lines)


def test_missing_program_exits_nonzero_without_result(tmp_path):
    bench = tmp_path / "seedbench"
    bench.mkdir()
    for source in HERE.glob("*.py"):
        (bench / source.name).write_text(source.read_text())
    proc = subprocess.run(
        [sys.executable, "seedbench/run.py", "--workload", "wire_edit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_failed_check_makes_exit_status_nonzero(capsys):
    result = common.Result()
    result.attempted = 1
    result.problem("planted")
    assert result.emit({}) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is False


# -- planted faults -----------------------------------------------------------

def truncate_before_last(path: Path, kind: str, target: Path) -> None:
    """Copy *path* cut at the start of its last record of *kind*."""
    from repro.core.storage import RecordFile

    offset = max(
        event.offset
        for event in RecordFile(path).scan()
        if event.kind == "record" and event.record.get("kind") == kind
    )
    target.write_bytes(path.read_bytes()[:offset])


def test_wire_edit_check_fails_on_journal_truncated_before_last_checkin(tmp_path):
    sizes = wire_edit.TOY
    template, actions = wire_edit.setup(tmp_path, 3, sizes)
    observed = wire_edit.serve_loop(
        template, tmp_path, 3, sizes, actions, cycles_per_client=3
    )
    acked = [cycle for log in observed["logs"] for cycle in log.acked]
    assert len(acked) == 6
    journal = observed["journal"]
    assert wire_edit.verify_acked(journal, acked) == []
    assert common.fsck_clean(journal)[0]
    truncated = tmp_path / "truncated.journal"
    truncate_before_last(journal, "checkin", truncated)
    assert wire_edit.verify_acked(truncated, acked)


def test_commit_reopen_check_fails_on_journal_truncated_before_last_checkin(tmp_path):
    sizes = commit_reopen.TOY
    template, actions = wire_edit.setup(tmp_path, 3, sizes)
    sealed = tmp_path / "sealed.journal"
    expected = commit_reopen.reopen_template(template, sealed, 3, sizes, actions)
    assert commit_reopen.verify_reopen(sealed, expected) == []
    truncated = tmp_path / "truncated.journal"
    truncate_before_last(sealed, "checkin", truncated)
    assert commit_reopen.verify_reopen(truncated, expected)


def test_bulk_query_check_fails_on_tampered_oracle_row():
    sizes = bulk_query.TOY
    population = bulk_query.Population(3, sizes)
    db = bulk_query.load(population)
    tag = population.tag_pool[0]
    codes = bulk_query.names_of(bulk_query.join_plan(db, tag).execute(), "code")
    assert bulk_query.check_join(population, tag, codes) is None
    population.join_oracle[tag] = set(population.join_oracle[tag]) - {codes[0]}
    assert bulk_query.check_join(population, tag, codes)
    prefix = population.prefix_pool[0]
    names = bulk_query.names_of(
        bulk_query.lookup_plan(db, prefix).execute(), "note"
    )
    assert bulk_query.check_lookup(population, prefix, names) is None
    population.lookup_oracle[prefix] = set(population.lookup_oracle[prefix]) | {"Note0x"}
    assert bulk_query.check_lookup(population, prefix, names)


# -- traced and untraced passes do the same work ---------------------------

def test_wire_edit_traced_and_untraced_replays_match(tmp_path):
    sizes = wire_edit.TOY
    template, actions = wire_edit.setup(tmp_path, 5, sizes)
    plain = wire_edit.replay(
        template, tmp_path / "a.journal", 5, sizes, actions, Tracer(False)
    )
    tracer = Tracer(True)
    traced = wire_edit.replay(
        template, tmp_path / "b.journal", 5, sizes, actions, tracer
    )
    for key in ("cycles", "reads", "maintain_runs", "journal_bytes"):
        assert plain[key] == traced[key], key
    assert plain["cycles"] == sizes.clients * sizes.trace_cycles
    assert tracer.spans
    spans = {span[1] for span in tracer.spans}
    assert "multiuser.server.apply_check_in" in spans


def test_commit_reopen_traced_and_untraced_passes_match(tmp_path):
    sizes = commit_reopen.TOY
    template, actions = wire_edit.setup(tmp_path, 5, sizes)
    plain = commit_reopen.traced_pass(
        template, tmp_path, "plain", 5, sizes, actions, Tracer(False)
    )
    traced = commit_reopen.traced_pass(
        template, tmp_path, "traced", 5, sizes, actions, Tracer(True)
    )
    for key in ("txn", "checkin", "final_bytes"):
        assert plain[key] == traced[key], key
    assert plain["final"].read_bytes() == traced["final"].read_bytes()


def test_bulk_query_traced_and_untraced_passes_match():
    sizes = bulk_query.TOY
    population = bulk_query.Population(5, sizes)
    db = bulk_query.load(population)
    plain = bulk_query.query_pass(db, population, 5, sizes, Tracer(False))
    traced = bulk_query.query_pass(db, population, 5, sizes, Tracer(True))
    for key in ("joins", "lookups", "dispatched", "hit_ratio"):
        assert plain[key] == traced[key], key
    assert plain["failures"] == traced["failures"] == []


def test_self_time_subtracts_children():
    tracer = Tracer(True)
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    table = tracer.self_times()
    outer, inner = table["outer"], table["inner"]
    assert outer["total_s"] >= inner["total_s"]
    assert outer["self_s"] == pytest.approx(outer["total_s"] - inner["total_s"])


def test_percentile_is_nearest_rank():
    samples = [float(value) for value in range(1, 101)]
    assert common.percentile(samples, 0.5) == 50.0
    assert common.percentile(samples, 0.9) == 90.0
    assert common.beyond(samples, 0.9) == 10

