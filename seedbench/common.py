"""Shared pieces of the end-to-end benchmark: timers, spans, results.

Everything here is measurement plumbing owned by the benchmark; the
program under test (``src/repro``) is only ever called through its
public functions, and spans are recorded around those calls.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import shutil
import sys
import sysconfig
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Optional

#: the checkout the benchmark runs in (parent of this directory)
ROOT = Path(__file__).resolve().parent.parent
#: the program's sources, imported from the checkout itself
SRC = ROOT / "src"
#: scratch space for journals, spans and fingerprints (git-ignored)
WORK = ROOT / ".seedbench_work"

FSYNC_NOTE = (
    "fsync latency is the container's (virtual disk under the page cache),"
    " not a storage device's"
)


def ensure_program() -> None:
    """Put ``src/`` on the import path, or fail without a result."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"seedbench: program sources not found under {SRC} "
            "(run from the root of a full checkout)"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    env["PYTHONUNBUFFERED"] = "1"  # the serve banner must arrive unbuffered
    return env


@contextmanager
def work_dir(tag: str) -> Iterator[Path]:
    """A fresh scratch directory under the checkout, removed afterwards."""
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(samples: list[float]) -> float:
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


#: samples per chunk of :func:`chunked_median`: enough for a steady
#: median, few enough that most chunks fall within one stretch of
#: steady host speed
CHUNK = 100


def chunked_median(samples: list[float]) -> float:
    """Mean of the medians of consecutive chunks of about ``CHUNK`` samples.

    On a shared 2-vCPU virtual machine the same pure-Python work ran at
    speeds up to 1.7x apart, switching every few seconds. A median
    pooled over a whole run lands on whichever speed held more of the
    run's samples, so between runs it jumped from one speed to the
    other. A chunk of consecutive samples mostly falls within one
    stretch of steady speed, and the mean of the chunk medians moves
    only in proportion to the time spent at each speed. With fewer than
    two chunks' worth it is the plain median.
    """
    chunks = max(1, len(samples) // CHUNK)
    size = len(samples) / chunks
    return sum(
        median(samples[round(index * size):round((index + 1) * size)])
        for index in range(chunks)
    ) / chunks


def beyond(samples: list[float], q: float) -> int:
    """Samples strictly above the ``q`` percentile rank (tail support)."""
    return len(samples) - max(1, math.ceil(q * len(samples)))


class Timings:
    """Named latency samples (seconds) of one run."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {}

    def add(self, name: str, seconds: float) -> None:
        self.samples.setdefault(name, []).append(seconds)

    def count(self, name: str) -> int:
        return len(self.samples.get(name, ()))

    def pct_ms(self, name: str, q: float) -> float:
        return percentile(self.samples[name], q) * 1000.0

    def p50_ms(self, name: str) -> float:
        """The gated median: :func:`chunked_median` in the order added.

        That is completion order; on ``wire_edit`` one client's samples
        follow the other's.
        """
        return chunked_median(self.samples[name]) * 1000.0

    def describe(self, name: str, qs: tuple[float, ...]) -> str:
        """``name: n=.. p50=..ms (k beyond) ...`` for the human log."""
        values = self.samples.get(name, [])
        parts = [f"{name}: n={len(values)}"]
        for q in qs:
            if values:
                parts.append(
                    f"p{round(q * 100)}={percentile(values, q) * 1000:.3f}ms"
                    f" ({beyond(values, q)} beyond)"
                )
        return " ".join(parts)


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_peak_rss_mb(pid: int) -> float:
    """Peak resident set size of a live child process (``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory spans recorded around calls into the program's layers.

    A span is ``(id, name, start, end, parent, request)``: *parent* is
    the enclosing span's id (0 at top level) and *request* groups the
    spans of one logical operation (one edit cycle, one query). A
    disabled tracer's :meth:`span` is a shared no-op context, so the
    untraced pass runs the same calls with one attribute check each.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self._stack: list[int] = []
        self._request = 0
        self._next_id = 1

    def request(self) -> int:
        """Start a new request id for the spans that follow."""
        self._request += 1
        return self._request

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(
                (span_id, name, start, end, parent, self._request)
            )

    def durations(self, name: str) -> list[float]:
        return [end - start for __, n, start, end, __p, __r in self.spans if n == name]

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds (minus children)."""
        child_time: dict[int, float] = {}
        for __, __n, start, end, parent, __r in self.spans:
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        table: dict[str, dict[str, float]] = {}
        for span_id, name, start, end, __p, __r in self.spans:
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child_time.get(span_id, 0.0)
        return table

    def write(self, stem: str) -> tuple[Path, Path]:
        """Write spans (JSON lines) and the self-time table; returns paths."""
        out = WORK / "trace"
        out.mkdir(parents=True, exist_ok=True)
        spans_path = out / f"{stem}.spans.jsonl"
        table_path = out / f"{stem}.selftime.json"
        with open(spans_path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, request in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )
        table_path.write_text(
            json.dumps(self.self_times(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return spans_path, table_path

    def render_self_times(self) -> str:
        rows = sorted(
            self.self_times().items(), key=lambda item: -item[1]["self_s"]
        )
        lines = [f"{'span':<44} {'calls':>7} {'total_s':>10} {'self_s':>10}"]
        for name, row in rows:
            lines.append(
                f"{name:<44} {row['calls']:>7} {row['total_s']:>10.4f} "
                f"{row['self_s']:>10.4f}"
            )
        return "\n".join(lines)


def overhead_pct(traced_s: float, untraced_s: list[float]) -> float:
    """Traced pass time against the untraced passes run before and after.

    Averaging an untraced pass on each side cancels warm-up and drift
    that a single before-or-after comparison would charge to tracing.
    """
    base = sum(untraced_s) / len(untraced_s)
    return 100.0 * (traced_s - base) / base


def mean_ms(values: list[float]) -> float:
    return 1000.0 * sum(values) / len(values) if values else 0.0


def median_ms(values: list[float]) -> float:
    return 1000.0 * median(values) if values else 0.0


class GcWatch:
    """Cyclic-GC pauses and collections, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.collections = 0
        self._started: Optional[float] = None

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.pause_s += time.perf_counter() - self._started
            self.collections += 1
            self._started = None

    @contextmanager
    def watching(self) -> Iterator["GcWatch"]:
        gc.callbacks.append(self._callback)
        try:
            yield self
        finally:
            gc.callbacks.remove(self._callback)


# ---------------------------------------------------------------------------
# journal composition
# ---------------------------------------------------------------------------

#: record kinds folded into the ``core.storage.bytes.<kind>`` metrics
BYTE_KINDS = {
    "checkin": "checkin",
    "checkin.abort": "checkin",
    "txn": "txn",
    "version": "version",
    "image": "image",
    "image.begin": "image",
    "image.rec": "image",
    "image.end": "image",
}


def journal_bytes_by_kind(path: Path) -> dict[str, int]:
    """Framed bytes per record family in a journal file."""
    from repro.core.storage import RecordFile

    totals = {family: 0 for family in set(BYTE_KINDS.values())}
    for event in RecordFile(path).scan():
        if event.kind != "record" or not isinstance(event.record, dict):
            continue
        family = BYTE_KINDS.get(event.record.get("kind"))
        if family is not None:
            totals[family] += event.end - event.offset
    return totals


def fsck_clean(path: Path) -> tuple[bool, str]:
    """Run ``python -m repro fsck`` on *path*; clean means exit 0, no tail."""
    import subprocess

    proc = subprocess.run(
        [sys.executable, "-m", "repro", "fsck", str(path)],
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=ROOT,
        timeout=120,
    )
    output = proc.stdout + proc.stderr
    clean = proc.returncode == 0 and output.rstrip().endswith("clean")
    return clean, output.strip()


def open_quietly(path: Path):
    """Open a journal, silencing the recovery warnings a check inspects."""
    import warnings

    from repro.core.storage import JournaledDatabase

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return JournaledDatabase.open(path)


def durable_copy(source: Path, target: Path) -> None:
    """Copy a journal and fsync the copy before the program opens it.

    A journal left by an earlier run is already on disk. Without the
    fsync, the program's first fsync on the copy would also write back
    every page the copy just dirtied, which is the copy's cost, not the
    program's.
    """
    shutil.copyfile(source, target)
    with open(target, "rb") as handle:
        os.fsync(handle.fileno())


def timed_reopen(template: Path, copy: Path, probe: str) -> float:
    """Open a fresh copy of *template*; seconds to the first pinned read.

    Always a fresh copy: publishing after a reopen appends a version
    record, so reopening one file twice would time two journals. Each
    reopen runs in a fresh interpreter, as a restarted server does; the
    same reopen ran at one of two speeds about 50% apart depending on
    the process, so a median over processes is steadier than a median
    within one.
    """
    import subprocess

    durable_copy(template, copy)
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "reopen",
         str(copy), probe],
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=ROOT,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"timed reopen of {copy} failed: {proc.stdout}{proc.stderr}"
        )
    return float(proc.stdout.split()[-1])


def _reopen_main(path: str, probe: str) -> int:
    """Child side of :func:`timed_reopen`: print the seconds it took."""
    import warnings

    ensure_program()
    from repro.multiuser.server import SeedServer

    gc.collect()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        start = time.perf_counter()
        server = SeedServer.open(path)
        found = server.snapshot().find(probe)
        elapsed = time.perf_counter() - start
    if found is None:
        print(f"reopened journal lost {probe}")
        return 1
    print(repr(elapsed))
    return 0


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

#: seconds :func:`calibration_pass` took, on average, on the machine
#: the figures are scaled to: a 2-vCPU container, Python 3.11 (GIL)
REFERENCE_PASS_S = 0.35


def calibration_pass() -> float:
    """Seconds one fixed pure-Python pass takes; it uses none of the program.

    Dicts of small records, lookups through them, a sort and a JSON
    round trip: the kind of work the program's own Python does.
    """
    start = time.perf_counter()
    index: dict[str, dict[str, Any]] = {}
    for number in range(40_000):
        name = f"N{number}"
        index[name] = {
            "name": name,
            "value": number * 7919 % 10007,
            "next": f"N{(number * 31 + 7) % 40_000}",
        }
    total = 0
    for __ in range(3):
        for node in index.values():
            total += index[node["next"]]["value"]
    ordered = sorted(index.values(), key=lambda node: (node["value"], node["name"]))
    total += len(json.loads(json.dumps(ordered)))
    elapsed = time.perf_counter() - start
    if total <= 0:
        raise RuntimeError("calibration pass computed nothing")
    return elapsed


def timed_calibration() -> float:
    """One :func:`calibration_pass` in a fresh interpreter; its seconds.

    A fresh interpreter, so nothing the program left running in the
    benchmark process can slow the pass and hide its own cost.
    """
    import subprocess

    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "calibrate"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"calibration failed: {proc.stdout}{proc.stderr}")
    return float(proc.stdout.split()[-1])


def host_factor(passes: list[float]) -> float:
    """How much slower than the reference machine the host ran.

    The mean calibration pass of the run over :data:`REFERENCE_PASS_S`.
    A mean, not a median: each pass falls within one stretch of steady
    host speed, and the mean moves in proportion to the time the run
    spent at each speed.
    """
    return sum(passes) / len(passes) / REFERENCE_PASS_S


# ---------------------------------------------------------------------------
# fingerprint and result
# ---------------------------------------------------------------------------

def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding *path* (from /proc/mounts)."""
    target = str(path.resolve())
    best, best_type = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount_point = fields[1]
                if (
                    target == mount_point
                    or target.startswith(mount_point.rstrip("/") + "/")
                ) and len(mount_point) >= len(best):
                    best, best_type = mount_point, fields[2]
    except OSError:
        pass
    return best_type


def python_build() -> str:
    gil_disabled = sysconfig.get_config_var("Py_GIL_DISABLED")
    checker = getattr(sys, "_is_gil_enabled", None)
    if gil_disabled:
        running = "on" if checker is None or checker() else "off"
        return f"free-threaded (GIL {running})"
    return "GIL"


def fingerprint(
    workload: str, seed: int, sizes: dict[str, Any], flush_policy: str
) -> dict[str, Any]:
    from repro.core.query.parallel import ParallelConfig

    WORK.mkdir(exist_ok=True)
    return {
        "workload": workload,
        "seed": seed,
        "sizes": sizes,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "python_impl": platform.python_implementation(),
        "python_build": python_build(),
        "parallel_backend": ParallelConfig().resolved_backend(),
        "flush_policy": flush_policy,
        "journal_fs": filesystem_of(WORK),
        "fsync_note": FSYNC_NOTE,
    }


class Result:
    """What one run reports: metrics, counts, correctness problems."""

    def __init__(self) -> None:
        self.metrics: dict[str, tuple[float, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def scale_to_reference(self, passes: list[float]) -> None:
        """Rescale every time and rate to the reference machine's speed.

        On a shared host the speed of the same work drifted by up to 2x
        over minutes, and every figure of a run moved with it. Each
        figure in seconds or milliseconds is divided by the run's
        :func:`host_factor`, each rate multiplied by it; the measured
        value goes to the log.
        """
        factor = host_factor(passes)
        self.note(
            f"host factor {factor!r} (calibration passes {passes} s, "
            f"reference {REFERENCE_PASS_S} s)"
        )
        for name, (value, unit) in list(self.metrics.items()):
            if unit in ("s", "ms"):
                scaled = value / factor
            elif unit == "1/s":
                scaled = value * factor
            else:
                continue
            self.note(f"measured {name} = {value!r} {unit}")
            self.metrics[name] = (scaled, unit)

    def problem(self, message: str) -> None:
        self.problems.append(message)

    def note(self, message: str) -> None:
        self.notes.append(message)

    def emit(self, fp: dict[str, Any]) -> int:
        """Print the log, fingerprint and final JSON line; exit status."""
        for line in self.notes:
            print(line)
        for problem in self.problems:
            print(f"CORRECTNESS: {problem}")
        print("fingerprint: " + json.dumps(fp, sort_keys=True))
        for name, (value, unit) in self.metrics.items():
            print(f"metric {name} = {value!r} {unit}")
        correct = not self.problems
        print(
            json.dumps(
                {
                    "correct": correct,
                    "attempted": self.attempted,
                    "failed": self.failed,
                    "metrics": {
                        name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()
                    },
                }
            ),
            flush=True,
        )
        return 0 if correct and self.failed == 0 else 1


if __name__ == "__main__":
    if sys.argv[1:] == ["calibrate"]:
        print(repr(calibration_pass()))
        sys.exit(0)
    if sys.argv[1:2] != ["reopen"] or len(sys.argv) != 4:
        raise SystemExit(
            "usage: common.py reopen <journal> <probe name> | common.py calibrate"
        )
    sys.exit(_reopen_main(sys.argv[2], sys.argv[3]))
