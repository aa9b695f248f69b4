"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 seedbench/run.py --workload wire_edit --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
The exit status is non-zero when a correctness check failed or an
operation failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = ("wire_edit", "bulk_query", "commit_reopen")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--toy", action="store_true",
        help="tiny sizes (the benchmark's own tests)",
    )
    return parser.parse_args(argv)


def expected_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit that ``BENCHMARK.json`` names for this mode."""
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    return {
        metric["name"]: metric["unit"]
        for metric in spec["per_layer" if trace else "end_to_end"]
    }


def run(args: argparse.Namespace) -> tuple[common.Result, dict]:
    """Dispatch one workload; returns its result and fingerprint."""
    import importlib

    module = importlib.import_module(args.workload)
    sizes = module.TOY if args.toy else module.DEFAULT
    entry = module.run_traced if args.trace else module.run
    with common.work_dir(args.workload) as work:
        result = entry(args.seed, args.seconds, work, sizes)
    expected = expected_metrics(args.trace)
    if args.trace:
        # a layer the workload leaves idle reports 0 (no calls, no time)
        for name, unit in expected.items():
            result.metrics.setdefault(name, (0.0, unit))
    reported = {name: unit for name, (__, unit) in result.metrics.items()}
    if reported != expected:
        raise RuntimeError(
            f"{args.workload} reported {sorted(reported.items())}, "
            f"expected {sorted(expected.items())}"
        )
    result.metrics = {name: result.metrics[name] for name in expected}
    fingerprint = common.fingerprint(
        args.workload, args.seed, sizes.__dict__, module.FLUSH_POLICY
    )
    return result, fingerprint


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    common.ensure_program()
    result, fingerprint = run(args)
    return result.emit(fingerprint)


if __name__ == "__main__":
    sys.exit(main())
