"""CLI for the perf benchmark suite (``python -m repro bench``).

Usage::

    python -m repro bench                      # run, print a table
    python -m repro bench --json               # also write BENCH_<rev>.json
    python -m repro bench --scale 0.1 \\
        --check benchmarks/perf/BENCH_baseline.json   # CI smoke gate
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys

from ..cliutil import add_jobs_arg
from .suite import compare_to_baseline, run_suite, suite_names


def _git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
        rev = out.stdout.strip()
        return rev if out.returncode == 0 and rev else "unknown"
    except OSError:
        return "unknown"


def document(results, scale: float, reference: dict | None = None) -> dict:
    """The BENCH_<rev>.json document for a suite run."""
    doc = {
        "schema": 1,
        "rev": _git_rev(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "scale": scale,
        "results": [r.as_dict() for r in results],
    }
    if reference is not None:
        doc["reference"] = reference
        speedups = {}
        ref_by_name = {r["name"]: r for r in reference.get("results", [])}
        for r in results:
            ref = ref_by_name.get(r.name)
            if not ref:
                continue
            if r.mode == "wall":
                if r.seconds_per_kunit > 0:
                    speedups[r.name] = round(
                        ref["seconds_per_kunit"] / r.seconds_per_kunit, 3
                    )
            elif ref["throughput"] > 0:
                speedups[r.name] = round(
                    r.throughput / ref["throughput"], 3
                )
        doc["speedup_vs_reference"] = speedups
    return doc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Deterministic perf microbenchmarks "
                    f"({', '.join(suite_names())}).",
    )
    parser.add_argument("--scale", type=float, default=1.0,
                        help="problem-size multiplier (default 1.0)")
    parser.add_argument("--only", nargs="*", default=None, metavar="BENCH",
                        help="subset of benchmarks to run")
    parser.add_argument("--repeat", type=int, default=None,
                        help="override per-benchmark repeat count")
    parser.add_argument("--json", nargs="?", const="", default=None,
                        metavar="PATH",
                        help="write BENCH_<rev>.json (or PATH if given)")
    parser.add_argument("--check", default=None, metavar="BASELINE",
                        help="compare against a baseline BENCH_*.json; "
                             "exit 1 on regression")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional regression for --check "
                             "(default 0.25)")
    parser.add_argument("--list", action="store_true",
                        help="list benchmark names and exit")
    parser.add_argument("--parallel-receipt", default=None, metavar="PATH",
                        help="measure the parallel sweep + coalescing "
                             "fast path, write a BENCH_parallel.json "
                             "receipt, and exit")
    parser.add_argument("--sweep-receipt", default=None, metavar="PATH",
                        help="measure the content-addressed sweep cache "
                             "(cold vs warm) and work-stealing drain, "
                             "write a BENCH_sweep.json receipt, and exit")
    parser.add_argument("--streaming-receipt", default=None, metavar="PATH",
                        help="measure streaming-telemetry overhead, "
                             "write a BENCH_streaming.json receipt, "
                             "and exit")
    parser.add_argument("--alloc-receipt", default=None, metavar="PATH",
                        help="measure allocations-per-event and pool "
                             "behaviour, write a BENCH_alloc.json "
                             "receipt, and exit")
    parser.add_argument("--alloc-check", default=None, metavar="BASELINE",
                        help="fast counting-only pass vs a committed "
                             "BENCH_alloc.json; exit 1 if allocations "
                             "per event grew past --tolerance")
    parser.add_argument("--capacity-receipt", default=None, metavar="PATH",
                        help="run the 1024-4096 rank capacity sweep, "
                             "write a BENCH_capacity.json receipt, "
                             "and exit")
    add_jobs_arg(parser)
    args = parser.parse_args(argv)

    if args.list:
        for name in suite_names():
            print(name)
        return 0

    if args.parallel_receipt is not None:
        from .parallel_receipt import write_receipt

        return write_receipt(
            args.parallel_receipt, jobs=args.jobs if args.jobs > 1 else 4,
            progress=lambda msg: print(msg, flush=True),
        )

    if args.sweep_receipt is not None:
        from .sweep_receipt import write_receipt as write_sweep

        return write_sweep(
            args.sweep_receipt, jobs=args.jobs if args.jobs > 1 else 2,
            progress=lambda msg: print(msg, flush=True),
        )

    if args.streaming_receipt is not None:
        from .streaming_receipt import write_receipt as write_streaming

        return write_streaming(
            args.streaming_receipt, scale=args.scale,
            progress=lambda msg: print(msg, flush=True),
        )

    if args.alloc_receipt is not None:
        from .alloc_receipt import write_receipt as write_alloc

        return write_alloc(
            args.alloc_receipt, scale=args.scale, repeats=args.repeat,
            progress=lambda msg: print(msg, flush=True),
        )

    if args.alloc_check is not None:
        from .alloc_receipt import check_allocs, measure_allocs

        with open(args.alloc_check) as fh:
            baseline = json.load(fh)
        measured = measure_allocs(scale=args.scale)
        regressions = check_allocs(
            measured, baseline, tolerance=args.tolerance
        )
        if regressions:
            print(f"ALLOCATION REGRESSION vs {args.alloc_check}:")
            for line in regressions:
                print(f"  {line}")
            return 1
        for name, rows in measured.items():
            for key, row in rows.items():
                print(f"{name}[{key}]: "
                      f"{row['allocs_per_event']:.4f} allocs/event")
        print(f"no allocation regression vs {args.alloc_check} "
              f"(tolerance {args.tolerance * 100:.0f}%)")
        return 0

    if args.capacity_receipt is not None:
        from .capacity_receipt import write_receipt as write_capacity

        return write_capacity(
            args.capacity_receipt, scale=args.scale,
            progress=lambda msg: print(msg, flush=True),
        )

    results = run_suite(
        scale=args.scale, only=args.only, repeats=args.repeat,
        progress=lambda msg: print(msg, flush=True),
        jobs=args.jobs,
    )

    if args.json is not None:
        path = args.json or f"BENCH_{_git_rev()}.json"
        with open(path, "w") as fh:
            json.dump(document(results, args.scale), fh, indent=2)
            fh.write("\n")
        print(f"wrote {path}")

    if args.check is not None:
        with open(args.check) as fh:
            baseline = json.load(fh)
        regressions = compare_to_baseline(
            results, baseline, tolerance=args.tolerance
        )
        if regressions:
            print(f"PERF REGRESSION vs {args.check}:")
            for line in regressions:
                print(f"  {line}")
            return 1
        print(f"no perf regression vs {args.check} "
              f"(tolerance {args.tolerance * 100:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
