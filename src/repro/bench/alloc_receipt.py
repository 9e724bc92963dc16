"""The BENCH_alloc.json receipt: allocation-plane proof.

The allocation-plane overhaul claims the hot event path is (near)
zero-alloc: generic events, timeouts, bootstrap frames and resource
grants recycle through free pools.  This receipt measures that claim
and commits it as ``benchmarks/perf/BENCH_alloc.json``:

- **allocations per event**: a counting pass patches
  ``Event.__new__`` to count fresh event-family constructions while a
  benchmark workload runs, and reads the engine's
  ``Simulator.timed_entry_tuples`` counter for boxed timed-queue
  entries.  ``allocs_per_event`` = (fresh + tuples) / events.
- **reference**: the same workloads measured on the pre-overhaul
  engine (rev ``ccec87d``), where every ``sim.event()`` built a fresh
  Event.  The ``met`` flag records whether event_loop's allocations
  per event dropped >= 50%; timeout_storm keeps one boxed heap entry
  per timer and is measured for the regression gate only.
- **throughput**: the event_loop run vs the
  committed ``BENCH_baseline.json`` number, target 1.5x.
- **memory**: gc-bracketed ``sys.getallocatedblocks`` deltas and a
  tracemalloc peak per workload, so a leaky pool shows up as net
  block growth.

Counting and memory passes run separately from timing passes — the
patched ``__new__`` and tracemalloc both distort wall clocks.

Wall-clock reads here are sanctioned: reporting-only bench code (the
``[tool.simlint.allow]`` DET001 entry for ``*/bench/*``).
"""

from __future__ import annotations

import gc
import json
import os
import platform
import subprocess
import sys
import time
import tracemalloc
import typing

from .suite import SUITE

#: Benchmarks measured for allocation behaviour.
COUNTED = ("event_loop", "timeout_storm")
#: Row key of each bench's measurement, matching the ``heap`` rows of
#: earlier receipts so ``--alloc-check`` compares like with like.
ROW = "heap"

#: Pre-overhaul engine measured with this module's counting pass at
#: rev ccec87d (git worktree, same machine, same workloads).  Both
#: timed backends there boxed one (when, seq, event) triple per entry
#: (heappush / slot-list append), counted analytically as
#: tuples_per_event = timed entries / events.
REFERENCE = {
    "rev": "ccec87d",
    "event_loop": {"fresh_per_event": 1.0001, "tuples_per_event": 0.0,
                   "allocs_per_event": 1.0001},
    "timeout_storm": {"fresh_per_event": 0.0001, "tuples_per_event": 1.0,
                      "allocs_per_event": 1.0001},
    "note": (
        "fresh_per_event counts Event-family constructions (patched "
        "__new__) per processed event; the pre-overhaul engine built "
        "one fresh Event per event_loop yield and one boxed timed-"
        "entry triple per timeout_storm timer."
    ),
}

#: Allocations-per-event reduction the tentpole claims.
REDUCTION_TARGET = 0.5
#: event_loop throughput multiplier vs BENCH_baseline.json.
THROUGHPUT_TARGET = 1.5


def _build(name: str, scale: float):
    """Build one benchmark run; returns (run, sim, units)."""
    builder, _ = SUITE[name]
    build, units, _unit, _mode = builder(scale)
    run = build()
    # Both counted benchmarks hand back the bound Simulator.run.
    return run, run.__self__, units


def _count_inline(name: str, scale: float) -> dict:
    """Run once with Event.__new__ patched; returns fresh-alloc stats.

    The patch is never removed — installing any ``__new__`` rewires
    the whole Event subtree's ``tp_new`` slot dispatch, and CPython
    does not cleanly restore it on deletion.  Call this only through
    :func:`_count_pass`, which isolates it in a throwaway subprocess.
    """
    from ..sim.events import Event

    counts: dict[str, int] = {}

    def counting_new(cls, *args, **kwargs):
        counts[cls.__name__] = counts.get(cls.__name__, 0) + 1
        return object.__new__(cls)

    run, sim, units = _build(name, scale)
    Event.__new__ = counting_new  # type: ignore[method-assign]
    run()
    fresh = sum(counts.values())
    tuples = sim.timed_entry_tuples
    return {
        "units": units,
        "fresh_by_class": dict(sorted(counts.items())),
        "fresh_per_event": round(fresh / units, 6),
        "timed_entry_tuples": tuples,
        "tuples_per_event": round(tuples / units, 6),
        "allocs_per_event": round((fresh + tuples) / units, 6),
    }


def _count_pass(name: str, scale: float) -> dict:
    """:func:`_count_inline` in a fresh interpreter (see its docstring)."""
    env = dict(os.environ)
    src = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys\n"
         "from repro.bench.alloc_receipt import _count_inline\n"
         "print(json.dumps(_count_inline("
         "sys.argv[1], float(sys.argv[2]))))",
         name, str(scale)],
        capture_output=True, text=True, env=env, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"counting pass {name} failed:\n"
            f"{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _memory_pass(name: str, scale: float) -> dict:
    """Run once under gc-bracketed block counting plus tracemalloc."""
    run, _sim, units = _build(name, scale)
    gc.collect()
    blocks0 = sys.getallocatedblocks()
    tracemalloc.start()
    run()
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    gc.collect()
    blocks1 = sys.getallocatedblocks()
    return {
        "net_blocks": blocks1 - blocks0,
        "net_blocks_per_event": round((blocks1 - blocks0) / units, 6),
        "tracemalloc_peak_bytes": peak,
    }


def _timing_pass(name: str, scale: float, repeats: int | None) -> dict:
    """Best-of-``repeats`` unpatched wall-clock run."""
    default_repeats = SUITE[name][1]
    best: float | None = None
    units = 0
    for _ in range(max(1, repeats or default_repeats)):
        run, _sim, units = _build(name, scale)
        t0 = time.perf_counter()
        run()
        wall = time.perf_counter() - t0
        best = wall if best is None else min(best, wall)
    return {
        "wall_s": round(best, 6),
        "throughput": round(units / best, 2) if best > 0 else 0.0,
    }


def measure_allocs(scale: float = 1.0) -> dict:
    """Counting passes only (no timing): bench name -> {ROW: row}.

    This is the fast, scale-invariant core the CI regression gate
    runs — allocations *per event* do not change with ``scale``.
    """
    return {name: {ROW: _count_pass(name, scale)} for name in COUNTED}


def check_allocs(measured: dict, baseline: dict,
                 tolerance: float = 0.25) -> list[str]:
    """Regressions of allocs-per-event vs a committed receipt.

    Growth beyond ``tolerance`` (plus a 0.005 absolute floor so a
    0.0001 -> 0.0002 ratio blip cannot fail CI) is a regression.
    """
    regressions = []
    base_benches = baseline.get("benches", {})
    for name, rows in measured.items():
        for key, row in rows.items():
            base_row = base_benches.get(name, {}).get(key)
            if base_row is None:
                continue
            base = base_row["allocs_per_event"]
            cur = row["allocs_per_event"]
            if cur - base > max(tolerance * base, 0.005):
                regressions.append(
                    f"{name}[{key}]: {cur:.4f} allocs/event vs "
                    f"committed {base:.4f} "
                    f"(+{(cur - base) / base * 100 if base else 100:.0f}%, "
                    f"tolerance {tolerance * 100:.0f}%)"
                )
    return regressions


def build_receipt(scale: float = 1.0, repeats: int | None = None,
                  baseline_path: str = "benchmarks/perf/BENCH_baseline.json",
                  progress=None) -> dict:
    from .cli import _git_rev

    benches: dict[str, dict] = {}
    for name in COUNTED:
        if progress:
            progress(f"{name} counting/memory/timing ...")
        row = _count_pass(name, scale)
        row.update(_memory_pass(name, scale))
        row.update(_timing_pass(name, scale, repeats))
        benches[name] = {ROW: row}

    ref = REFERENCE["event_loop"]["allocs_per_event"]
    cur = benches["event_loop"][ROW]["allocs_per_event"]
    claims: dict[str, dict] = {
        "alloc_event_loop": {
            "reference_allocs_per_event": ref,
            "allocs_per_event": cur,
            "reduction": round(1.0 - cur / ref, 4) if ref else 0.0,
            "target_reduction": REDUCTION_TARGET,
            "met": ref > 0 and cur <= ref * (1.0 - REDUCTION_TARGET),
            "note": ("zero-delay chains never arm timers, so the whole "
                     "reduction is the generic-event pool"),
        },
    }

    if os.path.exists(baseline_path):
        with open(baseline_path) as fh:
            baseline = json.load(fh)
        base = {r["name"]: r for r in baseline.get("results", [])}.get(
            "event_loop"
        )
        if base is not None:
            cur_tp = benches["event_loop"][ROW]["throughput"]
            claims["throughput_event_loop"] = {
                "baseline_throughput": base["throughput"],
                "throughput": cur_tp,
                "achieved_x": round(cur_tp / base["throughput"], 3),
                "target_x": THROUGHPUT_TARGET,
                "met": cur_tp >= THROUGHPUT_TARGET * base["throughput"],
                "note": (
                    "event_loop vs the committed "
                    "BENCH_baseline.json throughput; cross-revision "
                    "wall clocks carry machine drift"
                ),
            }

    return {
        "schema": 1,
        "kind": "allocation-plane receipt",
        "rev": _git_rev(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),  # simlint: disable=DET005 - host metadata in a bench receipt
        "scale": scale,
        "reference": REFERENCE,
        "benches": benches,
        "claims": claims,
    }


def write_receipt(
    path: str, scale: float = 1.0, repeats: int | None = None,
    progress: typing.Callable[[str], None] | None = None,
) -> int:
    """Build and write the receipt; exit status for the CLI.

    Exit 1 when the allocation-reduction claim is unmet — the
    receipt's whole point is that the pools engage; the throughput
    claim is recorded for review, not gated on.
    """
    receipt = build_receipt(scale=scale, repeats=repeats, progress=progress)
    with open(path, "w") as fh:
        json.dump(receipt, fh, indent=2, sort_keys=True)
        fh.write("\n")
    ok = True
    if progress:
        for name, rows in receipt["benches"].items():
            row = rows[ROW]
            progress(
                f"{name}: {row['allocs_per_event']:.4f} "
                f"allocs/event ({row['fresh_per_event']:.4f} fresh + "
                f"{row['tuples_per_event']:.4f} tuples), "
                f"{row['throughput']:,.0f}/s"
            )
    for claim, row in receipt["claims"].items():
        if claim.startswith("alloc_") and not row["met"]:
            ok = False
        if progress:
            detail = (
                f"{row['reduction'] * 100:.1f}% reduction "
                f"(target {row['target_reduction'] * 100:.0f}%)"
                if "reduction" in row
                else f"{row['achieved_x']:.2f}x (target {row['target_x']}x)"
            )
            progress(f"claim {claim}: {detail}, met: {row['met']}")
    if progress:
        progress(f"wrote {path}")
    return 0 if ok else 1
