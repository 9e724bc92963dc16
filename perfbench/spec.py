"""What the benchmark runs and reports.

``BENCHMARK.json`` at the repository root lists the workloads and the
metric names, units and directions; this module holds the rest: the
workload sizes, the paper's reference numbers, the seed reserved as the
hold-out, and for every per-layer metric which end-to-end metric it
should move and on which workload.  ``test_perfbench.py`` keeps the two
in step.
"""

from __future__ import annotations

import dataclasses

KiB = 1024

#: Never used while a change is written or tuned; a later gain claim
#: must also hold on a run with ``--seed HOLDOUT_SEED``.
HOLDOUT_SEED = 7919


@dataclasses.dataclass(frozen=True)
class Workload:
    """One closed-loop IOR campaign: each rank issues its next request
    only when the previous one completes."""

    name: str
    why: str
    ranks: int
    request: int
    instances: int
    sequential: int
    requests_per_rank: int
    #: ``run_workload`` phases and read passes, as the figure drivers use.
    phases: tuple[str, ...]
    read_runs: int
    nodes: int
    #: Seeds measured per run.  The simulated metrics vary with the
    #: seed (cache admission and the Rebuilder's fetches depend on the
    #: random offsets), so each run aggregates several derived seeds.
    replicas: int
    #: The paper's Fig. 6 gains (percent) at this point, or None.
    paper: dict | None
    #: Module buckets whose share of profiled time should peak here.
    emphasis: tuple[str, ...]

    def replica_seeds(self, seed: int) -> list[int]:
        """The derived seeds of one run; disjoint for distinct ``seed``."""
        return [seed * 100 + j for j in range(self.replicas)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ior_small_mixed",
            why="Fig. 6 8 KiB point: many small requests, so per-request core "
                "work dominates and S4D's selective admission decides the gain",
            ranks=8, request=8 * KiB, instances=10, sequential=6,
            requests_per_rank=128, phases=("interleaved",), read_runs=2,
            nodes=8, replicas=3,
            paper={"write_gain_pct": 51.3, "read_gain_pct": 184.1},
            emphasis=("core",),
        ),
        Workload(
            name="ior_large_mixed",
            why="Fig. 6 4096 KiB point: S4D should stay out of the way, and the "
                "load moves to striping, network, resources and the Rebuilder",
            ranks=8, request=4096 * KiB, instances=10, sequential=6,
            requests_per_rank=20, phases=("interleaved",), read_runs=2,
            nodes=8, replicas=5,
            paper={"write_gain_pct": 0.0, "read_gain_pct": 0.0},
            emphasis=("pfs.layout", "network"),
        ),
        Workload(
            name="ior_1024_ranks",
            why="Capacity point: 1024 ranks x 16 KiB put the engine on its "
                "calendar loop and load the OS-cache dirty-run scans",
            ranks=1024, request=16 * KiB, instances=1, sequential=1,
            requests_per_rank=4, phases=("write", "read"), read_runs=1,
            nodes=32, replicas=8,
            paper=None,
            emphasis=("pfs.oscache",),
        ),
    )
}

#: name -> (unit, better) of every end-to-end metric, in print order.
END_TO_END = {
    "host_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
    "s4d_write_mb_s": ("MiB/s", "higher"),
    "s4d_read_mb_s": ("MiB/s", "higher"),
    "write_speedup": ("x", "higher"),
    "read_speedup": ("x", "higher"),
}

_SELF = ("s", "lower")
_COUNT = ("count", "lower")

#: name -> (unit, better, end-to-end metric it moves, where it moves
#: most / where it should not).  Counts and simulated values cover the
#: stock and S4D runs together unless the note says "S4D run".
PER_LAYER = {
    "sim.events": (*_COUNT, "host_s", "all; fewer events for the same work"),
    "sim.events_per_host_s": ("1/s", "higher", "host_s",
                              "heap loop on small/large; calendar only on ior_1024_ranks"),
    "sim.self_s": (*_SELF, "host_s", "all three"),
    "sim.resources.self_s": (*_SELF, "host_s", "ior_large_mixed"),
    "mpiio.requests": (*_COUNT, "host_s", "fixed by the workload"),
    "mpiio.self_s": (*_SELF, "host_s", "per-rank cost on ior_1024_ranks"),
    "mpiio.write.sim_latency_p50_ms": ("ms", "lower", "s4d_write_mb_s", "S4D run; all"),
    "mpiio.write.sim_latency_p99_ms": ("ms", "lower", "s4d_write_mb_s", "S4D run; all"),
    "mpiio.read.sim_latency_p50_ms": ("ms", "lower", "s4d_read_mb_s",
                                      "S4D run, last read pass; all"),
    "mpiio.read.sim_latency_p99_ms": ("ms", "lower", "s4d_read_mb_s",
                                      "S4D run, last read pass; all"),
    "core.self_s": (*_SELF, "host_s", "ior_small_mixed"),
    "core.middleware.self_s": (*_SELF, "host_s", "ior_small_mixed"),
    "core.redirector.self_s": (*_SELF, "host_s", "ior_small_mixed"),
    "core.tables.self_s": (*_SELF, "host_s", "ior_large_mixed (fetch sort)"),
    "core.space.self_s": (*_SELF, "host_s", "ior_small_mixed"),
    "core.cost_model.self_s": (*_SELF, "host_s", "ior_small_mixed"),
    "core.rebuilder.self_s": (*_SELF, "host_s", "ior_large_mixed"),
    "core.cserver_request_share": ("ratio", "higher", "read_speedup",
                                   "S4D run; ior_small_mixed"),
    "core.read_hit_ratio": ("ratio", "higher", "read_speedup", "S4D run; ior_small_mixed"),
    "core.admission_ratio": ("ratio", "higher", "write_speedup",
                             "S4D run; ior_small_mixed"),
    "core.flushed_bytes": ("bytes", "lower", "host_s", "S4D run; ior_small_mixed"),
    "core.fetched_bytes": ("bytes", "lower", "host_s", "S4D run; ior_large_mixed"),
    "kvstore.self_s": (*_SELF, "host_s", "ior_small_mixed; ~0 on ior_large_mixed"),
    "intervals.self_s": (*_SELF, "host_s", "ior_small_mixed; ~0 on ior_large_mixed"),
    "pfs.self_s": (*_SELF, "host_s", "ior_1024_ranks"),
    "pfs.client.self_s": (*_SELF, "host_s", "all"),
    "pfs.layout.self_s": (*_SELF, "host_s", "ior_large_mixed"),
    "pfs.server.self_s": (*_SELF, "host_s", "all"),
    "pfs.oscache.self_s": (*_SELF, "host_s", "ior_1024_ranks"),
    "pfs.subrequests": (*_COUNT, "host_s", "ior_large_mixed"),
    "pfs.coalesced_ratio": ("ratio", "higher", "host_s",
                            "ior_large_mixed (multi-stripe requests); 0 elsewhere"),
    "pfs.server.utilisation_max": ("ratio", "lower", "s4d_write_mb_s", "S4D run; all"),
    "pfs.oscache.writes_throttled": (*_COUNT, "s4d_write_mb_s", "S4D run; ior_1024_ranks"),
    "network.self_s": (*_SELF, "host_s", "ior_large_mixed"),
    "network.transfers": (*_COUNT, "host_s", "ior_large_mixed"),
    "network.bytes": ("bytes", "lower", "host_s", "ior_large_mixed"),
    "devices.self_s": (*_SELF, "host_s",
                       "<=6% of host time everywhere: a device speedup should move no host_s"),
    "devices.requests": (*_COUNT, "host_s", "all"),
    "devices.hdd.busy_s": ("s", "lower", "s4d_write_mb_s", "S4D run, simulated; all"),
    "devices.ssd.busy_s": ("s", "lower", "s4d_read_mb_s", "S4D run, simulated; all"),
    "workloads.self_s": (*_SELF, "host_s", "ior_1024_ranks"),
    "obs.self_s": (*_SELF, "host_s", "disabled instrumentation; ior_small_mixed"),
    "host.wall_s": ("s", "lower", "host_s", "unscaled wall time of the pair; all"),
    "host.probe_ms": ("ms", "lower", "host_s", "machine speed: median time of one speed probe"),
    "trace.host_s": (*_SELF, "host_s", "wall time of the profiled pair; all"),
    "trace.overhead_x": ("x", "lower", "host_s",
                         "profiled over unprofiled wall time of the pair; all"),
}
