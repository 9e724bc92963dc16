"""One measured sample: a fresh process that runs one workload's stock
and S4D campaigns for one seed and prints what it saw as one JSON line.

Started by ``run.py``; not meant to be run by hand.  ``--t0`` is the
parent's ``time.monotonic()`` just before this process was spawned, so
``setup_s`` covers interpreter start, importing ``repro``, building both
clusters and generating the workload.  The campaigns' host time is
reported scaled to reference machine speed (``host_s``, see
``speed.py``) and raw (``host_wall_s``).  With ``--profile`` both campaigns run
under cProfile and the layer table is added to the output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time

import oracle


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))]


def observe(run_result) -> dict:
    """Every simulated statistic of one campaign, read from public counters."""
    cluster = run_result.cluster
    clients = list(cluster.direct.clients)
    if cluster.middleware is not None:
        clients += cluster.middleware.cpfs_clients
    servers = list(cluster.dservers) + list(cluster.cservers)
    results = list(oracle.results(run_result))
    last_read = sorted(k for k in run_result.phases if k.startswith("read"))[-1]
    latency_ms = {
        "write": [r.elapsed * 1e3 for r in oracle.results(run_result, "write")],
        "read": [r.elapsed * 1e3 for r in oracle.results(run_result, last_read)],
    }
    return {
        "scheduler": cluster.sim.active_scheduler,
        "sim_now": cluster.sim.now,
        "events": cluster.sim.events_scheduled,
        "phases": {
            name: {"bytes": p.bytes_moved, "duration": p.duration}
            for name, p in run_result.phases.items()
        },
        "last_read": last_read,
        "requests": len(results),
        "latency_ms": {
            op: {"p50": _percentile(v, 0.50), "p99": _percentile(v, 0.99)}
            for op, v in latency_ms.items()
        },
        "subrequests_issued": sum(c.subrequests_issued for c in clients),
        "subrequests_coalesced": sum(c.subrequests_coalesced for c in clients),
        "servers": {
            s.name: {
                "requests": s.requests_served,
                "bytes": s.bytes_served,
                "utilisation": s.utilisation(),
                "device": s.device.telemetry(),
                "oscache": None if s.os_cache is None else {
                    "read_hits": s.os_cache.read_hits,
                    "read_refills": s.os_cache.read_refills,
                    "prefetches": s.os_cache.prefetches,
                    "writes_absorbed": s.os_cache.writes_absorbed,
                    "writes_throttled": s.os_cache.writes_throttled,
                    "drained_bytes": s.os_cache.drained_bytes,
                },
            }
            for s in servers
        },
        "network": {
            "transfers": cluster.fabric.total_transfers,
            "bytes": cluster.fabric.total_bytes,
        },
        "cache": None if cluster.metrics is None else cluster.metrics.as_dict(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    import repro

    if not os.path.realpath(repro.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"repro imported from {repro.__file__}, not {src}", file=sys.stderr)
        return 2
    from repro.cluster import build_cluster, run_workload
    from repro.experiments.common import ior_campaign, testbed

    import speed
    from spec import WORKLOADS

    w = WORKLOADS[args.workload]
    spec = testbed(num_nodes=w.nodes, seed=args.seed)
    campaign = ior_campaign(
        w.ranks, w.request, instances=w.instances, sequential=w.sequential,
        seed=args.seed, requests_per_rank=w.requests_per_rank,
    )
    data_bytes = sum(instance.data_bytes() for instance in campaign)
    stock_cluster = build_cluster(spec, s4d=False)
    s4d_cluster = build_cluster(
        spec, s4d=True, cache_capacity=spec.capacity_for(data_bytes)
    )
    setup_s = time.monotonic() - args.t0

    # Speed probes would land in the layer table, so a profiled run
    # takes none and only its raw host time means anything.
    profile = None
    sampler = speed.Sampler()
    if args.profile:
        import cProfile

        profile = cProfile.Profile()
    else:
        sampler.start()
    runs = {}
    host_s = host_wall_s = 0.0
    probes: list[float] = []
    for name, cluster in (("stock", stock_cluster), ("s4d", s4d_cluster)):
        mark = sampler.mark()
        if profile is not None:
            profile.enable()
        runs[name] = run_workload(
            spec, campaign, s4d=cluster.middleware is not None,
            phases=w.phases, read_runs=w.read_runs, cluster=cluster,
        )
        if profile is not None:
            profile.disable()
        scaled, wall, section_probes = sampler.section(mark)
        host_s += scaled
        host_wall_s += wall
        probes += section_probes
    sampler.stop()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    stats = {name: observe(run) for name, run in runs.items()}
    out = {
        "seed": args.seed,
        "setup_s": setup_s,
        "host_s": host_s,
        "host_wall_s": host_wall_s,
        "probes": probes,
        "peak_rss_mib": peak_rss_mib,
        "data_bytes": data_bytes,
        "cache_capacity": spec.capacity_for(data_bytes),
        "ops": sum(s["requests"] for s in stats.values()),
        "failed_ops": sum(oracle.stamp_failures(run) for run in runs.values()),
        "digest": oracle.digest(stats, runs.values()),
        "stats": stats,
    }
    if profile is not None:
        from layers import layer_table

        out["layers"] = layer_table(profile, src, os.path.dirname(__file__))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
