"""One-step plans run in the middleware's own process, same schedule.

``S4DCacheMiddleware._execute`` runs a plan with exactly one step in
the calling process, with zero-delay slots where a spawned step flow's
bootstrap, completion and join used to be.  The reference below is the
spawning implementation (one flow per step, joined by ``all_of``); an
S4D campaign under contention must give the same clock, phase times,
cache decisions and event count either way.
"""

from repro.cluster import build_cluster, run_workload
from repro.core.middleware import S4DCacheMiddleware
from repro.devices.base import OP_WRITE
from repro.experiments.common import ior_campaign
from repro.pfs import IOResult
from repro.pfs.content import next_stamp

from .conftest import small_spec


def spawning_execute(self, rank, handle, plan, offset, size, priority,
                     start, ctx=None):
    """Reference: every plan step in its own spawned flow."""
    d_handle = self.direct.pfs.open(handle.path)
    c_handle = self.cpfs.open(self.cache_path(handle.path))
    stamp = next_stamp() if plan.op == OP_WRITE else None
    flows = [
        self.sim.spawn(self._step_flow(rank, d_handle, c_handle, plan.op,
                                       step, stamp, priority))
        for step in plan.steps
    ]
    step_results = yield self.sim.all_of(flows)
    result = IOResult(
        op=plan.op, path=handle.path, offset=offset, size=size,
        start_time=start, end_time=self.sim.now,
        servers_touched=max(r.servers_touched for r in step_results),
        stamp=stamp,
    )
    if plan.op == OP_WRITE:
        d_handle.size = max(d_handle.size, offset + size)
    else:
        result.segments = self._merge_read_segments(plan.steps, step_results)
    return result


def campaign():
    spec = small_spec(num_nodes=4)
    workload = ior_campaign(8, "8KB", instances=2, sequential=1, seed=5,
                            requests_per_rank=24)
    data_bytes = sum(w.data_bytes() for w in workload)
    cluster = build_cluster(spec, s4d=True,
                            cache_capacity=data_bytes // 2)
    run = run_workload(spec, workload, s4d=True, phases=("interleaved",),
                       read_runs=2, cluster=cluster)
    sim = cluster.sim
    metrics = cluster.middleware.metrics
    return (
        sim.now.hex(),
        sim.events_scheduled,
        {name: (p.bytes_moved, p.duration.hex())
         for name, p in run.phases.items()},
        sorted(vars(metrics).items()),
    )


def test_one_step_plans_inline_match_spawned_flows(monkeypatch):
    inline = campaign()
    monkeypatch.setattr(S4DCacheMiddleware, "_execute", spawning_execute)
    spawned = campaign()
    assert inline == spawned
    # Requests really go to both tiers, and the Rebuilder moves data.
    metrics = dict(inline[3])
    assert metrics["requests_to_cservers"] > 0
    assert metrics["requests_to_dservers"] > 0
    assert metrics["flushes"] + metrics["fetches"] > 0
