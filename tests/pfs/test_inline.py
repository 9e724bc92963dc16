"""Lone sub-requests run in the caller with the spawned flow's schedule.

A request that plans to exactly one sub-request runs its sub-flow in
the calling process (``PFSClient(inline=True)``, the default), with
zero-delay slots where the spawned flow's bootstrap, completion and
join used to be.  Under contention that must give exactly what a
spawning client (``inline=False``, the Rebuilder's movers) gives: the
same request times, the same content and the same event count.
"""

from repro.devices import HDD, HDDSpec
from repro.network import Fabric, NetworkSpec
from repro.pfs import PFS, FileServer, PFSClient, PFSSpec
from repro.sim import Simulator
from repro.sim.resources import PRIORITY_LOW
from repro.units import GiB, KiB, MiB


def campaign(inline):
    sim = Simulator(seed=4)
    fabric = Fabric(sim, NetworkSpec())
    servers = [
        FileServer(sim, f"s{i}",
                   HDD(HDDSpec(capacity_bytes=GiB, rotation_mode="expected")))
        for i in range(3)
    ]
    pfs = PFS(sim, "pfs", servers, PFSSpec(stripe_size=64 * KiB))
    clients = [
        PFSClient(sim, pfs, fabric, f"node{i}", inline=inline)
        for i in range(4)
    ]
    handle = pfs.create("/f", 64 * MiB)
    results = []

    def rank(i):
        client = clients[i]
        for j in range(6):
            # Mostly lone sub-requests (<= one stripe, aligned), with a
            # multi-server request and low-priority traffic mixed in.
            offset = ((i * 7 + j * 5) % 40) * 64 * KiB
            size = 256 * KiB if j == 3 else (8 + 8 * (j % 3)) * KiB
            priority = PRIORITY_LOW if (i + j) % 4 == 0 else 0
            if j % 2 == 0:
                res = yield from client.write(handle, offset, size, priority)
            else:
                res = yield from client.read(handle, offset, size, priority)
            results.append(res)

    for i in range(len(clients)):
        sim.spawn(rank(i))
    sim.run()
    stamps = {}
    for res in results:
        if res.stamp is not None:
            stamps.setdefault(res.stamp, len(stamps))
    rows = [
        (r.op, r.offset, r.size, r.start_time.hex(), r.end_time.hex(),
         r.servers_touched, None if r.stamp is None else stamps[r.stamp],
         [(s, e, None if v is None else stamps[v]) for s, e, v in r.segments])
        for r in results
    ]
    return rows, sim.events_scheduled, sim.now.hex()


def test_inline_lone_requests_match_spawned_flows():
    inline = campaign(inline=True)
    spawned = campaign(inline=False)
    assert inline == spawned
    rows, events, _ = inline
    assert len(rows) == 24 and events > 0
    # The campaign really mixes lone and multi-server requests.
    assert {row[5] for row in rows} == {1, 3}
