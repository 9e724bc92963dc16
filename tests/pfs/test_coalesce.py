"""Coalescing byte-oracle: same bytes on every device, fewer messages.

Three layers of proof for :func:`~repro.pfs.layout.plan_request`, the
closed-form per-server planner the client issues by default:

- a differential property — the planner equals the reference model it
  replaced: :func:`split_request`'s per-stripe fragments merged per
  server by :func:`coalesce_subrequests` (kept here, test-local), or
  the fragments alone when there are at most ``M`` of them;
- a hypothesis property over the pure layout math — the plan covers
  exactly the same (server, local byte) set as the fragment plan, with
  no overlaps and one message per involved server;
- an end-to-end simulation — a write/read campaign with coalescing on
  and off returns identical content (stamps via ``pfs.content``) and
  identical per-server byte totals, while putting fewer transfers on
  the network, and the client's message counters match the reference.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.devices import SSD, SSDSpec
from repro.network import Fabric, NetworkSpec
from repro.pfs import PFS, FileServer, PFSClient, PFSSpec
from repro.pfs.layout import (
    SubRequest,
    max_subrequest_size,
    plan_request,
    split_request,
)
from repro.sim import Simulator
from repro.units import GiB, KiB, MiB


def coalesce_subrequests(subs: list[SubRequest]) -> list[SubRequest]:
    """Reference model: merge each server's locally-contiguous fragments.

    The enumerate-then-merge pass the client ran before the closed-form
    planner: walk the fragments, extend each server's open run while
    the next fragment is adjacent in its local address space, then
    order the runs by their first fragment's ``file_offset``.
    """
    if len(subs) <= 1:
        return subs
    runs: dict[int, SubRequest] = {}  # server -> open run
    merged: list[SubRequest] = []
    for sub in subs:
        run = runs.get(sub.server)
        if run is not None and run.local_offset + run.length == sub.local_offset:
            runs[sub.server] = SubRequest(
                run.server, run.local_offset, run.length + sub.length,
                run.file_offset,
            )
        else:
            if run is not None:
                merged.append(run)
            runs[sub.server] = sub
    merged.extend(runs.values())
    merged.sort(key=lambda s: s.file_offset)
    return merged


def reference_plan(offset, size, stripe, servers):
    """What the client issued before the planner: merge only past M."""
    subs = split_request(offset, size, stripe, servers)
    if len(subs) > servers:
        return coalesce_subrequests(subs)
    return subs


def _covered(subs):
    """The exact (server, local byte) set a plan touches."""
    bytes_touched = set()
    for sub in subs:
        for b in range(sub.local_offset, sub.local_offset + sub.length):
            bytes_touched.add((sub.server, b))
    return bytes_touched


@st.composite
def striped_requests(draw):
    """Unaligned requests spanning 1 to ~40 stripes, or under one."""
    stripe = draw(st.sampled_from([1, 512, 4096, 65536]))
    servers = draw(st.integers(min_value=1, max_value=12))
    offset = draw(st.integers(min_value=0, max_value=200)) * stripe + draw(
        st.integers(min_value=0, max_value=stripe - 1)
    )
    size = draw(st.one_of(
        st.integers(min_value=1, max_value=stripe),
        st.integers(min_value=1, max_value=40 * stripe + stripe - 1),
    ))
    return offset, size, stripe, servers


@settings(max_examples=600, deadline=None)
@given(striped_requests())
@example((0, 1, 1, 1))
@example((7, 3 * 512, 512, 1))  # M == 1: split already merges it all
@example((100, 4 * 4096, 4096, 4))  # n == M + 1 fragments, unaligned
@example((0, 4 * 4096, 4096, 4))  # n == M fragments: left unmerged
@example((65535, 2, 65536, 12))  # size < stripe across a boundary
def test_plan_request_equals_reference(request_args):
    offset, size, stripe, servers = request_args
    assert plan_request(offset, size, stripe, servers) == reference_plan(
        offset, size, stripe, servers
    )


@settings(max_examples=300, deadline=None)
@given(striped_requests())
def test_max_subrequest_size_matches_fragment_totals(request_args):
    """The planner's longest run is the largest per-server byte total."""
    totals: dict[int, int] = {}
    for sub in split_request(*request_args):
        totals[sub.server] = totals.get(sub.server, 0) + sub.length
    assert max_subrequest_size(*request_args) == max(totals.values())


@settings(max_examples=200, deadline=None)
@given(
    offset=st.integers(min_value=0, max_value=1 << 20),
    size=st.integers(min_value=1, max_value=1 << 20),
    stripe=st.sampled_from([512, 4096, 65536]),
    servers=st.integers(min_value=1, max_value=9),
)
def test_coalesced_plan_covers_identical_bytes(offset, size, stripe, servers):
    subs = split_request(offset, size, stripe, servers)
    merged = plan_request(offset, size, stripe, servers)
    # Same bytes on the same servers...
    assert _covered(merged) == _covered(subs)
    # ...with no double-coverage (total length is conserved exactly)...
    assert sum(s.length for s in merged) == sum(s.length for s in subs)
    assert sum(s.length for s in merged) == size
    # ...in fewer-or-equal wire messages: exactly one per server.
    assert len(merged) <= len(subs)
    assert len(merged) == len({s.server for s in subs})
    assert len({s.server for s in merged}) == len(merged)


@settings(max_examples=100, deadline=None)
@given(
    offset=st.integers(min_value=0, max_value=1 << 20),
    size=st.integers(min_value=1, max_value=1 << 20),
    servers=st.integers(min_value=1, max_value=9),
)
def test_coalescing_is_idempotent(offset, size, servers):
    merged = plan_request(offset, size, 4096, servers)
    assert coalesce_subrequests(merged) == merged


def build(coalesce: bool, num_servers=4, stripe=64 * KiB, seed=7):
    sim = Simulator(seed=seed)
    fabric = Fabric(sim, NetworkSpec())
    servers = [
        FileServer(sim, f"s{i}", SSD(SSDSpec(capacity_bytes=GiB)))
        for i in range(num_servers)
    ]
    pfs = PFS(sim, "pfs", servers, PFSSpec(stripe_size=stripe))
    client = PFSClient(sim, pfs, fabric, "client0", coalesce=coalesce)
    return sim, fabric, pfs, client


def _campaign(coalesce: bool):
    """Write then read a multi-round request pattern; return evidence."""
    sim, fabric, pfs, client = build(coalesce)
    handle = pfs.create("/f", 64 * MiB)

    def body():
        stamps = []
        # 1 MiB over 4 servers x 64 KiB stripes = 16 fragments, 4 per
        # server — the shape coalescing collapses; plus a small request
        # below the threshold, and an unaligned spanning one.
        for offset, size in [
            (0, MiB), (MiB, 32 * KiB), (3 * MiB + 5 * KiB, MiB),
        ]:
            res = yield from client.write(handle, offset, size)
            stamps.append(res.stamp)
        reads = []
        for offset, size in [
            (0, MiB), (MiB, 32 * KiB), (3 * MiB + 5 * KiB, MiB),
            (512 * KiB, MiB),  # crosses written/unwritten regions
        ]:
            res = yield from client.read(handle, offset, size)
            reads.append(res.segments)
        return stamps, reads

    stamps, reads = sim.run_process(body())
    # Stamps come from a process-global mint, so their absolute values
    # depend on how many writes ran before this campaign; normalise to
    # write order (None = hole) so campaigns compare structurally.
    order = {stamp: i for i, stamp in enumerate(stamps)}
    reads = [
        [(start, end, order.get(stamp) if stamp is not None else None)
         for start, end, stamp in segments]
        for segments in reads
    ]
    served = [s.device.total_bytes for s in pfs.servers]
    return {
        "stamps": [order[stamp] for stamp in stamps],
        "reads": reads,
        "per_server_bytes": served,
        "transfers": fabric.total_transfers,
        "network_bytes": fabric.total_bytes,
        "issued": client.subrequests_issued,
        "merged": client.subrequests_coalesced,
    }


def test_end_to_end_bytes_identical_messages_fewer():
    off = _campaign(coalesce=False)
    on = _campaign(coalesce=True)
    # Byte oracle: identical content stamps and segments either way.
    assert on["stamps"] == off["stamps"]
    assert on["reads"] == off["reads"]
    # Identical bytes through every device.
    assert on["per_server_bytes"] == off["per_server_bytes"]
    # Fewer wire messages, and the merge counter accounts for them.
    assert off["merged"] == 0
    assert on["merged"] > 0
    assert on["issued"] == off["issued"] - on["merged"]
    assert on["transfers"] < off["transfers"]
    # Payload bytes shrink only by the per-message headers saved.
    assert on["network_bytes"] < off["network_bytes"]


def test_small_requests_bypass_coalescing():
    """Requests touching each server at most once are left untouched."""
    sim, fabric, pfs, client = build(coalesce=True)
    handle = pfs.create("/f", 16 * MiB)

    def body():
        return (yield from client.write(handle, 0, 128 * KiB))

    sim.run_process(body())
    assert client.subrequests_coalesced == 0
    assert client.subrequests_issued == 2  # 128 KiB / 64 KiB stripes


@pytest.mark.parametrize(
    "servers, offset, size",
    [
        (1, 0, 5 * 64 * KiB),  # M == 1: one fragment, nothing coalesced
        (1, 3 * KiB, 64 * KiB),  # M == 1, unaligned across two stripes
        (4, 0, 4 * 64 * KiB),  # n == M: below the merge threshold
        (4, 0, 5 * 64 * KiB),  # n == M + 1: one fragment absorbed
        (4, 5 * KiB, 4 * 64 * KiB),  # n == M + 1, unaligned
        (3, 7 * KiB, MiB),  # many rounds
    ],
)
def test_client_counters_match_reference(servers, offset, size):
    """Issued/absorbed counts equal the enumerate-then-merge plan's."""
    stripe = 64 * KiB
    fragments = split_request(offset, size, stripe, servers)
    expected = reference_plan(offset, size, stripe, servers)
    assert _counters(True, servers, offset, size, stripe) == (
        2 * len(expected), 2 * (len(fragments) - len(expected))
    )
    assert _counters(False, servers, offset, size, stripe) == (
        2 * len(fragments), 0
    )


def _counters(coalesce, servers, offset, size, stripe):
    """(issued, coalesced) after one write and one read of the range."""
    sim, _, pfs, client = build(coalesce, num_servers=servers, stripe=stripe)
    handle = pfs.create("/f", 16 * MiB)

    def body():
        yield from client.write(handle, offset, size)
        yield from client.read(handle, offset, size)

    sim.run_process(body())
    return client.subrequests_issued, client.subrequests_coalesced
