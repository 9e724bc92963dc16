"""Property tests: OS-cache accounting under arbitrary request mixes."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.devices import HDD, HDDSpec
from repro.pfs import FileServer
from repro.pfs.oscache import OSCacheSpec
from repro.sim import Simulator
from repro.units import GiB, KiB

BLOCK = 16 * KiB

requests = st.lists(
    st.tuples(
        st.sampled_from(["read", "write"]),
        st.integers(0, 512),          # block offset
        st.integers(1, 8),            # blocks
    ),
    min_size=1,
    max_size=60,
)


@given(ops=requests, dirty_high_blocks=st.sampled_from([2, 8, 32]))
@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_dirty_accounting_never_negative_and_drains(ops, dirty_high_blocks):
    sim = Simulator(seed=3)
    server = FileServer(
        sim,
        "srv",
        HDD(HDDSpec(capacity_bytes=GiB, rotation_mode="expected")),
        software_overhead=0.0,
        os_cache_spec=OSCacheSpec(
            dirty_high=dirty_high_blocks * BLOCK,
            dirty_low=dirty_high_blocks * BLOCK // 2,
        ),
    )
    cache = server.os_cache

    def body():
        for op, block, blocks in ops:
            yield from server.serve(op, block * BLOCK, blocks * BLOCK)
            assert cache.dirty_bytes >= 0
            cache.check_invariants()
        yield from cache.flush()

    sim.run_process(body())
    assert cache.dirty_bytes == 0
    assert cache._dirty_starts == [] and cache._dirty_ends == []
    writes = sum(blocks * BLOCK for op, _, blocks in ops if op == "write")
    # Everything written was eventually drained (coalescing dedupes
    # overlapping writes, so drained <= written).
    assert cache.drained_bytes <= writes
    if writes:
        assert cache.drained_bytes > 0


@given(ops=requests)
@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_stream_windows_stay_bounded(ops):
    sim = Simulator(seed=5)
    server = FileServer(
        sim,
        "srv",
        HDD(HDDSpec(capacity_bytes=GiB, rotation_mode="expected")),
        software_overhead=0.0,
    )
    cache = server.os_cache
    spec = cache.spec

    def body():
        for op, block, blocks in ops:
            yield from server.serve(op, block * BLOCK, blocks * BLOCK)
            assert len(cache._streams) <= spec.max_streams
            for stream in cache._streams:
                assert stream.window_start <= stream.buffered_until
                assert stream.window <= spec.readahead_max

    sim.run_process(body())
