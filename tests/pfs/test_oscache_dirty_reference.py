"""Differential test: the OS cache's bisected dirty runs vs linear scans.

``_LinearRuns`` keeps the original write-behind queue as the reference:
one list of ``[start, end]`` runs, a linear merge walk, a linear hit
test and a first-minimum scan for the run nearest the disk head.
Random sequences of writes, hit tests and drain steps drive it and the
real :class:`OSCache` side by side.  After every step both must hold
the same runs, have moved ``dirty_bytes`` by the same amount and have
drained the same chunk of the same run.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.pfs.oscache import OSCache, OSCacheSpec
from repro.sim import Simulator

#: Offsets, sizes and the drain chunk are multiples of UNIT, so run
#: starts stay even and the midpoint of two starts is an integer head:
#: an exact distance tie for the nearest-run pick.
UNIT = 2
DRAIN_CHUNK = 5 * UNIT


class _LinearRuns:
    """The linear-scan dirty-run queue the bisected one must match."""

    def __init__(self):
        self.runs: list[list[int]] = []
        self.dirty_bytes = 0
        self.in_flight = 0

    def add(self, start: int, end: int) -> None:
        runs = self.runs
        new_bytes = end - start
        lo = 0
        while lo < len(runs) and runs[lo][1] < start:
            lo += 1
        merged_start, merged_end = start, end
        overlap = 0
        hi = lo
        while hi < len(runs) and runs[hi][0] <= end:
            merged_start = min(merged_start, runs[hi][0])
            merged_end = max(merged_end, runs[hi][1])
            overlap += min(end, runs[hi][1]) - max(start, runs[hi][0])
            hi += 1
        runs[lo:hi] = [[merged_start, merged_end]]
        self.dirty_bytes += new_bytes - max(overlap, 0)

    def contains(self, offset: int, size: int) -> bool:
        for start, end in self.runs:
            if start <= offset and offset + size <= end:
                return True
            if start > offset + size:
                break
        return False

    def drain_step(self, head: int | None) -> tuple[int, int] | None:
        """Land the in-flight chunk, then pop the next one, if any."""
        self.dirty_bytes -= self.in_flight
        self.in_flight = 0
        if not self.runs:
            return None
        head = head or 0
        index = min(range(len(self.runs)),
                    key=lambda i: abs(self.runs[i][0] - head))
        run = self.runs[index]
        start = run[0]
        chunk = min(DRAIN_CHUNK, run[1] - start)
        if run[1] - run[0] <= chunk:
            del self.runs[index]
        else:
            run[0] = start + chunk
        self.in_flight = chunk
        return start, chunk


class _Device:
    """Stand-in disk: the drain reads only its head position."""

    name = "hdd"
    head_position: int | None = None


class _Real:
    """An :class:`OSCache` whose drain the test steps one chunk at a time."""

    def __init__(self):
        self.device = _Device()
        self.issued: list[tuple[int, int]] = []
        self.cache = OSCache(
            Simulator(seed=1), self.device, self._device_op,
            OSCacheSpec(drain_chunk=DRAIN_CHUNK), name="srv",
        )
        self.drain = None

    def _device_op(self, op, offset, size, priority, ctx=None):
        self.issued.append((offset, size))
        yield None

    def runs(self) -> list[list[int]]:
        cache = self.cache
        return [[s, e] for s, e in zip(cache._dirty_starts, cache._dirty_ends)]

    def drain_step(self, head: int | None) -> tuple[int, int] | None:
        self.device.head_position = head
        if self.drain is None:
            if not self.cache._dirty_starts:
                return None
            self.drain = self.cache._drain_loop()
        try:
            next(self.drain)
        except StopIteration:
            self.drain = None
            return None
        return self.issued.pop()


def _add(data, runs) -> tuple[int, int]:
    """A write: anywhere, or touching / overlapping an existing run."""
    size = UNIT * data.draw(st.integers(1, 12), label="size")
    mode = "anywhere"
    if runs:
        mode = data.draw(st.sampled_from(
            ["anywhere", "after", "before", "inside", "span"]), label="mode")
    if mode == "anywhere":
        start = UNIT * data.draw(st.integers(1, 80), label="start")
        return start, start + size
    run_start, run_end = runs[data.draw(
        st.integers(0, len(runs) - 1), label="run")]
    if mode == "after":  # adjacent: starts where the run ends
        return run_end, run_end + size
    if mode == "before":  # adjacent: ends where the run starts
        return max(UNIT, run_start - size), run_start
    if mode == "inside":  # overlaps the run from within
        start = data.draw(st.sampled_from(range(run_start, run_end, UNIT)))
        return start, start + size
    # Covers the run and reaches towards its neighbours.
    return max(UNIT, run_start - size), run_end + size


def _query(data, runs) -> tuple[int, int]:
    """A hit test: anywhere, or exactly on / just past an existing run."""
    if not runs or data.draw(st.booleans(), label="random query"):
        offset = data.draw(st.integers(0, 200), label="offset")
        return offset, data.draw(st.integers(0, 30), label="size")
    start, end = runs[data.draw(st.integers(0, len(runs) - 1), label="run")]
    return data.draw(st.sampled_from([
        (start, end - start),          # the whole run: a hit
        (start, end - start + 1),      # one byte past its end: a miss
        (start - 1, 1),                # just before it
        (end - 1, 1),                  # its last byte
        (end, 1),                      # just after it
    ]), label="query")


def _head(data, runs) -> int | None:
    """A head position, including every boundary case of the pick."""
    if not runs:
        return None
    starts = [s for s, _ in runs]
    choices = ["none", "before", "after", "on_start", "anywhere"]
    if len(starts) > 1:
        choices.append("between")
    mode = data.draw(st.sampled_from(choices), label="head")
    if mode == "none":  # a device that has not moved yet reads as 0
        return None
    if mode == "before":
        return data.draw(st.integers(0, starts[0]), label="before")
    if mode == "after":
        return data.draw(st.integers(starts[-1], 400), label="after")
    i = data.draw(st.integers(0, len(starts) - 2 if mode == "between"
                              else len(starts) - 1), label="i")
    if mode == "on_start":
        return starts[i]
    if mode == "between":  # exact tie between starts[i] and starts[i + 1]
        return (starts[i] + starts[i + 1]) // 2
    return data.draw(st.integers(0, 400), label="anywhere")


@given(data=st.data())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_bisected_runs_match_linear_scans(data):
    ref = _LinearRuns()
    real = _Real()
    cache = real.cache
    for _ in range(data.draw(st.integers(1, 60), label="steps")):
        kind = data.draw(st.sampled_from(["add", "query", "drain"]),
                         label="kind")
        before_ref, before_real = ref.dirty_bytes, cache.dirty_bytes
        if kind == "add":
            start, end = _add(data, ref.runs)
            ref.add(start, end)
            cache._add_dirty(start, end)
        elif kind == "query":
            offset, size = _query(data, ref.runs)
            assert cache._in_dirty(offset, size) == ref.contains(offset, size)
        else:
            head = _head(data, ref.runs)
            assert real.drain_step(head) == ref.drain_step(head)
        assert real.runs() == ref.runs
        assert cache.dirty_bytes - before_real == ref.dirty_bytes - before_ref
        cache.check_invariants()


def test_tie_goes_to_the_lower_run():
    real = _Real()
    real.cache._add_dirty(10, 12)
    real.cache._add_dirty(30, 32)
    # Head 20 is 10 bytes from both starts: the lower run drains first.
    assert real.drain_step(20) == (10, 2)
    assert real.drain_step(20) == (30, 2)
    assert real.drain_step(20) is None
