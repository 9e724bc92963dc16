"""Server-side OS cache model: readahead + write-behind.

A real file server does not serve every request from the platter:

- **reads** that continue a detected stream hit the kernel's readahead
  window; the window is refilled ahead of the reader (asynchronously,
  once a stream is confirmed), ramping from 4x the request size up to
  a maximum (Linux ``ra_pages`` behaviour);
- **writes** are absorbed into the page cache and written back in the
  background, coalesced into contiguous runs and drained in
  nearest-first (elevator) order; a bounded dirty-byte budget applies
  backpressure so sustained random writes remain device-bound.
  The dirty runs are two sorted flat lists (starts, ends), so merging a
  write, the dirty hit test and the drain's nearest-run pick are each
  O(log n) bisects; the pick breaks distance ties toward the lower run,
  as a linear first-minimum scan does, which keeps drain order (and
  every golden digest) bit-identical.

Without this layer, interleaved per-process sequential streams — the
common parallel-I/O pattern — would degrade to seek-bound behaviour at
the simulated servers, which real deployments do not exhibit and which
would destroy Fig. 1's sequential-vs-random premise.  The SSD CServers
do not get this model (their devices are fast and locality-blind, and
keeping them synchronous makes the reproduction's S4D gains
conservative).

State is pure timing: data consistency is tracked at the PFS layer via
write stamps, so the cache model here only decides *how long* requests
take.
"""

from __future__ import annotations

import dataclasses
import typing
from bisect import bisect_left, bisect_right

from ..errors import ConfigError
from ..obs import NULL_CONTEXT
from ..sim.resources import PRIORITY_LOW

if typing.TYPE_CHECKING:  # pragma: no cover
    from ..devices.base import StorageDevice
    from ..obs import TraceContext
    from ..sim import Simulator


@dataclasses.dataclass(frozen=True)
class OSCacheSpec:
    """Tunables of the server OS model (Linux-ish defaults)."""

    #: Maximum readahead window, bytes (Linux default 128KB; server
    #: class systems commonly raise it).
    readahead_max: int = 256 * 1024
    #: Concurrent read-stream contexts tracked.
    max_streams: int = 64
    #: Dirty-byte budget before writers block (per server).  PVFS2 runs
    #: its Trove storage with synchronous data flushes, so the budget
    #: is deliberately small: write-behind acts as a coalescing queue
    #: (sequential runs merge, the drain is elevator-ordered) rather
    #: than a deep cache — sustained random writes stay device-bound,
    #: which the paper's whole premise depends on.
    dirty_high: int = 512 * 1024
    #: Writers unblock once dirty bytes drain below this.
    dirty_low: int = 256 * 1024
    #: Largest chunk the drainer writes in one device operation.
    drain_chunk: int = 1024 * 1024

    def __post_init__(self) -> None:
        if self.readahead_max < 0 or self.max_streams < 1:
            raise ConfigError("bad readahead/max_streams")
        if not (0 <= self.dirty_low <= self.dirty_high):
            raise ConfigError("need 0 <= dirty_low <= dirty_high")
        if self.drain_chunk < 1:
            raise ConfigError("drain_chunk must be positive")


class _ReadStream:
    """One detected sequential read context."""

    __slots__ = ("window_start", "buffered_until", "window", "prefetching")

    def __init__(self, start: int, end: int, window: int):
        self.window_start = start
        self.buffered_until = end
        self.window = window
        self.prefetching = False


class OSCache:
    """Per-server OS cache timing model.

    Owns the device's queue: every device operation (synchronous read
    misses, background prefetches, background write-back) goes through
    one :class:`PriorityResource`, so foreground requests and
    background work contend realistically.
    """

    def __init__(
        self,
        sim: "Simulator",
        device: "StorageDevice",
        device_op: typing.Callable,
        spec: OSCacheSpec | None = None,
        name: str = "",
    ):
        self.sim = sim
        self.device = device
        #: ``device_op(op, offset, size, priority)`` process generator
        #: provided by the owning file server (handles queueing and
        #: busy accounting).
        self._device_op_impl = device_op
        self.spec = spec or OSCacheSpec()
        self.name = name or f"oscache:{device.name}"
        self._streams: list[_ReadStream] = []
        #: Dirty runs [start, end) as two sorted parallel lists; runs
        #: are non-empty and never touch (``ends[i] < starts[i + 1]``).
        self._dirty_starts: list[int] = []
        self._dirty_ends: list[int] = []
        self._dirty_bytes = 0
        self._drainer = None
        self._write_waiters: list = []
        # Statistics.
        self.read_hits = 0
        self.read_refills = 0
        self.prefetches = 0
        self.writes_absorbed = 0
        self.writes_throttled = 0
        self.drained_bytes = 0

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def read(self, offset: int, size: int, priority: int,
             ctx: "TraceContext | None" = None):
        """Process generator timing one read."""
        if ctx is None:
            ctx = NULL_CONTEXT
        spec = self.spec
        if size >= spec.readahead_max:
            # Large request: direct device read, no window bookkeeping.
            # (The wrapper method is bypassed here and below: one fewer
            # generator frame per device operation.)
            yield from self._device_op_impl("read", offset, size, priority,
                                            ctx=ctx)
            return
        if self._in_dirty(offset, size):
            self.read_hits += 1  # data still in the page cache (dirty)
            if ctx is not NULL_CONTEXT:
                ctx.event("oscache_hit", cat="oscache", component=self.name,
                          kind="dirty", size=size)
            return
        stream = self._match_stream(offset)
        if stream is not None and (
            stream.window_start <= offset
            and offset + size <= stream.buffered_until
        ):
            self.read_hits += 1
            if ctx is not NULL_CONTEXT:
                ctx.event("oscache_hit", cat="oscache", component=self.name,
                          kind="readahead", size=size)
            self._maybe_prefetch(stream, offset + size)
            return
        # Stream state is registered *before* the device operation so
        # that concurrently arriving sub-requests of the same striped
        # request (they land in one burst) see each other's windows —
        # the data lands by the time the burst's slowest member (which
        # waits on the actual device op) completes.
        if stream is None:
            # Cold/random: read exactly the request, start a context.
            self._push_stream(_ReadStream(offset, offset + size, size))
            yield from self._device_op_impl("read", offset, size, priority,
                                            ctx=ctx)
            return
        # Confirmed stream past its window: synchronous refill, ramping.
        window = min(max(2 * stream.window, 4 * size), spec.readahead_max)
        window = max(window, size)
        window = min(window, self.device.capacity_bytes - offset)
        self.read_refills += 1
        stream.window_start = offset
        stream.buffered_until = offset + window
        stream.window = window
        yield from self._device_op_impl("read", offset, window, priority,
                                        ctx=ctx)

    def _match_stream(self, offset: int) -> _ReadStream | None:
        """Linux ``ondemand_readahead`` semantics: a request belongs to
        a stream only if it starts inside the buffered window (page
        cache hit of readahead pages) or exactly continues it.  Strided
        jumps past the window end do NOT count as sequential — which is
        why noncontiguous access patterns are slow on real file servers
        (and why data sieving / list I/O / this paper exist).
        """
        streams = self._streams
        for stream in streams:
            if stream.window_start <= offset <= stream.buffered_until:
                if streams[-1] is not stream:
                    # LRU touch; list.remove compares by identity here
                    # (streams define no __eq__), so it removes exactly
                    # this first match.
                    streams.remove(stream)
                    streams.append(stream)
                return stream
        return None

    def _push_stream(self, stream: _ReadStream) -> None:
        self._streams.append(stream)
        while len(self._streams) > self.spec.max_streams:
            self._streams.pop(0)

    def _maybe_prefetch(self, stream: _ReadStream, position: int) -> None:
        """Issue async readahead when the reader nears the window end."""
        remaining = stream.buffered_until - position
        if stream.prefetching or remaining > stream.window // 2:
            return
        start = stream.buffered_until
        window = min(max(2 * stream.window, self.spec.readahead_max // 2),
                     self.spec.readahead_max)
        window = min(window, self.device.capacity_bytes - start)
        if window <= 0:
            return
        # Optimistically extend: by the time the reader gets there the
        # prefetch has (almost always) landed.
        stream.buffered_until = start + window
        stream.window = max(stream.window, window)
        stream.prefetching = True
        self.prefetches += 1

        def prefetch():
            yield from self._device_op_impl("read", start, window,
                                            PRIORITY_LOW)
            stream.prefetching = False

        self.sim.spawn(prefetch(), name=f"{self.name}:prefetch")

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def write(self, offset: int, size: int, priority: int,
              ctx: "TraceContext | None" = None):
        """Process generator timing one write (absorb + backpressure)."""
        if ctx is None:
            ctx = NULL_CONTEXT
        self._add_dirty(offset, offset + size)
        self.writes_absorbed += 1
        self._ensure_drainer()
        if self._dirty_bytes <= self.spec.dirty_high:
            return
        span = ctx.begin("writeback_throttle", cat="oscache",
                         component=self.name, size=size)
        try:
            while self._dirty_bytes > self.spec.dirty_high:
                self.writes_throttled += 1
                gate = self.sim.event()
                self._write_waiters.append(gate)
                yield gate
        finally:
            ctx.end(span)

    def _add_dirty(self, start: int, end: int) -> None:
        """Insert [start, end) into the sorted runs, merging every run
        it overlaps or touches."""
        starts = self._dirty_starts
        ends = self._dirty_ends
        # First run ending at or after ``start`` .. first run starting
        # past ``end``: exactly the overlapping/adjacent ones.
        lo = bisect_left(ends, start)
        hi = bisect_right(starts, end, lo)
        overlap = 0
        for i in range(lo, hi):
            overlap += min(end, ends[i]) - max(start, starts[i])
        if lo < hi:
            starts[lo:hi] = (min(start, starts[lo]),)
            ends[lo:hi] = (max(end, ends[hi - 1]),)
        else:
            starts.insert(lo, start)
            ends.insert(lo, end)
        self._dirty_bytes += end - start - overlap

    def _in_dirty(self, offset: int, size: int) -> bool:
        # Runs are disjoint, so only the last run starting at or before
        # ``offset`` can contain the request.
        index = bisect_right(self._dirty_starts, offset) - 1
        return index >= 0 and offset + size <= self._dirty_ends[index]

    def _ensure_drainer(self) -> None:
        if self._drainer is None or not self._drainer.is_alive:
            self._drainer = self.sim.spawn(
                self._drain_loop(), name=f"{self.name}:drain"
            )

    def _drain_loop(self):
        """Background write-back: nearest-run-first (elevator-ish)."""
        starts = self._dirty_starts
        ends = self._dirty_ends
        while starts:
            head = getattr(self.device, "head_position", None) or 0
            index = self._nearest_run(head)
            start = starts[index]
            length = ends[index] - start
            chunk = min(self.spec.drain_chunk, length)
            if chunk == length:
                del starts[index]
                del ends[index]
            else:
                starts[index] = start + chunk
            yield from self._device_op_impl("write", start, chunk,
                                            PRIORITY_LOW)
            self._dirty_bytes -= chunk
            self.drained_bytes += chunk
            if self._dirty_bytes <= self.spec.dirty_low:
                waiters, self._write_waiters = self._write_waiters, []
                for gate in waiters:
                    gate.succeed()
        # Loop exits when clean; a future write respawns it.

    def _nearest_run(self, head: int) -> int:
        """Index of the run whose start is nearest ``head``.

        Starts are strictly increasing, so the nearest is one of the two
        runs around ``head``'s insertion point; on equal distance the
        lower index wins, as a first-minimum scan over all runs would
        pick.  That tie-break fixes the drain order, hence every seek.
        """
        starts = self._dirty_starts
        index = bisect_left(starts, head)
        if index == len(starts):
            return index - 1
        if index and head - starts[index - 1] <= starts[index] - head:
            return index - 1
        return index

    @property
    def dirty_bytes(self) -> int:
        return self._dirty_bytes

    def check_invariants(self) -> None:
        """Assert the dirty runs are sorted, non-empty and non-touching,
        and that ``dirty_bytes`` covers them (used by property tests)."""
        starts = self._dirty_starts
        ends = self._dirty_ends
        if len(starts) != len(ends):
            raise AssertionError("dirty-run lists out of sync")
        for i in range(len(starts)):
            if ends[i] <= starts[i]:
                raise AssertionError(
                    f"bad dirty run [{starts[i]}, {ends[i]})"
                )
            if i and ends[i - 1] >= starts[i]:
                raise AssertionError(
                    f"unmerged: [{starts[i - 1]}, {ends[i - 1]}) then "
                    f"[{starts[i]}, {ends[i]})"
                )
        # dirty_bytes also counts at most one in-flight drain chunk:
        # popped from the runs, subtracted only when its write lands.
        queued = sum(e - s for s, e in zip(starts, ends))
        if not queued <= self._dirty_bytes <= queued + self.spec.drain_chunk:
            raise AssertionError(
                f"dirty_bytes {self._dirty_bytes} vs queued {queued}"
            )

    def flush(self):
        """Process generator: wait for all dirty data to drain."""
        while self._dirty_bytes > 0:
            self._ensure_drainer()
            yield self.sim.timeout(1e-3)
