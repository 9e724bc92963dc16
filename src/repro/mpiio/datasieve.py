"""Data sieving (§II.A, Thakur et al.).

Multiple small noncontiguous requests are replaced by one large
contiguous request spanning them, including the holes.  For writes the
holes force a read-modify-write.  S4D-Cache can sit on top of this
optimization (the paper: "S4D-Cache can use not only these techniques
for its underlying parallel file systems but also utilize SSDs").
"""

from __future__ import annotations

from ..errors import MPIIOError

Segment = tuple[int, int]  # (offset, size)


def coalesce(segments: list[Segment], max_hole: int) -> list[Segment]:
    """Merge sorted segments whose gaps are at most ``max_hole`` bytes."""
    if max_hole < 0:
        raise MPIIOError(f"max_hole must be non-negative: {max_hole}")
    cleaned = sorted((off, size) for off, size in segments if size > 0)
    if not cleaned:
        return []
    merged: list[Segment] = []
    cur_off, cur_size = cleaned[0]
    for off, size in cleaned[1:]:
        if off < cur_off + cur_size:
            raise MPIIOError(
                f"overlapping segments at {off} (previous ends at "
                f"{cur_off + cur_size})"
            )
        gap = off - (cur_off + cur_size)
        if gap <= max_hole:
            cur_size = off + size - cur_off
        else:
            merged.append((cur_off, cur_size))
            cur_off, cur_size = off, size
    merged.append((cur_off, cur_size))
    return merged


def coalesce_striped(
    segments: list[Segment], max_hole: int, stripe: int
) -> list[Segment]:
    """Stripe-aware sieving: additionally close holes inside one stripe.

    Two segments separated by a hole that never leaves the current
    stripe land on the same server either way, so sieving across that
    hole adds no server round — it only removes a wire message (the
    same per-server-round argument behind
    :func:`repro.pfs.layout.plan_request`).  Holes that cross a
    stripe boundary still obey ``max_hole``.
    """
    if stripe <= 0:
        raise MPIIOError(f"stripe must be positive: {stripe}")
    merged: list[Segment] = []
    for off, size in coalesce(segments, max_hole):
        if merged:
            prev_off, prev_size = merged[-1]
            prev_end = prev_off + prev_size
            if prev_end // stripe == off // stripe:
                merged[-1] = (prev_off, off + size - prev_off)
                continue
        merged.append((off, size))
    return merged


def sieve_read(mpifile, segments: list[Segment], max_hole: int,
               stripe: int | None = None):
    """Read noncontiguous ``segments`` via sieved large requests.

    ``stripe`` enables stripe-aware coalescing (holes confined to one
    stripe are sieved regardless of ``max_hole`` — reads discard hole
    bytes, so this is free).  Process generator; returns the list of
    IOResults actually issued.
    """
    if stripe is None:
        plan = coalesce(segments, max_hole)
    else:
        plan = coalesce_striped(segments, max_hole, stripe)
    results = []
    for offset, size in plan:
        result = yield from mpifile.read_at(offset, size)
        results.append(result)
    return results


def sieve_write(mpifile, segments: list[Segment], max_hole: int):
    """Write noncontiguous ``segments`` via sieved large requests.

    A merged extent that contains holes needs read-modify-write: the
    extent is read, the user's pieces are merged in memory, and the
    whole extent is written back.  Returns the issued IOResults.
    """
    covered = {s for s in coalesce(segments, 0)}
    results = []
    for offset, size in coalesce(segments, max_hole):
        has_holes = (offset, size) not in covered
        if has_holes:
            read_back = yield from mpifile.read_at(offset, size)
            results.append(read_back)
        result = yield from mpifile.write_at(offset, size)
        results.append(result)
    return results
