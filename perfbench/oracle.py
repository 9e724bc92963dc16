"""Outside-in correctness checks on a finished campaign.

``stamp_failures`` is the byte-stamp oracle: it replays every phase's
``RankStats`` results in simulated-time order against an independent
model of each file and counts the reads whose returned segments do not
carry, byte for byte, the stamp of the write that last covered them.
``digest`` hashes all simulated statistics of a run, so two runs of the
same seed can be compared for bit-identical behaviour.
"""

from __future__ import annotations

import bisect
import hashlib
import json


class _StampModel:
    """One file's contents as sorted, disjoint ``[start, end) -> stamp`` runs."""

    def __init__(self):
        self.starts: list[int] = []
        self.runs: list[tuple[int, int, int]] = []

    def write(self, start: int, end: int, stamp: int) -> None:
        i = bisect.bisect_right(self.starts, start) - 1
        if i < 0 or self.runs[i][1] <= start:
            i += 1
        j = i
        keep = []
        while j < len(self.runs) and self.runs[j][0] < end:
            s, e, old = self.runs[j]
            if s < start:
                keep.append((s, start, old))
            if e > end:
                keep.append((end, e, old))
            j += 1
        keep.append((start, end, stamp))
        keep.sort()
        self.runs[i:j] = keep
        self.starts[i:j] = [run[0] for run in keep]

    def read(self, start: int, end: int) -> list[tuple[int, int, int | None]]:
        """Coalesced segments covering ``[start, end)``; holes carry None."""
        out: list[tuple[int, int, int | None]] = []
        pos = start
        i = max(bisect.bisect_right(self.starts, start) - 1, 0)
        while i < len(self.runs) and self.runs[i][0] < end:
            s, e, stamp = self.runs[i]
            if e > pos:
                if s > pos:
                    out.append((pos, s, None))
                    pos = s
                out.append((pos, min(e, end), stamp))
                pos = min(e, end)
            i += 1
        if pos < end:
            out.append((pos, end, None))
        return _coalesce(out)


def _coalesce(segments) -> list[tuple[int, int, int | None]]:
    out: list[tuple[int, int, int | None]] = []
    for start, end, stamp in segments:
        if out and out[-1][1] == start and out[-1][2] == stamp:
            out[-1] = (out[-1][0], end, stamp)
        elif end > start:
            out.append((start, end, stamp))
    return out


def results(run_result, phase: str | None = None):
    """Every ``IOResult`` of a campaign, or of one of its phases."""
    for name, phase_result in run_result.phases.items():
        if phase is None or name == phase:
            for instance in phase_result.per_instance:
                for rank in instance:
                    yield from rank.results


def stamp_failures(run_result) -> int:
    """Requests that break the byte-stamp contract in one campaign.

    A write takes effect when it completes and a read observes the file
    as of its start; at equal times the write goes first.  A read that
    returns segments which do not tile its range, or any byte whose
    stamp differs from the model's, fails; so does a write without a
    stamp.
    """
    events = []
    for result in results(run_result):
        if result.op == "write":
            events.append((result.end_time, 0, result.stamp or 0, result))
        else:
            events.append((result.start_time, 1, 0, result))
    events.sort(key=lambda event: event[:3])
    files: dict[str, _StampModel] = {}
    failed = 0
    for _, _, _, result in events:
        model = files.setdefault(result.path, _StampModel())
        end = result.offset + result.size
        if result.op == "write":
            if result.stamp is None:
                failed += 1
            else:
                model.write(result.offset, end, result.stamp)
        elif _coalesce(result.segments) != model.read(result.offset, end):
            failed += 1
    return failed


def _canon(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    return value


def digest(stats: dict, run_results) -> str:
    """sha256 over ``stats`` and every request's timing, stamp and segments."""
    h = hashlib.sha256(json.dumps(_canon(stats), sort_keys=True).encode())
    for run_result in run_results:
        for result in results(run_result):
            h.update(repr((
                result.op, result.path, result.offset, result.size,
                result.start_time.hex(), result.end_time.hex(),
                result.servers_touched, result.stamp, result.segments,
            )).encode())
    return h.hexdigest()
