"""Request trace collection."""

from __future__ import annotations

import typing


class TraceRecord(typing.NamedTuple):
    """One traced request and where its bytes went.

    A named tuple: one is built per traced request, and a frozen
    dataclass's ``__init__`` would pay an ``object.__setattr__`` per
    field.
    """

    time: float
    rank: int
    op: str
    path: str
    offset: int
    size: int
    #: Bytes served by the HDD DServers.
    dserver_bytes: int
    #: Bytes served by the SSD CServers.
    cserver_bytes: int
    #: End-to-end latency of the request.
    elapsed: float = 0.0

    @property
    def target(self) -> str:
        """Majority routing target ("dservers"/"cservers")."""
        return (
            "cservers"
            if self.cserver_bytes > self.dserver_bytes
            else "dservers"
        )


class Tracer:
    """Append-only request trace (attach to an I/O layer)."""

    def __init__(self) -> None:
        self.records: list[TraceRecord] = []

    def record(self, record: TraceRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def window(self, start: float, end: float) -> list[TraceRecord]:
        """Records whose start time falls in [start, end)."""
        return [r for r in self.records if start <= r.time < end]

    def for_rank(self, rank: int) -> list[TraceRecord]:
        return [r for r in self.records if r.rank == rank]

    def clear(self) -> None:
        self.records.clear()
