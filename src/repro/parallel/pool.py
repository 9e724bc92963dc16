"""Shared vocabulary of the fan-out: task types, pool sizing, progress.

:func:`repro.parallel.stealing.steal_fanout` is the one fan-out
engine; this module holds what it and its callers share:

- :data:`Task` / :data:`Worker` — ``(task_id, payload)`` units and the
  importable payload -> result function a spawn worker runs;
- :func:`resolve_jobs` / :func:`os_cpu_count` — ``--jobs`` parsing and
  pool sizing (wall time only, never results: simlint DET005);
- :class:`_Progress` — the ``parallel.tasks_done`` /
  ``parallel.tasks_failed`` counters and ``parallel.task_seconds``
  tally mirrored into a :class:`~repro.obs.MetricsRegistry`.
"""

from __future__ import annotations

import os
import typing

from ..errors import ParallelError
from ..obs import MetricsRegistry

#: Payload -> result function executed in the worker.  Must be an
#: importable module-level callable (the spawn start method pickles it
#: by qualified name).
Worker = typing.Callable[[typing.Any], typing.Any]

#: (task_id, payload) pairs; ``task_id`` names the configuration in
#: progress output and crash reports.
Task = typing.Tuple[str, typing.Any]


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a ``--jobs`` value: None/1 serial, 0 = all cores."""
    if jobs is None:
        return 1
    if jobs < 0:
        raise ParallelError(f"jobs must be >= 0: {jobs}")
    if jobs == 0:
        # Worker-pool sizing only: the value never reaches a result
        # (steal_fanout merges positionally), which is exactly the
        # contract DET005 enforces everywhere else.
        return os_cpu_count()
    return jobs


def os_cpu_count() -> int:
    """Core count for pool sizing (wall-time only, never results)."""
    return os.cpu_count() or 1  # simlint: disable=DET005 - pool sizing only


class _Progress:
    """Completion counters, optionally mirrored into a registry.

    Alongside the done/failed counters, per-task wall time feeds a
    ``parallel.task_seconds`` tally so stragglers are visible in
    ``repro monitor`` / metrics snapshots (min/max/mean seconds per
    unit), and failures emit a progress line naming the failing task.
    """

    def __init__(self, total: int, metrics: MetricsRegistry | None):
        self.total = total
        self.done = self.failed = self.seconds = None
        if metrics is not None:
            self.done = (
                metrics.get("parallel.tasks_done")
                if "parallel.tasks_done" in metrics
                else metrics.counter("parallel.tasks_done")
            )
            self.failed = (
                metrics.get("parallel.tasks_failed")
                if "parallel.tasks_failed" in metrics
                else metrics.counter("parallel.tasks_failed")
            )
            self.seconds = (
                metrics.get("parallel.task_seconds")
                if "parallel.task_seconds" in metrics
                else metrics.tally("parallel.task_seconds")
            )

    def ok(self, wall_seconds: float | None = None) -> None:
        if self.done is not None:
            self.done.add()
        if self.seconds is not None and wall_seconds is not None:
            self.seconds.observe(wall_seconds)

    def fail(
        self,
        task_id: str,
        progress: typing.Callable[[str], None] | None = None,
    ) -> None:
        if self.failed is not None:
            self.failed.add()
        if progress is not None:
            progress(f"task {task_id} FAILED")
