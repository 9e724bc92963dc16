"""Dynamic work-stealing fan-out: one task queue, greedy workers.

The one fan-out engine behind ``--jobs N`` (experiment sweeps,
``repro compare`` and the bench suite).  Units go into a single shared
queue that spawn workers drain greedily: a worker that finishes early
simply takes the next unit, so one slow config never pins a worker
while its siblings idle, and the makespan tracks the slowest *unit*.

Determinism contract: workers are shared-nothing spawn processes (a
fresh interpreter each, so no memoisation cache, stamp counter or RNG
state leaks between them), every unit builds its own seeded
simulation, and the merge is positional — which worker ran a unit, and
in what order units completed, can change wall time and
:class:`StealStats` only, never results (simlint DET005 guards the
"never results" half).  ``tests/experiments/test_parallel_golden.py``
pins the bit-identical half.

Failures: a unit that raises surfaces as
:class:`~repro.errors.WorkerCrashError` naming the unit, with the
worker-side traceback.  A worker process that dies outright (os._exit,
OOM-kill) is attributed to the unit it announced in its ``start``
message.  Either way the pool is torn down before the error
propagates.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import time
import traceback
import typing

from ..errors import ParallelError, WorkerCrashError
from .pool import Task, Worker, _Progress, resolve_jobs

if typing.TYPE_CHECKING:  # pragma: no cover
    from ..obs import MetricsRegistry

#: Parent-side poll interval while waiting on the result queue; only
#: bounds how quickly a hard worker death is noticed.
_POLL_SECONDS = 0.25


@dataclasses.dataclass
class WorkerStats:
    """What one worker did: units drained and busy wall time."""

    worker_id: int
    tasks: int = 0
    busy_seconds: float = 0.0
    task_ids: list[str] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class StealStats:
    """Queue-drain telemetry for one :func:`steal_fanout` call."""

    jobs: int
    workers: list[WorkerStats]

    @property
    def total_busy_seconds(self) -> float:
        return sum(w.busy_seconds for w in self.workers)

    @property
    def balance(self) -> float:
        """Busiest worker's share of the mean busy time (1.0 = even).

        The straggler figure of merit: a static shard that pins one
        worker under a slow config family drives this far above 1;
        greedy draining keeps it near 1 even for heterogeneous units.
        """
        busy = [w.busy_seconds for w in self.workers if w.tasks]
        if not busy:
            return 1.0
        mean = sum(busy) / len(busy)
        return max(busy) / mean if mean > 0 else 1.0

    @property
    def task_spread(self) -> tuple[int, int]:
        """(min, max) units drained per participating worker."""
        counts = [w.tasks for w in self.workers]
        return (min(counts), max(counts)) if counts else (0, 0)

    def as_dict(self) -> dict:
        return {
            "jobs": self.jobs,
            "balance": round(self.balance, 4),
            "task_spread": list(self.task_spread),
            "workers": [
                {
                    "worker_id": w.worker_id,
                    "tasks": w.tasks,
                    "busy_seconds": round(w.busy_seconds, 4),
                    "task_ids": list(w.task_ids),
                }
                for w in self.workers
            ],
        }


def _steal_worker_main(
    worker: Worker,
    worker_id: int,
    task_queue,
    result_queue,
) -> None:
    """Worker loop: drain the shared queue until the sentinel.

    Every unit is announced with a ``start`` message before it runs, so
    the parent can attribute a hard death (the process dying without a
    ``done``) to the unit that killed it.
    """
    import time

    while True:
        item = task_queue.get()
        if item is None:
            result_queue.put(("exit", worker_id, None, None, None, None, 0.0))
            return
        index, task_id, payload = item
        result_queue.put(("start", worker_id, index, task_id, None, None, 0.0))
        start = time.perf_counter()  # simlint: disable=DET001 - reporting only
        try:
            status, value = "ok", worker(payload)
        except Exception:
            status, value = "error", traceback.format_exc()
        wall = time.perf_counter() - start  # simlint: disable=DET001 - reporting only
        result_queue.put(
            ("done", worker_id, index, task_id, status, value, wall)
        )


def _serial_drain(
    tasks: list[Task],
    worker: Worker,
    tracker: _Progress,
    progress: typing.Callable[[str], None] | None,
) -> tuple[list, StealStats]:
    """The ``jobs <= 1`` path: same loop, one pseudo-worker's stats."""
    import time

    stats = WorkerStats(worker_id=0)
    results = []
    for k, (task_id, payload) in enumerate(tasks):
        start = time.perf_counter()  # simlint: disable=DET001 - reporting only
        try:
            value = worker(payload)
        except Exception:
            wall = time.perf_counter() - start  # simlint: disable=DET001 - reporting only
            tracker.fail(task_id, progress=progress)
            raise WorkerCrashError(task_id, traceback.format_exc()) from None
        wall = time.perf_counter() - start  # simlint: disable=DET001 - reporting only
        stats.tasks += 1
        stats.busy_seconds += wall
        stats.task_ids.append(task_id)
        tracker.ok(wall)
        if progress is not None:
            progress(f"[{k + 1}/{len(tasks)}] {task_id} done")
        results.append(value)
    return results, StealStats(jobs=1, workers=[stats])


def steal_fanout(
    tasks: typing.Sequence[Task],
    worker: Worker,
    jobs: int | None = 1,
    progress: typing.Callable[[str], None] | None = None,
    metrics: "MetricsRegistry | None" = None,
) -> tuple[list, StealStats]:
    """Drain ``tasks`` through a work-stealing pool; ordered results.

    Returns ``(results, stats)`` with ``results`` lined up
    index-for-index with ``tasks`` — bit-identical to a serial run —
    and ``stats`` describing how the queue drained.  A failing unit
    raises :class:`WorkerCrashError` naming it.
    """
    tasks = list(tasks)
    seen: set[str] = set()
    for task_id, _ in tasks:
        if task_id in seen:
            raise ParallelError(f"duplicate task id {task_id!r}")
        seen.add(task_id)
    jobs = resolve_jobs(jobs)
    tracker = _Progress(len(tasks), metrics)

    if jobs <= 1 or len(tasks) <= 1:
        results, steal_stats = _serial_drain(tasks, worker, tracker, progress)
        if metrics is not None:
            _record_stats(metrics, steal_stats)
        return results, steal_stats

    jobs = min(jobs, len(tasks))
    context = multiprocessing.get_context("spawn")
    # SimpleQueue, not Queue: its put() writes the pipe synchronously
    # (no feeder thread), so a worker's ``start`` announcement is
    # durably in flight before the payload runs — a hard death
    # (os._exit, OOM-kill) can never lose the message that lets the
    # parent attribute it.
    task_queue = context.SimpleQueue()
    result_queue = context.SimpleQueue()

    workers = [
        context.Process(
            target=_steal_worker_main,
            args=(worker, worker_id, task_queue, result_queue),
            daemon=True,
        )
        for worker_id in range(jobs)
    ]
    stats = [WorkerStats(worker_id=w) for w in range(jobs)]
    inflight: dict[int, tuple[int, str]] = {}
    results_by_index: dict[int, typing.Any] = {}
    failure: WorkerCrashError | None = None
    try:
        for process in workers:
            process.start()
        for index, (task_id, payload) in enumerate(tasks):
            task_queue.put((index, task_id, payload))
        for _ in range(jobs):
            task_queue.put(None)
        exited = 0
        dead_polls = 0
        while len(results_by_index) < len(tasks):
            if result_queue.empty():
                time.sleep(_POLL_SECONDS)
                if not result_queue.empty():
                    continue  # drain before judging liveness: a dead
                    # worker's messages are already in the pipe
                    # (synchronous put), so read them first.
                failure = _check_liveness(workers, inflight)
                if failure is not None:
                    raise failure
                if all(p.exitcode is not None for p in workers):
                    # Nothing inflight to blame, but nobody is alive
                    # to send more: one extra poll to drain the pipe,
                    # then give up instead of spinning forever.
                    dead_polls += 1
                    if dead_polls >= 2 and result_queue.empty():
                        raise ParallelError(
                            "all workers died with "
                            f"{len(tasks) - len(results_by_index)} "
                            "tasks pending"
                        )
                continue
            message = result_queue.get()
            kind, worker_id, index, task_id, status, value, wall = message
            if kind == "start":
                inflight[worker_id] = (index, task_id)
                continue
            if kind == "exit":
                exited += 1
                if exited >= jobs and len(results_by_index) < len(tasks):
                    raise ParallelError(
                        "all workers exited with "
                        f"{len(tasks) - len(results_by_index)} tasks pending"
                    )
                continue
            inflight.pop(worker_id, None)
            if status == "error":
                tracker.fail(task_id, progress=progress)
                failure = WorkerCrashError(task_id, value)
                raise failure
            stats[worker_id].tasks += 1
            stats[worker_id].busy_seconds += wall
            stats[worker_id].task_ids.append(task_id)
            tracker.ok(wall)
            results_by_index[index] = value
            if progress is not None:
                progress(
                    f"[{len(results_by_index)}/{len(tasks)}] {task_id} done"
                )
    finally:
        # Crash or completion: tear the pool down (workers are
        # daemonic as a final backstop; SimpleQueue has no feeder
        # threads to wait on).
        for process in workers:
            if process.is_alive() and failure is not None:
                process.terminate()
        for process in workers:
            process.join(timeout=5.0)
        task_queue.close()
        result_queue.close()

    steal_stats = StealStats(jobs=jobs, workers=stats)
    if metrics is not None:
        _record_stats(metrics, steal_stats)
    return (
        [results_by_index[i] for i in range(len(tasks))],
        steal_stats,
    )


def _check_liveness(
    workers: list, inflight: dict[int, tuple[int, str]]
) -> WorkerCrashError | None:
    """A dead worker holding a unit is a crash attributed to that unit."""
    for worker_id, process in enumerate(workers):
        if process.exitcode is not None and worker_id in inflight:
            _, task_id = inflight[worker_id]
            return WorkerCrashError(
                task_id,
                f"worker {worker_id} died with exit code {process.exitcode}",
            )
    return None


def _record_stats(metrics: "MetricsRegistry", stats: StealStats) -> None:
    """Mirror drain telemetry into ``repro.obs`` counters."""
    busy = (
        metrics.get("parallel.worker_busy_seconds")
        if "parallel.worker_busy_seconds" in metrics
        else metrics.tally("parallel.worker_busy_seconds")
    )
    drained = (
        metrics.get("parallel.worker_tasks")
        if "parallel.worker_tasks" in metrics
        else metrics.tally("parallel.worker_tasks")
    )
    for worker in stats.workers:
        busy.observe(worker.busy_seconds)
        drained.observe(worker.tasks)
