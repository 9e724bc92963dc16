"""The results-only fan-out contract: ordered merge, crash surfacing.

``repro compare`` and ``bench.run_suite`` take ``steal_fanout(...)[0]``
and ignore the drain stats; :func:`fanout` below is that call shape.
These tests pin what those callers rely on: results in task order,
bit-identical to serial, crashes named by task id, progress and
metrics via the shared ``pool._Progress`` counters.
"""

from __future__ import annotations

import pytest

from repro.errors import ParallelError, WorkerCrashError
from repro.obs import MetricsRegistry
from repro.parallel import steal_fanout

from .workers import crash_on_three, seeded_draws, square

TASKS = [(f"t{i}", i) for i in range(6)]


def fanout(tasks, worker, **kwargs):
    return steal_fanout(tasks, worker, **kwargs)[0]


def test_serial_path_preserves_order():
    assert fanout(TASKS, square, jobs=1) == [i * i for i in range(6)]


def test_parallel_results_in_task_order():
    assert fanout(TASKS, square, jobs=3) == [i * i for i in range(6)]


def test_parallel_matches_serial_bit_for_bit():
    tasks = [(f"seed{s}", (s, 32)) for s in (7, 11, 13, 17)]
    serial = fanout(tasks, seeded_draws, jobs=1)
    parallel = fanout(tasks, seeded_draws, jobs=4)
    assert serial == parallel


def test_worker_crash_names_the_task():
    tasks = [(f"cfg-{i}", i) for i in range(5)]
    with pytest.raises(WorkerCrashError) as excinfo:
        fanout(tasks, crash_on_three, jobs=2)
    assert excinfo.value.task_id == "cfg-3"
    assert "cfg-3" in str(excinfo.value)
    assert "synthetic failure on payload 3" in excinfo.value.worker_traceback


def test_serial_crash_names_the_task_too():
    with pytest.raises(WorkerCrashError) as excinfo:
        fanout([("only", 3)], crash_on_three, jobs=1)
    assert excinfo.value.task_id == "only"
    assert "only" in str(excinfo.value)


def test_duplicate_task_id_rejected():
    with pytest.raises(ParallelError, match="duplicate"):
        fanout([("same", 1), ("same", 2)], square, jobs=1)
    with pytest.raises(ParallelError, match="duplicate"):
        fanout([("same", 1), ("same", 2)], square, jobs=2)


def test_progress_and_metrics():
    lines: list[str] = []
    metrics = MetricsRegistry()
    results = fanout(
        TASKS, square, jobs=2,
        progress=lines.append, metrics=metrics,
    )
    assert results == [i * i for i in range(6)]
    assert len(lines) == len(TASKS)
    assert all("done" in line for line in lines)
    assert metrics.get("parallel.tasks_done").count == len(TASKS)
    assert metrics.get("parallel.tasks_failed").count == 0
