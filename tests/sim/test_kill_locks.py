"""Kill-safe locks: a killed process never keeps a ``LockManager`` lock.

``Process.kill`` treats a :class:`~repro.kvstore.locking.LockRequest`
like a resource grant: a request still queued is withdrawn, and one
granted but not yet delivered is released unless the process's own
cleanup released it.  Both waiting idioms — ``token = yield
locks.acquire(key)`` and ``lock = locks.acquire(key); if not
sim.take(lock): yield lock`` — are covered.
"""

import pytest

from repro.errors import ProcessKilled
from repro.kvstore import LockManager
from repro.sim import Simulator


def wait_for_lock(sim, locks, key, use_take):
    """Acquire ``key`` with either idiom; returns what to release."""
    if use_take:
        lock = locks.acquire(key)
        if not sim.take(lock):
            yield lock
        return lock
    token = yield locks.acquire(key)
    return token


@pytest.mark.parametrize("use_take", [False, True], ids=["yield", "take"])
def test_killed_queued_waiter_does_not_wedge_the_lock(use_take):
    # The holder owns the key, the victim queues behind it and is
    # killed at t=0.5; a third acquirer arriving at t=2 must still get
    # the lock once the holder lets go.
    sim = Simulator()
    locks = LockManager(sim)
    log = []

    def holder():
        token = yield locks.acquire("k")
        try:
            yield sim.timeout(1.0)
        finally:
            locks.release(token)

    def victim():
        try:
            held = yield from wait_for_lock(sim, locks, "k", use_take)
        except ProcessKilled:
            return
        try:
            log.append("victim granted")
        finally:
            locks.release(held)

    def third():
        yield sim.timeout(2.0)
        held = yield from wait_for_lock(sim, locks, "k", use_take)
        try:
            log.append(("third", sim.now))
        finally:
            locks.release(held)

    def killer(proc):
        yield sim.timeout(0.5)
        proc.kill()

    sim.spawn(holder())
    doomed = sim.spawn(victim())
    sim.spawn(killer(doomed))
    done = sim.spawn(third())
    sim.run()
    assert done.triggered
    assert log == [("third", 2.0)]
    assert not locks.is_held("k") and locks.queue_length("k") == 0


@pytest.mark.parametrize("use_take", [False, True], ids=["yield", "take"])
def test_kill_between_lock_grant_and_resume_releases_the_lock(use_take):
    # The holder's release hands the lock to the victim (the request
    # fires into the run queue), then kills it before it resumes: the
    # lock must pass straight on to the third process.
    sim = Simulator()
    locks = LockManager(sim)
    log = []
    doomed = []

    def holder():
        token = yield locks.acquire("k")
        try:
            yield sim.timeout(1.0)
        finally:
            locks.release(token)
        assert locks.is_held("k") and locks.queue_length("k") == 1
        doomed[0].kill()

    def victim():
        try:
            held = yield from wait_for_lock(sim, locks, "k", use_take)
        except ProcessKilled:
            return
        try:
            log.append("victim ran")
        finally:
            locks.release(held)

    def third():
        yield sim.timeout(0.5)
        held = yield from wait_for_lock(sim, locks, "k", use_take)
        try:
            log.append(("third", sim.now))
        finally:
            locks.release(held)

    sim.spawn(holder())
    doomed.append(sim.spawn(victim()))
    sim.spawn(third())
    sim.run()
    assert log == [("third", 1.0)]
    assert not locks.is_held("k") and locks.queue_length("k") == 0


def test_cleanup_that_releases_the_lock_is_not_released_twice():
    # A granted-but-undelivered lock whose owner releases it in its own
    # kill handler: kill must not release it a second time.
    sim = Simulator()
    locks = LockManager(sim)
    doomed = []

    def holder():
        token = yield locks.acquire("k")
        try:
            yield sim.timeout(1.0)
        finally:
            locks.release(token)
        doomed[0].kill()

    def victim():
        lock = locks.acquire("k")
        try:
            yield lock
        except ProcessKilled:
            locks.release(lock)
            return

    def third():
        yield sim.timeout(0.5)
        token = yield locks.acquire("k")
        locks.release(token)
        return sim.now

    sim.spawn(holder())
    doomed.append(sim.spawn(victim()))
    done = sim.spawn(third())
    sim.run()
    assert done.value == 1.0
    assert not locks.is_held("k")
