"""Kill-safe resource grants: a killed process never leaks a slot.

``Process.kill`` withdraws a grant its process is still queued on and
releases one that was granted but not yet delivered, so both waiting
idioms — ``g = yield r.acquire()`` and ``g = r.acquire(); if not
sim.take(g): yield g`` — are safe although the kill lands before their
``try``.  A hypothesis kill storm checks that every resource ends idle
and every surviving process finishes.
"""

import pytest

from repro.errors import ProcessKilled
from repro.sim import PriorityResource, Simulator

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def test_killed_queued_waiter_does_not_wedge_the_resource():
    # Holder owns a capacity-1 resource, the victim queues behind it
    # and is killed at t=0.5; a third process acquiring at t=2 must
    # still get the slot once the holder lets go.
    sim = Simulator()
    res = PriorityResource(sim, capacity=1)
    log = []

    def holder():
        grant = yield res.acquire()
        try:
            yield sim.timeout(1.0)
        finally:
            res.release(grant)

    def victim():
        try:
            grant = yield res.acquire()
        except ProcessKilled:
            return
        try:
            log.append("victim granted")
        finally:
            res.release(grant)

    def third():
        yield sim.timeout(2.0)
        grant = yield res.acquire()
        try:
            log.append(("third", sim.now))
        finally:
            res.release(grant)

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
    assert (res.in_use, res.queue_length) == (0, 0)


def test_kill_between_grant_and_resume_releases_the_slot():
    # The holder's release hands the slot to the victim (the grant
    # fires into the run queue), then kills it before it resumes: the
    # slot must pass straight on to the third process.
    sim = Simulator()
    res = PriorityResource(sim, capacity=1)
    log = []
    doomed = []

    def holder():
        grant = yield res.acquire()
        try:
            yield sim.timeout(1.0)
        finally:
            res.release(grant)
        assert res.in_use == 1 and res.queue_length == 1
        doomed[0].kill()

    def victim():
        grant = res.acquire()
        try:
            if not sim.take(grant):
                yield grant
        except ProcessKilled:
            return
        try:
            log.append("victim ran")
        finally:
            res.release(grant)

    def third():
        yield sim.timeout(0.5)
        grant = yield res.acquire()
        try:
            log.append(("third", sim.now))
        finally:
            res.release(grant)

    sim.spawn(holder())
    doomed.append(sim.spawn(victim()))
    sim.spawn(third())
    sim.run()
    assert log == [("third", 1.0)]
    assert (res.in_use, res.queue_length) == (0, 0)


def worker(sim, res, plan, use_take, log, tag):
    """Acquire/hold/release per ``plan``; either waiting idiom."""
    try:
        for priority, hold in plan:
            if use_take:
                grant = res.acquire(priority)
                if not sim.take(grant):
                    yield grant
            else:
                grant = yield res.acquire(priority)
            try:
                yield sim.timeout(hold)
            finally:
                res.release(grant)
        log.append(("done", tag))
    except ProcessKilled:
        log.append(("killed", tag))


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.sampled_from([1, 2]),
    plans=st.lists(
        st.lists(st.tuples(st.sampled_from([0, 10]),
                           st.sampled_from([0.0, 0.25, 0.5, 1.0])),
                 min_size=1, max_size=4),
        min_size=2, max_size=7,
    ),
    kills=st.lists(st.tuples(st.integers(0, 6),
                             st.sampled_from([0.0, 0.25, 0.3, 0.5, 1.0, 1.5])),
                   max_size=5),
    use_take=st.booleans(),
)
def test_kill_storm_never_leaks_a_slot(capacity, plans, kills, use_take):
    sim = Simulator(seed=5)
    res = PriorityResource(sim, capacity=capacity)
    log = []
    procs = [
        sim.spawn(worker(sim, res, plan, use_take, log, i))
        for i, plan in enumerate(plans)
    ]

    def killer(target, at):
        yield sim.timeout(at)
        target.kill()

    for index, at in kills:
        sim.spawn(killer(procs[index % len(procs)], at))
    sim.run()
    # Every worker either finished or was killed — none starved behind
    # a leaked slot — and the resource ends idle.
    assert all(p.triggered for p in procs)
    assert len(log) == len(procs)
    assert (res.in_use, res.queue_length) == (0, 0)
