"""Simulator.take and Simulator.advance: in-place dispatch.

The contract: ``if not sim.take(ev): yield ev`` is indistinguishable
from ``yield ev``, and ``if not sim.advance(d): yield sim.timeout(d)``
from ``yield sim.timeout(d)`` — same clock at every resume, same
``events_scheduled`` — and both fire only when nothing else could run
in between.  A hypothesis property runs random process programs (zero,
positive and 1e-9 timeouts, equal-time ties with live and cancelled
heap entries, capacity-1/2 resources, ``run(until)`` slices, pooling
on and off) once per idiom and compares the dispatch logs; unit tests
pin each refusal condition.
"""

import pytest

from repro.errors import SimulationError
from repro.obs.streaming.profiler import EngineProfiler
from repro.sim import PriorityResource, Simulator, Store

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


#: Waiting idioms: plain yields; ``take`` for every wait; ``take`` for
#: events with identity and ``advance`` for anonymous delays.
PLAIN, TAKE, ADVANCE = "plain", "take", "advance"


def wait(sim, event, mode):
    """Wait on ``event`` with the plain yield or the take idiom."""
    if not (mode != PLAIN and sim.take(event)):
        yield event


def delay(sim, seconds, mode):
    """Wait ``seconds`` with the idiom ``mode`` names."""
    if mode == ADVANCE:
        if not sim.advance(seconds):
            yield sim.timeout(seconds)
    else:
        yield from wait(sim, sim.timeout(seconds), mode)


def program(sim, tag, ops, resources, stores, log, mode):
    for step, op in enumerate(ops):
        kind = op[0]
        if kind == "t":
            yield from delay(sim, op[1], mode)
        elif kind == "acq":
            _, index, hold, priority = op
            res = resources[index % len(resources)]
            grant = res.acquire(priority)
            yield from wait(sim, grant, mode)
            try:
                log.append((tag, step, "granted", sim.now))
                yield from delay(sim, hold, mode)
            finally:
                res.release(grant)
        elif kind == "cancel":
            # A timer armed and withdrawn: occupies a seq, never fires.
            sim.cancel(sim.timeout(op[1]))
        elif kind == "arm":
            # A live timer nobody waits on: a heap entry that a later
            # in-place wait may tie with exactly.
            sim.timeout(op[1]).add_callback(
                lambda ev, tag=tag, step=step: log.append(
                    (tag, step, "fired", ev.sim.now)))
        elif kind == "put":
            stores[op[1] % len(stores)].put((tag, step))
        elif kind == "get":
            # May never be satisfied; both idioms must then stall alike.
            item = stores[op[1] % len(stores)].get()
            yield from wait(sim, item, mode)
        log.append((tag, step, kind, sim.now))
    return tag


def run_programs(programs, capacities, untils, mode, pooling=True):
    sim = Simulator(seed=3, pooling=pooling)
    resources = [PriorityResource(sim, capacity=c) for c in capacities]
    stores = [Store(sim), Store(sim)]
    log = []
    procs = [
        sim.spawn(program(sim, i, ops, resources, stores, log, mode))
        for i, ops in enumerate(programs)
    ]
    for until in sorted(untils):
        if until >= sim.now:
            sim.run(until=until)
            log.append(("until", until, sim.now))
    sim.run()
    done = [p.triggered for p in procs]
    held = [(r.in_use, r.queue_length) for r in resources]
    return log, sim.events_scheduled, sim.now, done, held


delays = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1e-9])
op = st.one_of(
    st.tuples(st.just("t"), delays),
    st.tuples(st.just("acq"), st.integers(0, 2), delays,
              st.sampled_from([0, 0, 10])),
    st.tuples(st.just("cancel"), st.sampled_from([0.25, 0.5, 3.0])),
    st.tuples(st.just("arm"), st.sampled_from([0.0, 0.25, 0.5, 1e-9])),
    st.tuples(st.just("put"), st.integers(0, 1)),
    st.tuples(st.just("get"), st.integers(0, 1)),
)


@settings(max_examples=300, deadline=None)
@given(
    programs=st.lists(st.lists(op, max_size=8), min_size=1, max_size=5),
    capacities=st.lists(st.sampled_from([1, 2]), min_size=1, max_size=3),
    untils=st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.6, 1.0, 2.5]),
                    max_size=3),
    pooling=st.booleans(),
)
def test_take_idiom_matches_plain_yields(programs, capacities, untils,
                                         pooling):
    plain = run_programs(programs, capacities, untils, PLAIN, pooling)
    taken = run_programs(programs, capacities, untils, TAKE, pooling)
    advanced = run_programs(programs, capacities, untils, ADVANCE, pooling)
    assert taken == plain
    assert advanced == plain


def test_take_fires_for_the_next_event_and_skips_the_loop():
    sim = Simulator()
    res = PriorityResource(sim)
    fired = []

    def body():
        grant = res.acquire()
        fired.append(sim.take(grant))
        try:
            timer = sim.timeout(2.0)
            fired.append(sim.take(timer))
            assert sim.now == 2.0  # a timed take advances the clock
        finally:
            res.release(grant)
        yield sim.timeout(1.0)

    sim.run_process(body())
    assert fired == [True, True]
    # Bootstrap, grant, two timers and the completion: all counted.
    assert sim.events_scheduled == 5 and sim.now == 3.0


def test_take_refuses_an_event_that_is_not_next():
    sim = Simulator()
    log = []

    def other():
        log.append("other")
        yield sim.timeout(0.0)

    def body():
        sim.spawn(other())  # its bootstrap is queued ahead of ours
        timer = sim.timeout(0.0)
        assert not sim.take(timer)
        yield timer
        log.append("body")

    sim.spawn(body())
    sim.run()
    assert log == ["other", "body"]


def test_take_refuses_past_until_and_outside_run():
    sim = Simulator()
    outcome = []

    def body():
        timer = sim.timeout(5.0)
        outcome.append(sim.take(timer))
        yield timer
        outcome.append(sim.now)

    sim.spawn(body())
    sim.run(until=1.0)
    assert outcome == [False] and sim.now == 1.0
    assert not sim.take(sim.timeout(1.0))  # no process is being resumed
    sim.run()
    assert outcome == [False, 5.0]


def test_take_refuses_an_event_with_a_waiter():
    sim = Simulator()
    outcome = []

    def body():
        timer = sim.timeout(0.0)
        timer.add_callback(lambda ev: outcome.append("callback"))
        outcome.append(sim.take(timer))
        yield timer

    sim.run_process(body())
    assert outcome == [False, "callback"]


def test_take_refuses_when_the_dispatch_has_more_callbacks():
    # The resume is one of several callbacks: the later ones still run
    # after the process suspends, so it must not run ahead of them.
    sim = Simulator()
    gate = sim.event()
    log = []

    def body():
        yield gate
        timer = sim.timeout(0.0)
        log.append(("take", sim.take(timer)))
        yield timer
        log.append("body resumed")

    def opener():
        yield sim.timeout(1.0)
        gate.add_callback(lambda ev: log.append("second callback"))
        gate.succeed()

    sim.spawn(body())
    sim.spawn(opener())
    sim.run()
    assert log == [("take", False), "second callback", "body resumed"]


def test_take_refuses_in_a_synchronous_resume():
    # Yielding an already-processed event resumes the process at once,
    # outside the run loop's in-place resume: take stays off.
    sim = Simulator()
    done = sim.event()
    outcome = []

    def body():
        done.succeed()
        yield sim.timeout(1.0)
        yield done  # processed: resumes synchronously
        timer = sim.timeout(1.0)
        outcome.append(sim.take(timer))
        yield timer

    sim.run_process(body())
    assert outcome == [False] and sim.now == 2.0


def test_take_is_off_under_the_profiler():
    sim = Simulator()
    outcome = []

    def body():
        timer = sim.timeout(1.0)
        outcome.append(sim.take(timer))
        if not outcome[-1]:
            yield timer

    profiler = EngineProfiler(sim)
    sim.spawn(body())
    sim.run()
    profiler.detach()
    assert outcome == [False]


def test_taken_grant_is_pooled_on_release():
    sim = Simulator()
    res = PriorityResource(sim)

    def body():
        grant = res.acquire()
        assert sim.take(grant)
        try:
            yield sim.timeout(1.0)
        finally:
            res.release(grant)
        # Processed + released: the grant went back to the pool, and
        # the next acquire reuses it.
        again = res.acquire()
        assert again is grant
        yield again
        res.release(again)

    sim.run_process(body())
    assert res.in_use == 0


# -- Simulator.advance --------------------------------------------------------

def advance_in_body(sim, seconds, outcome):
    """Record whether ``advance`` fired; fall back to a real wait."""
    fired = sim.advance(seconds)
    outcome.append(fired)
    if not fired:
        yield sim.timeout(seconds)


def test_advance_moves_the_clock_and_counts_the_seq():
    sim = Simulator()
    outcome = []

    def body():
        yield from advance_in_body(sim, 2.0, outcome)
        assert sim.now == 2.0
        yield from advance_in_body(sim, 0.0, outcome)
        yield sim.timeout(1.0)

    sim.run_process(body())
    assert outcome == [True, True]
    # Bootstrap, the two advances, the timer and the completion — the
    # same count as with three plain timeouts.
    assert sim.events_scheduled == 5 and sim.now == 3.0


def test_advance_refuses_outside_run_and_in_a_synchronous_resume():
    sim = Simulator()
    assert not sim.advance(1.0)  # no process is being resumed
    assert sim.now == 0.0 and sim.events_scheduled == 0
    done = sim.event()
    outcome = []

    def body():
        done.succeed()
        yield sim.timeout(1.0)
        yield done  # processed: resumes synchronously
        yield from advance_in_body(sim, 1.0, outcome)

    sim.run_process(body())
    assert outcome == [False] and sim.now == 2.0


def test_advance_refuses_with_a_nonempty_run_queue():
    sim = Simulator()
    log = []

    def other():
        log.append(("other", sim.now))
        yield sim.timeout(0.0)

    def body():
        sim.spawn(other())  # its bootstrap is queued ahead of us
        yield from advance_in_body(sim, 0.0, log)
        log.append(("body", sim.now))

    sim.run_process(body())
    assert log == [False, ("other", 0.0), ("body", 0.0)]


@pytest.mark.parametrize("front", [0.5, 1.0], ids=["before", "at"])
def test_advance_refuses_when_the_heap_front_is_not_later(front):
    # A timer at or before now + d fires first: at exactly now + d its
    # lower seq wins the tie, so the wait must go through the loop.
    sim = Simulator()
    log = []

    def body():
        sim.timeout(front).add_callback(
            lambda ev: log.append(("timer", sim.now)))
        yield from advance_in_body(sim, 1.0, log)
        log.append(("body", sim.now))

    sim.run_process(body())
    assert log == [False, ("timer", front), ("body", 1.0)]


def test_advance_fires_when_the_heap_front_is_later():
    sim = Simulator()
    log = []

    def body():
        sim.timeout(1.5).add_callback(
            lambda ev: log.append(("timer", sim.now)))
        yield from advance_in_body(sim, 1.0, log)
        log.append(("body", sim.now))

    sim.run_process(body())
    assert log == [True, ("body", 1.0), ("timer", 1.5)]


def test_advance_refuses_beyond_until():
    sim = Simulator()
    outcome = []

    def body():
        yield from advance_in_body(sim, 5.0, outcome)
        outcome.append(sim.now)
        yield from advance_in_body(sim, 1.0, outcome)  # lands on until
        outcome.append(sim.now)

    sim.spawn(body())
    sim.run(until=1.0)
    assert outcome == [False] and sim.now == 1.0
    sim.run(until=6.0)
    assert outcome == [False, 5.0, True, 6.0]


def test_advance_is_off_under_the_profiler():
    sim = Simulator()
    outcome = []
    profiler = EngineProfiler(sim)
    sim.spawn(advance_in_body(sim, 1.0, outcome))
    sim.run()
    profiler.detach()
    assert outcome == [False] and sim.now == 1.0


def test_advance_rejects_a_negative_delay():
    sim = Simulator()

    def body():
        sim.advance(-1.0)  # simlint: disable=SIM002
        yield sim.timeout(0.0)

    with pytest.raises(SimulationError, match="negative"):
        sim.run_process(body())
    assert not sim.advance(0.0)  # outside run: refused, not raised
    with pytest.raises(SimulationError, match="negative"):
        sim.advance(-1e-9)  # simlint: disable=SIM002
