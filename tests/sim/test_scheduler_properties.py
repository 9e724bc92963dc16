"""Reference-model property tests for the engine's event order.

The engine keeps positive-delay events in a ``(time, seq)`` heap and
zero-delay events in a FIFO run-queue, merged at pop time.  The
contract: for any sequence of schedule / cancel / pop operations the
engine pops exactly what a plain sorted list would — every entry keyed
by ``(now_at_schedule + delay, seq)``, cancelled entries dropped
without advancing the clock.  These tests drive randomised operation
sequences (hypothesis) plus the known-nasty shapes (timer storms,
far-future entries, the lost-event regression) through the engine and
through a test-local model of that contract, and compare pop streams.
"""

import pytest

from repro.sim import Simulator

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def drive(ops):
    """Apply an op sequence to a fresh simulator; return the pop stream.

    Ops: ``("t", delay)`` schedules a timeout; ``("c", i)`` cancels the
    i-th (mod len) timer scheduled so far, if it has a positive delay
    and has not fired (cancellation only covers timed entries);
    ``("p", n)`` pops up to n events.  Whatever remains is drained at
    the end.
    """
    sim = Simulator()
    scheduled = []
    popped = []

    def pop_one():
        ev = sim._pop_merged()
        if ev is None:
            return False
        popped.append((sim.now, ev._value))
        ev._process()
        return True

    for kind, arg in ops:
        if kind == "t":
            scheduled.append(sim.timeout(arg, value=len(scheduled)))
        elif kind == "c" and scheduled:
            ev = scheduled[arg % len(scheduled)]
            if ev.delay > 0 and not ev.processed:
                sim.cancel(ev)
        elif kind == "p":
            for _ in range(arg):
                if not pop_one():
                    break
    while pop_one():
        pass
    return popped


def model(ops):
    """The pop stream :func:`drive` must produce, from a sorted list.

    Each timer is ``(when, seq, value)`` with ``when = now + delay`` at
    schedule time; a pop takes the smallest ``(when, seq)``.  Cancelled
    timers leave the list without touching the clock.
    """
    now = 0.0
    pending = []
    delays = []
    fired = set()
    cancelled = set()
    popped = []
    seq = 0

    def pop_one():
        nonlocal now
        while pending:
            pending.sort()
            when, _, value = pending.pop(0)
            if value in cancelled:
                continue
            now = when
            fired.add(value)
            popped.append((now, value))
            return True
        return False

    for kind, arg in ops:
        if kind == "t":
            seq += 1
            pending.append((now + arg, seq, len(delays)))
            delays.append(arg)
        elif kind == "c" and delays:
            value = arg % len(delays)
            if delays[value] > 0 and value not in fired:
                cancelled.add(value)
        elif kind == "p":
            for _ in range(arg):
                if not pop_one():
                    break
    while pop_one():
        pass
    return popped


def assert_matches_model(ops):
    assert drive(ops) == model(ops)


#: Delay magnitudes span sub-microsecond to far-future, and zero (the
#: run-queue lane): near-ties, same-time run-queue/heap merges and
#: long-parked entries all occur in one sequence.
_DELAYS = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e-4,
              allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=1.0,
              allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=500.0,
              allow_nan=False, allow_infinity=False),
)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("t"), _DELAYS),
        st.tuples(st.just("c"), st.integers(min_value=0, max_value=63)),
        st.tuples(st.just("p"), st.integers(min_value=1, max_value=8)),
    ),
    min_size=3,
    max_size=60,
)


@settings(max_examples=80, deadline=None)
@given(ops=_OPS)
def test_random_schedule_cancel_pop_streams_identical(ops):
    assert_matches_model(ops)


def test_lost_event_regression():
    """The minimal sequence that once lost an event: a far-future
    timeout is cancelled and lazily skipped *without advancing the
    clock*, and a subsequent near-term timeout must still fire."""
    assert_matches_model([
        ("t", 454.387), ("c", 0), ("p", 7), ("t", 0.347),
    ])


def test_timer_storm_identical():
    # Thousands of pending timers across every delay regime, popped in
    # interleaved bursts, with enough cancellations to compact.
    ops = []
    for i in range(2000):
        ops.append(("t", (i * 37 % 1000) * 1.7e-6))
        if i % 3 == 0:
            ops.append(("t", (i * 101 % 97) * 0.11))
        if i % 7 == 0:
            ops.append(("p", 4))
        if i % 11 == 0:
            ops.append(("c", i * 13))
    assert_matches_model(ops)


def test_far_future_overflow_identical():
    # Everything is parked far ahead; pops must come out in time order
    # and near-term timers armed later must overtake the rest.
    ops = [("t", 100.0 + (i * 57 % 113) * 3.3) for i in range(300)]
    ops += [("c", i * 7) for i in range(40)]
    ops.append(("p", 100))
    ops += [("t", (i * 29 % 41) * 0.01) for i in range(50)]
    assert_matches_model(ops)


def test_schedule_many_matches_sequential_timeouts():
    """Bulk scheduling is bit-identical to a loop of sim.timeout()."""
    delays = [(i * 37 % 1000) * 1.7e-5 for i in range(500)]

    def stream(bulk):
        sim = Simulator()
        if bulk:
            sim.schedule_many(delays)
        else:
            for d in delays:
                sim.timeout(d)
        out = []
        while True:
            ev = sim._pop_merged()
            if ev is None:
                return out
            out.append(sim.now)
            ev._process()

    assert stream(bulk=True) == stream(bulk=False)


def test_schedule_many_absolute_matches_cumulative_chain():
    """The at= form (sampler tick pre-arming) equals arming each tick
    from inside the previous tick's callback."""
    interval = 0.05

    def chained():
        sim = Simulator()
        out = []

        def body():
            for _ in range(32):
                yield sim.timeout(interval)
                out.append(sim.now)

        sim.run_process(body())
        return out

    def bulk():
        sim = Simulator()
        out = []
        times = []
        t = sim.now
        for _ in range(32):
            t += interval
            times.append(t)

        def body():
            for tick in sim.schedule_many(at=times):
                yield tick
                out.append(sim.now)

        sim.run_process(body())
        return out

    assert bulk() == chained()
