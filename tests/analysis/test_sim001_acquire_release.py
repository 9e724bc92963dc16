"""SIM001: resource acquire without a finally-release."""

from .util import codes, lint_snippet


def test_acquire_without_finally_flagged():
    findings = lint_snippet(
        """
        def flow(sim, device):
            grant = yield device.acquire()
            yield sim.timeout(1.0)
            device.release(grant)
        """
    )
    assert codes(findings) == ["SIM001"]


def test_acquire_released_in_except_only_flagged():
    findings = lint_snippet(
        """
        def flow(sim, device):
            grant = yield device.acquire()
            try:
                yield sim.timeout(1.0)
            except RuntimeError:
                device.release(grant)
        """
    )
    assert codes(findings) == ["SIM001"]


def test_discarded_acquire_flagged():
    findings = lint_snippet(
        """
        def flow(device):
            yield device.acquire()
        """
    )
    assert codes(findings) == ["SIM001"]
    assert "discarded" in findings[0].message


def test_finally_release_not_flagged():
    findings = lint_snippet(
        """
        def flow(sim, device):
            grant = yield device.acquire()
            try:
                yield sim.timeout(1.0)
            finally:
                device.release(grant)
        """
    )
    assert findings == []


def test_nested_grants_both_checked():
    findings = lint_snippet(
        """
        def transfer(sim, tx, rx):
            a = yield tx.acquire()
            try:
                b = yield rx.acquire()
                yield sim.timeout(1.0)
            finally:
                tx.release(a)
        """
    )
    assert codes(findings) == ["SIM001"]
    assert "'b'" in findings[0].message


def test_nested_function_scopes_are_independent():
    findings = lint_snippet(
        """
        def outer(sim, device):
            def inner():
                grant = yield device.acquire()
                try:
                    yield sim.timeout(1.0)
                finally:
                    device.release(grant)
            yield from inner()
        """
    )
    assert findings == []


def test_inline_disable_suppresses():
    findings = lint_snippet(
        """
        def handoff(device):
            grant = device.acquire()  # simlint: disable=SIM001
            return grant
        """
    )
    assert findings == []


def test_take_idiom_with_finally_release_not_flagged():
    findings = lint_snippet(
        """
        def flow(sim, device):
            grant = device.acquire()
            if not sim.take(grant):
                yield grant
            try:
                yield sim.timeout(1.0)
            finally:
                device.release(grant)
        """
    )
    assert findings == []


def test_take_idiom_without_finally_flagged():
    findings = lint_snippet(
        """
        def flow(sim, device):
            grant = device.acquire()
            if not sim.take(grant):
                yield grant
            yield sim.timeout(1.0)
            device.release(grant)
        """
    )
    assert codes(findings) == ["SIM001"]
    assert "'grant'" in findings[0].message


def test_take_idiom_lock_released_by_request_not_flagged():
    findings = lint_snippet(
        """
        def critical(sim, locks):
            lock = locks.acquire("dmt", owner="rank0")
            if not sim.take(lock):
                yield lock
            try:
                yield sim.timeout(1.0)
            finally:
                locks.release(lock)
        """
    )
    assert findings == []
