"""SIM002: negative delay literals in event scheduling."""

from .util import codes, lint_snippet


def test_negative_timeout_flagged():
    findings = lint_snippet(
        """
        def flow(sim):
            yield sim.timeout(-1.0)
        """
    )
    assert codes(findings) == ["SIM002"]


def test_negative_succeed_delay_flagged():
    findings = lint_snippet(
        """
        def fire(event):
            event.succeed(None, -0.5)
        """
    )
    assert codes(findings) == ["SIM002"]


def test_negative_advance_flagged():
    findings = lint_snippet(
        """
        def flow(sim):
            if not sim.advance(-0.5):
                yield sim.timeout(0.5)
        """
    )
    assert codes(findings) == ["SIM002"]


def test_negative_keyword_delay_flagged():
    findings = lint_snippet(
        """
        def fire(event, exc):
            event.fail(exc, delay=-2)
        """
    )
    assert codes(findings) == ["SIM002"]


def test_zero_and_positive_delays_not_flagged():
    findings = lint_snippet(
        """
        def flow(sim, event):
            yield sim.timeout(0.0)
            if not sim.advance(0.25):
                yield sim.timeout(0.25)
            event.succeed(None, 1.5)
        """
    )
    assert findings == []


def test_variable_delay_not_flagged():
    findings = lint_snippet(
        """
        def flow(sim, delta):
            yield sim.timeout(delta)
        """
    )
    assert findings == []
