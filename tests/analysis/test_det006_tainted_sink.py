"""DET006: tainted values flowing into scheduling/digest sinks."""

import ast
import textwrap

from repro.analysis.engine import lint_source
from repro.analysis.project import build_project

from .util import codes, lint_snippet


def _det006(findings):
    return [f for f in findings if f.code == "DET006"]


# -- true positives -----------------------------------------------------------

def test_wall_clock_into_timeout():
    findings = lint_snippet(
        """
        import time

        def pace(sim):
            delay = time.perf_counter()
            yield sim.timeout(delay)
        """
    )
    assert "DET006" in codes(findings)
    hit = _det006(findings)[0]
    assert "'delay'" in hit.message


def test_wall_clock_into_advance():
    findings = lint_snippet(
        """
        import time

        def pace(sim, start):
            elapsed = time.monotonic() - start
            if not sim.advance(elapsed):
                yield sim.timeout(1.0)
        """
    )
    hits = _det006(findings)
    assert len(hits) == 1 and "'elapsed'" in hits[0].message


def test_unseeded_random_into_advance():
    findings = lint_snippet(
        """
        import random

        def jitter(sim):
            pause = random.random()
            if not sim.advance(pause):
                yield sim.timeout(0.0)
        """
    )
    assert "DET006" in codes(findings)


def test_global_random_into_event_payload():
    findings = lint_snippet(
        """
        import random

        def complete(event):
            jitter = random.random()
            event.succeed(None, jitter)
        """
    )
    assert "DET006" in codes(findings)


def test_taint_through_arithmetic():
    findings = lint_snippet(
        """
        import time

        def pace(sim, start):
            elapsed = time.monotonic() - start
            yield sim.timeout(elapsed * 0.5)
        """
    )
    assert "DET006" in codes(findings)


def test_taint_into_digest():
    findings = lint_snippet(
        """
        import os

        def fingerprint(hasher):
            salt = os.urandom(8)
            hasher.update(salt)
        """
    )
    assert "DET006" in codes(findings)


def test_interprocedural_source_via_helper_module():
    """The wall-clock read lives a module away; only the project-wide
    ``returns_tainted`` summary can connect it to the sink."""
    helper = textwrap.dedent(
        """
        import time

        def stamp():
            return time.time()
        """
    )
    user = textwrap.dedent(
        """
        from .clockutil import stamp

        def pace(sim):
            mark = stamp()
            yield sim.timeout(mark)
        """
    )
    project = build_project([
        ("src/repro/sim/clockutil.py", ast.parse(helper)),
        ("src/repro/sim/pacer.py", ast.parse(user)),
    ])
    findings = lint_source(
        user, "src/repro/sim/pacer.py", project=project
    )
    assert "DET006" in codes(findings)
    # The helper itself never touches a sink: no finding there.
    helper_findings = lint_source(
        helper, "src/repro/sim/clockutil.py", project=project
    )
    assert "DET006" not in codes(helper_findings)


def test_interprocedural_sink_param():
    """Tainted value passed to a helper that forwards it into a sink:
    reported at the call site."""
    findings = lint_snippet(
        """
        import time

        def delay_by(sim, amount):
            return sim.timeout(amount)

        def pace(sim):
            lag = time.perf_counter()
            yield delay_by(sim, lag)
        """
    )
    hits = _det006(findings)
    assert len(hits) == 1
    assert "delay_by" in hits[0].message


# -- false positives ----------------------------------------------------------

def test_sim_now_is_clean():
    findings = lint_snippet(
        """
        def pace(sim, last):
            elapsed = sim.now - last
            yield sim.timeout(elapsed)
        """
    )
    assert "DET006" not in codes(findings)


def test_seeded_stream_is_clean():
    findings = lint_snippet(
        """
        import random

        def pace(sim, seed):
            rng = random.Random(seed)
            yield sim.timeout(rng.expovariate(1.0))
        """
    )
    assert "DET006" not in codes(findings)


def test_source_without_sink_is_not_det006():
    # DET001 owns the bare wall-clock read; DET006 stays quiet until
    # the value reaches a sink.
    findings = lint_snippet(
        """
        import time

        def annotate(record):
            record.wall = time.time()
        """,
        rel_path="src/repro/workloads/snippet.py",
    )
    assert "DET006" not in codes(findings)


def test_rebinding_clears_nothing_but_constant_delay_is_clean():
    findings = lint_snippet(
        """
        def pace(sim, cfg):
            yield sim.timeout(cfg.interval)
        """
    )
    assert "DET006" not in codes(findings)
