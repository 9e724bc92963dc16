"""DET006: host-dependent values flowing into simulation sinks.

DET001/DET002 flag the *source calls* themselves; this rule follows
the value.  ``delay = time.monotonic() - start`` is only a hazard once
``delay`` reaches somewhere the simulation can observe it — a
scheduling call (``sim.timeout(delay)``, ``sim.advance(delay)``), an
event payload
(``ev.succeed(value, delay)``), or a digest that feeds the golden
results.  The taint walk is flow-insensitive per function (any name
ever assigned from a source is tainted everywhere) and steps across
exactly one call edge using the project summaries:

- a call to a ``returns_tainted`` helper taints its result, however
  many modules away the wall-clock read lives;
- passing a tainted value into a parameter the callee forwards to a
  sink (``sink_params``) is reported *at the call site*, where the
  fix belongs.
"""

from __future__ import annotations

import ast

from ..project import FunctionTaint, sink_arguments
from ..registry import Rule, register_rule


def _describe(arg: ast.AST, taint: FunctionTaint) -> str:
    """Human label for the tainted expression (best effort)."""
    for sub in ast.walk(arg):
        if isinstance(sub, ast.Name) and sub.id in taint.tainted:
            return f"value {sub.id!r}"
    return "value"


@register_rule
class TaintedSinkRule(Rule):
    """DET006: wall-clock/unseeded-random data reaching sim state."""

    code = "DET006"
    name = "no-tainted-sim-inputs"
    rationale = (
        "a wall-clock or global-random value that reaches a scheduled "
        "delay, event payload, or digest makes event order (and the "
        "golden results) machine-dependent — even via helper calls"
    )

    def run(self):
        project = self.ctx.project
        module = self.ctx.module
        if project is None or module is None:
            return self.findings
        for info in project.functions.values():
            if info.rel_path != self.ctx.rel_path:
                continue
            self._check_function(info, module, project)
        return self.findings

    def _check_function(self, info, module, project) -> None:
        taint = FunctionTaint(project, info)
        for node in self.walk_scope(info.node):
            if not isinstance(node, ast.Call):
                continue
            direct_positions = set()
            for position, arg in sink_arguments(node):
                direct_positions.add(position)
                if taint.expr_tainted(arg):
                    self.report(
                        node,
                        f"host-dependent {_describe(arg, taint)} flows "
                        "into a scheduling/digest sink; derive sim "
                        "inputs from sim.now or seeded streams",
                    )
            callee = project.resolve_call(
                node, module, info.class_name, within=info
            )
            if callee is None or not callee.sink_params:
                continue
            for position, arg in enumerate(node.args):
                if position in direct_positions:
                    continue
                if callee.arg_index(position) not in callee.sink_params:
                    continue
                if taint.expr_tainted(arg):
                    self.report(
                        node,
                        f"host-dependent {_describe(arg, taint)} passed "
                        f"to {callee.name}(), which forwards parameter "
                        f"{position} into a scheduling/digest sink",
                    )
