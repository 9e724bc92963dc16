"""SIM rules: resource and scheduling discipline inside the simulator.

SIM001  resource acquired without a try/finally release
SIM002  events scheduled with a negative delay literal
SIM004  cache-space reservations / in-flight registrations that can
        leak on a raising or returning path (CFG-based)
SIM005  process-protocol violations (bad yields, swallowed kills,
        generators called but never consumed)
"""

from __future__ import annotations

import ast
import typing

from ..dataflow import assigned_names, build_cfg
from ..registry import Rule, register_rule


def _acquire_call(value: ast.AST) -> ast.Call | None:
    """The ``<expr>.acquire(...)`` call inside ``value``, if that is
    what the expression is (possibly behind ``yield`` / ``yield from``)."""
    if isinstance(value, (ast.Yield, ast.YieldFrom)) and value.value is not None:
        value = value.value
    if (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Attribute)
        and value.func.attr == "acquire"
    ):
        return value
    return None


def _released_names(fn: ast.AST, walk) -> set[str]:
    """Names released inside some ``finally`` block of ``fn``."""
    released: set[str] = set()
    for node in walk(fn):
        if not isinstance(node, ast.Try) or not node.finalbody:
            continue
        for stmt in node.finalbody:
            for sub in ast.walk(stmt):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "release"
                    and sub.args
                    and isinstance(sub.args[0], ast.Name)
                ):
                    released.add(sub.args[0].id)
    return released


@register_rule
class AcquireWithoutFinallyRule(Rule):
    """SIM001: a process that acquires a slot and raises (or is killed)
    before releasing it wedges the resource for the rest of the run —
    the classic source of phantom deadlocks in DES code.  Every acquire
    needs its release in a ``finally``."""

    code = "SIM001"
    name = "acquire-needs-finally-release"
    rationale = (
        "a killed/crashed process that holds a grant leaks the slot "
        "forever; release must sit in a finally block"
    )

    _MESSAGE = (
        "resource acquired {how} a finally-release for {name!r}; "
        "wrap the critical section in try/finally"
    )

    def _check_function(self, fn: typing.Any) -> None:
        released = _released_names(fn, self.walk_scope)
        for node in self.walk_scope(fn):
            if isinstance(node, ast.Assign):
                call = _acquire_call(node.value)
                if call is None:
                    continue
                if len(node.targets) == 1 and isinstance(
                    node.targets[0], ast.Name
                ):
                    name = node.targets[0].id
                    if name not in released:
                        self.report(
                            call,
                            self._MESSAGE.format(how="without", name=name),
                        )
                else:
                    self.report(
                        call,
                        "acquire result bound to a non-name target; "
                        "bind the grant to a local and release it in "
                        "a finally block",
                    )
            elif isinstance(node, ast.Expr):
                call = _acquire_call(node.value)
                if call is not None:
                    self.report(
                        call,
                        "acquire result discarded — the grant can never "
                        "be released",
                    )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)


#: callable-name -> index of the positional delay argument.
_DELAY_POSITIONS = {
    "timeout": 0,
    "_schedule": 1,
    "succeed": 1,
    "fail": 1,
}


def _negative_literal(node: ast.AST | None) -> bool:
    return (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and isinstance(node.operand.value, (int, float))
        and node.operand.value > 0
    )


@register_rule
class NegativeDelayRule(Rule):
    """SIM002: scheduling into the past either raises at runtime
    (``Simulator._schedule`` guards it) or, worse, would reorder the
    event heap.  A negative delay literal is always a bug."""

    code = "SIM002"
    name = "no-negative-delay"
    rationale = (
        "timeout()/succeed()/fail() with a negative delay schedules "
        "into the past; the engine rejects it at runtime"
    )

    def visit_Call(self, node: ast.Call) -> None:
        name = None
        if isinstance(node.func, ast.Attribute):
            name = node.func.attr
        elif isinstance(node.func, ast.Name):
            name = node.func.id
        position = _DELAY_POSITIONS.get(name or "")
        if position is not None:
            delay: ast.AST | None = None
            if len(node.args) > position:
                delay = node.args[position]
            for kw in node.keywords:
                if kw.arg == "delay":
                    delay = kw.value
            if _negative_literal(delay):
                self.report(
                    node,
                    f"negative delay literal passed to {name}(); events "
                    "cannot be scheduled into the past",
                )
        self.generic_visit(node)


# -- SIM004: path-sensitive resource-leak detection -------------------------

#: CacheSpace allocation calls whose result must be released or
#: consumed on every path (SIM001 owns ``.acquire`` grants; these are
#: the *reservation* APIs the PR 7 zombie-movement bug class abused).
_RESERVE_ATTRS = frozenset({"find_free_space", "find_clean_space"})

#: Calls that settle a reservation: hand it back, or publish it into a
#: table/recency structure that owns it from then on.
_CONSUME_ATTRS = frozenset({
    "add", "append", "extend", "insert", "put", "register", "store",
    "touch",
})

#: Attribute-name fragments that mark an in-flight registration list
#: (the Rebuilder's ``_active_batch``; deliberately narrow so that
#: e.g. ``sim._active_process`` never matches).
_REGISTRATION_HINTS = ("batch", "movement", "in_flight", "inflight")


def _is_registration_attr(name: str) -> bool:
    lowered = name.lower()
    return any(hint in lowered for hint in _REGISTRATION_HINTS)


def _mentions(node: ast.AST, name: str) -> bool:
    return any(
        isinstance(sub, ast.Name) and sub.id == name
        for sub in ast.walk(node)
    )


def _empty_container(value: ast.AST | None) -> bool:
    """True for ``[]``/``{}``/``set()``/``list()`` style initialisers."""
    if value is None:
        return True
    if isinstance(value, (ast.List, ast.Tuple, ast.Set)):
        return not value.elts
    if isinstance(value, ast.Dict):
        return not value.keys
    return (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id in ("list", "dict", "set", "tuple")
        and not value.args
        and not value.keywords
    )


def _header_parts(stmt: ast.AST) -> list[ast.AST]:
    """The sub-expressions a compound statement's CFG node evaluates.

    A CFG node for an ``if``/``while``/``for`` represents only the
    test/iterator — its body statements have their own nodes — so the
    settle check below must not walk into the body through the header.
    """
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.target, stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        parts: list[ast.AST] = []
        for item in stmt.items:
            parts.append(item.context_expr)
            if item.optional_vars is not None:
                parts.append(item.optional_vars)
        return parts
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    if isinstance(stmt, ast.ExceptHandler):
        return []
    return [stmt]


def _settles(stmt: ast.AST, name: str) -> bool:
    """True when this statement ends the holding of ``name``."""
    if isinstance(stmt, ast.ExceptHandler):
        return False
    if name in assigned_names(stmt):
        return True  # rebound: the old reservation is no longer ours
    for part in _header_parts(stmt):
        if isinstance(part, ast.Return):
            return part.value is not None and _mentions(part.value, name)
        if isinstance(part, ast.Assign) and _mentions(part.value, name):
            # Stored into an attribute/subscript: escaped to an owner.
            if any(
                isinstance(t, (ast.Attribute, ast.Subscript))
                for t in part.targets
            ):
                return True
        for sub in ast.walk(part):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "release"
                or (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in _CONSUME_ATTRS
                )
            ):
                args = list(sub.args) + [kw.value for kw in sub.keywords]
                if any(_mentions(arg, name) for arg in args):
                    return True
    return False


def _reservation_call(value: ast.AST) -> ast.Call | None:
    """The ``find_*_space`` call inside an assignment value, if any."""
    for sub in ast.walk(value):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr in _RESERVE_ATTRS
        ):
            return sub
    return None


@register_rule
class ResourceLeakRule(Rule):
    """SIM004: a reservation acquired on a path that can raise or
    return before it is released or published leaks cache space (or
    leaves zombie in-flight registrations) — exactly the accounting
    corruption the PR 7 property suite caught in the Rebuilder."""

    code = "SIM004"
    name = "no-leaking-reservations"
    rationale = (
        "cache-space reservations and in-flight registrations must be "
        "released/consumed on every path, including kills delivered "
        "at yield points; a leaked range corrupts space accounting"
    )
    sim_only = True

    # -- reservation leaks over the CFG -----------------------------------
    def _leak_escape(self, cfg, start, name: str) -> str | None:
        """First escape kind a held path reaches, or None."""
        stack = list(start.succs)
        seen: set = set()
        while stack:
            node, label = stack.pop()
            if label == ("isnone", name):
                continue  # acquisition failed on this edge: not held
            if node in seen:
                continue
            seen.add(node)
            if node.kind == "exit":
                return "return"
            if node.kind == "raise":
                return "raise"
            if node.stmt is not None and _settles(node.stmt, name):
                continue
            stack.extend(node.succs)
        return None

    _ESCAPES = {
        "return": "a path can return without releasing it",
        "raise": (
            "an exception (or a kill delivered at a yield point) can "
            "unwind without releasing it"
        ),
    }

    def _check_reservations(self, fn) -> None:
        cfg = None
        for stmt in self.walk_scope(fn):
            if not isinstance(stmt, ast.Assign):
                continue
            if len(stmt.targets) != 1 or not isinstance(
                stmt.targets[0], ast.Name
            ):
                continue
            call = _reservation_call(stmt.value)
            if call is None:
                continue
            if cfg is None:
                cfg = build_cfg(fn)
            node = cfg.node_of.get(stmt)
            if node is None:
                continue  # inside a nested function of fn
            name = stmt.targets[0].id
            escape = self._leak_escape(cfg, node, name)
            if escape is not None:
                self.report(
                    call,
                    f"cache-space reservation {name!r} can leak: "
                    f"{self._ESCAPES[escape]}; release it in an "
                    "exception path (or publish it) before the "
                    "function can exit",
                )

    # -- in-flight registration discipline --------------------------------
    def _check_registrations(self, fn) -> None:
        is_generator = any(
            isinstance(n, (ast.Yield, ast.YieldFrom))
            for n in self.walk_scope(fn)
        )
        deregistered: set[str] = set()
        for node in self.walk_scope(fn):
            if not isinstance(node, ast.Try) or not node.finalbody:
                continue
            for stmt in node.finalbody:
                for sub in ast.walk(stmt):
                    if isinstance(
                        sub, ast.Attribute
                    ) and _is_registration_attr(sub.attr):
                        deregistered.add(sub.attr)
        for node in self.walk_scope(fn):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                self._check_overwrite(fn, node)
            if not is_generator:
                continue
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("extend", "append", "add")
                and isinstance(node.func.value, ast.Attribute)
                and _is_registration_attr(node.func.value.attr)
                and node.func.value.attr not in deregistered
            ):
                self.report(
                    node,
                    f"in-flight registration on "
                    f"{node.func.value.attr!r} without a finally-"
                    "deregistration; a kill at a later yield leaves "
                    "zombie entries behind",
                )

    def _check_overwrite(self, fn, stmt) -> None:
        """Flag wholesale assignment to a shared registration list."""
        if getattr(fn, "name", "") == "__init__":
            return  # initial definition
        targets = (
            stmt.targets if isinstance(stmt, ast.Assign)
            else [stmt.target]
        )
        value = stmt.value
        for target in targets:
            if isinstance(target, ast.Tuple):
                continue  # swap idiom: ownership transfer, sanctioned
            if not (
                isinstance(target, ast.Attribute)
                and _is_registration_attr(target.attr)
            ):
                continue
            if _empty_container(value):
                continue
            if isinstance(value, ast.Constant):
                continue  # scalar reset (a counter, not a list)
            self.report(
                stmt,
                f"assignment overwrites registration list "
                f"{target.attr!r}; a concurrent runner's in-flight "
                "entries vanish from kill sweeps — register "
                "additively (extend) instead",
            )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_reservations(node)
        self._check_registrations(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_reservations(node)
        self._check_registrations(node)
        self.generic_visit(node)


# -- SIM005: process protocol ------------------------------------------------

#: Exception names whose handler catches the kill the engine throws
#: into a process at its yield point (``ProcessKilled`` derives from
#: ``SimulationError`` → ``ReproError`` → ``Exception``, so broad
#: handlers swallow it too).
_KILL_CATCHERS = frozenset({
    "ProcessKilled", "BaseException", "Exception", "SimulationError",
    "ReproError",
})


def _catches_kill(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True  # bare except
    names = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for name in names:
        tail = (
            name.attr if isinstance(name, ast.Attribute)
            else name.id if isinstance(name, ast.Name)
            else None
        )
        if tail in _KILL_CATCHERS:
            return True
    return False


def _body_exits(handler: ast.ExceptHandler) -> bool:
    """True when the handler re-raises or leaves the generator."""
    return any(
        isinstance(sub, (ast.Raise, ast.Return))
        for sub in ast.walk(handler)
    )


@register_rule
class ProcessProtocolRule(Rule):
    """SIM005: generator processes must speak the engine's protocol.

    Yield raw numbers and the engine has no event to wait on; swallow
    the ProcessKilled the engine throws in at a yield point and then
    yield again, and ``Process._throw_in`` escalates to a
    SimulationError at runtime; call a process generator without
    ``yield from``/``spawn`` and its body silently never runs.  All
    three are static properties — catch them in lint."""

    code = "SIM005"
    name = "process-protocol"
    rationale = (
        "processes must yield events (not raw values), re-raise or "
        "return after catching a kill, and consume generators via "
        "yield from / spawn — each violation is a runtime error or a "
        "silent no-op"
    )
    sim_only = True

    def run(self):
        project = self.ctx.project
        module = self.ctx.module
        if project is None or module is None:
            return self.findings
        infos = [
            info for info in project.functions.values()
            if info.rel_path == self.ctx.rel_path
        ]
        for info in infos:
            if info.is_process:
                self._check_yields(info, module, project)
                self._check_swallowed_kills(info)
            self._check_discarded_generators(info, module, project)
        return self.findings

    # -- (a) what a process may yield --------------------------------------
    def _check_yields(self, info, module, project) -> None:
        for node in self.walk_scope(info.node):
            if not isinstance(node, ast.Yield):
                continue
            value = node.value
            if value is None:
                continue  # bare `yield` generator marker (after return)
            if isinstance(value, (ast.Constant, ast.BinOp, ast.UnaryOp)):
                self.report(
                    node,
                    "process yields a raw value, not an event; wrap "
                    "delays in sim.timeout(delay)",
                )
            elif isinstance(value, ast.Call):
                callee = project.resolve_call(
                    value, module, info.class_name, within=info
                )
                if callee is not None and callee.is_generator:
                    self.report(
                        node,
                        f"process yields the generator "
                        f"{callee.name}() itself; use `yield from` "
                        "(sequential) or sim.spawn() (concurrent)",
                    )

    # -- (b) swallowed cancellation ----------------------------------------
    def _check_swallowed_kills(self, info) -> None:
        yields = [
            n for n in self.walk_scope(info.node)
            if isinstance(n, (ast.Yield, ast.YieldFrom))
        ]
        if not yields:
            return
        last_yield_line = max(
            getattr(n, "lineno", 0) for n in yields
        )

        def scan(body, in_loop: bool) -> None:
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    continue
                if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
                    scan(stmt.body, True)
                    scan(stmt.orelse, in_loop)
                    continue
                if isinstance(stmt, ast.Try):
                    for handler in stmt.handlers:
                        if not _catches_kill(handler):
                            continue
                        if _body_exits(handler):
                            continue
                        end = getattr(stmt, "end_lineno", stmt.lineno)
                        if in_loop or last_yield_line > end:
                            self.report(
                                handler,
                                "process swallows cancellation: the "
                                "handler catches the injected kill "
                                "but neither re-raises nor returns, "
                                "and the process yields again — the "
                                "engine escalates this to a "
                                "SimulationError",
                            )
                    scan(stmt.body, in_loop)
                    for handler in stmt.handlers:
                        scan(handler.body, in_loop)
                    scan(stmt.orelse, in_loop)
                    scan(stmt.finalbody, in_loop)
                    continue
                if isinstance(stmt, ast.If):
                    scan(stmt.body, in_loop)
                    scan(stmt.orelse, in_loop)
                    continue
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    scan(stmt.body, in_loop)
                    continue

        scan(getattr(info.node, "body", []), False)

    # -- (c) generators called but never consumed --------------------------
    def _check_discarded_generators(self, info, module, project) -> None:
        for node in self.walk_scope(info.node):
            if not isinstance(node, ast.Expr):
                continue
            value = node.value
            if not isinstance(value, ast.Call):
                continue
            callee = project.resolve_call(
                value, module, info.class_name, within=info
            )
            if callee is not None and callee.is_generator:
                self.report(
                    value,
                    f"generator {callee.name}() called and discarded — "
                    "its body never runs; consume it with `yield from` "
                    "or hand it to sim.spawn()",
                )
