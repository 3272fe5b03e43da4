"""PGAS001-004 re-homed onto the static framework (one walker).

Same rules as the original flat linter: wall clocks in simulated code
(the harness and the host profiler are exempt), dropped costed
generators, literal metric names, ``SharedArray._data`` pokes.  Emits
:class:`~repro.analyze.findings.StaticFinding` like every other pass,
so the noqa mechanism, report and baseline are shared.
"""

from __future__ import annotations

import ast
from typing import List

from repro.analyze.findings import StaticFinding
from repro.analyze.static.loader import ModuleInfo

__all__ = ["run"]

#: module-level callables that read the host's wall clock
_WALLCLOCK_TIME = {"time", "monotonic", "perf_counter", "process_time", "time_ns",
                   "monotonic_ns", "perf_counter_ns"}
_WALLCLOCK_DATETIME = {"now", "utcnow", "today"}

#: methods returning simulated generators whose bare call is a no-op
_COSTED_GENERATORS = {
    "read_elem", "write_elem", "get_block", "put_block",
    "barrier", "barrier_notify", "barrier_wait",
    "compute", "compute_flops", "local_stream", "stream_from",
    "charge_shared_accesses", "memput", "memget", "am_roundtrip",
}

#: StatsCollector emitters whose first argument is a metric name
_STATS_EMITTERS = {"count", "add", "record"}

#: path suffixes (posix) where the wall clock is legitimate: the harness
#: measures wall time by design, and the host profiler's whole job is to
#: read ``perf_counter_ns`` around simulated code.
_WALLCLOCK_ALLOWED = ("repro/harness/", "repro/obs/profile/host.py")

#: path suffixes allowed to touch SharedArray._data
_DATA_ALLOWED = ("repro/upc/shared.py",)


def _is_stats_receiver(expr: ast.expr) -> bool:
    """``stats.count(...)``, ``self.stats.add(...)``, ``profiler.record(...)``.

    Profiler receivers (``repro.obs.profile``) emit under the same
    registered-name discipline as StatsCollector, so a literal metric
    name through either is the same lint error.
    """
    if isinstance(expr, ast.Name):
        return (expr.id in ("stats", "profiler")
                or expr.id.endswith(("_stats", "_profiler")))
    if isinstance(expr, ast.Attribute):
        return (expr.attr in ("stats", "profiler")
                or expr.attr.endswith(("_stats", "_profiler")))
    return False


def run(module: ModuleInfo) -> List[StaticFinding]:
    findings: List[StaticFinding] = []
    posix = module.path
    allow_wallclock = any(suffix in posix for suffix in _WALLCLOCK_ALLOWED)
    allow_data = any(posix.endswith(suffix) for suffix in _DATA_ALLOWED)

    def add(node: ast.AST, rule: str, message: str) -> None:
        findings.append(StaticFinding(
            path=module.path, line=node.lineno, col=node.col_offset,
            rule=rule, symbol=module.function_at(node.lineno),
            message=message,
        ))

    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            func = node.func
            # PGAS001 ----------------------------------------------------
            if (not allow_wallclock and isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)):
                mod, attr = func.value.id, func.attr
                if (mod == "time" and attr in _WALLCLOCK_TIME) or (
                    mod in ("datetime", "date") and attr in _WALLCLOCK_DATETIME
                ):
                    add(node, "PGAS001",
                        f"wall-clock call {mod}.{attr}() in simulated code "
                        "(use upc.wtime() / sim.now)")
            # PGAS003 ----------------------------------------------------
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _STATS_EMITTERS
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
                and _is_stats_receiver(func.value)
            ):
                add(node, "PGAS003",
                    f"metric name {node.args[0].value!r} is a string literal; "
                    "use a constant from repro.obs.names")
        elif isinstance(node, ast.Expr):
            # PGAS002 ----------------------------------------------------
            call = node.value
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr in _COSTED_GENERATORS
            ):
                add(node, "PGAS002",
                    f"bare call to costed generator .{call.func.attr}(...): "
                    "the generator is dropped and the operation never "
                    "happens; drive it with 'yield from'")
        elif isinstance(node, ast.Attribute):
            # PGAS004 ----------------------------------------------------
            if node.attr == "_data" and not allow_data:
                add(node, "PGAS004",
                    "._data accessed outside SharedArray's accessors "
                    "(bypasses cost charging and the sanitizer)")
    return findings
