"""Executors: the *how to schedule it* half of the campaign pipeline.

An executor takes an ordered list of :class:`~repro.harness.spec.RunSpec`
points and returns their outputs **in the same order**, plus any
observability payloads (tracers, sanitizer findings) the caller asked
for.  Two implementations share that contract:

* :class:`InlineExecutor` — runs every point in this process, one after
  the other.
* :class:`~repro.harness.queue.QueueExecutor` — the multi-process
  executor: up to ``jobs`` long-lived workers take points one after
  another, under leases, retries with backoff and quarantine.  Given a
  ``journal_dir`` it is also durable (``--durable``/``--resume``): every
  point's lifecycle is journaled so a killed campaign can be resumed.

:func:`make_executor` is the one place that picks between them.  Every
simulation point is a pure function of its spec (fixed seeds, no
wall-clock reads), so scheduling cannot change results — only wall time.

Both executors compute a point the same way, :func:`compute_payload`
(inside its own instrumentation session), and assemble the batch the
same way, :func:`assemble_batch`; only where and when points run
differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ExecutorError
from repro.harness.spec import RunSpec

__all__ = [
    "ExecutionBatch",
    "ExecutorError",
    "InlineExecutor",
    "assemble_batch",
    "compute_payload",
    "execute_spec",
    "make_executor",
]

#: app id prefix -> package exposing the normalized ``run_request`` adapter
_ADAPTER_PACKAGES = {
    "uts": "repro.apps.uts",
    "ft": "repro.apps.ft",
    "stream": "repro.apps.stream",
    "microbench": "repro.apps.microbench",
}


def execute_spec(spec: RunSpec) -> Dict[str, Any]:
    """Run one simulation point via its app's ``run_request`` adapter."""
    import importlib

    prefix = spec.app.split(".", 1)[0]
    package = _ADAPTER_PACKAGES.get(prefix)
    if package is None:
        raise ValueError(
            f"no adapter for app {spec.app!r}; known: {sorted(_ADAPTER_PACKAGES)}"
        )
    module = importlib.import_module(package)
    return module.run_request(spec)


@dataclass
class ExecutionBatch:
    """Outputs (in spec order) plus observability payloads of one batch."""

    outputs: List[Optional[Dict[str, Any]]] = field(default_factory=list)
    #: finished tracers from every simulated run, in spec order
    #: (empty unless the batch was traced).
    tracers: List[Any] = field(default_factory=list)
    #: the same tracers grouped per executed point — ``tracer_groups[i]``
    #: holds point ``i``'s runs (a point may simulate several programs).
    #: Empty unless the batch was traced; a quarantined point's slot is
    #: an empty list.  The campaign summarizer keys on this grouping.
    tracer_groups: List[List[Any]] = field(default_factory=list)
    #: per-point profile snapshots (:meth:`Session.snapshot
    #: <repro.obs.session.Session.snapshot>`), in spec order; empty unless
    #: the batch was profiled.  A quarantined point's slot is None —
    #: merged profiles cover only healthy points.
    profiles: List[Optional[Dict[str, Any]]] = field(default_factory=list)
    #: sanitizer finding rows, in spec order (empty unless sanitized).
    findings: List[Dict[str, Any]] = field(default_factory=list)
    #: how many sanitizers were armed (== simulated runs when sanitizing).
    sanitizer_runs: int = 0
    #: quarantined points (queue executor only): rows of {point, app,
    #: fingerprint, attempts, error} with batch-local point indices; the
    #: matching ``outputs`` slots hold None.
    failures: List[Dict[str, Any]] = field(default_factory=list)
    #: points whose outputs were replayed from a journal (``--resume``)
    #: instead of executed.
    replayed: int = 0


def compute_payload(spec: RunSpec, trace: bool, sanitize: bool,
                    profile: bool) -> Dict[str, Any]:
    """One spec inside its own instrumentation session → picklable payload.

    Tracers are detached from their simulator (``sim`` holds generators,
    which cannot cross a process boundary) — everything the exporter and
    critical-path attribution read is already materialized in the
    tracer's own lists.
    """
    from repro.obs.session import session

    with session(spec.app, trace=trace, sanitize=sanitize,
                 profile=profile) as point:
        output = execute_spec(spec)
    for tracer in point.tracers:
        tracer.sim = None
    return {"output": output, "tracers": point.tracers,
            "findings": [f.row() for f in point.findings],
            "sanitizer_runs": len(point.sanitizers),
            "profile": point.snapshot() if profile else None}


def assemble_batch(payloads: Sequence[Optional[Dict[str, Any]]], *,
                   trace: bool, profile: bool) -> ExecutionBatch:
    """The batch of per-point payloads, in spec order; None = no result.

    A point without a result keeps an empty tracer group and a None
    profile, so merged artifacts cover only the healthy points.  The
    merged tracers are re-numbered in spec order, so every executor
    exports the same bytes (``run_index`` is lane ordering).
    """
    batch = ExecutionBatch()
    for payload in payloads:
        if payload is None:
            batch.outputs.append(None)
            if trace:
                batch.tracer_groups.append([])
            if profile:
                batch.profiles.append(None)
            continue
        batch.outputs.append(payload["output"])
        batch.tracers.extend(payload["tracers"])
        if trace:
            batch.tracer_groups.append(list(payload["tracers"]))
        if profile:
            batch.profiles.append(payload["profile"])
        batch.findings.extend(payload["findings"])
        batch.sanitizer_runs += payload["sanitizer_runs"]
    for index, tracer in enumerate(batch.tracers, start=1):
        tracer.run_index = index
    return batch


class InlineExecutor:
    """Sequential in-process execution, one point after the other."""

    jobs = 1

    def run(self, specs: Sequence[RunSpec], *, trace: bool = False,
            sanitize: bool = False, profile: bool = False) -> ExecutionBatch:
        return assemble_batch(
            [compute_payload(spec, trace, sanitize, profile) for spec in specs],
            trace=trace, profile=profile)


def make_executor(jobs: int = 1, *, durable: bool = False, journal_dir=None,
                  resume: bool = False, point_timeout: Optional[float] = None,
                  chaos: Optional[str] = None, **options):
    """The executor for a campaign: inline, or the multi-process queue.

    One job and no durability runs inline.  Anything else runs on
    :class:`~repro.harness.queue.QueueExecutor`; ``resume``,
    ``point_timeout`` and ``chaos`` imply ``durable``, and only a durable
    run journals (under ``journal_dir``).  ``options`` pass through to
    the queue (``max_attempts``, ``lease_s``, ``meta``...).
    """
    durable = (durable or resume or point_timeout is not None
               or chaos is not None)
    if jobs <= 1 and not durable:
        return InlineExecutor()
    from repro.harness.queue import QueueExecutor

    return QueueExecutor(jobs, journal_dir=journal_dir if durable else None,
                         resume=resume, point_timeout=point_timeout,
                         chaos=chaos, **options)
