"""Executors: the *how to schedule it* half of the campaign pipeline.

An executor takes an ordered list of :class:`~repro.harness.spec.RunSpec`
points and returns their outputs **in the same order**, plus any
observability payloads (tracers, sanitizer findings) the caller asked
for.  Two implementations share that contract:

* :class:`InlineExecutor` — runs every point in this process, one after
  the other; exactly the historical harness behavior (and the only mode
  in which a single trace session spans the whole campaign in one go).
* :class:`~repro.harness.queue.QueueExecutor` — the multi-process
  executor: up to ``jobs`` long-lived workers take points one after
  another, under leases, retries with backoff and quarantine.  Given a
  ``journal_dir`` it is also durable (``--durable``/``--resume``): every
  point's lifecycle is journaled so a killed campaign can be resumed.

:func:`make_executor` is the one place that picks between them.  Every
simulation point is a pure function of its spec (fixed seeds, no
wall-clock reads), so scheduling cannot change results — only wall time.
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
    #: per-point profile snapshots (:meth:`ProfileSession.snapshot`), in
    #: spec order; empty unless the batch was profiled.  A quarantined
    #: point's slot is None — merged profiles cover only healthy points.
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


class InlineExecutor:
    """Sequential in-process execution — the historical harness path."""

    jobs = 1

    def run(self, specs: Sequence[RunSpec], *, trace: bool = False,
            sanitize: bool = False, profile: bool = False) -> ExecutionBatch:
        from contextlib import ExitStack

        batch = ExecutionBatch()
        if not specs:
            return batch
        with ExitStack() as stack:
            san_session = None
            if sanitize:
                from repro.analyze.sanitizer import sanitize_session

                san_session = stack.enter_context(sanitize_session("campaign"))
            session = None
            if trace:
                from repro.obs.session import trace_session

                session = stack.enter_context(trace_session("campaign"))
            bounds: List[int] = []
            for spec in specs:
                if profile:
                    # One profile session *per point* (not per campaign,
                    # unlike the trace session) so inline and parallel
                    # batches merge to byte-identical cost profiles.
                    from repro.obs.profile import profile_session

                    with profile_session(spec.app) as psession:
                        batch.outputs.append(execute_spec(spec))
                    batch.profiles.append(psession.snapshot())
                else:
                    batch.outputs.append(execute_spec(spec))
                if session is not None:
                    bounds.append(len(session.tracers))
        if session is not None:
            batch.tracers = list(session.tracers)
            lo = 0
            for hi in bounds:
                batch.tracer_groups.append(batch.tracers[lo:hi])
                lo = hi
        if san_session is not None:
            batch.findings = [f.row() for f in san_session.findings]
            batch.sanitizer_runs = len(san_session.sanitizers)
        return batch


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
