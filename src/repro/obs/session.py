"""Instrumentation sessions: arming tracing, sanitizing and profiling.

Instrumentation is off by default: every
:class:`~repro.sim.engine.Simulator` starts with the shared disabled sink
:data:`NULL_SINK` as its ``tracer``, ``sanitizer`` and ``profiler``,
whose class-level ``enabled = False`` lets each hook site bail in one
attribute load.

A :func:`session` context manager arms any mix of the three for a region
of host code.  While it is active every
:class:`~repro.upc.runtime.UpcProgram` (or
:class:`~repro.mpi.comm.MpiProgram`) constructed calls :func:`attach`
once, which gives its simulator

* with ``trace=True``, a fresh :class:`~repro.obs.tracer.Tracer` — one
  session can span many simulated runs (a harness experiment like
  ``f4_2`` constructs ~30 programs), each its own process group in the
  exported trace;
* with ``sanitize=True``, a fresh
  :class:`~repro.analyze.sanitizer.Sanitizer` (UPC programs only);
* with ``profile=True``, the session's shared
  :class:`~repro.obs.profile.cost.CostProfiler`.  The session also owns
  one :class:`~repro.obs.profile.host.HostProfiler` spanning the whole
  body: ``sys.setprofile`` is process-global, so one wall-clock profile
  per session is the honest granularity.

Each instrument's module is imported only when its flag is set, so the
simulation kernel never loads the sanitizer or the profilers.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.obs import names

__all__ = ["NullSink", "NULL_SINK", "Session", "session", "attach"]

#: The module-global active session (None when instrumentation is off).
_ACTIVE: Optional["Session"] = None


class NullSink:
    """The disabled tracer, sanitizer and cost profiler in one object.

    Hook sites guard with ``if sink.enabled:`` so the uninstrumented hot
    path costs one attribute load; the methods still exist so unguarded
    call sites stay correct.
    """

    enabled = False
    #: a disabled sanitizer has no findings
    findings: tuple = ()

    # -- tracer hooks ----------------------------------------------------

    def declare_track(self, track, name: Optional[str] = None) -> None:
        pass

    def begin(self, track, name: str, category: str = names.CAT_OTHER,
              args: Optional[dict] = None) -> int:
        return -1

    def end(self, span_id: int, args: Optional[dict] = None) -> None:
        pass

    def instant(self, track, name: str, category: str = names.CAT_OTHER,
                args: Optional[dict] = None) -> None:
        pass

    def counter(self, track, name: str, value: float) -> None:
        pass

    def comm(self, src_node: int, dst_node: int, nbytes: float) -> None:
        pass

    def process_killed(self, process) -> None:
        pass

    def process_failed(self, process, exc) -> None:
        pass

    def quiescence(self, processes) -> None:
        pass

    def finalize(self, t_end: Optional[float] = None) -> None:
        pass

    # -- sanitizer hooks -------------------------------------------------

    def mark_dead(self, thread: int) -> None:
        pass

    # -- cost profiler hooks ---------------------------------------------

    def event_scheduled(self, fn, costed: bool) -> None:
        pass

    def context_switch(self, process) -> None:
        pass

    def phase_started(self, name: str) -> None:
        pass

    def phase_ended(self, name: str) -> None:
        pass


NULL_SINK = NullSink()


class Session:
    """The instruments of every simulated run started while active."""

    def __init__(self, label: str = "session", *, trace: bool = False,
                 sanitize: bool = False, profile: bool = False):
        self.label = label
        self.trace = trace
        self.sanitize = sanitize
        #: one Tracer per simulated run, in construction order
        self.tracers: List[Any] = []
        #: one Sanitizer per simulated UPC program, in construction order
        self.sanitizers: List[Any] = []
        #: the shared cost profiler and the session-wide host profiler
        #: (None unless profiling)
        self.cost: Any = None
        self.host: Any = None
        if profile:
            from repro.obs.profile.cost import CostProfiler
            from repro.obs.profile.host import HostProfiler

            self.cost = CostProfiler()
            self.host = HostProfiler()

    @property
    def findings(self) -> list:
        return [f for s in self.sanitizers for f in s.findings]

    def attach(self, sim, label: str, program=None) -> None:
        if self.trace:
            from repro.obs.tracer import Tracer

            sim.tracer = Tracer(sim, label=label,
                                run_index=len(self.tracers) + 1)
            self.tracers.append(sim.tracer)
        if self.sanitize and program is not None:
            from repro.analyze.sanitizer import Sanitizer

            sim.sanitizer = Sanitizer(program)
            self.sanitizers.append(sim.sanitizer)
        if self.cost is not None:
            sim.profiler = self.cost

    def snapshot(self) -> Dict[str, Any]:
        """The profilers' tallies as a plain JSON-able (picklable) dict.

        This is the per-point payload executors ship back from workers;
        :func:`repro.obs.profile.report.merge_snapshots` re-aggregates.
        """
        return {
            "host": [
                [list(path), calls, wall_ns]
                for path, (calls, wall_ns) in sorted(self.host.stats.items())
            ],
            "cost": [
                [phase, site, events, cycles, switches]
                for (phase, site), (events, cycles, switches)
                in sorted(self.cost.tallies.items())
            ],
        }


def attach(sim, label: str, program=None) -> None:
    """Arm ``sim`` with the active session's instruments; no-op outside one.

    ``label`` names the run's tracer.  ``program`` is what a sanitizer
    checks (a :class:`~repro.upc.runtime.UpcProgram`); without one the
    run is not sanitized.
    """
    if _ACTIVE is not None:
        _ACTIVE.attach(sim, label, program)


@contextmanager
def session(label: str = "session", *, trace: bool = False,
            sanitize: bool = False, profile: bool = False) -> Iterator[Session]:
    """Arm the flagged instruments for the ``with`` body; yields the :class:`Session`.

    Sessions do not nest: re-entering while one is active raises, because
    two sessions silently splitting a run's tracers or findings, or one
    stealing the other's ``sys.setprofile`` hook, would be a debugging
    trap.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("an instrumentation session is already active")
    active = Session(label, trace=trace, sanitize=sanitize, profile=profile)
    _ACTIVE = active
    if active.host is not None:
        active.host.start()
    try:
        yield active
    finally:
        if active.host is not None:
            active.host.stop()
        _ACTIVE = None
