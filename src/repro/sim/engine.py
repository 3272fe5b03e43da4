"""Core event loop and process machinery.

The engine schedules callbacks on a binary heap keyed by
``(time, priority, sequence)``.  Simulated *processes* are plain Python
generators that ``yield`` :class:`Awaitable` objects — delays, one-shot
events, other processes, or ``AllOf``/``AnyOf`` combinators — and are
resumed with the awaitable's value once it completes.  Failures propagate
by throwing into the generator, so ordinary ``try/except`` works inside
simulated code.

Design notes
------------
* Time is a ``float`` in seconds.  The engine never compares times for
  equality; ties are broken by priority then a monotonically increasing
  sequence number, which keeps runs deterministic.
* ``yield from`` composes simulated subroutines with zero overhead in the
  engine; only top-level ``yield`` values reach the scheduler.
* Cancellation is cooperative: ``Delay.cancel()`` and ``Event.cancel()``
  mark the awaitable dead so a pending heap entry becomes a no-op.  This
  is what lets ``AnyOf`` race a timeout against an event without leaking
  callbacks.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, Optional

from repro.analyze.sanitizer import NULL_SANITIZER
from repro.obs import names as _metric_names
from repro.obs.profile.cost import NULL_PROFILER
from repro.obs.tracer import NULL_TRACER

__all__ = [
    "Awaitable",
    "Event",
    "Delay",
    "Process",
    "AllOf",
    "AnyOf",
    "Simulator",
    "SimulationError",
    "ProcessFailure",
    "StalledProcessError",
]


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class StalledProcessError(SimulationError):
    """The event heap drained while processes were still waiting.

    This is the quiescence/deadlock diagnostic: an injected fault (or a
    plain bug) orphaned a waiter, so the run ended early instead of
    completing.  ``processes`` holds the stuck :class:`Process` objects.
    """

    def __init__(self, processes: list):
        names = [p.name for p in processes]
        shown = ", ".join(repr(n) for n in names[:8])
        extra = f" (+{len(names) - 8} more)" if len(names) > 8 else ""
        super().__init__(
            f"simulation quiesced with {len(names)} stalled process(es): "
            f"{shown}{extra}"
        )
        self.processes = processes


class ProcessFailure(SimulationError):
    """Raised when joining a process that terminated with an exception.

    The original exception is available as ``__cause__``.
    """

    def __init__(self, process: "Process", cause: BaseException):
        super().__init__(f"process {process.name!r} failed: {cause!r}")
        self.process = process
        self.__cause__ = cause


class Awaitable:
    """Base class for everything a simulated process may ``yield``.

    An awaitable completes at most once, with either a value or an
    exception, and then invokes its registered callbacks in registration
    order.
    """

    __slots__ = ("sim", "_callbacks", "_done", "_cancelled", "value", "exc")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._callbacks: list[Callable[[Awaitable], None]] = []
        self._done = False
        self._cancelled = False
        self.value: Any = None
        self.exc: Optional[BaseException] = None

    @property
    def done(self) -> bool:
        return self._done

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def add_callback(self, fn: Callable[["Awaitable"], None]) -> None:
        """Register ``fn`` to run when this awaitable completes.

        If already complete, ``fn`` runs immediately (synchronously).
        """
        if self._done:
            fn(self)
        else:
            self._callbacks.append(fn)

    def _complete(self, value: Any = None, exc: Optional[BaseException] = None) -> None:
        if self._done or self._cancelled:
            return
        self._done = True
        self.value = value
        self.exc = exc
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)

    def cancel(self) -> None:
        """Mark the awaitable dead; a later completion becomes a no-op."""
        if not self._done:
            self._cancelled = True
            self._callbacks.clear()


class Event(Awaitable):
    """A one-shot trigger that processes can wait on.

    ``succeed(value)`` wakes all waiters with ``value``; ``fail(exc)``
    throws ``exc`` into them.

    Completing a **cancelled** event is an explicit, documented no-op:
    cancellation means every waiter has already withdrawn (a lost
    ``AnyOf`` race, a killed process), so there is nobody left to wake
    and the completion value is discarded.  This lets completers fire
    unconditionally without tracking who lost which race.  Completing an
    event that already *completed* is still an error.
    """

    __slots__ = ()

    def succeed(self, value: Any = None) -> "Event":
        if self._done:
            raise SimulationError("event already completed")
        if self._cancelled:
            return self  # documented no-op: all waiters withdrew
        self._complete(value=value)
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self._done:
            raise SimulationError("event already completed")
        if self._cancelled:
            return self  # documented no-op: all waiters withdrew
        self._complete(exc=exc)
        return self


class Delay(Awaitable):
    """Completes ``dt`` simulated seconds after creation."""

    __slots__ = ("dt",)

    def __init__(self, sim: "Simulator", dt: float, priority: int = 0):
        if dt < 0:
            raise ValueError(f"negative delay: {dt}")
        super().__init__(sim)
        self.dt = dt
        sim.schedule_after(dt, self._fire, priority=priority)

    def _fire(self) -> None:
        self._complete(value=self.dt)


class Process(Awaitable):
    """A running simulated process wrapping a generator.

    A process is itself awaitable: ``yield other_process`` joins it and
    evaluates to its return value.  If the joined process raised, a
    :class:`ProcessFailure` is thrown into the joiner.
    """

    __slots__ = ("gen", "name", "_waiting_on", "__weakref__")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        super().__init__(sim)
        if not hasattr(gen, "send"):
            raise TypeError(
                f"sim.spawn() needs a generator; got {type(gen).__name__}. "
                "Did you forget to call the generator function?"
            )
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._waiting_on: Optional[Awaitable] = None
        sim._live[self] = None
        if sim.tracer.enabled:
            sim.tracer.process_spawned(self)
        sim.schedule_after(0.0, self._step, None, None)

    @property
    def result(self) -> Any:
        """Return value of the process; raises if it failed or is running."""
        if not self._done:
            raise SimulationError(f"process {self.name!r} has not finished")
        if self.exc is not None:
            raise ProcessFailure(self, self.exc)
        return self.value

    def _step(self, send_value: Any, throw_exc: Optional[BaseException]) -> None:
        if self._done or self._cancelled:
            return
        self._waiting_on = None
        if self.sim.tracer.enabled:
            self.sim.engine_metrics[_metric_names.ENGINE_CONTEXT_SWITCHES] += 1
        if self.sim.profiler.enabled:
            self.sim.profiler.context_switch(self)
        try:
            if throw_exc is not None:
                target = self.gen.throw(throw_exc)
            else:
                target = self.gen.send(send_value)
        except StopIteration as stop:
            self._complete(value=stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate to joiners
            self.sim._record_failure(self, exc)
            self._complete(exc=exc)
            return
        try:
            self._wait_for(target)
        except TypeError as exc:
            self.gen.close()
            self.sim._record_failure(self, exc)
            self._complete(exc=exc)

    def _wait_for(self, target: Any) -> None:
        if isinstance(target, (int, float)):
            target = Delay(self.sim, float(target))
        if not isinstance(target, Awaitable):
            raise TypeError(
                f"process {self.name!r} yielded {target!r}; expected an "
                "Awaitable or a number of seconds"
            )
        self._waiting_on = target
        if self.sim.tracer.enabled:
            self.sim.tracer.process_blocked(self, target)
        target.add_callback(self._resume)

    def _resume(self, awaited: Awaitable) -> None:
        if self._done or self._cancelled:
            return
        if self.sim.tracer.enabled:
            self.sim.tracer.process_resumed(self)
        if awaited.exc is not None:
            if isinstance(awaited, Process):
                exc: BaseException = ProcessFailure(awaited, awaited.exc)
            else:
                exc = awaited.exc
            self.sim.schedule_after(0.0, self._step, None, exc)
        else:
            self.sim.schedule_after(0.0, self._step, awaited.value, None)

    def _complete(self, value: Any = None,
                  exc: Optional[BaseException] = None) -> None:
        self.sim._live.pop(self, None)
        super()._complete(value, exc)

    def cancel(self) -> None:
        self.sim._live.pop(self, None)
        super().cancel()

    def kill(self) -> None:
        """Terminate the process without running any more of its code."""
        if self._done:
            return
        if self._waiting_on is not None:
            self._waiting_on.cancel()
        if self.sim.tracer.enabled:
            self.sim.tracer.process_killed(self)
        self.gen.close()
        self._complete(value=None)


class AllOf(Awaitable):
    """Completes when *all* children complete; value is the list of values.

    Fails fast with the first child failure (remaining children keep
    running — this combinator only observes them).
    """

    __slots__ = ("children", "_pending")

    def __init__(self, sim: "Simulator", children: Iterable[Awaitable]):
        super().__init__(sim)
        self.children = list(children)
        self._pending = len(self.children)
        if self._pending == 0:
            sim.schedule_after(0.0, self._complete, [])
            return
        for child in self.children:
            child.add_callback(self._child_done)

    def _child_done(self, child: Awaitable) -> None:
        if self._done or self._cancelled:
            return
        if child.exc is not None:
            self._complete(exc=child.exc)
            return
        self._pending -= 1
        if self._pending == 0:
            self._complete(value=[c.value for c in self.children])


class AnyOf(Awaitable):
    """Completes when the *first* child completes; value is ``(index, value)``.

    Losing *passive* children (delays, events) are **cancelled** so a
    timeout race leaves no pending wakeup behind.  Losing **processes**
    are left running — AnyOf withdraws its observation, it does not kill
    them (use :meth:`Process.kill` for that).
    """

    __slots__ = ("children",)

    def __init__(self, sim: "Simulator", children: Iterable[Awaitable]):
        super().__init__(sim)
        self.children = list(children)
        if not self.children:
            raise ValueError("AnyOf needs at least one child")
        for child in self.children:
            child.add_callback(self._child_done)

    def _child_done(self, child: Awaitable) -> None:
        if self._done or self._cancelled:
            return
        for other in self.children:
            if other is not child and not isinstance(other, Process):
                other.cancel()
        if child.exc is not None:
            self._complete(exc=child.exc)
        else:
            self._complete(value=(self.children.index(child), child.value))


class Simulator:
    """The event loop: a clock plus a heap of pending callbacks."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, int, Callable, tuple]] = []
        self._seq = itertools.count()
        self._running = False
        self.failures: list[tuple[Process, BaseException]] = []
        #: Spawned processes that have not completed or been cancelled,
        #: in spawn order (a dict used as an insertion-ordered set), so
        #: engine state stays bounded by what is alive.
        self._live: dict[Process, None] = {}
        #: Set to a callable to be notified of unhandled process failures.
        self.failure_hook: Optional[Callable[[Process, BaseException], None]] = None
        #: Observability sink; defaults to the shared no-op tracer so hook
        #: sites can stay unconditional (`if self.tracer.enabled:` guards
        #: the hot paths).
        self.tracer = NULL_TRACER
        #: Correctness sink (repro.analyze); same NULL-object discipline —
        #: `if self.sanitizer.enabled:` keeps unsanitized runs at full speed.
        self.sanitizer = NULL_SANITIZER
        #: Cost profiler (repro.obs.profile); third consumer of the same
        #: NULL-object discipline — unprofiled runs pay one guarded branch.
        self.profiler = NULL_PROFILER
        #: Engine self-measurement, tallied only while a tracer is armed
        #: (the untraced hot path keeps its single-branch guard) and
        #: published as counter samples by ``Tracer.finalize``.
        self.engine_metrics: dict = {n: 0 for n in _metric_names.ENGINE_METRICS}

    # -- scheduling --------------------------------------------------

    def schedule_at(
        self, time: float, fn: Callable, *args: Any, priority: int = 0
    ) -> None:
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before now={self.now}"
            )
        heapq.heappush(self._heap, (time, priority, next(self._seq), fn, args))
        if self.tracer.enabled:
            metrics = self.engine_metrics
            if len(self._heap) > metrics[_metric_names.ENGINE_HEAP_PEAK]:
                metrics[_metric_names.ENGINE_HEAP_PEAK] = len(self._heap)
            if time > self.now:
                # Every event at a *future* instant is one charged
                # simulated cost — delays, resource transfers, network
                # latencies; same-instant wakeups are scheduling
                # artifacts and stay free.
                metrics[_metric_names.ENGINE_COSTED_CYCLES] += 1
        if self.profiler.enabled:
            # Same costed/free split as the tracer's tally above, but
            # attributed to the scheduling site rather than summed.
            self.profiler.event_scheduled(fn, time > self.now)

    def schedule_after(
        self, dt: float, fn: Callable, *args: Any, priority: int = 0
    ) -> None:
        self.schedule_at(self.now + dt, fn, *args, priority=priority)

    # -- awaitable factories -----------------------------------------

    def event(self) -> Event:
        return Event(self)

    def delay(self, dt: float) -> Delay:
        return Delay(self, dt)

    #: Alias matching the common DES vocabulary.
    timeout = delay

    def all_of(self, children: Iterable[Awaitable]) -> AllOf:
        return AllOf(self, children)

    def any_of(self, children: Iterable[Awaitable]) -> AnyOf:
        return AnyOf(self, children)

    def spawn(self, gen: Generator, name: str = "") -> Process:
        return Process(self, gen, name=name)

    # -- execution ---------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Drain the event heap; return the final simulated time.

        With ``until`` the clock stops advancing past that time (pending
        later events remain queued).
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        self._running = True
        try:
            while self._heap:
                time, _prio, _seq, fn, args = self._heap[0]
                if until is not None and time > until:
                    self.now = until
                    break
                heapq.heappop(self._heap)
                self.now = time
                if self.tracer.enabled:
                    self.engine_metrics[_metric_names.ENGINE_EVENTS_POPPED] += 1
                fn(*args)
            else:
                if until is not None and until > self.now:
                    self.now = until
        finally:
            self._running = False
        return self.now

    def step(self) -> bool:
        """Execute a single event; return False when the heap is empty."""
        if not self._heap:
            return False
        time, _prio, _seq, fn, args = heapq.heappop(self._heap)
        self.now = time
        if self.tracer.enabled:
            self.engine_metrics[_metric_names.ENGINE_EVENTS_POPPED] += 1
        fn(*args)
        return True

    @property
    def pending(self) -> int:
        return len(self._heap)

    # -- diagnostics -------------------------------------------------

    def _record_failure(self, process: Process, exc: BaseException) -> None:
        self.failures.append((process, exc))
        if self.tracer.enabled:
            self.tracer.process_failed(process, exc)
        if self.failure_hook is not None:
            self.failure_hook(process, exc)

    def forgive_failure(self, process: Process) -> None:
        """Drop recorded failures of ``process``: a supervisor handled them.

        Retry layers spawn an attempt, observe its failure through a
        combinator, and recover; without forgiveness the handled
        exception would still trip :meth:`raise_failures` at run end.
        """
        self.failures = [(p, e) for (p, e) in self.failures if p is not process]

    def stalled_processes(self) -> list:
        """Processes still waiting after the event heap drained.

        Only meaningful once :attr:`pending` is zero: with nothing left
        on the heap, a live process can never be resumed again, so every
        entry returned here is deadlocked (typically a waiter orphaned by
        an injected fault or by a kill).  With events still pending the
        result is merely "not finished yet", not a diagnosis.
        """
        return list(self._live)

    def raise_failures(self, check_stalled: bool = False) -> None:
        """Re-raise the first unhandled process failure, if any.

        Harness code calls this after :meth:`run` so programming errors in
        simulated code do not silently produce bogus timings.  With
        ``check_stalled=True`` it additionally raises
        :class:`StalledProcessError` when the heap drained while spawned
        processes were still waiting on never-completed events.
        """
        if self.failures:
            process, exc = self.failures[0]
            raise ProcessFailure(process, exc)
        if check_stalled and not self._heap:
            stalled = self.stalled_processes()
            if stalled:
                if self.tracer.enabled:
                    self.tracer.quiescence(stalled)
                raise StalledProcessError(stalled)
