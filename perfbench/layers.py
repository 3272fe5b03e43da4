"""Metric table and the traced run's per-layer spans.

The traced run wraps the public calls into each layer from the
benchmark's own files; the program itself is not edited.  Each wrapped
call counts once and, while it runs, is a span: its *self time* is its
duration minus the time covered by wrapped calls nested inside it.  A
generator function (a simulated process step) is timed step by step, so
time spent suspended in the event heap is not charged to it.

Self time goes to the layer the call belongs to, so unwrapped code that
a wrapped call runs is charged to that call's layer: the process bodies
the event loop resumes land in ``sim.engine.self_s``.

Module-level functions are replaced wherever a module bound them by
name (``apps/uts/driver.py`` imports ``expand`` and ``count_tree``
directly), not only in the module that defines them.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Metric:
    """One reported metric; ``moves``/``on`` record the layer → end-to-end
    map: which end-to-end metric it should move, on which workload."""

    name: str
    unit: str
    better: str
    bound: Optional[float] = None
    moves: str = ""
    on: str = ""


#: Measured with tracing off.  ``ok_frac`` is the share of points whose
#: output passed its check (the complement of a failure fraction, which
#: would read 0 on a healthy run).
END_TO_END = (
    Metric("wall_s", "s", "lower", 0.15),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.05),
    Metric("ok_frac", "frac", "higher", 0.001),
)

_UTS_DEEP = "uts-deep (most); uts-faults"
_FT = "ft-alltoall (most); uts-faults"
_FAULTS = "uts-faults"
_HARNESS = "campaign-durable only"

#: Measured in the traced run; counts repeat exactly for one seed.
PER_LAYER = (
    Metric("sim.rng.children", "count", "lower", moves="wall_s", on=_UTS_DEEP),
    Metric("sim.rng.draws", "count", "lower", moves="wall_s", on=_UTS_DEEP),
    Metric("sim.rng.self_s", "s", "lower", moves="wall_s", on=_UTS_DEEP),
    Metric("apps.uts.expands", "count", "lower",
           moves="wall_s; setup_s and peak_rss_mb if work moves up front",
           on=_UTS_DEEP),
    Metric("apps.uts.expand_s", "s", "lower", moves="wall_s", on=_UTS_DEEP),
    Metric("apps.uts.count_tree_calls", "count", "lower", moves="wall_s",
           on=_UTS_DEEP),
    Metric("apps.uts.count_tree_s", "s", "lower", moves="wall_s",
           on=_UTS_DEEP),
    Metric("apps.uts.tree_nodes", "count", "higher", moves="none (input size)",
           on=_UTS_DEEP),
    Metric("apps.uts.steals", "count", "lower", moves="wall_s", on=_UTS_DEEP),
    Metric("sim.engine.events", "count", "lower", moves="wall_s", on=_FT),
    Metric("sim.engine.spawns", "count", "lower", moves="wall_s", on=_FT),
    Metric("sim.engine.run_s", "s", "lower", moves="wall_s", on=_FT),
    Metric("sim.engine.self_s", "s", "lower", moves="wall_s", on=_FT),
    Metric("sim.engine.us_per_event", "us", "lower", moves="wall_s", on=_FT),
    Metric("sim.resources.transfers", "count", "lower", moves="wall_s",
           on=_FT),
    Metric("sim.resources.transfer_s", "s", "lower", moves="wall_s", on=_FT),
    Metric("sim.resources.acquires", "count", "lower", moves="wall_s",
           on=_FT),
    Metric("network.fabric.transmits", "count", "lower", moves="wall_s",
           on=_FT),
    Metric("network.fabric.fetches", "count", "lower", moves="wall_s",
           on=_FT),
    Metric("network.fabric.self_s", "s", "lower", moves="wall_s", on=_FT),
    Metric("gasnet.xfers", "count", "lower", moves="wall_s",
           on="uts-faults; ft-alltoall"),
    Metric("gasnet.am_roundtrips", "count", "lower", moves="wall_s",
           on="uts-faults; ft-alltoall"),
    Metric("gasnet.self_s", "s", "lower", moves="wall_s",
           on="uts-faults; ft-alltoall"),
    Metric("gasnet.retransmits", "count", "lower", moves="wall_s", on=_FAULTS),
    Metric("gasnet.timeouts", "count", "lower", moves="wall_s", on=_FAULTS),
    Metric("upc.barriers", "count", "lower", moves="wall_s",
           on="ft-alltoall (barriers); uts-faults (steal locks)"),
    Metric("upc.locks", "count", "lower", moves="wall_s",
           on="ft-alltoall (barriers); uts-faults (steal locks)"),
    Metric("upc.self_s", "s", "lower", moves="wall_s",
           on="ft-alltoall; uts-faults"),
    Metric("subthreads.regions", "count", "lower", moves="wall_s",
           on="ft-alltoall (hybrid points only)"),
    Metric("subthreads.self_s", "s", "lower", moves="wall_s",
           on="ft-alltoall (hybrid points only)"),
    Metric("machine.memory.calls", "count", "lower", moves="wall_s",
           on="ft-alltoall"),
    Metric("machine.memory.self_s", "s", "lower", moves="wall_s",
           on="ft-alltoall"),
    Metric("faults.message_fates", "count", "lower", moves="wall_s",
           on=_FAULTS),
    Metric("faults.messages_lost", "count", "lower", moves="wall_s",
           on=_FAULTS),
    Metric("harness.queue.run_s", "s", "lower", moves="wall_s", on=_HARNESS),
    Metric("harness.journal.appends", "count", "lower", moves="wall_s",
           on=_HARNESS),
    Metric("harness.journal.append_s", "s", "lower", moves="wall_s",
           on=_HARNESS),
    Metric("harness.point_p50_s", "s", "lower", moves="wall_s", on=_HARNESS),
    Metric("harness.failed_attempts", "count", "lower", moves="wall_s",
           on=_HARNESS),
    Metric("trace.overhead_frac", "frac", "lower",
           moves="none (the tracing overhead itself)", on="every workload"),
)

#: (layer, module, attribute path, count metric, duration metric).
#: The count metric may be shared by several calls; the duration metric
#: is the calls' summed duration including nested spans.
_SIM_SPANS: Tuple[Tuple[str, str, str, Optional[str], Optional[str]], ...] = (
    ("sim.rng", "repro.sim.rng", "SplittableRNG.child",
     "sim.rng.children", None),
    ("sim.rng", "repro.sim.rng", "SplittableRNG.random", "sim.rng.draws", None),
    ("sim.rng", "repro.sim.rng", "SplittableRNG.randint",
     "sim.rng.draws", None),
    ("apps.uts", "repro.apps.uts.tree", "expand",
     "apps.uts.expands", "apps.uts.expand_s"),
    ("apps.uts", "repro.apps.uts.tree", "count_tree",
     "apps.uts.count_tree_calls", "apps.uts.count_tree_s"),
    ("sim.engine", "repro.sim.engine", "Simulator.schedule_at",
     "sim.engine.events", None),
    ("sim.engine", "repro.sim.engine", "Simulator.spawn",
     "sim.engine.spawns", None),
    ("sim.engine", "repro.sim.engine", "Simulator.run",
     None, "sim.engine.run_s"),
    ("sim.resources", "repro.sim.resources", "SharedBandwidth.transfer",
     "sim.resources.transfers", "sim.resources.transfer_s"),
    ("sim.resources", "repro.sim.resources", "Resource.acquire",
     "sim.resources.acquires", None),
    ("network.fabric", "repro.network.fabric", "Fabric.transmit",
     "network.fabric.transmits", None),
    ("network.fabric", "repro.network.fabric", "Fabric.fetch",
     "network.fabric.fetches", None),
    ("gasnet", "repro.gasnet.core", "GasnetRuntime.xfer", "gasnet.xfers", None),
    ("gasnet", "repro.gasnet.core", "GasnetRuntime.am_roundtrip",
     "gasnet.am_roundtrips", None),
    ("upc", "repro.upc.runtime", "Upc.barrier", "upc.barriers", None),
    ("upc", "repro.upc.runtime", "Upc.lock", "upc.locks", None),
    # parallel_for/parallel_tasks end in parallel(): one region each.
    ("subthreads", "repro.subthreads.base", "ForkJoinRuntime.parallel",
     "subthreads.regions", None),
    ("subthreads", "repro.subthreads.base", "ForkJoinRuntime.parallel_tasks",
     None, None),
    ("subthreads", "repro.subthreads.base", "ForkJoinRuntime.parallel_for",
     None, None),
    ("machine.memory", "repro.machine.memory", "MemorySystem.compute",
     "machine.memory.calls", None),
    ("machine.memory", "repro.machine.memory", "MemorySystem.stream",
     "machine.memory.calls", None),
    ("machine.memory", "repro.machine.memory", "MemorySystem.copy",
     "machine.memory.calls", None),
    ("machine.memory", "repro.machine.memory",
     "MemorySystem.charge_translation", "machine.memory.calls", None),
    ("faults", "repro.faults.injector", "FaultInjector.message_fate",
     "faults.message_fates", None),
)

#: The harness spans; in campaign-durable the simulation runs in worker
#: processes, so only these are installed there.
_HARNESS_SPANS: Tuple[Tuple[str, str, str, Optional[str], Optional[str]], ...] = (
    ("harness", "repro.harness.queue", "QueueExecutor.run",
     None, "harness.queue.run_s"),
    ("harness", "repro.harness.journal", "CampaignJournal.append",
     "harness.journal.appends", "harness.journal.append_s"),
)

_LAYERS = ("sim.rng", "apps.uts", "sim.engine", "sim.resources",
           "network.fabric", "gasnet", "upc", "subthreads", "machine.memory",
           "faults", "harness")


class SpanTracer:
    """Counts and self-times wrapped calls; ``install`` / ``uninstall``."""

    def __init__(self, harness: bool):
        self.spans = _HARNESS_SPANS if harness else _SIM_SPANS
        self.counts: Dict[str, int] = {}
        self.durations: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in _LAYERS}
        #: Per open span, the time its nested spans covered so far.
        self._stack: List[float] = []
        self._patches: List[Tuple[object, str, object]] = []
        #: (time, event kind, point) for every journal append.
        self.journal: List[Tuple[float, str, Optional[int]]] = []

    # -- wrappers -----------------------------------------------------

    def _close(self, layer: str, duration_key: Optional[str], t0: float) -> None:
        dt = time.perf_counter() - t0
        stack = self._stack
        nested = stack.pop()
        self.self_s[layer] += dt - nested
        if duration_key is not None:
            self.durations[duration_key] += dt
        if stack:
            stack[-1] += dt

    def _wrap_call(self, fn: Callable, layer: str, count_key: Optional[str],
                   duration_key: Optional[str]) -> Callable:
        counts, stack, close = self.counts, self._stack, self._close
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if count_key is not None:
                counts[count_key] += 1
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                close(layer, duration_key, t0)

        return wrapper

    def _wrap_gen(self, fn: Callable, layer: str, count_key: Optional[str],
                  duration_key: Optional[str]) -> Callable:
        counts, stack, close = self.counts, self._stack, self._close
        perf = time.perf_counter

        def steps(gen):
            """Delegate to ``gen``, timing each resumption as a span."""
            value, exc = None, None
            while True:
                stack.append(0.0)
                t0 = perf()
                try:
                    item = gen.send(value) if exc is None else gen.throw(exc)
                except StopIteration as stop:
                    return stop.value
                finally:
                    close(layer, duration_key, t0)
                exc = None
                try:
                    value = yield item
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as thrown:
                    value, exc = None, thrown

        def wrapper(*args, **kwargs):
            if count_key is not None:
                counts[count_key] += 1
            inner = fn(*args, **kwargs)
            outer = steps(inner)
            # Processes are named after their generator.
            outer.__name__ = inner.__name__
            outer.__qualname__ = inner.__qualname__
            return outer

        return wrapper

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for layer, module_name, path, count_key, duration_key in self.spans:
            module = importlib.import_module(module_name)
            if count_key is not None:
                self.counts.setdefault(count_key, 0)
            if duration_key is not None:
                self.durations.setdefault(duration_key, 0.0)
            if "." in path:
                cls_name, attr = path.split(".")
                owners = [getattr(module, cls_name)]
                fn = owners[0].__dict__[attr]
            else:
                attr = path
                fn = getattr(module, attr)
                owners = [m for name, m in sorted(sys.modules.items())
                          if name.startswith("repro")
                          and getattr(m, attr, None) is fn]
            make = (self._wrap_gen if inspect.isgeneratorfunction(fn)
                    else self._wrap_call)
            wrapped = make(fn, layer, count_key, duration_key)
            for owner in owners:
                self._patch(owner, attr, wrapped)
        if self.spans is _HARNESS_SPANS:
            from repro.harness.journal import CampaignJournal

            timed = CampaignJournal.append
            log = self.journal

            def append(journal, event):
                log.append((time.perf_counter(), event.get("e"), event.get("p")))
                return timed(journal, event)

            self._patch(CampaignJournal, "append", append)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric this tracer measures (others read 0)."""
        out: Dict[str, float] = {m.name: 0 for m in PER_LAYER}
        out.update(self.counts)
        out.update(self.durations)
        for layer, seconds in self.self_s.items():
            key = f"{layer}.self_s"
            if key in out:
                out[key] = seconds
        events = self.counts.get("sim.engine.events", 0)
        if events:
            out["sim.engine.us_per_event"] = (
                1e6 * self.durations["sim.engine.run_s"] / events)
        if self.journal:
            leased: Dict[int, float] = {}
            latencies = []
            for t, kind, point in self.journal:
                if kind == "lease":
                    leased[point] = t
                elif kind == "done" and point in leased:
                    latencies.append(t - leased.pop(point))
            out["harness.point_p50_s"] = (
                statistics.median(latencies) if latencies else 0)
            out["harness.failed_attempts"] = sum(
                1 for _t, kind, _p in self.journal if kind == "failed")
        return out
