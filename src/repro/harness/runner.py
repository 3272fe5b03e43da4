"""Experiment registry and dispatch."""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.harness.reporting import ExperimentResult

__all__ = ["Experiment", "EXPERIMENTS", "get_experiment", "run_experiment"]

SCALES = ("quick", "paper")

#: experiment id -> (module path, static title).  One module per paper
#: table/figure, plus extensions such as the fault-injection resilience
#: study.  Titles live here (not only on the module's EXPERIMENT) so
#: ``--list`` can print them without importing heavy app code.
_MODULES = {
    "t2_1": ("repro.harness.experiments.t2_1",
             "Table 2.1 - Platform Characteristics"),
    "t3_1": ("repro.harness.experiments.t3_1",
             "Table 3.1 - Twisted STREAM Triad"),
    "t3_2": ("repro.harness.experiments.t3_2",
             "Table 3.2 - UTS profiling"),
    "f3_3": ("repro.harness.experiments.f3_3",
             "Fig 3.3 - UTS scalability"),
    "f3_4": ("repro.harness.experiments.f3_4",
             "Fig 3.4 - FT all-to-all optimizations"),
    "f4_2": ("repro.harness.experiments.f4_2",
             "Fig 4.2 - Multi-link microbenchmark"),
    "t4_1": ("repro.harness.experiments.t4_1",
             "Table 4.1 - hybrid STREAM placement"),
    "f4_4": ("repro.harness.experiments.f4_4",
             "Fig 4.4 - FT runtime breakdown"),
    "f4_5": ("repro.harness.experiments.f4_5",
             "Fig 4.5 - FT communication time"),
    "f4_6": ("repro.harness.experiments.f4_6",
             "Fig 4.6 - FT overall performance"),
    "r1": ("repro.harness.experiments.resilience",
           "R1 - UTS under injected faults"),
}


@dataclass(frozen=True)
class Experiment:
    """One reproducible paper artifact, declared as a campaign.

    ``points(scale)`` returns the ordered :class:`~repro.harness.spec.RunSpec`
    list the artifact needs; ``collate(scale, outputs)`` folds the
    outputs (same order) into an :class:`ExperimentResult`.  Experiments
    with ``accepts_faults=True`` take a ``faults=`` keyword in both.
    """

    experiment_id: str
    title: str
    points: Callable[..., Sequence]
    collate: Callable[..., ExperimentResult]
    #: True when the campaign takes a fault plan (the ``--faults`` flag).
    accepts_faults: bool = False

    def __call__(self, scale: str = "quick", faults=None) -> ExperimentResult:
        if scale not in SCALES:
            raise ValueError(f"scale must be one of {SCALES}, got {scale!r}")
        if faults is not None and not self.accepts_faults:
            raise ValueError(
                f"experiment {self.experiment_id!r} does not accept a "
                "--faults spec"
            )
        from repro.harness.campaign import Campaign

        return Campaign(self, scale=scale, faults=faults).run().result


class _Registry:
    """Lazy experiment registry (experiments import heavy app code)."""

    def __init__(self) -> None:
        self._cache: Dict[str, Experiment] = {}

    def ids(self) -> List[str]:
        return list(_MODULES)

    def __contains__(self, experiment_id: str) -> bool:
        return experiment_id in _MODULES

    def title(self, experiment_id: str) -> str:
        """Static title — no experiment module import."""
        if experiment_id not in _MODULES:
            raise KeyError(
                f"unknown experiment {experiment_id!r}; available: {self.ids()}"
            )
        return _MODULES[experiment_id][1]

    def get(self, experiment_id: str) -> Experiment:
        if experiment_id not in _MODULES:
            raise KeyError(
                f"unknown experiment {experiment_id!r}; available: {self.ids()}"
            )
        if experiment_id not in self._cache:
            module = importlib.import_module(_MODULES[experiment_id][0])
            self._cache[experiment_id] = module.EXPERIMENT
        return self._cache[experiment_id]


EXPERIMENTS = _Registry()


def get_experiment(experiment_id: str) -> Experiment:
    return EXPERIMENTS.get(experiment_id)


def run_experiment(
    experiment_id: str,
    scale: str = "quick",
    faults=None,
    trace_path=None,
    breakdown: bool = False,
    sanitize: bool = False,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    durable: bool = False,
    resume: bool = False,
    point_timeout: Optional[float] = None,
    max_attempts: int = 3,
    lease_timeout: float = 30.0,
    chaos: Optional[str] = None,
    journal_dir: Optional[str] = None,
    summary_dir: Optional[str] = None,
    profile_dir: Optional[str] = None,
) -> ExperimentResult:
    """Run one experiment's campaign; optionally trace and/or sanitize it.

    ``jobs`` selects the executor: 1 runs every point inline (the
    historical behavior, byte-identical reports), >1 fans independent
    points across the queue executor's worker processes, which retry a
    failed point and quarantine it after ``max_attempts``.
    ``cache_dir`` arms the content-addressed result cache there (None
    disables caching); already-computed points are then skipped and the
    hit/executed counters surface on the result.  ``trace_path`` writes
    a Chrome trace-event JSON covering every simulated program the
    experiment ran; ``breakdown`` attaches the critical-path time
    attribution and communication matrix to the result (rendered by
    :meth:`ExperimentResult.render`); ``sanitize`` arms the dynamic PGAS
    sanitizer (:mod:`repro.analyze`) and attaches its findings.  All
    default off, in which case neither a tracer nor a sanitizer is
    attached and the simulation runs at full speed.

    ``durable`` (implied by ``resume``, ``point_timeout``, or ``chaos``)
    runs the :class:`~repro.harness.queue.QueueExecutor` even at one job
    and journals every point's lifecycle under ``journal_dir`` (default
    ``<cache or .repro-cache>/journals``).  Failed points retry up to
    ``max_attempts`` times with backoff and are then quarantined,
    workers run under ``lease_timeout``-second heartbeat leases and an
    optional per-point ``point_timeout`` wall-clock limit, and
    ``resume=True`` replays the journal to execute only unfinished
    points — the final report is byte-identical to an uninterrupted run.
    ``chaos`` injects deterministic executor faults
    (:mod:`repro.harness.chaos`) for self-testing.

    ``summary_dir`` arms the campaign-analytics completion hook: the
    campaign runs traced and its per-point summaries plus the merged
    ``campaign-summary.json`` are written content-addressed under that
    root (see :mod:`repro.obs.analytics`), ready for ``python -m
    repro.obs.analytics diff/check``.

    ``profile_dir`` arms :mod:`repro.obs.profile` per point and writes
    the merged ``<experiment>-{host,cost}.{json,folded}`` artifacts
    there.  Profiling appends no result note, so a profiled untraced
    run's rendered report stays byte-identical to a plain run (the same
    zero-perturbation contract the tracer honors for simulated results).
    """
    exp = get_experiment(experiment_id)
    if faults and not exp.accepts_faults:
        raise ValueError(
            f"experiment {experiment_id!r} does not accept a --faults spec"
        )
    from repro.harness.cache import DEFAULT_CACHE_DIR, ResultCache
    from repro.harness.campaign import Campaign
    from repro.harness.executor import make_executor

    cache = ResultCache(cache_dir) if cache_dir is not None else None
    if journal_dir is None:
        journal_dir = os.path.join(cache_dir or DEFAULT_CACHE_DIR, "journals")
    executor = make_executor(
        jobs, durable=durable, resume=resume, point_timeout=point_timeout,
        chaos=chaos, max_attempts=max_attempts, lease_s=lease_timeout,
        journal_dir=journal_dir,
        meta={"experiment": experiment_id, "scale": scale},
    )
    campaign = Campaign(exp, scale=scale, faults=faults, cache=cache,
                        executor=executor, chaos=chaos)
    trace = bool(trace_path) or breakdown or summary_dir is not None
    outcome = campaign.run(trace=trace, sanitize=sanitize,
                           profile=profile_dir is not None)
    result = outcome.result
    if profile_dir is not None:
        from repro.obs.profile import write_profiles

        write_profiles(profile_dir, experiment_id, outcome.batch.profiles)
    if summary_dir is not None:
        from repro.harness.summaries import summarize_outcome

        summary_path = summarize_outcome(outcome, experiment_id, scale,
                                         summary_dir)
        result.notes.append(f"campaign summary written to {summary_path}")
    if trace_path:
        from repro.obs.export import write_chrome_trace

        write_chrome_trace(trace_path, outcome.batch.tracers)
        result.notes.append(
            f"trace written ({len(outcome.batch.tracers)} runs)"
        )
    if breakdown:
        from repro.obs.critical_path import breakdown_rows, comm_matrix_rows

        result.breakdown = breakdown_rows(outcome.batch.tracers)
        result.comm_matrix = comm_matrix_rows(outcome.batch.tracers)
    if sanitize:
        result.sanitized = True
        result.sanitizer_findings = list(outcome.batch.findings)
        result.notes.append(
            f"sanitizer: {len(outcome.batch.findings)} finding(s) across "
            f"{outcome.batch.sanitizer_runs} run(s)"
        )
    return result
