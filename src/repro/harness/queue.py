"""The multi-process campaign executor: a lease-based work queue.

:class:`QueueExecutor` implements the executor contract of
:mod:`repro.harness.executor` as a coordinator over up to ``jobs``
long-lived worker processes.  Each worker takes points one after another
over a duplex pipe, so the app packages are imported once per worker
rather than once per point.  A worker that goes wrong is killed, joined
and replaced, and only the point it held is retried:

* **Leases + heartbeats** — each in-flight point is a time-limited lease;
  the worker's heartbeat thread refreshes it.  A worker that stops
  heartbeating (hung interpreter, livelocked simulation, SIGSTOP) has
  its lease reclaimed: the coordinator kills it and requeues the point.
* **Retries with backoff** — a failed attempt (worker SIGKILLed, lease
  expired, per-point timeout, dropped result, app exception) is retried
  under exponential backoff with deterministic jitter (a pure hash of
  the point fingerprint and attempt number — no RNG state to lose).
* **Quarantine** — a point that fails ``max_attempts`` times is poison:
  it is surfaced in the batch's ``failures`` while every other point
  completes, so the campaign degrades to a partial report instead of
  aborting.

Durability is the journal and nothing else.  With ``journal_dir`` set
every lifecycle transition is appended to a
:class:`~repro.harness.journal.CampaignJournal`, so a campaign survives
anything short of losing the journal file itself, and ``resume=True``
replays it first and executes only points without a durable ``done``
record; because every point is a pure function of its spec, the resumed
report is byte-identical to an uninterrupted run.  With
``journal_dir=None`` (a plain ``--jobs N`` run) nothing is written.

The coordinator is the journal's only writer (workers report through
pipes), which keeps the journal single-writer-append-only — the same
property that makes its replay trivially consistent.

Observability caveat: replayed outputs carry no tracers or profiles
(they were produced by a dead process), so a traced, sanitized or
profiled run ignores the replay and re-executes every point — mirroring
how the campaign cache bypasses reads under
``--trace``/``--sanitize``/``--profile``.
"""

from __future__ import annotations

import hashlib
import heapq
import os
import signal
import threading
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.harness.chaos import ChaosPlan
from repro.harness.executor import ExecutionBatch, ExecutorError, execute_spec
from repro.harness.journal import CampaignJournal, campaign_fingerprint
from repro.harness.spec import RunSpec

__all__ = ["QueueExecutor"]

#: Forever, as far as one campaign point is concerned.
_STALL_S = 3600.0
#: How long a worker that closed its pipe may take to exit before it is
#: killed; its exit code is what says why it stopped.
_EXIT_GRACE_S = 5.0


def _compute_payload(spec: RunSpec, trace: bool, sanitize: bool,
                     profile: bool) -> Dict[str, Any]:
    """One spec inside its own trace/sanitize sessions → picklable payload.

    Tracers are detached from their simulator (``sim`` holds generators,
    which cannot cross a process boundary) — everything the exporter and
    critical-path attribution read is already materialized in the
    tracer's own lists.
    """
    from contextlib import ExitStack

    payload: Dict[str, Any] = {"tracers": [], "findings": [],
                               "sanitizer_runs": 0, "profile": None}
    with ExitStack() as stack:
        san_session = None
        if sanitize:
            from repro.analyze.sanitizer import sanitize_session

            san_session = stack.enter_context(sanitize_session(spec.app))
        session = None
        if trace:
            from repro.obs.session import trace_session

            session = stack.enter_context(trace_session(spec.app))
        psession = None
        if profile:
            from repro.obs.profile import profile_session

            psession = stack.enter_context(profile_session(spec.app))
        payload["output"] = execute_spec(spec)
    if psession is not None:
        payload["profile"] = psession.snapshot()
    if session is not None:
        for tracer in session.tracers:
            tracer.sim = None
        payload["tracers"] = list(session.tracers)
    if san_session is not None:
        payload["findings"] = [f.row() for f in san_session.findings]
        payload["sanitizer_runs"] = len(san_session.sanitizers)
    return payload


def _heartbeat(conn, index: int, every: float, stop) -> None:
    while not stop.wait(every):
        try:
            conn.send(("hb", index))
        except OSError:
            return


def _queue_worker(conn, inherited, trace: bool, sanitize: bool, profile: bool,
                  chaos_spec: Optional[str], heartbeat_s: float) -> None:
    """Worker entry: compute points sent over ``conn`` until it closes.

    Each task is ``(index, spec, attempt)``.  While computing, a
    heartbeat thread sends ``("hb", index)`` to keep the lease alive;
    the point ends in ``("result", index, payload)`` or, for an app
    exception, ``("error", index, msg)`` — the worker then takes the
    next point.  A worker that dies without reporting is exactly the
    failure the lease/retry machinery exists for.

    ``inherited`` are the coordinator's ends of this and the other
    workers' pipes, copied by fork; closing them here lets every worker
    see EOF as soon as the coordinator closes its end or dies.
    """
    for other in inherited:
        other.close()
    plan = ChaosPlan.parse(chaos_spec) if chaos_spec else None
    try:
        while True:
            try:
                index, spec, attempt = conn.recv()
            except (EOFError, OSError):
                return          # the coordinator is done or gone
            fingerprint = spec.fingerprint()
            strikes = set() if plan is None else {
                kind for kind in ("stall", "fail", "kill", "drop")
                if plan.decide(kind, index, fingerprint, attempt)}
            # Chaos "stall" suppresses heartbeats too: a hung interpreter
            # does not run helper threads either, and the whole point is
            # to force the coordinator down the lease-expiry path.
            stop = threading.Event()
            beat = threading.Thread(target=_heartbeat, daemon=True,
                                    args=(conn, index, heartbeat_s, stop))
            if "stall" not in strikes:
                beat.start()
            try:
                if "stall" in strikes:
                    time.sleep(_STALL_S)
                payload = _compute_payload(spec, trace, sanitize, profile)
                if "fail" in strikes:
                    raise RuntimeError(
                        f"chaos: injected failure at point {index}")
                if "kill" in strikes:
                    os.kill(os.getpid(), signal.SIGKILL)
                if "drop" in strikes:
                    return      # exit 0 with no result: a dropped message
                message = ("result", index, payload)
            except Exception as exc:
                message = ("error", index, f"{type(exc).__name__}: {exc}")
            finally:
                stop.set()
                if beat.is_alive():
                    beat.join()
            try:
                conn.send(message)
            except OSError:
                return
    finally:
        conn.close()


def _exit_cause(code: Optional[int]) -> str:
    """Why a worker that closed its pipe without a result stopped."""
    if code is None:
        return "worker closed its pipe without reporting a result"
    if code == 0:
        return "worker exited without reporting a result"
    if code < 0:
        return f"worker killed by signal {signal.Signals(-code).name}"
    return f"worker died (exit code {code})"


class _Worker:
    """Coordinator-side state of one worker process and its current lease."""

    __slots__ = ("proc", "conn", "point", "attempt", "started", "last_hb")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.point: Optional[int] = None      #: leased point; None when idle
        self.attempt = 0
        self.started = 0.0
        self.last_hb = 0.0


class QueueExecutor:
    """Multi-process lease-based executor; durable when given a journal."""

    def __init__(self, jobs: int = 1, *, journal_dir=None,
                 resume: bool = False, max_attempts: int = 3,
                 lease_s: float = 30.0, heartbeat_s: Optional[float] = None,
                 point_timeout: Optional[float] = None,
                 retry_base_s: float = 0.25,
                 chaos: Optional[str] = None,
                 meta: Optional[Dict[str, Any]] = None):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if lease_s <= 0:
            raise ValueError(f"lease_s must be > 0, got {lease_s}")
        if point_timeout is not None and point_timeout <= 0:
            raise ValueError(f"point_timeout must be > 0, got {point_timeout}")
        if resume and journal_dir is None:
            raise ValueError("resume=True needs a journal_dir to replay")
        self.jobs = jobs
        self.journal_dir = journal_dir
        self.resume = resume
        self.max_attempts = max_attempts
        self.lease_s = lease_s
        self.heartbeat_s = heartbeat_s if heartbeat_s is not None else lease_s / 4.0
        self.point_timeout = point_timeout
        self.retry_base_s = retry_base_s
        self.chaos = chaos
        #: descriptive header fields (experiment id, scale) journaled so
        #: ``--status`` can label the campaign; never part of identity.
        self.meta = dict(meta) if meta else {}

    # -- retry policy -----------------------------------------------------

    def backoff_s(self, fingerprint: str, attempt: int) -> float:
        """Delay before retrying ``attempt`` (which just failed).

        Exponential in the attempt number with deterministic jitter: the
        jitter is a pure hash of (fingerprint, attempt), so two runs of
        the same campaign schedule retries identically — no RNG state to
        persist, nothing to desynchronize across a resume.
        """
        base = self.retry_base_s * (2.0 ** (attempt - 1))
        digest = hashlib.sha256(
            f"backoff:{fingerprint}:{attempt}".encode()
        ).digest()
        jitter = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return base * (1.0 + 0.5 * jitter)

    # -- the campaign loop ------------------------------------------------

    def run(self, specs: Sequence[RunSpec], *, trace: bool = False,
            sanitize: bool = False, profile: bool = False) -> ExecutionBatch:
        batch = ExecutionBatch()
        if not specs:
            return batch
        specs = list(specs)
        total = len(specs)
        outputs: List[Optional[Dict[str, Any]]] = [None] * total
        attempts = {i: 0 for i in range(total)}
        quarantined: Dict[int, str] = {}
        replayed = 0

        journal = None
        if self.journal_dir is not None:
            fingerprint = campaign_fingerprint(specs)
            journal = CampaignJournal.for_campaign(self.journal_dir,
                                                   fingerprint)
            if self.resume and journal.exists:
                state = journal.replay()
                header = state.header
                if header is not None and (
                        header.get("fp") != fingerprint
                        or header.get("points") != total):
                    raise ExecutorError(
                        f"journal {journal.path} was recorded for a "
                        "different campaign (fingerprint or point count "
                        "mismatch); remove it or run without --resume"
                    )
                for i, point in state.points.items():
                    if not 0 <= i < total:
                        continue
                    attempts[i] = point.attempts
                    if point.status == "done" and not (trace or sanitize
                                                      or profile):
                        outputs[i] = point.output
                        replayed += 1
                    elif point.status == "quarantined":
                        quarantined[i] = point.error or "quarantined"
                journal.append({"e": "resume", "pending": total - replayed
                                - len(quarantined)})
            else:
                if not self.resume:
                    journal.discard()
                journal.append({"e": "campaign", "fp": fingerprint,
                                "points": total,
                                "version": _package_version(),
                                **self.meta})
        pending = [i for i in range(total)
                   if outputs[i] is None and i not in quarantined]
        try:
            results = self._drain(specs, pending, attempts, journal,
                                  trace, sanitize, profile, quarantined)
        finally:
            if journal is not None:
                journal.close()

        tracers: List[Any] = []
        findings: List[Dict[str, Any]] = []
        for i in range(total):
            payload = results.get(i)
            if payload is None:
                if trace:
                    batch.tracer_groups.append([])
                if profile:
                    # Quarantined/replayed-missing points contribute no
                    # profile; the merged artifact covers only the
                    # healthy remainder.
                    batch.profiles.append(None)
                continue
            outputs[i] = payload["output"]
            tracers.extend(payload["tracers"])
            if trace:
                batch.tracer_groups.append(list(payload["tracers"]))
            if profile:
                batch.profiles.append(payload["profile"])
            findings.extend(payload["findings"])
            batch.sanitizer_runs += payload["sanitizer_runs"]
        # Re-number the merged tracers so exports are byte-identical to
        # an inline run's single session (run_index is lane-ordering).
        for index, tracer in enumerate(tracers, start=1):
            tracer.run_index = index
        batch.outputs = outputs
        batch.tracers = tracers
        batch.findings = findings
        batch.replayed = replayed
        batch.failures = [
            {"point": i, "app": specs[i].app,
             "fingerprint": specs[i].fingerprint()[:12],
             "attempts": max(attempts[i], 1), "error": quarantined[i]}
            for i in sorted(quarantined)
        ]
        return batch

    def _drain(self, specs, pending, attempts, journal,
               trace, sanitize, profile,
               quarantined) -> Dict[int, Dict[str, Any]]:
        """Run every pending point to done or quarantine; the inner loop."""
        import multiprocessing as mp
        from multiprocessing.connection import wait as conn_wait

        ctx = mp.get_context()
        plan = ChaosPlan.parse(self.chaos) if self.chaos else None
        record = journal.append if journal is not None else (lambda event: None)
        results: Dict[int, Dict[str, Any]] = {}
        fresh_done = 0
        ready: List[tuple] = []     # (not_before, point, attempt)
        for i in pending:
            heapq.heappush(ready, (0.0, i, attempts[i] + 1))
        workers: Dict[Any, _Worker] = {}     # by the coordinator's conn

        def spawn() -> _Worker:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_queue_worker,
                args=(child_conn, [*workers, parent_conn], trace, sanitize,
                      profile, self.chaos, self.heartbeat_s),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            workers[parent_conn] = _Worker(proc, parent_conn)
            return workers[parent_conn]

        def lease(worker: _Worker, point: int, attempt: int) -> None:
            attempts[point] = attempt
            record({"e": "lease", "p": point, "attempt": attempt,
                    "pid": worker.proc.pid, "lease_s": self.lease_s})
            worker.point, worker.attempt = point, attempt
            worker.started = worker.last_hb = time.monotonic()
            try:
                worker.conn.send((point, specs[point], attempt))
            except OSError:
                pass        # a dead worker reads as EOF in the loop below

        def stop(worker: _Worker, kill: bool = False) -> str:
            """Close and join one worker, killing it now or after a grace.

            Returns why it stopped.  For a worker that closed its pipe on
            its own the exit code decides, once the process had the grace
            period to exit — killing it first would misreport a clean
            exit as SIGKILL.
            """
            del workers[worker.conn]
            worker.conn.close()
            if kill:
                worker.proc.kill()
            worker.proc.join(_EXIT_GRACE_S)
            cause = _exit_cause(worker.proc.exitcode)
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join()
            return cause

        def failed(point: int, attempt: int, error: str) -> None:
            record({"e": "failed", "p": point, "attempt": attempt,
                    "error": error})
            if attempt >= self.max_attempts:
                record({"e": "quarantined", "p": point, "attempt": attempt})
                quarantined[point] = error
            else:
                delay = self.backoff_s(specs[point].fingerprint(), attempt)
                heapq.heappush(ready, (time.monotonic() + delay, point,
                                       attempt + 1))

        def done(worker: _Worker, payload: Dict[str, Any]) -> None:
            nonlocal fresh_done
            point = worker.point
            worker.point = None
            results[point] = payload
            record({"e": "done", "p": point, "attempt": worker.attempt,
                    "output": payload["output"]})
            fresh_done += 1
            if (plan is not None and plan.halt_after is not None
                    and fresh_done >= plan.halt_after):
                # Chaos "halt": die exactly like a machine reboot would —
                # mid-campaign, journal intact, no cleanup.
                os.kill(os.getpid(), signal.SIGKILL)

        try:
            while ready or any(w.point is not None for w in workers.values()):
                now = time.monotonic()
                while ready and ready[0][0] <= now:
                    idle = next((w for w in workers.values()
                                 if w.point is None), None)
                    if idle is None:
                        if len(workers) >= self.jobs:
                            break
                        idle = spawn()
                    _, point, attempt = heapq.heappop(ready)
                    lease(idle, point, attempt)
                busy = [w for w in workers.values() if w.point is not None]
                # A due point waits for a free worker, not for the clock.
                deadlines = ([ready[0][0]] if ready and len(busy) < self.jobs
                             else [])
                for worker in busy:
                    deadlines.append(worker.last_hb + self.lease_s)
                    if self.point_timeout is not None:
                        deadlines.append(worker.started + self.point_timeout)
                timeout = min(deadlines) - time.monotonic() if deadlines else 0.05
                timeout = max(0.0, min(timeout, 0.25))
                if workers:
                    for conn in conn_wait(list(workers), timeout):
                        worker = workers[conn]
                        try:
                            message = conn.recv()
                        except (EOFError, OSError):
                            cause = stop(worker)
                            if worker.point is not None:
                                failed(worker.point, worker.attempt, cause)
                            continue
                        kind, index = message[0], message[1]
                        if index != worker.point:
                            continue        # stale: not the current lease
                        if kind == "hb":
                            worker.last_hb = time.monotonic()
                        elif kind == "result":
                            done(worker, message[2])
                        elif kind == "error":
                            # An app exception leaves the worker healthy.
                            worker.point = None
                            failed(index, worker.attempt, message[2])
                elif timeout > 0:
                    time.sleep(timeout)
                now = time.monotonic()
                for worker in list(workers.values()):
                    if worker.point is None:
                        continue
                    if (self.point_timeout is not None
                            and now - worker.started > self.point_timeout):
                        error = (f"point timeout: exceeded "
                                 f"{self.point_timeout:g}s wall clock")
                    elif now - worker.last_hb > self.lease_s:
                        error = (f"lease expired: no heartbeat for "
                                 f"{self.lease_s:g}s")
                    else:
                        continue
                    stop(worker, kill=True)
                    failed(worker.point, worker.attempt, error)
        finally:
            for worker in list(workers.values()):
                stop(worker, kill=worker.point is not None)
        return results


def _package_version() -> str:
    from repro._version import __version__

    return __version__
