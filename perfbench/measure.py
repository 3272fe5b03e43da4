"""One measuring process: set up a workload, time passes, check outputs.

Run by ``perfbench/run.py`` as ``python3 -m perfbench.measure`` with
``src`` on the path and the workload's reference (see
``perfbench/workloads.py``) computed by the parent.  It prints one JSON
object on its last stdout line:

* ``ready`` — ``time.monotonic()`` when the first measured pass starts,
  so the parent can time set-up from before it started this process;
* ``passes`` — host seconds of each measured pass;
* ``setup_samples`` / ``samples`` — the host-speed samples taken during
  set-up and for each pass (see ``Speedometer.lap``).  A traced pass
  that runs in this process is not sampled while it runs, since a sample
  would land inside a layer's span; it gets ``BURST`` samples just
  before and just after instead;
* ``attempted`` / ``failed`` / ``failures`` — points run and points
  whose output failed its check (with reasons, first few only);
* ``digests`` — the distinct output digests seen over the passes;
* ``rss_kb`` — peak resident memory of this process plus, for
  workloads that start worker processes, the largest worker's peak
  times the number that run at once;
* ``layers`` / ``self_s`` — with ``--trace 1`` only: per-layer metrics
  of exactly one traced pass, and every layer's self time in it.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import mmap
import os
import resource
import struct
import signal
import sys
import time

_MAX_REASONS = 5
#: Calibration kernel size for one speed sample (about a millisecond).
CALIBRATION_ROUNDS = 1_500
SAMPLE_EVERY_S = 0.05
#: Sampling interval in forked workers.  Their samples' own time is not
#: subtracted, but a worker pass is noisier (two workers and the parent
#: share the cores), and twice the samples halved its run-to-run spread.
FORK_SAMPLE_EVERY_S = 0.025
#: Samples taken on each side of a traced pass.
BURST = 20
#: Shared-page slots for samples from forked workers (indexed by pid).
_FORK_SLOTS = 4096


def calibrate(rounds: int) -> float:
    """Host seconds for a fixed pure-Python kernel shaped like the
    simulator's inner loop: heap pushes and pops of event tuples, calls
    through bound methods, generator resumptions."""
    def process():
        total = 0
        while True:
            total += yield total

    proc = process()
    next(proc)
    heap: list = []
    t0 = time.perf_counter()
    for i in range(rounds):
        heapq.heappush(heap, ((i * 7919) % 1009, i, proc.send))
        if len(heap) > 64:
            _when, seq, resume = heapq.heappop(heap)
            resume(seq & 7)
    return time.perf_counter() - t0


class Speedometer:
    """Samples the host's current speed while other work runs.

    Every ``SAMPLE_EVERY_S`` of wall time a timer signal runs the
    calibration kernel between two bytecodes of whatever is executing,
    so the samples see the same host speed as the work around them.  The
    kernel runs twice and only the second run is kept: a process that was
    blocked wakes with cold caches, and its first run would read the host
    as slower than it is.  ``lap`` returns, since the previous lap, the
    time the samples took (for the caller to subtract), the kept runs'
    time, and the number of samples.

    A workload whose worker processes share every core is sampled in
    the workers instead (``follow_forks``): samples in the waiting parent
    would time contention with its own workers.  Each forked process
    writes its running totals to its own slot of a shared page;
    ``collect_forks`` sums and clears them.  Those samples' own time is
    spread over the workers and not subtracted.
    """

    def __init__(self):
        self._lap = [0.0, 0.0, 0]
        self._shared = None
        self._slot = None

    def _sample(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        calibrate(CALIBRATION_ROUNDS)
        kept = calibrate(CALIBRATION_ROUNDS)
        lap = self._lap
        lap[0] += time.perf_counter() - t0
        lap[1] += kept
        lap[2] += 1
        if self._slot is not None:
            struct.pack_into("dd", self._shared, self._slot, lap[1], lap[2])

    def start(self, every: float = SAMPLE_EVERY_S) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, every, every)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def burst(self, count: int) -> None:
        """Take ``count`` samples now, between timed spans, so their own
        time is not counted for subtraction."""
        lap = self._lap
        for _ in range(count):
            calibrate(CALIBRATION_ROUNDS)
            lap[1] += calibrate(CALIBRATION_ROUNDS)
            lap[2] += 1

    def lap(self) -> tuple:
        lap, self._lap = self._lap, [0.0, 0.0, 0]
        return tuple(lap)

    def follow_forks(self) -> None:
        """Stop sampling here; sample in every process forked from now on."""
        self.stop()
        self._shared = mmap.mmap(-1, _FORK_SLOTS * 16)
        os.register_at_fork(after_in_child=self._start_in_child)

    def _start_in_child(self) -> None:
        self._lap = [0.0, 0.0, 0]
        self._slot = (os.getpid() % _FORK_SLOTS) * 16
        self.start(FORK_SAMPLE_EVERY_S)

    def collect_forks(self) -> tuple:
        """The forked processes' samples since the last call, as ``lap``
        returns them; call it once those processes have ended."""
        kept, count = 0.0, 0
        for slot in range(_FORK_SLOTS):
            slot_kept, slot_count = struct.unpack_from("dd", self._shared,
                                                      slot * 16)
            kept += slot_kept
            count += int(slot_count)
        self._shared[:] = bytes(_FORK_SLOTS * 16)
        return 0.0, kept, count


def measure(name: str, seed: int, budget: float, trace: bool,
            reference: dict) -> dict:
    speed = Speedometer()
    speed.start()
    # Imported after the sampling starts: importing is part of set-up.
    from perfbench.workloads import generate, outputs_digest

    workload = generate(name, seed, reference)
    forked = bool(workload.jobs)
    try:
        if forked:
            # The warm-up already runs workers.
            speed.follow_forks()
        workload.warm_up()
        setup_samples = speed.lap()
        if forked:
            _overhead, kept, count = speed.collect_forks()
            setup_samples = (setup_samples[0], setup_samples[1] + kept,
                             setup_samples[2] + count)
        ready = time.monotonic()
        tracer = None
        # A sample taken inside a traced pass would land in a layer's span
        # (unless it is taken in a worker process).
        bursts = trace and not forked
        if trace:
            from perfbench.layers import SpanTracer

            tracer = SpanTracer(harness=name == "campaign-durable")
            tracer.install()
        if bursts:
            speed.stop()
        passes, samples, digests, reasons = [], [], [], []
        attempted = failed = 0
        counters: dict = {}
        self_s: dict = {}
        start = time.perf_counter()
        while True:
            gc.collect()
            speed.lap()
            if bursts:
                speed.burst(BURST)
            t0 = time.perf_counter()
            outputs, errors = workload.run_pass()
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
            if bursts:
                speed.burst(BURST)
            passes.append(elapsed)
            samples.append(speed.collect_forks() if forked else speed.lap())
            failures = dict(workload.check(outputs))
            failures.update(errors)
            attempted += len(outputs)
            failed += len(failures)
            reasons += [f"point {i}: {why}" for i, why in sorted(failures.items())]
            digest = outputs_digest(outputs)
            if digest not in digests:
                digests.append(digest)
            if tracer is not None:
                counters = {**tracer.metrics(), **workload.counters(outputs)}
                self_s = tracer.self_s
                break
            if time.perf_counter() - start >= budget:
                break
    finally:
        speed.stop()
        workload.close()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.jobs:
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        rss_kb += workload.jobs * children
    return {
        "ready": ready,
        "setup_samples": setup_samples,
        "passes": passes,
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "failures": reasons[:_MAX_REASONS],
        "digests": digests,
        "rss_kb": rss_kb,
        "info": workload.info,
        "layers": counters,
        "self_s": self_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True,
                        help="seconds of passes (the last pass may overrun)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: run exactly one pass with layer spans on")
    parser.add_argument("--reference", required=True,
                        help="the workload's reference, as JSON")
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.budget, bool(args.trace),
                     json.loads(args.reference))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
