"""The repository benchmark: one workload, one seed, one JSON line out.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload uts-deep --seed 1 --seconds 16 --trace 0

Workloads (see ``perfbench/workloads.py`` for why each was chosen):
``uts-deep``, ``ft-alltoall``, ``uts-faults``, ``campaign-durable``.

``--trace 0`` prints the end-to-end metrics, measured with tracing
off.  The measuring is split over ``SETUPS`` fresh processes run one
after another, each given an equal share of ``--seconds`` for passes:

* ``wall_s`` — median seconds of one pass over the workload's points,
  over every pass of every process;
* ``setup_s`` — median, over the processes, of the seconds from
  starting the process to its first measured pass: interpreter start,
  imports, workload generation and one untimed warm-up point.  The
  benchmark's own reference work (choosing ``uts-deep``'s tree, counting
  the trees' nodes with the oracle) runs once in this process before
  the first of them starts, so it is not part of ``setup_s``;
* ``peak_rss_mb`` — median peak resident memory of a process (workers
  included for ``campaign-durable``);
* ``ok_frac`` — points whose output passed its check / points run.

Both times are in *reference-host seconds*.  On a shared host the speed
of one core drifts by tens of percent over seconds to minutes, and the
same pass measured a minute apart differs by as much.  So every
measuring process samples its own speed about 20 times a second with a
fixed pure-Python calibration kernel (``measure.Speedometer``), and each
time, less the sampling's own cost, is scaled by ``CALIBRATION_REF_S``
over the kernel's mean time in the samples taken during it.  A change to
the program moves the scaled time in proportion to the measured one;
the host's drift cancels.  ``campaign-durable``'s workers share every
core, so it is sampled in its worker processes instead (from its
warm-up on, 40 times a second).  The measured seconds are printed too.

``--trace 1`` prints the per-layer metrics of ``perfbench/layers.py``:
one untraced process measures passes for half of ``--seconds``, then a
second process runs exactly one pass with layer spans on, so no wrapper
reaches the untraced timing.  The per-layer seconds are reference-host
seconds too, scaled by host-speed samples taken just before and after
the traced pass.  ``trace.overhead_frac`` is that traced pass over the
untraced median, minus one; the traced pass's outputs must be
byte-identical to the untraced ones.  Each layer's share of the traced
pass (its self time over the pass) is printed on the line before the
result.

The last stdout line is ``{"correct", "attempted", "failed",
"metrics"}``.  A failed output check is counted and the run goes on; the
exit code is non-zero only when the benchmark itself cannot run (for
instance outside a checkout of this repository).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.layers import END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = ("uts-deep", "ft-alltoall", "uts-faults", "campaign-durable")
#: Fresh processes per untraced run; setup_s is their median.
SETUPS = 3
#: Longest a whole run may take before it is abandoned.
RUN_TIMEOUT_S = 170.0
#: Reference host speed: seconds the calibration kernel takes there.
CALIBRATION_REF_S = 0.0011
#: Per-layer units scaled to reference-host time.
TIME_UNITS = ("s", "us")


class BenchError(RuntimeError):
    """The benchmark itself could not run."""


def _child(workload: str, seed: int, reference: str, budget: float,
           trace: bool, deadline: float) -> dict:
    """Run one measuring process; its result gains ``setup_s``, timed
    from just before the process started."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    # One string-hash seed for every process, so dict and set layouts,
    # and the time spent probing them, do not vary between processes.
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, "-m", "perfbench.measure", "--workload", workload,
           "--seed", str(seed), "--budget", repr(budget),
           "--trace", "1" if trace else "0", "--reference", reference]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(deadline - started, 1))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: the run exceeded {RUN_TIMEOUT_S:g}s"
                         ) from None
    if proc.returncode != 0:
        raise BenchError(f"{workload}: measuring process exited "
                         f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    return result


def _speed(samples) -> float:
    """Reference-host seconds per measured second, from one lap's
    samples: ``CALIBRATION_REF_S`` over their mean kernel time."""
    _overhead, kept, count = samples
    return CALIBRATION_REF_S * count / kept


def _scaled(result: dict) -> tuple:
    """(passes, setup_s) of one process in reference-host seconds: each
    time, less the time its speed samples took, scaled by ``_speed``."""
    def scale(seconds, samples):
        return (seconds - samples[0]) * _speed(samples)

    passes = [scale(p, s) for p, s in zip(result["passes"], result["samples"])]
    return passes, scale(result["setup_s"], result["setup_samples"])


def _summary(results: list) -> dict:
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return {"attempted": attempted, "failed": failed,
            "reasons": [why for r in results for why in r["failures"]]}


def run_untraced(workload: str, seed: int, reference: str, seconds: float,
                 deadline: float):
    results = [_child(workload, seed, reference, seconds / SETUPS, False,
                      deadline)
               for _ in range(SETUPS)]
    scaled = [_scaled(r) for r in results]
    passes = [p for pass_list, _setup in scaled for p in pass_list]
    summary = _summary(results)
    digests = {d for r in results for d in r["digests"]}
    if len(digests) != 1:
        summary["failed"] = summary["attempted"]
        summary["reasons"].append(f"passes disagree: {len(digests)} digests")
    metrics = {
        "wall_s": statistics.median(passes),
        "setup_s": statistics.median(setup for _passes, setup in scaled),
        "peak_rss_mb": statistics.median(r["rss_kb"] for r in results) / 1024,
        "ok_frac": 1.0 - summary["failed"] / summary["attempted"],
    }
    raw = [p for r in results for p in r["passes"]]
    print(f"{workload} seed={seed}: {len(passes)} passes; wall_s "
          f"{metrics['wall_s']:.4f} reference-host s, {statistics.median(raw):.4f} "
          f"measured s; setup_s {[round(s, 3) for _p, s in scaled]} reference-host s, "
          f"{[round(r['setup_s'], 3) for r in results]} measured s; "
          f"inputs {results[0]['info']}")
    return metrics, summary, {m.name: m.unit for m in END_TO_END}


def run_traced(workload: str, seed: int, reference: str, seconds: float,
               deadline: float):
    plain = _child(workload, seed, reference, seconds / 2, False, deadline)
    traced = _child(workload, seed, reference, 0.0, True, deadline)
    summary = _summary([plain, traced])
    if set(traced["digests"]) != set(plain["digests"]):
        summary["failed"] = summary["attempted"]
        summary["reasons"].append("traced outputs differ from untraced ones")
    untraced_s = statistics.median(_scaled(plain)[0])
    traced_s = _scaled(traced)[0][0]
    speed = _speed(traced["samples"][0])
    units = {m.name: m.unit for m in PER_LAYER}
    metrics = {name: value * speed if units[name] in TIME_UNITS else value
               for name, value in traced["layers"].items()}
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    shares = {layer: seconds * speed / traced_s
              for layer, seconds in traced["self_s"].items() if seconds}
    shares["outside any span"] = 1.0 - sum(shares.values())
    print(f"{workload} seed={seed}: traced pass {traced_s:.4f}, untraced "
          f"median {untraced_s:.4f} reference-host s; inputs {traced['info']}")
    print("share of the traced pass: " + ", ".join(
        f"{layer} {share:.1%}" for layer, share in
        sorted(shares.items(), key=lambda kv: -kv[1])))
    return metrics, summary, units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT} is not a checkout of this repository "
              "(src/repro is missing)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_TIMEOUT_S
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench.workloads import make_reference

    reference = json.dumps(make_reference(args.workload, args.seed))
    run = run_traced if args.trace else run_untraced
    try:
        metrics, summary, units = run(args.workload, args.seed, reference,
                                      args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for why in summary["reasons"]:
        print(f"FAILED {why}")
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
