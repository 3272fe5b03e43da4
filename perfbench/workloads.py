"""The benchmark's four workloads: seeded generation, one pass, checks.

A workload is built from the seed (``generate``), runs its first point
once untimed (``warm_up``), then runs whole passes over its points
(``run_pass``).  ``check`` judges one pass's outputs and returns the
indices of failed points with the reason, so a wrong answer is counted
and the run goes on.  A check that spans the whole pass (an experiment's
shape checks, the default-seed digest, the journal replay) fails every
point of that pass.

What the benchmark itself derives from the seed with its oracle (which
tree to draw, how many nodes it must have) is the workload's
*reference*.  ``make_reference`` computes it once per run, in the parent
process and before any set-up is timed, so ``setup_s`` holds only what a
user of the program pays.

Why these four (each optimisation on the roadmap should move one and
leave another alone; shares are of one traced pass, as ``run.py``
prints them):

* ``uts-deep`` — splittable RNG (~44%), tree expansion and the
  sequential ``count_tree`` check (~35%) dominate host time; the engine,
  with the UTS worker bodies it resumes, is ~15%.  The only seeded
  workload: the tree is drawn from the seed.
* ``ft-alltoall`` — engine heap (~60%), processor-sharing NIC pipes
  (~16%) and the fabric (~12%) dominate; no RNG at all.  The mirror of
  ``uts-deep``.
* ``uts-faults`` — UTS over the same engine, resource and GASNet layers
  with small uncontended steal messages, and with a fault injector on
  three of its four points.  There every network operation races a
  timeout (spawned try, timer, ``any_of``, cancel), which costs about a
  tenth of such a point's host time; the retransmits, lost messages and
  crash recovery themselves are a sliver.  It runs R1's own quick points,
  whose ``small_tree`` preset and fault-plan seeds stay fixed: with a tree
  and plans drawn from the seed, the host cost of a pass of this
  steal-bound workload varied by 15-30% from seed to seed.
* ``campaign-durable`` — the harness's durable queue executor (worker
  processes, pipes, fsynced journal); the only workload that measures it.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

#: The seed whose outputs must match ``digests.json``.
DEFAULT_SEED = 1
DIGESTS_PATH = Path(__file__).with_name("digests.json")
_SCRATCH = Path(".perfbench-tmp")

Outputs = List[Optional[Dict[str, Any]]]
Failures = List[Tuple[int, str]]

# uts-deep's binomial shape (q*m = 0.95: subcritical, so sizes stay
# bounded while trees still run about 100 levels deep).
_Q, _M = 0.11875, 8
#: Candidate trees drawn per seed; the one nearest the target size is kept.
_CANDIDATES = 64


def outputs_digest(outputs: Outputs) -> str:
    """sha256 of a pass's outputs in canonical JSON."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def committed_digest(name: str) -> Optional[str]:
    with open(DIGESTS_PATH) as fh:
        return json.load(fh).get(name)


class Workload:
    """Base: a list of points run in order; subclasses fill in the rest."""

    name = ""
    #: Worker processes running at once: their memory counts in peak RSS,
    #: and the host's speed is sampled in them.
    jobs = 0
    #: False when the seed does not change the inputs.
    seeded = True

    def __init__(self, seed: int, reference: Optional[Dict[str, Any]] = None):
        self.seed = seed
        #: JSON-able; also printed with the run's result.
        self.info = self.make_reference(seed) if reference is None else reference

    @classmethod
    def make_reference(cls, seed: int) -> Dict[str, Any]:
        """The benchmark's own inputs and expected answers for ``seed``."""
        return {}

    @property
    def npoints(self) -> int:
        raise NotImplementedError

    def run_point(self, index: int) -> Dict[str, Any]:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Run the first point once, so lazy set-up lands before timing."""
        self.run_point(0)

    def run_pass(self) -> Tuple[Outputs, Failures]:
        """Every point once; an exception fails that point only."""
        outputs: Outputs = []
        errors: Failures = []
        for i in range(self.npoints):
            try:
                outputs.append(self.run_point(i))
            except Exception as exc:  # a failed point is counted, not fatal
                outputs.append(None)
                errors.append((i, f"{type(exc).__name__}: {exc}"))
        return outputs, errors

    def check_point(self, index: int, output: Dict[str, Any]) -> Optional[str]:
        """Why one point's output is wrong, or None."""
        return None

    def check_pass(self, outputs: Outputs) -> List[str]:
        """Checks over the whole pass; any message fails every point."""
        return []

    def check(self, outputs: Outputs) -> Failures:
        failures: Failures = []
        for i, out in enumerate(outputs):
            why = "no output" if out is None else self.check_point(i, out)
            if why:
                failures.append((i, why))
        problems = self.check_pass(outputs)
        expected = committed_digest(self.name)
        if expected and (self.seed == DEFAULT_SEED or not self.seeded):
            got = outputs_digest(outputs)
            if got != expected:
                problems.append(f"output digest {got} != committed {expected}")
        if problems:
            failed = {i for i, _ in failures}
            failures += [(i, "; ".join(problems))
                         for i in range(len(outputs)) if i not in failed]
        return sorted(failures)

    def counters(self, outputs: Outputs) -> Dict[str, float]:
        """Exact per-layer counts read from the outputs (traced run)."""
        return {}

    def close(self) -> None:
        """Remove anything the workload wrote."""


def _uts_counters(nodes: int, outputs: Outputs) -> Dict[str, float]:
    """Exact UTS counts read from a pass's outputs (traced run)."""
    done = [o for o in outputs if o is not None]
    return {
        "apps.uts.tree_nodes": nodes,
        "apps.uts.steals": sum(o["steals"] for o in done),
        "gasnet.retransmits": sum(o["gasnet_retransmits"] for o in done),
        "gasnet.timeouts": sum(o["gasnet_timeouts"] for o in done),
        "faults.messages_lost": sum(o["net_messages_lost"] for o in done),
    }


class UtsDeep(Workload):
    """Two stealing policies over one seeded deep tree on Ethernet."""

    name = "uts-deep"
    b0 = 6000
    target = 120_000
    _POLICIES = ("local+diffusion", "baseline")

    def __init__(self, seed: int, reference: Optional[Dict[str, Any]] = None):
        super().__init__(seed, reference)
        from repro.apps.uts import TreeParams

        self.nodes = self.info["tree_nodes"]
        self.tree = TreeParams(kind="binomial", b0=self.b0, q=_Q, m=_M,
                               seed=self.info["tree_seed"], algorithm="mix")

    @classmethod
    def make_reference(cls, seed: int) -> Dict[str, Any]:
        from perfbench.oracle import pick_tree

        tree_seed, nodes, depth = pick_tree(seed, cls.name, cls.b0, _Q, _M,
                                            cls.target, _CANDIDATES)
        return {"tree_seed": tree_seed, "tree_nodes": nodes,
                "tree_depth": depth}

    @property
    def npoints(self) -> int:
        return len(self._POLICIES)

    def run_point(self, index: int) -> Dict[str, Any]:
        from repro.apps.uts import run_uts
        from repro.machine.presets import pyramid

        return run_uts(self._POLICIES[index], tree=self.tree, threads=16,
                       threads_per_node=4, preset=pyramid(nodes=4),
                       conduit="gige", steal_chunk=20)

    def check_point(self, index, output):
        if output["tree_nodes"] != self.nodes:
            return (f"processed {output['tree_nodes']} nodes, reference "
                    f"traversal has {self.nodes}")
        if output["completed_fraction"] != 1.0:
            return f"completed fraction {output['completed_fraction']}"
        return None

    def counters(self, outputs: Outputs) -> Dict[str, float]:
        return _uts_counters(self.nodes, outputs)


class _ExperimentPoints(Workload):
    """A harness experiment's point set, run in order through the app
    adapters; the experiment's own shape checks judge the pass."""

    seeded = False
    experiment_id = ""
    scale = "quick"

    def __init__(self, seed: int, reference: Optional[Dict[str, Any]] = None):
        super().__init__(seed, reference)
        self.experiment = self._experiment()
        self.specs = self._specs(self.experiment)

    @classmethod
    def _experiment(cls):
        from repro.harness.runner import get_experiment

        return get_experiment(cls.experiment_id)

    @classmethod
    def _specs(cls, experiment) -> list:
        return [cls.adapt(spec) for spec in experiment.points(cls.scale)]

    @classmethod
    def adapt(cls, spec):
        return spec

    @property
    def npoints(self) -> int:
        return len(self.specs)

    def run_point(self, index: int) -> Dict[str, Any]:
        from repro.harness.executor import execute_spec

        return execute_spec(self.specs[index])

    def check_pass(self, outputs):
        if any(o is None for o in outputs):
            return []
        return list(self.experiment.collate(self.scale, outputs).shape_failures)


class FtAlltoall(_ExperimentPoints):
    """The Fig 4.6 quick point set at one FT iteration."""

    name = "ft-alltoall"
    experiment_id = "f4_6"

    @classmethod
    def adapt(cls, spec):
        return spec.with_updates(iterations=1)

    def check_point(self, index, output):
        if not output["elapsed_s"] > 0:
            return f"elapsed {output['elapsed_s']}"
        return None


class UtsFaults(_ExperimentPoints):
    """The R1 fault scenarios as ``python -m repro.harness r1`` runs them:
    the ``small`` tree, 16 threads on 4 nodes, fault plans with the
    experiment's fixed seeds."""

    name = "uts-faults"
    experiment_id = "r1"

    def __init__(self, seed: int, reference: Optional[Dict[str, Any]] = None):
        super().__init__(seed, reference)
        self.nodes = self.info["tree_nodes"]

    @classmethod
    def make_reference(cls, seed: int) -> Dict[str, Any]:
        from repro.apps.uts import small_tree

        from perfbench.oracle import count_binomial

        spec = cls._specs(cls._experiment())[0]
        tree = small_tree(spec.extra("tree"))
        nodes, depth = count_binomial(tree.b0, tree.q, tree.m, tree.seed)
        return {"tree_nodes": nodes, "tree_depth": depth}

    def check_point(self, index, output):
        if "crash" not in (self.specs[index].faults or ""):
            if output["tree_nodes"] != self.nodes:
                return (f"processed {output['tree_nodes']} nodes, reference "
                        f"traversal has {self.nodes}")
            if output["threads_lost"]:
                return f"lost {output['threads_lost']} threads without a crash"
            return None
        if output["threads_lost"] <= 0:
            return "crash: no thread was lost"
        if output["tree_nodes"] + output["nodes_lost"] > self.nodes:
            return (f"crash: processed {output['tree_nodes']} + lost "
                    f"{output['nodes_lost']} exceeds the tree's {self.nodes}")
        return None

    def counters(self, outputs: Outputs) -> Dict[str, float]:
        return _uts_counters(self.nodes, outputs)


class CampaignDurable(Workload):
    """The Fig 3.4 quick point set through the durable queue executor.

    The committed digest for this workload is that of an inline run, so
    the digest check proves the queue's outputs equal an inline run's.
    The inline run is not repeated here: it would import the app modules
    into this process, and every worker forked afterwards would skip the
    imports a real campaign's workers pay.
    """

    name = "campaign-durable"
    jobs = 2
    seeded = False

    def __init__(self, seed: int, reference: Optional[Dict[str, Any]] = None):
        super().__init__(seed, reference)
        from repro.harness.runner import get_experiment

        self.experiment = get_experiment("f3_4")
        self.specs = list(self.experiment.points("quick"))
        #: Journals live in the working directory (the checkout).
        self.scratch = _SCRATCH / str(os.getpid())
        self._passes = 0
        self._journal_dir: Optional[Path] = None

    @property
    def npoints(self) -> int:
        return len(self.specs)

    def _campaign(self, specs):
        from repro.harness.queue import QueueExecutor

        self._passes += 1
        journal_dir = self.scratch / f"pass-{self._passes}"
        shutil.rmtree(journal_dir, ignore_errors=True)
        self._journal_dir = journal_dir
        return QueueExecutor(jobs=self.jobs, journal_dir=journal_dir).run(specs)

    def warm_up(self) -> None:
        self._campaign(self.specs[:1])
        self._cleanup()

    def run_pass(self) -> Tuple[Outputs, Failures]:
        batch = self._campaign(self.specs)
        errors = [(f["point"], f["error"]) for f in batch.failures]
        return list(batch.outputs), errors

    def _cleanup(self) -> None:
        if self._journal_dir is not None:
            shutil.rmtree(self._journal_dir, ignore_errors=True)
            self._journal_dir = None

    def check_pass(self, outputs):
        from repro.harness.journal import CampaignJournal, campaign_fingerprint

        problems: List[str] = []
        journal = CampaignJournal.for_campaign(
            self._journal_dir, campaign_fingerprint(self.specs))
        points = journal.replay().points
        for i, out in enumerate(outputs):
            state = points.get(i)
            if state is None or state.status != "done":
                problems.append(f"journal: point {i} is not done")
            elif state.output != out:
                problems.append(f"journal: point {i} output differs")
        self._cleanup()
        if not any(o is None for o in outputs):
            problems += self.experiment.collate("quick", outputs).shape_failures
        return problems

    def close(self) -> None:
        self._cleanup()
        shutil.rmtree(self.scratch, ignore_errors=True)
        try:
            _SCRATCH.rmdir()
        except OSError:
            pass    # another process's journals are still there


WORKLOADS = {cls.name: cls for cls in (UtsDeep, FtAlltoall, UtsFaults,
                                       CampaignDurable)}


def make_reference(name: str, seed: int) -> Dict[str, Any]:
    """Workload ``name``'s reference for ``seed`` (see the module doc)."""
    return WORKLOADS[name].make_reference(seed)


def generate(name: str, seed: int,
             reference: Optional[Dict[str, Any]] = None) -> Workload:
    """Build workload ``name``'s inputs from ``seed`` and its reference
    (computed here when not given)."""
    return WORKLOADS[name](seed, reference)
