"""The benchmark's own tests: ``python -m pytest perfbench`` from the root."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import measure, workloads
from perfbench.layers import END_TO_END, PER_LAYER, SpanTracer
from perfbench.oracle import count_binomial, pick_tree
from perfbench.workloads import (DEFAULT_SEED, UtsDeep, UtsFaults,
                                 committed_digest, generate, outputs_digest)

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class SmallDeep(UtsDeep):
    """uts-deep's code path on a tree small enough for unit tests."""

    name = "uts-deep-small"

    b0 = 300
    target = 6_000


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class TestBenchmarkJson:
    def test_metric_names_and_units_are_valid(self):
        names = [m.name for m in END_TO_END + PER_LAYER]
        assert len(names) == len(set(names))
        for metric in END_TO_END + PER_LAYER:
            assert NAME.match(metric.name), metric.name
            assert UNIT.match(metric.unit), metric.unit
            assert metric.better in ("lower", "higher")

    def test_json_matches_the_metric_table(self):
        spec = _benchmark_json()
        assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
        assert spec["end_to_end"] == [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound} for m in END_TO_END]
        assert spec["per_layer"] == [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER]
        assert any(m["name"] == "setup_s" and m["bound"] == max(
            e["bound"] for e in spec["end_to_end"]) for m in spec["end_to_end"])

    def test_json_workloads_match_the_code(self):
        spec = _benchmark_json()
        names = [w["name"] for w in spec["workloads"]]
        assert names == list(workloads.WORKLOADS)
        from perfbench import run

        assert tuple(names) == run.WORKLOADS
        for w in spec["workloads"]:
            assert set(w) == {"name", "why"} and NAME.match(w["name"])
            assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]


class TestOracle:
    @pytest.mark.parametrize("b0,q,m,seed", [(200, 0.122, 8, 7),
                                             (40, 0.120, 8, 101),
                                             (300, 0.11875, 8, 12345)])
    def test_matches_the_program_traversal(self, b0, q, m, seed):
        from repro.apps.uts import TreeParams, count_tree

        params = TreeParams(b0=b0, q=q, m=m, seed=seed, algorithm="mix")
        assert count_binomial(b0, q, m, seed) == count_tree(params)

    def test_pick_keeps_tree_size_near_target(self):
        sizes = [pick_tree(s, "t", 300, 0.11875, 8, 6_000, 64)[1]
                 for s in range(1, 6)]
        assert len(set(sizes)) == 5
        assert all(abs(n / 6_000 - 1) < 0.05 for n in sizes)


class TestSeeding:
    def test_same_seed_same_inputs(self):
        a, b = generate("uts-deep", 5), generate("uts-deep", 5)
        assert a.tree == b.tree and a.nodes == b.nodes
        assert generate("uts-deep", 6).tree != a.tree

    def test_set_up_does_no_oracle_work(self, monkeypatch):
        from perfbench import oracle

        references = {name: workloads.make_reference(name, 4)
                      for name in ("uts-deep", "uts-faults")}

        def forbidden(*_args):
            raise AssertionError("oracle called while setting up")

        monkeypatch.setattr(oracle, "pick_tree", forbidden)
        monkeypatch.setattr(oracle, "count_binomial", forbidden)
        for name, reference in references.items():
            assert generate(name, 4, reference).info == reference

    def test_unseeded_workloads_ignore_the_seed(self):
        for name in ("ft-alltoall", "uts-faults"):
            assert generate(name, 5).specs == generate(name, 6).specs

    def test_same_seed_same_exact_counts(self):
        counts = []
        for _ in range(2):
            work = UtsFaults(9)
            tracer = SpanTracer(harness=False)
            tracer.install()
            try:
                outputs, errors = work.run_pass()
            finally:
                tracer.uninstall()
            assert not errors
            metrics = {**tracer.metrics(), **work.counters(outputs)}
            counts.append({k: v for k, v in metrics.items()
                           if isinstance(v, int)})
        assert counts[0] == counts[1]
        for name in ("sim.rng.children", "apps.uts.expands",
                     "gasnet.retransmits", "faults.message_fates",
                     "upc.locks"):
            assert counts[0][name] > 0, name


class TestTracing:
    def test_traced_outputs_identical_to_untraced(self):
        work = UtsFaults(4)
        plain, _ = work.run_pass()
        tracer = SpanTracer(harness=False)
        tracer.install()
        try:
            traced, _ = work.run_pass()
        finally:
            tracer.uninstall()
        assert outputs_digest(traced) == outputs_digest(plain)
        assert not work.check(traced)

    def test_uninstall_restores_every_binding(self):
        from repro.apps.uts import driver, tree
        from repro.sim.engine import Simulator

        before = (driver.expand, tree.expand, driver.count_tree,
                  Simulator.schedule_at)
        tracer = SpanTracer(harness=False)
        tracer.install()
        assert driver.expand is not before[0] and driver.expand is tree.expand
        tracer.uninstall()
        assert (driver.expand, tree.expand, driver.count_tree,
                Simulator.schedule_at) == before

    def test_traced_pass_is_sampled_only_outside_it(self, monkeypatch):
        monkeypatch.setattr(workloads, "generate",
                            lambda name, seed, reference: SmallDeep(seed))
        result = measure.measure("uts-deep", 2, 0.0, True, {})
        (overhead, kept, count), = result["samples"]
        assert overhead == 0.0 and count == 2 * measure.BURST and kept > 0
        assert result["self_s"]["sim.rng"] > 0

    def test_self_time_excludes_nested_spans(self):
        work = SmallDeep(2)
        tracer = SpanTracer(harness=False)
        tracer.install()
        try:
            work.run_pass()
        finally:
            tracer.uninstall()
        metrics = tracer.metrics()
        assert metrics["sim.rng.self_s"] < metrics["apps.uts.expand_s"]
        assert metrics["sim.engine.self_s"] < metrics["sim.engine.run_s"]


class TestChecks:
    def test_wrong_output_is_counted(self):
        work = SmallDeep(3)
        outputs, errors = work.run_pass()
        assert not errors and not work.check(outputs)
        outputs[1] = dict(outputs[1], tree_nodes=outputs[1]["tree_nodes"] + 1)
        assert [i for i, _ in work.check(outputs)] == [1]

    def test_failures_reach_the_run_result(self, monkeypatch):
        class Wrong(SmallDeep):
            def run_point(self, index):
                out = super().run_point(index)
                return dict(out, tree_nodes=0) if index == 0 else out

        monkeypatch.setattr(workloads, "generate",
                            lambda name, seed, reference: Wrong(seed))
        result = measure.measure("uts-deep", 3, 0.0, False, {})
        assert (result["attempted"], result["failed"]) == (2, 1)

    def test_exception_fails_only_its_point(self):
        class Broken(SmallDeep):
            def run_point(self, index):
                if index == 1:
                    raise AssertionError("lost work")
                return super().run_point(index)

        outputs, errors = Broken(3).run_pass()
        assert outputs[0] is not None and errors == [(1, "AssertionError: lost work")]

    @pytest.mark.parametrize("name", list(workloads.WORKLOADS))
    def test_default_seed_matches_committed_digest(self, name):
        work = generate(name, DEFAULT_SEED)
        try:
            outputs, errors = work.run_pass()
            assert not errors
            assert outputs_digest(outputs) == committed_digest(name)
            assert not work.check(outputs)
        finally:
            work.close()

    def test_campaign_digest_is_an_inline_run(self):
        from repro.harness.executor import execute_spec

        work = generate("campaign-durable", DEFAULT_SEED)
        inline = [execute_spec(spec) for spec in work.specs]
        assert outputs_digest(inline) == committed_digest("campaign-durable")


class TestCommand:
    def test_traced_campaign_run(self):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "campaign-durable", "--seed", "2", "--seconds", "1",
             "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m.name for m in PER_LAYER}
        assert result["metrics"]["harness.journal.appends"]["value"] == 53

    def test_fails_outside_a_checkout(self, tmp_path):
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
        shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "uts-deep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=170)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout


class TestKnownDefects:
    """Fault-path defects the uts-faults checks found on seeded trees
    (see CHANGES.md).  Strict: a fix turns these into failures, so the
    markers come off with it."""

    @pytest.mark.xfail(strict=True, reason="retry exhaustion writes off "
                       "stolen work on a lossy link with no crash")
    def test_lossy_link_completes_the_tree(self):
        from repro.apps.uts import TreeParams, count_tree, run_uts
        from repro.machine.presets import pyramid

        tree = TreeParams(b0=250, q=0.11875, m=8, seed=5540580194317307673,
                          algorithm="mix")
        out = run_uts("local", tree=tree, threads=32, threads_per_node=4,
                      preset=pyramid(nodes=8),
                      faults="loss:prob=0.05;corrupt:prob=0.05;seed=944231795")
        assert out["tree_nodes"] == count_tree(tree)[0]

    @pytest.mark.xfail(strict=True, reason="survivors never detect "
                       "termination after this crash")
    def test_crash_run_terminates(self):
        from repro.apps.uts import TreeParams, run_uts
        from repro.machine.presets import pyramid

        tree = TreeParams(b0=500, q=0.11875, m=8, seed=2865622016640751460,
                          algorithm="mix")
        out = run_uts("local", tree=tree, threads=16, threads_per_node=4,
                      preset=pyramid(nodes=4),
                      faults="crash:node=3,at=3e-5;seed=760231087")
        assert out["threads_lost"] == 4
