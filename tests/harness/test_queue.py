"""Functional tests for the durable lease-based queue executor.

Every test runs real (tiny) simulation points and injects executor
faults through the deterministic chaos plan — worker SIGKILLs, dropped
results, stalls, poison points — asserting the queue executor converges
on outputs identical to :class:`InlineExecutor` or degrades gracefully
into quarantine.
"""

import time

import pytest

from repro.harness import queue
from repro.harness.campaign import Campaign
from repro.harness.executor import ExecutorError, InlineExecutor
from repro.harness.journal import CampaignJournal, campaign_fingerprint
from repro.harness.queue import QueueExecutor
from repro.harness.reporting import ExperimentResult
from repro.harness.runner import Experiment
from repro.harness.spec import RunSpec


def toy_specs(n=3):
    """Cheap real uts points (the fastest app in the suite)."""
    return [
        RunSpec.make("uts", scale="quick", policy="local", preset="pyramid",
                     nodes=2, threads=t, threads_per_node=max(1, t // 2),
                     tree="tiny")
        for t in (1, 2, 4)[:n]
    ]


def more_specs():
    """Six points: enough that two workers must each take several."""
    return [spec.with_updates(steal_chunk=chunk)
            for chunk in (4, 8) for spec in toy_specs()]


def toy_experiment():
    def points(scale):
        return toy_specs()

    def collate(scale, outputs):
        return ExperimentResult(
            experiment_id="toy", title="toy", scale=scale,
            rows=[{"threads": 1 << i, "elapsed_s": o["elapsed_s"]}
                  for i, o in enumerate(outputs)],
        )

    return Experiment("toy", "toy", points, collate)


def fast_queue(tmp_path, **overrides):
    """A queue executor tuned for test wall-clock, not production."""
    options = dict(jobs=2, journal_dir=tmp_path / "journals",
                   retry_base_s=0.01, lease_s=10.0)
    options.update(overrides)
    return QueueExecutor(**options)


def journal_events(executor, specs, kind=None):
    journal = CampaignJournal.for_campaign(executor.journal_dir,
                                           campaign_fingerprint(specs))
    events = list(journal.events())
    return [e for e in events if kind is None or e.get("e") == kind]


class TestValidation:
    def test_rejects_bad_parameters(self, tmp_path):
        with pytest.raises(ValueError, match="jobs"):
            QueueExecutor(0, journal_dir=tmp_path)
        with pytest.raises(ValueError, match="max_attempts"):
            QueueExecutor(1, journal_dir=tmp_path, max_attempts=0)
        with pytest.raises(ValueError, match="lease_s"):
            QueueExecutor(1, journal_dir=tmp_path, lease_s=0)
        with pytest.raises(ValueError, match="point_timeout"):
            QueueExecutor(1, journal_dir=tmp_path, point_timeout=0)

    def test_empty_batch(self, tmp_path):
        batch = fast_queue(tmp_path).run([])
        assert batch.outputs == [] and batch.failures == []

    def test_resume_needs_a_journal(self):
        with pytest.raises(ValueError, match="journal_dir"):
            QueueExecutor(2, resume=True)


class TestHealthyCampaign:
    def test_outputs_match_inline(self, tmp_path):
        specs = toy_specs()
        inline = InlineExecutor().run(specs)
        queued = fast_queue(tmp_path).run(specs)
        assert queued.outputs == inline.outputs
        assert queued.failures == [] and queued.replayed == 0

    def test_journal_records_full_lifecycle(self, tmp_path):
        specs = toy_specs()
        executor = fast_queue(tmp_path)
        executor.run(specs)
        assert len(journal_events(executor, specs, "lease")) == 3
        assert len(journal_events(executor, specs, "done")) == 3
        header = journal_events(executor, specs, "campaign")[0]
        assert header["points"] == 3
        assert header["fp"] == campaign_fingerprint(specs)

    def test_rerun_without_resume_starts_fresh(self, tmp_path):
        specs = toy_specs()
        executor = fast_queue(tmp_path)
        executor.run(specs)
        executor.run(specs)
        # the journal was discarded and rewritten, not appended to
        assert len(journal_events(executor, specs, "done")) == 3

    def test_workers_are_reused_across_points(self, tmp_path):
        specs = more_specs()
        executor = fast_queue(tmp_path)
        batch = executor.run(specs)
        assert batch.outputs == InlineExecutor().run(specs).outputs
        leases = journal_events(executor, specs, "lease")
        assert sorted(e["p"] for e in leases) == list(range(len(specs)))
        assert len({e["pid"] for e in leases}) <= 2

    def test_non_durable_run_writes_no_journal(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        specs = toy_specs()
        batch = QueueExecutor(2).run(specs)
        assert batch.outputs == InlineExecutor().run(specs).outputs
        assert list(tmp_path.iterdir()) == []

    def test_jobs_run_through_the_runner_writes_no_journal(self, tmp_path):
        from repro.harness.runner import run_experiment

        cache_dir = tmp_path / "cache"
        result = run_experiment("t3_1", jobs=2, cache_dir=str(cache_dir))
        assert result.shape_ok
        assert cache_dir.is_dir()
        assert not (cache_dir / "journals").exists()

    def test_traced_run_ships_tracers_in_spec_order(self, tmp_path):
        specs = toy_specs()
        batch = fast_queue(tmp_path).run(specs, trace=True)
        assert [t.run_index for t in batch.tracers] == [1, 2, 3]
        assert all(t.sim is None for t in batch.tracers)


class TestRetries:
    def test_killed_worker_is_retried(self, tmp_path):
        specs = toy_specs()
        executor = fast_queue(tmp_path, chaos="kill:point=1,attempt=1")
        batch = executor.run(specs)
        assert batch.outputs == InlineExecutor().run(specs).outputs
        assert batch.failures == []
        failed = journal_events(executor, specs, "failed")
        assert any(e["p"] == 1 and "SIGKILL" in e["error"] for e in failed)

    def test_dropped_result_is_retried(self, tmp_path):
        specs = toy_specs()
        executor = fast_queue(tmp_path, chaos="drop:point=0,attempt=1")
        batch = executor.run(specs)
        assert batch.outputs == InlineExecutor().run(specs).outputs
        failed = journal_events(executor, specs, "failed")
        assert any(e["p"] == 0 and "without reporting" in e["error"]
                   for e in failed)

    def test_worker_lingering_after_closing_its_pipe_is_not_a_kill(
            self, tmp_path, monkeypatch):
        # A worker that has closed its pipe but not yet exited must be
        # classified by its exit code, not SIGKILLed on the spot and
        # then reported as killed.
        def linger_then_exit(conn, *args):
            conn.close()
            time.sleep(0.5)

        monkeypatch.setattr(queue, "_queue_worker", linger_then_exit)
        specs = toy_specs(1)
        executor = fast_queue(tmp_path, jobs=1, max_attempts=1)
        batch = executor.run(specs)
        assert batch.outputs == [None]
        error = "worker exited without reporting a result"
        assert batch.failures[0]["error"] == error
        failed = journal_events(executor, specs, "failed")
        assert [e["error"] for e in failed] == [error]

    @pytest.mark.parametrize("chaos, options", [
        ("kill:point=1,attempt=1", {}),
        ("stall:point=1,attempt=1", {"lease_s": 0.75}),
    ], ids=["killed", "stalled"])
    def test_failed_worker_is_replaced(self, tmp_path, chaos, options):
        specs = more_specs()
        executor = fast_queue(tmp_path, chaos=chaos, **options)
        batch = executor.run(specs)
        assert batch.outputs == InlineExecutor().run(specs).outputs
        leases = journal_events(executor, specs, "lease")
        lost = next(i for i, e in enumerate(leases)
                    if e["p"] == 1 and e["attempt"] == 1)
        dead_pid = leases[lost]["pid"]
        # the dead worker takes no further point, the lost point is
        # retried elsewhere, and at most one replacement was started
        assert all(e["pid"] != dead_pid for e in leases[lost + 1:])
        assert any(e["p"] == 1 and e["attempt"] == 2 for e in leases)
        assert len({e["pid"] for e in leases}) <= executor.jobs + 1

    def test_app_exception_quarantines_in_a_plain_jobs_run(self):
        # without a journal too: an app exception is retried and then
        # quarantined instead of aborting the campaign
        specs = [*toy_specs(2), RunSpec.make("nonesuch")]
        batch = QueueExecutor(2, retry_base_s=0.01).run(specs)
        assert batch.outputs[:2] == InlineExecutor().run(specs[:2]).outputs
        assert batch.outputs[2] is None
        (failure,) = batch.failures
        assert failure["point"] == 2 and failure["attempts"] == 3
        assert "no adapter" in failure["error"]

    def test_backoff_is_exponential_and_deterministic(self, tmp_path):
        executor = fast_queue(tmp_path, retry_base_s=1.0)
        d1 = executor.backoff_s("fp", 1)
        d2 = executor.backoff_s("fp", 2)
        d3 = executor.backoff_s("fp", 3)
        assert 1.0 <= d1 <= 1.5 and 2.0 <= d2 <= 3.0 and 4.0 <= d3 <= 6.0
        assert executor.backoff_s("fp", 1) == d1          # pure function
        assert executor.backoff_s("other", 1) != d1       # jitter varies


class TestQuarantine:
    def test_poison_point_quarantines_and_rest_complete(self, tmp_path):
        specs = toy_specs()
        executor = fast_queue(tmp_path, max_attempts=2, chaos="fail:point=1")
        batch = executor.run(specs)
        inline = InlineExecutor().run(specs)
        assert batch.outputs[0] == inline.outputs[0]
        assert batch.outputs[2] == inline.outputs[2]
        assert batch.outputs[1] is None
        assert len(batch.failures) == 1
        failure = batch.failures[0]
        assert failure["point"] == 1
        assert failure["attempts"] == 2
        assert "injected failure" in failure["error"]
        assert len(journal_events(executor, specs, "quarantined")) == 1

    def test_degraded_campaign_renders_failure_table(self, tmp_path):
        campaign = Campaign(
            toy_experiment(),
            executor=fast_queue(tmp_path, max_attempts=2,
                                chaos="fail:point=1"),
        )
        outcome = campaign.run()
        result = outcome.result
        assert not result.shape_ok
        assert result.failures[0]["point"] == 1
        rendered = result.render()
        assert "Failed points (quarantined after retries):" in rendered
        assert "degraded campaign: 2/3 point(s) completed" in rendered
        assert "SHAPE MISMATCH" in rendered

    def test_degraded_campaign_still_caches_healthy_points(self, tmp_path):
        from repro.harness.cache import ResultCache

        cache = ResultCache(tmp_path / "cache")
        Campaign(
            toy_experiment(), cache=cache,
            executor=fast_queue(tmp_path, max_attempts=1,
                                chaos="fail:point=1"),
        ).run()
        specs = toy_specs()
        assert cache.get(specs[0]) is not None
        assert cache.get(specs[1]) is None
        assert cache.get(specs[2]) is not None


class TestLeasesAndTimeouts:
    def test_point_timeout_kills_and_retries_stalled_worker(self, tmp_path):
        specs = toy_specs()
        executor = fast_queue(tmp_path, point_timeout=1.0,
                              chaos="stall:point=0,attempt=1")
        batch = executor.run(specs)
        assert batch.outputs == InlineExecutor().run(specs).outputs
        failed = journal_events(executor, specs, "failed")
        assert any(e["p"] == 0 and "point timeout" in e["error"]
                   for e in failed)

    def test_expired_lease_is_reclaimed(self, tmp_path):
        # chaos "stall" suppresses heartbeats, so the lease must expire
        # and the coordinator must kill + requeue the point
        specs = toy_specs()
        executor = fast_queue(tmp_path, lease_s=0.75,
                              chaos="stall:point=2,attempt=1")
        batch = executor.run(specs)
        assert batch.outputs == InlineExecutor().run(specs).outputs
        failed = journal_events(executor, specs, "failed")
        assert any(e["p"] == 2 and "lease expired" in e["error"]
                   for e in failed)


class TestResume:
    def test_resume_replays_done_points(self, tmp_path):
        specs = toy_specs()
        cold = fast_queue(tmp_path)
        cold.run(specs)
        warm = fast_queue(tmp_path, resume=True)
        batch = warm.run(specs)
        assert batch.replayed == 3
        assert batch.outputs == InlineExecutor().run(specs).outputs
        # no new leases: nothing was executed
        leases = journal_events(warm, specs, "lease")
        assert len(leases) == 3

    def test_resume_executes_only_unfinished_points(self, tmp_path):
        specs = toy_specs()
        executor = fast_queue(tmp_path)
        executor.run(specs)
        # forge an interrupted journal: drop point 2's done record and
        # leave it leased, exactly what a mid-flight SIGKILL leaves
        journal = CampaignJournal.for_campaign(executor.journal_dir,
                                               campaign_fingerprint(specs))
        events = [e for e in journal.events()
                  if not (e.get("e") == "done" and e.get("p") == 2)]
        journal.discard()
        for event in events:
            journal.append(event)
        journal.close()
        resumed = fast_queue(tmp_path, resume=True)
        batch = resumed.run(specs)
        assert batch.replayed == 2
        assert batch.outputs == InlineExecutor().run(specs).outputs
        done = [e for e in journal_events(resumed, specs, "done")]
        assert [e["p"] for e in done[2:]] == [2]

    def test_resume_keeps_quarantine(self, tmp_path):
        specs = toy_specs()
        poisoned = fast_queue(tmp_path, max_attempts=1, chaos="fail:point=1")
        poisoned.run(specs)
        resumed = fast_queue(tmp_path, resume=True)
        batch = resumed.run(specs)
        assert batch.replayed == 2
        assert batch.outputs[1] is None
        assert batch.failures[0]["point"] == 1

    def test_resume_without_journal_runs_everything(self, tmp_path):
        specs = toy_specs()
        batch = fast_queue(tmp_path, resume=True).run(specs)
        assert batch.replayed == 0
        assert batch.outputs == InlineExecutor().run(specs).outputs

    def test_resume_rejects_foreign_journal(self, tmp_path):
        specs = toy_specs()
        executor = fast_queue(tmp_path, resume=True)
        journal = CampaignJournal.for_campaign(executor.journal_dir,
                                               campaign_fingerprint(specs))
        journal.append({"e": "campaign", "fp": "f" * 64, "points": 99})
        journal.close()
        with pytest.raises(ExecutorError, match="different campaign"):
            executor.run(specs)
