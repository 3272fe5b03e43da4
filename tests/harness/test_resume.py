"""Resume-semantics acceptance tests: SIGKILL a campaign, finish it.

The interrupted run is a real CLI subprocess whose coordinator SIGKILLs
itself mid-campaign (chaos ``halt:after=N`` — deterministic, unlike
killing from outside on a timer).  The tests then assert, via the
journal, that ``--resume`` executes only the remaining points and that
the final report is byte-identical to an uninterrupted inline run.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def harness_cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, "-m", "repro.harness", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def journal_events(journal_dir):
    files = list(Path(journal_dir).glob("*.jsonl"))
    assert len(files) == 1, f"expected one journal, got {files}"
    events = []
    for line in files[0].read_text().splitlines():
        try:
            events.append(json.loads(line))
        except ValueError:
            break
    return events


@pytest.fixture(scope="module")
def inline_report():
    from repro.harness.runner import run_experiment

    return run_experiment("t3_1", scale="quick", cache_dir=None).render()


class TestSigkillThenResume:
    def test_interrupted_campaign_resumes_byte_identical(self, tmp_path,
                                                         inline_report):
        journal_dir = tmp_path / "journals"
        # phase 1: the campaign SIGKILLs its own coordinator after 2 of
        # t3_1's 4 points are durably journaled
        proc = harness_cli(
            ["t3_1", "--no-cache", "--jobs", "2",
             "--journal-dir", str(journal_dir), "--chaos", "halt:after=2"],
            cwd=tmp_path,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        events = journal_events(journal_dir)
        done_before = [e["p"] for e in events if e.get("e") == "done"]
        assert len(done_before) == 2

        # phase 2: --resume finishes only the remaining points
        from repro.harness.runner import run_experiment

        result = run_experiment("t3_1", scale="quick", cache_dir=None,
                                resume=True, journal_dir=str(journal_dir),
                                jobs=2)
        assert result.render() == inline_report

        events = journal_events(journal_dir)
        resume_at = next(i for i, e in enumerate(events)
                         if e.get("e") == "resume")
        resumed = events[resume_at:]
        resumed_leases = sorted({e["p"] for e in resumed
                                 if e.get("e") == "lease"})
        resumed_done = sorted({e["p"] for e in resumed
                               if e.get("e") == "done"})
        expected = sorted(set(range(4)) - set(done_before))
        # only the unfinished points were leased and executed
        assert resumed_leases == expected
        assert resumed_done == expected

    def test_resume_via_cli_matches_inline(self, tmp_path, inline_report):
        journal_dir = tmp_path / "journals"
        proc = harness_cli(
            ["t3_1", "--no-cache", "--jobs", "2",
             "--journal-dir", str(journal_dir), "--chaos", "halt:after=1"],
            cwd=tmp_path,
        )
        assert proc.returncode == -signal.SIGKILL
        out = tmp_path / "resumed.md"
        proc = harness_cli(
            ["t3_1", "--no-cache", "--resume", "--jobs", "2",
             "--journal-dir", str(journal_dir), "--out", str(out)],
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        # the written report is the rendered result plus a wall-time
        # line; everything but that line must match the inline render
        body = "\n".join(line for line in out.read_text().splitlines()
                         if not line.startswith("(wall time"))
        assert body.rstrip("\n") == inline_report

    def test_chaos_kills_recover_without_resume(self, tmp_path,
                                                inline_report):
        # seeded worker SIGKILLs on first attempts: retries converge and
        # the report never shows a scar
        from repro.harness.runner import run_experiment

        result = run_experiment(
            "t3_1", scale="quick", cache_dir=None, jobs=2,
            chaos="kill:point=0,attempt=1;kill:point=3,attempt=1;seed=7",
            journal_dir=str(tmp_path / "journals"),
        )
        assert result.render() == inline_report
        failed = [e for e in journal_events(tmp_path / "journals")
                  if e.get("e") == "failed"]
        assert sorted(e["p"] for e in failed) == [0, 3]
        assert all("SIGKILL" in e["error"] for e in failed)


class TestPoisonPointViaCli:
    def test_quarantined_point_renders_a_degraded_report(self, tmp_path):
        journal_dir = tmp_path / "journals"
        out = tmp_path / "poison.md"
        proc = harness_cli(
            ["t3_1", "--no-cache", "--jobs", "2",
             "--journal-dir", str(journal_dir), "--max-attempts", "2",
             "--chaos", "fail:point=1", "--out", str(out)],
            cwd=tmp_path,
        )
        assert proc.returncode == 1, proc.stderr
        events = journal_events(journal_dir)
        assert [e["p"] for e in events if e.get("e") == "quarantined"] == [1]
        report = out.read_text()
        assert "Failed points (quarantined after retries):" in report
        assert "degraded campaign: 3/4 point(s) completed" in report
