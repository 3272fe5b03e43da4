"""Acceptance tests against the pre-refactor golden reports.

``tests/harness/golden/<eid>.md`` holds the exact ``render()`` output of
every experiment at quick scale, captured from the harness *before* the
campaign-engine refactor.  The campaign pipeline must reproduce those
reports byte-for-byte at ``--jobs 1`` (no cache), and a multi-process
run through the queue executor must produce the same
``ExperimentResult``.

This is the slowest test module in the suite (it re-runs every
experiment once, plus f3_3/f4_6/t3_1 at ``jobs=4``); everything here is
a hard acceptance criterion, not incidental coverage.
"""

from pathlib import Path

import pytest

from repro.harness.runner import EXPERIMENTS, run_experiment

GOLDEN_DIR = Path(__file__).parent / "golden"

#: quick-scale experiments cheap enough to check on every run; the two
#: long ones (t3_2 ~25s, f3_3 ~50s) are still included — they are the
#: experiments with the most points and the strongest ordering demands.
ALL_IDS = EXPERIMENTS.ids()


def golden(eid: str) -> str:
    return (GOLDEN_DIR / f"{eid}.md").read_text()


@pytest.fixture(scope="module")
def jobs1_result():
    """Each experiment's jobs=1 uncached result, computed at most once."""
    computed = {}

    def get(eid):
        if eid not in computed:
            computed[eid] = run_experiment(eid, scale="quick")
        return computed[eid]

    return get


@pytest.mark.parametrize("eid", ALL_IDS)
def test_jobs1_report_byte_identical_to_prerefactor_golden(eid, jobs1_result):
    assert jobs1_result(eid).render() == golden(eid)


@pytest.mark.parametrize("eid", ["f4_6", "t3_1"])
def test_parallel_produces_same_experiment_result(eid, jobs1_result):
    fanned = run_experiment(eid, scale="quick", jobs=4)
    assert fanned.to_dict() == jobs1_result(eid).to_dict()
    assert fanned.render() == golden(eid)


def test_parallel_f3_3_matches_golden():
    # f3_3 is the widest sweep (18 points across 2 conduits x 3
    # policies); byte-identity of the jobs=4 report with the
    # pre-refactor golden subsumes equality with the inline result.
    fanned = run_experiment("f3_3", scale="quick", jobs=4)
    assert fanned.render() == golden("f3_3")
