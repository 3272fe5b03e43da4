"""Unit tests for instrumentation-session scoping."""

import pytest

from repro.mpi.comm import MpiProgram
from repro.obs.profile.cost import CostProfiler
from repro.obs.session import NULL_SINK, attach, session
from repro.obs.tracer import Tracer
from repro.sim import Simulator
from repro.upc.runtime import UpcProgram


def _attached(label="x", program=None):
    sim = Simulator()
    attach(sim, label, program)
    return sim


class TestTracerFor:
    def test_null_without_session(self):
        sim = _attached()
        assert sim.tracer is sim.sanitizer is sim.profiler is NULL_SINK

    def test_real_tracer_inside_session(self):
        with session("s", trace=True) as sess:
            tr = _attached().tracer
            assert isinstance(tr, Tracer) and tr.enabled
            assert sess.tracers == [tr]
        assert _attached().tracer is NULL_SINK

    def test_run_indices_sequential(self):
        with session("s", trace=True) as sess:
            a = _attached("a").tracer
            b = _attached("b").tracer
        assert (a.run_index, b.run_index) == (1, 2)
        assert [t.label for t in sess.tracers] == ["a", "b"]

    def test_nesting_rejected(self):
        with session("outer", trace=True):
            with pytest.raises(RuntimeError, match="already active"):
                with session("inner", sanitize=True):
                    pass

    def test_session_cleared_after_error(self):
        with pytest.raises(KeyError):
            with session("s", trace=True):
                raise KeyError("boom")
        assert _attached().tracer is NULL_SINK


class TestFlags:
    def test_only_flagged_instruments_attach(self):
        with session("s", profile=True) as sess:
            sim = _attached()
        assert isinstance(sess.cost, CostProfiler) and sim.profiler is sess.cost
        assert sim.tracer is sim.sanitizer is NULL_SINK
        assert sess.tracers == [] and sess.sanitizers == []

    def test_one_attach_arms_every_instrument(self):
        with session("s", trace=True, sanitize=True, profile=True) as sess:
            program = UpcProgram(threads=2)
        sim = program.sim
        assert sess.tracers == [sim.tracer]
        assert sess.sanitizers == [sim.sanitizer]
        assert sim.profiler is sess.cost

    def test_mpi_programs_are_not_sanitized(self):
        with session("s", trace=True, sanitize=True) as sess:
            program = MpiProgram(ranks=2)
        assert program.sim.sanitizer is NULL_SINK
        assert sess.sanitizers == [] and len(sess.tracers) == 1
