"""Unit tests for the discrete-event engine."""

import gc
import weakref

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Delay,
    Event,
    ProcessFailure,
    SimulationError,
    Simulator,
)


@pytest.fixture
def sim():
    return Simulator()


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_run_empty_returns_now(self, sim):
        assert sim.run() == 0.0

    def test_schedule_at_orders_by_time(self, sim):
        order = []
        sim.schedule_at(2.0, order.append, "b")
        sim.schedule_at(1.0, order.append, "a")
        sim.schedule_at(3.0, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_ties_broken_by_priority_then_fifo(self, sim):
        order = []
        sim.schedule_at(1.0, order.append, "first")
        sim.schedule_at(1.0, order.append, "second")
        sim.schedule_at(1.0, order.append, "urgent", priority=-1)
        sim.run()
        assert order == ["urgent", "first", "second"]

    def test_schedule_in_past_rejected(self, sim):
        sim.schedule_at(5.0, lambda: sim.schedule_at(1.0, lambda: None))
        with pytest.raises(SimulationError, match="before now"):
            sim.run()
            sim.raise_failures()
        # the error escapes from run() because the callback raised directly
        # (callbacks are not processes); assert clock stopped at 5.0
        assert sim.now == 5.0

    def test_run_until_stops_clock(self, sim):
        fired = []
        sim.schedule_at(10.0, fired.append, 1)
        assert sim.run(until=4.0) == 4.0
        assert fired == []
        assert sim.run() == 10.0
        assert fired == [1]

    def test_run_until_beyond_last_event_advances_clock(self, sim):
        sim.schedule_at(1.0, lambda: None)
        assert sim.run(until=9.0) == 9.0

    def test_step_executes_one_event(self, sim):
        order = []
        sim.schedule_at(1.0, order.append, "a")
        sim.schedule_at(2.0, order.append, "b")
        assert sim.step() is True
        assert order == ["a"]
        assert sim.step() is True
        assert sim.step() is False


class TestProcesses:
    def test_plain_return_value(self, sim):
        def proc(sim):
            yield sim.delay(1.0)
            return 42

        p = sim.spawn(proc(sim))
        sim.run()
        assert p.result == 42
        assert sim.now == 1.0

    def test_yield_bare_number_is_delay(self, sim):
        def proc(sim):
            yield 2.5
            return sim.now

        p = sim.spawn(proc(sim))
        sim.run()
        assert p.result == 2.5

    def test_yield_from_composition(self, sim):
        def inner(sim):
            yield sim.delay(1.0)
            return "inner-done"

        def outer(sim):
            val = yield from inner(sim)
            yield sim.delay(1.0)
            return val

        p = sim.spawn(outer(sim))
        sim.run()
        assert p.result == "inner-done"
        assert sim.now == 2.0

    def test_join_other_process(self, sim):
        def worker(sim):
            yield sim.delay(3.0)
            return "payload"

        def boss(sim):
            w = sim.spawn(worker(sim))
            val = yield w
            return val

        p = sim.spawn(boss(sim))
        sim.run()
        assert p.result == "payload"

    def test_join_already_finished_process(self, sim):
        def worker(sim):
            yield sim.delay(1.0)
            return 7

        def boss(sim, w):
            yield sim.delay(5.0)
            val = yield w
            return val

        w = sim.spawn(worker(sim))
        p = sim.spawn(boss(sim, w))
        sim.run()
        assert p.result == 7
        assert sim.now == 5.0

    def test_failure_propagates_to_joiner(self, sim):
        def bad(sim):
            yield sim.delay(1.0)
            raise ValueError("boom")

        def boss(sim):
            try:
                yield sim.spawn(bad(sim))
            except ProcessFailure as e:
                return ("caught", str(e.__cause__))

        p = sim.spawn(boss(sim))
        sim.run()
        assert p.result == ("caught", "boom")

    def test_unjoined_failure_recorded(self, sim):
        def bad(sim):
            yield sim.delay(1.0)
            raise RuntimeError("lost")

        sim.spawn(bad(sim))
        sim.run()
        assert len(sim.failures) == 1
        with pytest.raises(ProcessFailure):
            sim.raise_failures()

    def test_result_before_done_raises(self, sim):
        def proc(sim):
            yield sim.delay(1.0)

        p = sim.spawn(proc(sim))
        with pytest.raises(SimulationError, match="not finished"):
            _ = p.result

    def test_spawn_non_generator_rejected(self, sim):
        def not_a_gen(sim):
            return 42

        with pytest.raises(TypeError, match="generator"):
            sim.spawn(not_a_gen(sim))

    def test_yield_garbage_fails_process(self, sim):
        def proc(sim):
            yield "nonsense"

        p = sim.spawn(proc(sim))
        sim.run()
        assert isinstance(p.exc, TypeError)

    def test_kill_stops_process(self, sim):
        ran = []

        def proc(sim):
            yield sim.delay(1.0)
            ran.append("mid")
            yield sim.delay(10.0)
            ran.append("end")

        p = sim.spawn(proc(sim))
        sim.run(until=1.5)
        p.kill()
        sim.run()
        assert ran == ["mid"]
        assert p.done

    def test_kill_leaves_other_event_waiters_waiting(self, sim):
        ev = sim.event()
        woke = []

        def waiter(sim, ev, name):
            woke.append((name, (yield ev)))

        victim = sim.spawn(waiter(sim, ev, "victim"))
        sim.spawn(waiter(sim, ev, "survivor"))
        sim.run(until=1.0)
        victim.kill()
        sim.schedule_at(2.0, ev.succeed, "go")
        sim.run()
        assert woke == [("survivor", "go")]
        assert sim.stalled_processes() == []

    def test_kill_leaves_child_and_other_joiner_running(self, sim):
        def child(sim):
            yield sim.delay(5.0)
            return "done"

        joined = []

        def joiner(sim, p, name):
            joined.append((name, (yield p)))

        kid = sim.spawn(child(sim))
        victim = sim.spawn(joiner(sim, kid, "victim"))
        sim.spawn(joiner(sim, kid, "survivor"))
        sim.run(until=1.0)
        victim.kill()
        sim.run()
        assert kid.result == "done"
        assert joined == [("survivor", "done")]
        assert sim.stalled_processes() == []

    def test_kill_only_joiner_leaves_child_running(self, sim):
        def child(sim):
            yield sim.delay(5.0)
            return "done"

        def joiner(sim, p):
            yield p

        kid = sim.spawn(child(sim))
        victim = sim.spawn(joiner(sim, kid))
        sim.run(until=1.0)
        victim.kill()
        sim.run()
        assert kid.result == "done"
        assert sim.stalled_processes() == []

    def test_zero_delay_runs_in_order(self, sim):
        order = []

        def a(sim):
            order.append("a1")
            yield sim.delay(0.0)
            order.append("a2")

        def b(sim):
            order.append("b1")
            yield sim.delay(0.0)
            order.append("b2")

        sim.spawn(a(sim))
        sim.spawn(b(sim))
        sim.run()
        assert order == ["a1", "b1", "a2", "b2"]

    def test_engine_keeps_no_finished_process(self, sim):
        # engine state is bounded by what is alive: a finished, killed
        # or cancelled process is not retained by the simulator
        def body(sim):
            yield sim.delay(1.0)

        finished = weakref.ref(sim.spawn(body(sim)))
        killed = sim.spawn(body(sim))
        cancelled = sim.spawn(body(sim))
        refs = [finished, weakref.ref(killed), weakref.ref(cancelled)]
        cancelled.cancel()
        sim.run(until=0.5)
        killed.kill()
        del killed, cancelled
        sim.run()
        gc.collect()
        assert [ref() for ref in refs] == [None, None, None]
        assert sim.stalled_processes() == []


class TestEvents:
    def test_succeed_wakes_waiter_with_value(self, sim):
        ev = sim.event()

        def waiter(sim, ev):
            val = yield ev
            return val

        p = sim.spawn(waiter(sim, ev))
        sim.schedule_at(2.0, ev.succeed, "hello")
        sim.run()
        assert p.result == "hello"
        assert sim.now == 2.0

    def test_fail_throws_into_waiter(self, sim):
        ev = sim.event()

        def waiter(sim, ev):
            try:
                yield ev
            except KeyError as e:
                return ("caught", e.args[0])

        p = sim.spawn(waiter(sim, ev))
        sim.schedule_at(1.0, ev.fail, KeyError("k"))
        sim.run()
        assert p.result == ("caught", "k")

    def test_double_succeed_rejected(self, sim):
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulationError, match="already"):
            ev.succeed(2)

    def test_wait_on_completed_event_is_immediate(self, sim):
        ev = sim.event()
        ev.succeed("early")

        def waiter(sim, ev):
            yield sim.delay(3.0)
            val = yield ev
            return (sim.now, val)

        p = sim.spawn(waiter(sim, ev))
        sim.run()
        assert p.result == (3.0, "early")

    def test_cancelled_event_never_fires(self, sim):
        ev = sim.event()
        fired = []
        ev.add_callback(lambda e: fired.append(e.value))
        ev.cancel()
        ev._complete(value="late")
        assert fired == []


class TestCombinators:
    def test_all_of_waits_for_slowest(self, sim):
        def proc(sim):
            vals = yield sim.all_of([sim.delay(1.0), sim.delay(5.0), sim.delay(3.0)])
            return (sim.now, vals)

        p = sim.spawn(proc(sim))
        sim.run()
        assert p.result == (5.0, [1.0, 5.0, 3.0])

    def test_all_of_empty(self, sim):
        def proc(sim):
            vals = yield sim.all_of([])
            return vals

        p = sim.spawn(proc(sim))
        sim.run()
        assert p.result == []

    def test_any_of_returns_first(self, sim):
        def proc(sim):
            idx, val = yield sim.any_of([sim.delay(4.0), sim.delay(2.0)])
            return (sim.now, idx, val)

        p = sim.spawn(proc(sim))
        sim.run()
        assert p.result == (2.0, 1, 2.0)

    def test_any_of_cancels_losers(self, sim):
        ev = sim.event()

        def proc(sim, ev):
            idx, _ = yield sim.any_of([ev, sim.delay(1.0)])
            return idx

        p = sim.spawn(proc(sim, ev))
        sim.run()
        assert p.result == 1
        assert ev.cancelled

    def test_any_of_empty_rejected(self, sim):
        with pytest.raises(ValueError):
            AnyOf(sim, [])

    def test_all_of_fails_fast(self, sim):
        ev = sim.event()

        def proc(sim, ev):
            try:
                yield sim.all_of([ev, sim.delay(100.0)])
            except RuntimeError as e:
                return (sim.now, str(e))

        p = sim.spawn(proc(sim, ev))
        sim.schedule_at(1.0, ev.fail, RuntimeError("bad"))
        sim.run()
        assert p.result == (1.0, "bad")


class TestDelays:
    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError, match="negative"):
            Delay(sim, -1.0)

    def test_reentrant_run_rejected(self, sim):
        def proc(sim):
            sim.run()
            yield sim.delay(1.0)

        p = sim.spawn(proc(sim))
        sim.run()
        assert isinstance(p.exc, SimulationError)
