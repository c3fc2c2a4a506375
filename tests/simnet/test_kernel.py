"""Unit tests for the discrete-event kernel (events, processes, engine)."""

import gc
import weakref

import pytest

from repro.simnet import (
    AllOf,
    AnyOf,
    EmptySchedule,
    Event,
    Interrupt,
    SimEngine,
    SimError,
)
from repro.simnet.events import Process


@pytest.fixture
def env():
    return SimEngine()


class TestClock:
    def test_starts_at_zero(self, env):
        assert env.now == 0.0

    def test_timeout_advances_clock(self, env):
        done = []

        def proc(env):
            yield env.timeout(5.0)
            done.append(env.now)

        env.process(proc(env))
        env.run()
        assert done == [5.0]

    def test_run_until_time(self, env):
        ticks = []

        def ticker(env):
            while True:
                yield env.timeout(1.0)
                ticks.append(env.now)

        env.process(ticker(env))
        env.run(until=3.5)
        assert ticks == [1.0, 2.0, 3.0]
        assert env.now == 3.5

    def test_run_until_past_raises(self, env):
        env.run(until=1.0)
        with pytest.raises(ValueError):
            env.run(until=0.5)

    def test_negative_timeout_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_run_until_event_on_empty_schedule_raises(self, env):
        with pytest.raises(EmptySchedule):
            env.run(until=env.event())

    def test_reserved_key_pops_where_its_timeout_would_have(self, env):
        # Reserved before two same-instant timeouts, pushed after them: the
        # heap orders by (time, seq), not by when an entry was pushed.
        log = []
        seq = env.reserve(1)
        for name in "bc":
            env.timeout(1.0, name).callbacks.append(lambda ev: log.append(ev.value))
        env.timeout_at(1.0, seq, "a").callbacks.append(lambda ev: log.append(ev.value))
        env.run()
        assert log == ["a", "b", "c"]

    def test_timeout_at_rejects_unreserved_or_past_keys(self, env):
        with pytest.raises(ValueError):
            env.timeout_at(1.0, 1)  # nothing reserved yet
        seq = env.reserve(1)
        env.run(until=2.0)
        with pytest.raises(ValueError):
            env.timeout_at(1.0, seq)


class TestProcesses:
    def test_return_value(self, env):
        def proc(env):
            yield env.timeout(1)
            return 42

        p = env.process(proc(env))
        env.run()
        assert p.value == 42

    def test_processes_can_join(self, env):
        def child(env):
            yield env.timeout(3)
            return "child-result"

        def parent(env):
            result = yield env.process(child(env))
            return (env.now, result)

        p = env.process(parent(env))
        env.run()
        assert p.value == (3.0, "child-result")

    def test_join_already_finished_process(self, env):
        def child(env):
            yield env.timeout(1)
            return 7

        c = env.process(child(env))

        def parent(env):
            yield env.timeout(10)
            value = yield c
            return value

        p = env.process(parent(env))
        env.run()
        assert p.value == 7

    def test_exception_propagates_to_joiner(self, env):
        def child(env):
            yield env.timeout(1)
            raise ValueError("boom")

        def parent(env):
            try:
                yield env.process(child(env))
            except ValueError as exc:
                return f"caught {exc}"

        p = env.process(parent(env))
        env.run()
        assert p.value == "caught boom"

    def test_unhandled_failure_raises_from_run(self, env):
        def bad(env):
            yield env.timeout(1)
            raise RuntimeError("unobserved")

        env.process(bad(env))
        with pytest.raises(RuntimeError, match="unobserved"):
            env.run()

    def test_yield_non_event_fails_process(self, env):
        def bad(env):
            yield 42

        env.process(bad(env))
        with pytest.raises(SimError, match="non-event"):
            env.run()

    def test_two_processes_interleave_deterministically(self, env):
        log = []

        def worker(env, name, delay):
            for _ in range(3):
                yield env.timeout(delay)
                log.append((env.now, name))

        env.process(worker(env, "a", 2))
        env.process(worker(env, "b", 3))
        env.run()
        # At t=6 both fire; "b" scheduled its timeout at t=3 (before "a" at
        # t=4), so FIFO tie-breaking runs "b" first.
        assert log == [
            (2, "a"),
            (3, "b"),
            (4, "a"),
            (6, "b"),
            (6, "a"),
            (9, "b"),
        ]

    def test_same_time_fifo_order(self, env):
        log = []

        def w(env, name):
            yield env.timeout(1.0)
            log.append(name)

        for name in "abc":
            env.process(w(env, name))
        env.run()
        assert log == ["a", "b", "c"]


class TestInterrupt:
    def test_interrupt_wakes_sleeper(self, env):
        def sleeper(env):
            try:
                yield env.timeout(100)
                return "slept"
            except Interrupt as exc:
                return f"interrupted:{exc.cause}"

        def interrupter(env, victim):
            yield env.timeout(5)
            victim.interrupt("wakeup")

        victim = env.process(sleeper(env))
        env.process(interrupter(env, victim))
        env.run()
        assert victim.value == "interrupted:wakeup"

    def test_interrupt_finished_process_raises(self, env):
        def quick(env):
            yield env.timeout(1)

        p = env.process(quick(env))
        env.run()
        with pytest.raises(SimError):
            p.interrupt()

    def test_unhandled_interrupt_fails_process(self, env):
        def sleeper(env):
            yield env.timeout(100)

        def interrupter(env, victim):
            yield env.timeout(1)
            victim.interrupt("die")

        victim = env.process(sleeper(env))
        env.process(interrupter(env, victim))
        with pytest.raises(Interrupt):
            env.run()
        assert victim.triggered and not victim.ok

    def test_interrupt_detaches_callback_from_old_target(self, env):
        # Regression: an interrupted process must be fully detached from the
        # event it was waiting on. Here another process succeeds that event
        # after the interrupt, while the victim already waits on something
        # else: a leftover callback would resume it early with the wrong
        # value.
        signal = Event(env)

        def victim_body(env):
            try:
                yield signal
            except Interrupt:
                pass
            got = yield env.timeout(5, value="timeout")
            return (env.now, got)

        def interrupter(env, victim):
            yield env.timeout(1)
            victim.interrupt("abandon")
            yield env.timeout(1)
            signal.succeed("late")

        victim = env.process(victim_body(env))
        env.process(interrupter(env, victim))
        env.run(until=env.timeout(10))
        assert signal.callbacks is None
        assert victim.value == (6.0, "timeout")

    def test_stale_timeout_does_not_re_resume_finished_process(self, env):
        def sleeper(env):
            try:
                yield env.timeout(100)
            except Interrupt:
                return "interrupted"

        def interrupter(env, victim):
            yield env.timeout(1)
            victim.interrupt("wake")

        victim = env.process(sleeper(env))
        env.process(interrupter(env, victim))
        # Run past t=100 so the original timeout fires after the process died.
        env.run(until=env.timeout(200))
        assert victim.value == "interrupted"


class TestEvents:
    def test_manual_event_succeed(self, env):
        ev = env.event()

        def waiter(env):
            value = yield ev
            return value

        def firer(env):
            yield env.timeout(2)
            ev.succeed("fired")

        w = env.process(waiter(env))
        env.process(firer(env))
        env.run()
        assert w.value == "fired"

    def test_double_trigger_raises(self, env):
        ev = env.event()
        ev.succeed(1)
        with pytest.raises(SimError):
            ev.succeed(2)

    def test_complete_unobserved_is_processed_in_place(self, env):
        ev = env.event()
        assert ev.complete("done") is ev
        assert ev.callbacks is None and ev.ok and ev.value == "done"
        assert not env._heap  # nothing was scheduled

        def late_waiter(env):
            value = yield ev  # resumes at once, no dispatch needed
            return (env.now, value)

        w = env.process(late_waiter(env))
        env.run()
        assert w.value == (0.0, "done")
        with pytest.raises(SimError):
            ev.complete()

    def test_complete_with_a_callback_goes_through_the_heap(self, env):
        ev = env.event()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        ev.complete("done")
        assert ev.triggered and ev.callbacks is not None and seen == []
        env.run()
        assert ev.callbacks is None and seen == ["done"]

    def test_fail_requires_exception(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_value_before_trigger_raises(self, env):
        with pytest.raises(SimError):
            _ = env.event().value

    def test_run_until_event_returns_value(self, env):
        ev = env.event()

        def firer(env):
            yield env.timeout(4)
            ev.succeed("val")

        env.process(firer(env))
        assert env.run(until=ev) == "val"
        assert env.now == 4.0

    def test_run_until_event_never_fires(self, env):
        ev = env.event()

        def nothing(env):
            yield env.timeout(1)

        env.process(nothing(env))
        with pytest.raises(SimError, match="drained"):
            env.run(until=ev)

    def test_run_until_already_processed_event_returns_value(self, env):
        # The event was fired AND processed in an earlier run(); a later
        # run(until=it) must return its value without needing the schedule
        # to pop it again.
        ev = env.event()

        def firer(env):
            yield env.timeout(1)
            ev.succeed("done-early")

        env.process(firer(env))
        env.run()  # drains the schedule; ev is processed here
        assert ev.callbacks is None
        assert env.run(until=ev) == "done-early"

    def test_run_until_already_failed_event_raises(self, env):
        ev = env.event()

        def firer(env):
            yield env.timeout(1)
            ev.fail(RuntimeError("boom"))
            yield ev  # absorb so the failure isn't unhandled in run()

        env.process(firer(env))
        with pytest.raises(RuntimeError, match="boom"):
            env.run()
        with pytest.raises(RuntimeError, match="boom"):
            env.run(until=ev)

    def test_run_until_triggered_but_undelivered_event_drained(self, env):
        # Fired but never scheduled for delivery (no callbacks, trigger
        # without schedule) — the drain path must still return its value
        # rather than report "drained before fired".
        ev = env.event()
        ev.succeed("limbo")

        def nothing(env):
            yield env.timeout(1)

        env.process(nothing(env))
        assert env.run(until=ev) == "limbo"


class TestConditions:
    def test_all_of_waits_for_slowest(self, env):
        def waiter(env):
            t1 = env.timeout(2, value="a")
            t2 = env.timeout(5, value="b")
            results = yield AllOf(env, [t1, t2])
            return (env.now, sorted(results.values()))

        p = env.process(waiter(env))
        env.run()
        assert p.value == (5.0, ["a", "b"])

    def test_any_of_returns_on_first(self, env):
        def waiter(env):
            t1 = env.timeout(2, value="fast")
            t2 = env.timeout(5, value="slow")
            results = yield AnyOf(env, [t1, t2])
            return (env.now, list(results.values()))

        p = env.process(waiter(env))
        env.run()
        assert p.value == (2.0, ["fast"])

    def test_empty_all_of_triggers_immediately(self, env):
        def waiter(env):
            yield AllOf(env, [])
            return env.now

        p = env.process(waiter(env))
        env.run()
        assert p.value == 0.0

    def test_helper_methods(self, env):
        def waiter(env):
            yield env.all_of([env.timeout(1), env.timeout(2)])
            yield env.any_of([env.timeout(10), env.timeout(1)])
            return env.now

        p = env.process(waiter(env))
        env.run()
        assert p.value == 3.0

    @pytest.mark.parametrize("outcome", ["success", "failure"])
    def test_decided_any_of_leaves_no_callback_on_pending_event(self, env, outcome):
        # An idle selector key is this shape: one long-lived pending event
        # that every select() waits on and something else decides.
        idle = env.event()
        decider = env.event()
        cond = AnyOf(env, [idle, decider])
        assert len(idle.callbacks) == 1

        def waiter(env):
            try:
                yield cond
            except RuntimeError:
                return "failed"
            return "ok"

        p = env.process(waiter(env))
        if outcome == "success":
            decider.succeed()
        else:
            decider.fail(RuntimeError("boom"))
        env.run()
        assert p.value == ("ok" if outcome == "success" else "failed")
        assert idle.callbacks == []

    def test_failed_all_of_detaches_from_the_rest(self, env):
        slow = env.event()
        bad = env.event()
        cond = AllOf(env, [slow, bad])
        cond.callbacks.append(lambda ev: None)  # observed: failure is not raised
        bad.fail(RuntimeError("boom"))
        env.run()
        assert not cond.ok
        assert slow.callbacks == []

    def test_condition_decided_at_construction_skips_later_children(self, env):
        done = env.event()
        done.succeed("early")
        env.run()
        assert done.callbacks is None
        before, after = env.event(), env.event()
        cond = AnyOf(env, [before, done, after])
        assert cond.triggered
        # Detached from the child attached before the decision, never
        # attached to the one after it.
        assert before.callbacks == [] and after.callbacks == []

    def test_decided_condition_stays_the_joiner_of_process_children(self, env):
        # The detach rule has one exception, and this is where it lives: a
        # decided condition keeps its callback on Process sub-events. The
        # engine raises for a failed process nobody joined, and the loser
        # of a race (a deadline beating a worker) is joined by nothing but
        # the AnyOf that already moved on.
        def loser(env):
            yield env.timeout(10)
            raise RuntimeError("lost the race, then died")

        def racer(env):
            slow = env.process(loser(env))
            yield AnyOf(env, [env.timeout(1), slow])
            return (env.now, len(slow.callbacks))

        p = env.process(racer(env))
        env.run()  # the loser's failure at t=10 is observed, not raised
        assert p.value == (1.0, 1)


class TestUnobservedFailure:
    """One rule, one dispatch body: ``run()`` raises for a failed *process*
    nobody joined (a hung simulation would hide the traceback); any other
    failed event with no waiter is dropped — requests failed by an abort
    sweep, cancelled getters and the like are routinely abandoned."""

    def test_failed_process_nobody_joined_raises(self, env):
        def bad(env):
            yield env.timeout(1)
            raise RuntimeError("unobserved")

        env.process(bad(env))
        with pytest.raises(RuntimeError, match="unobserved"):
            env.run(until=5.0)

    def test_failed_plain_event_nobody_waits_on_is_dropped(self, env):
        env.event().fail(RuntimeError("abandoned request"))
        env.run()
        assert env.events_processed == 1

    def test_joined_process_failure_goes_to_the_joiner_only(self, env):
        def bad(env):
            yield env.timeout(1)
            raise RuntimeError("joined")

        def parent(env):
            try:
                yield env.process(bad(env))
            except RuntimeError as exc:
                return str(exc)

        p = env.process(parent(env))
        env.run()
        assert p.value == "joined"


class TestLifetime:
    """What the kernel lets go of, checked by reference counting alone
    (collector off). The rule set is DESIGN §10, "Object lifetime in the
    kernel"; the whole-run fence is in ``test_kernel_fences.py``."""

    @pytest.fixture(autouse=True)
    def _collector_off(self):
        gc.collect()
        gc.disable()
        yield
        gc.enable()

    class Payload:
        pass

    def test_cancelled_timeout_drops_its_value(self, env):
        payload = self.Payload()
        ref = weakref.ref(payload)
        timer = env.timeout(5, payload)
        del payload
        assert ref() is not None
        env.cancel(timer)
        assert ref() is None

    def test_recycled_timeout_drops_its_value(self, env):
        payload = self.Payload()
        ref = weakref.ref(payload)

        def sleeper(env, payload):
            got = yield env.timeout(1, payload)
            return got is payload

        p = env.process(sleeper(env, payload))
        del payload
        env.run()
        # The fired Timeout sits in the engine's free list, empty.
        assert p.value is True and ref() is None

    def test_finished_process_is_not_its_own_cycle(self, env):
        def quick(env):
            yield env.timeout(1)

        def n_processes():
            return sum(isinstance(o, Process) for o in gc.get_objects())

        before = n_processes()
        p = env.process(quick(env))
        env.run()
        assert n_processes() == before + 1
        del p
        assert n_processes() == before
