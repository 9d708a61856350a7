"""Tests for events, processes and the AllOf combinator."""

import pytest

from repro.checks import CheckEngine
from repro.core.errors import InvariantViolationError, SimulationError
from repro.sim import AllOf, Environment, Event, Resource
from repro.sim.engine import ORIGIN


# ----------------------------------------------------------------------
# Bare events
# ----------------------------------------------------------------------
def test_event_value_unavailable_until_triggered():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        _ = ev.value
    with pytest.raises(SimulationError):
        _ = ev.ok


def test_event_succeed_carries_value():
    env = Environment()
    ev = env.event()
    ev.succeed(42)
    assert ev.triggered and ev.ok and ev.value == 42


def test_event_double_trigger_is_error():
    env = Environment()
    ev = env.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError())


def test_event_fail_requires_exception():
    env = Environment()
    with pytest.raises(SimulationError):
        env.event().fail("not an exception")  # type: ignore[arg-type]


def _idle(env):
    yield env.timeout(0.0)


@pytest.mark.parametrize("make", [
    lambda env: env.event(),
    lambda env: env.timeout(1.0),
    lambda env: env.process(_idle(env)),
    lambda env: env.all_of([]),
    lambda env: Resource(env).request(),
], ids=["event", "timeout", "process", "all_of", "request"])
def test_events_reject_unknown_attributes(make):
    """Events are slotted: per-event bookkeeping cannot ride on them."""
    event = make(Environment())
    with pytest.raises(AttributeError):
        event.bookkeeping = 1


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
def test_process_returns_generator_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        return 99

    p = env.process(proc(env))
    env.run()
    assert p.value == 99


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(SimulationError):
        env.process(lambda: None)  # type: ignore[arg-type]


def test_process_waits_on_another_process():
    env = Environment()

    def inner(env):
        yield env.timeout(2.0)
        return "inner"

    def outer(env):
        result = yield env.process(inner(env))
        return (env.now, result)

    p = env.process(outer(env))
    env.run()
    assert p.value == (2.0, "inner")


def test_process_sees_exception_from_failed_event():
    env = Environment()
    failing = env.event()

    def proc(env):
        try:
            yield failing
        except RuntimeError as exc:
            return f"caught {exc}"

    p = env.process(proc(env))
    failing.fail(RuntimeError("bad"))
    env.run()
    assert p.value == "caught bad"


def test_process_yielding_non_event_fails():
    env = Environment()

    def proc(env):
        yield 42  # type: ignore[misc]

    p = env.process(proc(env))
    env.run()
    assert p.triggered and not p.ok


def test_yield_already_processed_event_resumes_immediately():
    env = Environment()
    done = env.timeout(1.0)
    env.run()

    def proc(env):
        yield done
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 1.0  # no extra delay


# ----------------------------------------------------------------------
# AllOf
# ----------------------------------------------------------------------
def test_all_of_waits_for_every_event():
    env = Environment()
    a, b = env.timeout(1.0, "a"), env.timeout(3.0, "b")
    combo = env.all_of([a, b])

    def proc(env):
        values = yield combo
        return (env.now, values)

    p = env.process(proc(env))
    env.run()
    assert p.value == (3.0, ["a", "b"])


def test_all_of_empty_succeeds_immediately():
    env = Environment()
    combo = env.all_of([])
    assert combo.triggered and combo.value == []


def test_all_of_with_already_processed_events():
    env = Environment()
    a = env.timeout(1.0, "a")
    env.run()
    b = env.timeout(1.0, "b")
    combo = env.all_of([a, b])
    env.run()
    assert combo.triggered and combo.value == ["a", "b"]


def test_all_of_fails_when_member_fails():
    env = Environment()
    good = env.timeout(1.0)
    bad = env.event()
    combo = env.all_of([good, bad])
    bad.fail(ValueError("nope"))
    env.run()
    assert combo.triggered and not combo.ok
    assert isinstance(combo.value, ValueError)


def test_condition_rejects_foreign_environment():
    env1, env2 = Environment(), Environment()
    foreign = env2.event()
    with pytest.raises(SimulationError):
        AllOf(env1, [foreign])


# ----------------------------------------------------------------------
# The dispatch loop
# ----------------------------------------------------------------------
def _chain(env, hops):
    for _ in range(hops):
        yield env.timeout(1.0)
    return "done"


def test_run_until_event_counts_every_dispatched_event():
    env = Environment()
    # One start event, then one per timeout; the process's own completion
    # is the last event dispatched.
    done = env.process(_chain(env, 5))
    env.timeout(100.0)  # never reached: run stops once ``done`` fires
    assert env.run(until=done) == "done"
    assert env.dispatched == 1 + 5 + 1
    assert env.now == 5.0
    assert env.peek() == 100.0


def test_run_until_event_counts_events_before_a_drained_queue():
    env = Environment()
    env.process(_chain(env, 2))
    with pytest.raises(SimulationError, match="drained"):
        env.run(until=env.event())
    assert env.dispatched == 1 + 2 + 1


def test_strict_checks_see_one_sim_event_per_dispatched_event():
    env = Environment()
    engine = CheckEngine("strict")
    env.set_checks(engine)
    env.run(until=env.process(_chain(env, 4)))
    env.timeout(2.0)
    env.run()
    checked, violated = engine.stats_dict()["temporal.event-monotone"]
    assert checked == env.dispatched == 1 + 4 + 1 + 1
    assert violated == 0


def test_strict_checks_count_every_event_across_step_deadline_and_raise():
    env = Environment()
    engine = CheckEngine("strict")
    env.set_checks(engine)
    env.process(_chain(env, 6))
    env.run(until=1.0)  # the start event and the first timeout
    assert engine.stats_dict()["temporal.event-monotone"] == (2, 0)
    env.run(until=3.5)
    assert engine.stats_dict()["temporal.event-monotone"] == (env.dispatched, 0)
    # A checkpoint failing inside a callback raises out of the loop; the
    # events dispatched up to and including that one are still counted.
    bad = env.timeout(0.25)
    bad.callbacks.append(lambda _: engine.check(
        "comm.p2p.plan", num_gpus=4, stages=[[(1, 0)]]))
    with pytest.raises(InvariantViolationError):
        env.run()
    assert env.now == 3.75
    assert engine.stats_dict()["temporal.event-monotone"] == (env.dispatched, 0)
    env.run()
    assert engine.stats_dict()["temporal.event-monotone"] == (env.dispatched, 0)
    assert env.dispatched == 1 + 6 + 1 + 1


def _backwards_env(mode):
    """An environment at t=1 with an event forced below the clock."""
    env = Environment()
    engine = CheckEngine(mode)
    env.set_checks(engine)
    env.timeout(1.0)
    env.run()
    # schedule() refuses a negative delay, so go round it.
    env._queue.append((ORIGIN + 0.5, 0, env.event()))
    return env, engine


def test_event_below_the_clock_raises_with_checks_off():
    env, engine = _backwards_env("off")
    with pytest.raises(SimulationError, match="in the past"):
        env.run()
    assert engine.violation_records() == ()
    assert engine.stats_dict() == {}


def test_event_below_the_clock_warns_then_raises():
    env, engine = _backwards_env("warn")
    with pytest.raises(SimulationError, match="in the past"):
        env.run()
    (record,) = engine.violation_records()
    assert record.invariant == "temporal.event-monotone"
    assert record.checkpoint == "sim.event"
    assert record.at == 1.0
    assert engine.stats_dict()["temporal.event-monotone"] == (1 + 1, 1)


def test_event_below_the_clock_is_a_strict_violation():
    env, engine = _backwards_env("strict")
    with pytest.raises(InvariantViolationError) as exc:
        env.run()
    assert exc.value.invariant == "temporal.event-monotone"
    assert exc.value.checkpoint == "sim.event"
    assert env.now == 1.0


def test_observer_sees_every_nth_dispatched_event():
    env = Environment()
    seen = []
    env.set_observer(lambda now, depth: seen.append(now), every=2)
    env.run(until=env.process(_chain(env, 5)))
    assert env.dispatched == 7
    assert seen == [1.0, 3.0, 5.0]
