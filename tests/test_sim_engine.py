"""Tests for the discrete-event engine core."""

import pytest

from repro.core.errors import SimulationError
from repro.sim import Environment


def test_clock_starts_at_zero():
    assert Environment().now == 0.0


def test_clock_starts_at_initial_time():
    assert Environment(initial_time=5.0).now == 5.0


def test_timeout_advances_clock():
    env = Environment()
    env.timeout(2.5)
    env.run()
    assert env.now == 2.5


def test_zero_delay_timeout_is_processed():
    env = Environment()
    t = env.timeout(0.0)
    env.run()
    assert t.triggered
    assert env.now == 0.0


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_events_processed_in_time_order():
    env = Environment()
    order = []
    for delay in (3.0, 1.0, 2.0):
        env.timeout(delay).callbacks.append(
            lambda ev, d=delay: order.append(d)
        )
    env.run()
    assert order == [1.0, 2.0, 3.0]


def test_ties_broken_by_insertion_order():
    env = Environment()
    order = []
    for tag in ("a", "b", "c"):
        env.timeout(1.0).callbacks.append(lambda ev, t=tag: order.append(t))
    env.run()
    assert order == ["a", "b", "c"]


def test_run_until_deadline_stops_clock_at_deadline():
    env = Environment()
    env.timeout(10.0)
    env.run(until=4.0)
    assert env.now == 4.0


def test_run_until_deadline_processes_events_at_deadline():
    env = Environment()
    hits = []
    env.timeout(4.0).callbacks.append(lambda ev: hits.append(env.now))
    env.run(until=4.0)
    assert hits == [4.0]


def test_run_until_past_deadline_rejected():
    env = Environment()
    env.run(until=5.0)
    with pytest.raises(SimulationError):
        env.run(until=1.0)


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        return "done"

    assert env.run(until=env.process(proc(env))) == "done"


def test_run_until_event_raises_on_failure():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        env.run(until=env.process(proc(env)))


def test_run_until_event_queue_drained_is_error():
    env = Environment()
    never = env.event()
    with pytest.raises(SimulationError):
        env.run(until=never)


def test_peek_reports_next_event_time():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(3.0)
    env.timeout(1.0)
    assert env.peek() == 1.0


def test_determinism_across_runs():
    def build_and_run():
        env = Environment()
        log = []

        def worker(env, name, delay):
            for _ in range(3):
                yield env.timeout(delay)
                log.append((round(env.now, 9), name))

        for i, d in enumerate((0.3, 0.7, 0.2)):
            env.process(worker(env, f"w{i}", d))
        env.run()
        return log

    assert build_and_run() == build_and_run()


# ----------------------------------------------------------------------
# The translation-invariant clock
# ----------------------------------------------------------------------
def _chain(env, delays, out):
    start = env.now
    for delay in delays:
        yield env.timeout(delay)
        out.append(env.now - start)


def test_durations_do_not_depend_on_the_start_time():
    delays = (1.1e-5, 3.7e-6, 2.9e-4, 7.3e-7, 1.3e-3, 4.1e-5) * 50
    first, later = [], []
    env = Environment()
    env.run(until=env.process(_chain(env, delays, first)))
    env.timeout(0.123456789)  # move to an arbitrary later boundary
    env.run()
    env.run(until=env.process(_chain(env, delays, later)))
    assert later == first


def test_public_times_are_seconds_since_start():
    env = Environment()
    seen = []
    env.set_observer(lambda now, depth: seen.append(now))
    env.timeout(0.25)
    env.timeout(0.75)
    assert env.peek() == 0.25
    env.run(until=0.5)
    assert env.now == 0.5 and seen == [0.25]
    assert env.peek() == 0.75
    env.run()
    assert env.now == 0.75 and seen == [0.25, 0.75]
    with pytest.raises(SimulationError, match="deadline 0.5 is in the past"):
        env.run(until=0.5)


def test_quiescent_needs_an_empty_heap_idle_resources_and_the_binade():
    from repro.sim import Resource

    env = Environment()
    resource = Resource(env)
    assert env.quiescent()
    req = resource.request_now()
    assert not env.quiescent()
    resource.release(req)
    env.timeout(1.0)
    assert not env.quiescent()
    env.run()
    assert env.quiescent()
    # Past the clock origin's binade, translation invariance ends.
    assert not Environment(initial_time=64.0).quiescent()
