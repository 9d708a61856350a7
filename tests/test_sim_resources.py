"""Tests for Resource and Store, including property-based FIFO checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SimulationError
from repro.sim import Environment, Resource
from repro.sim.resources import Store


def _user(env, resource, name, hold, log):
    req = resource.request()
    yield req
    log.append(("acq", name, env.now))
    try:
        yield env.timeout(hold)
    finally:
        resource.release(req)
        log.append(("rel", name, env.now))


def test_capacity_one_serializes():
    env = Environment()
    r = Resource(env)
    log = []
    for i in range(3):
        env.process(_user(env, r, f"u{i}", 1.0, log))
    env.run()
    acquires = [(n, t) for kind, n, t in log if kind == "acq"]
    assert acquires == [("u0", 0.0), ("u1", 1.0), ("u2", 2.0)]


def test_capacity_two_allows_two_concurrent():
    env = Environment()
    r = Resource(env, capacity=2)
    log = []
    for i in range(4):
        env.process(_user(env, r, f"u{i}", 1.0, log))
    env.run()
    acquires = [(n, t) for kind, n, t in log if kind == "acq"]
    assert acquires == [("u0", 0.0), ("u1", 0.0), ("u2", 1.0), ("u3", 1.0)]


def test_hold_matches_the_request_timeout_release_idiom():
    """``hold`` grants FIFO, dispatches the same events as the hand-written
    idiom and leaves the resource idle."""

    def held(env, resource, name, delay, log):
        yield from resource.hold(delay)
        log.append((name, env.now))

    def by_hand(env, resource, name, delay, log):
        req = resource.request()
        yield req
        try:
            yield env.timeout(delay)
        finally:
            resource.release(req)
        log.append((name, env.now))

    runs = {}
    for user in (held, by_hand):
        env = Environment()
        r = Resource(env)
        log = []
        for i, delay in enumerate((1.0, 0.5, 2.0)):
            env.process(user(env, r, f"u{i}", delay, log))
        env.run()
        assert r.count == 0 and r.queue_length == 0
        runs[user] = (log, env.dispatched)
    assert runs[held] == runs[by_hand]
    assert runs[held][0] == [("u0", 1.0), ("u1", 1.5), ("u2", 3.5)]


def test_invalid_capacity_rejected():
    with pytest.raises(SimulationError):
        Resource(Environment(), capacity=0)


def test_release_of_unheld_request_is_error():
    env = Environment()
    r = Resource(env)
    held = r.request()
    r2 = Resource(env)
    foreign = r2.request()
    with pytest.raises(SimulationError):
        r.release(foreign)


def test_count_and_queue_length():
    env = Environment()
    r = Resource(env, capacity=2)
    reqs = [r.request() for _ in range(5)]
    assert r.count == 2
    assert r.queue_length == 3
    r.release(reqs[0])
    assert r.count == 2  # next waiter was promoted
    assert r.queue_length == 2


def test_request_now_grants_an_idle_slot_without_an_event():
    env = Environment()
    r = Resource(env)
    req = r.request_now()
    assert req is not None and req.triggered and req.ok
    assert r.count == 1
    assert env.peek() == float("inf")  # nothing went onto the heap
    r.release(req)
    assert r.count == 0


def test_request_now_declines_a_full_resource():
    env = Environment()
    r = Resource(env, capacity=2)
    held = [r.request_now(), r.request()]
    assert r.request_now() is None
    assert r.count == 2 and r.queue_length == 0
    for req in held:
        r.release(req)
    assert r.count == 0


def test_yielding_a_request_now_grant_resumes_at_once():
    env = Environment()
    r = Resource(env)

    def user(env):
        req = r.request_now()
        yield req
        r.release(req)
        return env.now

    assert env.run(until=env.process(user(env))) == 0.0
    assert r.count == 0


@settings(max_examples=50, deadline=None)
@given(
    holds=st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=1, max_size=12),
    capacity=st.integers(min_value=1, max_value=4),
)
def test_fifo_grant_order_property(holds, capacity):
    """Requests are always granted in arrival order, whatever the holds."""
    env = Environment()
    r = Resource(env, capacity=capacity)
    log = []
    for i, hold in enumerate(holds):
        env.process(_user(env, r, i, hold, log))
    env.run()
    grant_order = [n for kind, n, _ in log if kind == "acq"]
    assert grant_order == sorted(grant_order)
    # all users eventually ran and released
    assert sum(1 for kind, *_ in log if kind == "rel") == len(holds)


@settings(max_examples=50, deadline=None)
@given(
    holds=st.lists(st.floats(min_value=0.25, max_value=0.25), min_size=2, max_size=10),
    capacity=st.integers(min_value=1, max_value=3),
)
def test_total_time_matches_capacity_property(holds, capacity):
    """With equal holds, makespan = ceil(n / capacity) * hold."""
    env = Environment()
    r = Resource(env, capacity=capacity)
    log = []
    for i, hold in enumerate(holds):
        env.process(_user(env, r, i, hold, log))
    env.run()
    rounds = -(-len(holds) // capacity)
    assert env.now == pytest.approx(rounds * 0.25)


# ----------------------------------------------------------------------
# Store
# ----------------------------------------------------------------------
def test_store_put_then_get():
    env = Environment()
    s = Store(env)
    s.put("x")
    got = s.get()
    assert got.triggered and got.value == "x"


def test_store_get_blocks_until_put():
    env = Environment()
    s = Store(env)
    results = []

    def consumer(env):
        item = yield s.get()
        results.append((env.now, item))

    def producer(env):
        yield env.timeout(2.0)
        s.put("late")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert results == [(2.0, "late")]


def test_store_is_fifo():
    env = Environment()
    s = Store(env)
    for item in ("a", "b", "c"):
        s.put(item)
    assert [s.get().value for _ in range(3)] == ["a", "b", "c"]
    assert len(s) == 0


def test_store_len_counts_items():
    env = Environment()
    s = Store(env)
    s.put(1)
    s.put(2)
    assert len(s) == 2
