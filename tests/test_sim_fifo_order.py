"""The same-instant FIFO dispatches in exactly ``(time, insertion)`` order.

:class:`~repro.sim.engine.Environment` keeps events due at the current
instant in a FIFO beside its heap.  :class:`HeapEnvironment` below is the
reference it must agree with: every pending event on one ``(time, eid)``
heap, popped one at a time.  Hypothesis generates random programs --
zero, sub-ulp and positive delays, capacity-1 and capacity-2 resources
claimed through ``request`` and ``request_now``, :class:`Store` puts and
blocking gets, ``AllOf`` over fresh timeouts and over shared events that
may already have been processed, waits on processed events (resumed in
the same callback, with no event), nested joins, events triggered and failed from callbacks,
``run(until=event)`` and ``run(until=deadline)`` -- and runs each on
both.  The dispatch trace, the ``dispatched`` count and the observer's
``(now, depth)`` samples must be identical.

The reference loop still replaces a processed event's callback list with
a fresh ``[]`` where the engine drops it, so a waiter that reached a
processed event without the processed check would show up as a
difference (or an error) here.
"""

from __future__ import annotations

import heapq
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SimulationError
from repro.sim import Environment, Resource
from repro.sim.engine import ORIGIN
from repro.sim.resources import Store


class _DueNow:
    """Stands in for the FIFO: an event due now goes onto the heap."""

    def __init__(self, env: "HeapEnvironment") -> None:
        self.env = env

    def append(self, event) -> None:
        env = self.env
        env._eid += 1
        heapq.heappush(env._queue, (env._now, env._eid, event))

    def __len__(self) -> int:
        return 0


class HeapEnvironment(Environment):
    """The reference loop: one ``(time, eid)`` heap, one pop per event."""

    def __init__(self, initial_time: float = 0.0) -> None:
        super().__init__(initial_time)
        self._fifo = _DueNow(self)

    def _dispatch(self, until, deadline):
        queue = self._queue
        while until is None or not until._processed:
            if not queue:
                if until is None:
                    return
                raise SimulationError(
                    "event queue drained before target event fired")
            if queue[0][0] > deadline:
                return
            when, _, event = heapq.heappop(queue)
            if when < self._now:
                raise SimulationError("event scheduled in the past")
            self._now = when
            self.now = when - ORIGIN
            self._dispatched += 1
            callbacks, event.callbacks = event.callbacks, []
            event._processed = True
            for callback in callbacks:
                callback(event)
            if self._observer is not None:
                self._steps += 1
                if self._steps % self._observer_every == 0:
                    self._observer(self._now - ORIGIN, len(queue))


# ----------------------------------------------------------------------
# Random programs
# ----------------------------------------------------------------------
#: Zero, sub-ulp (below the clock's 2**-46 s ulp) and positive delays.
DELAYS = st.sampled_from([0.0, 1e-16, 0.25, 0.5, 1.0, 0.3])
SHARED = 3  # shared events per program, triggered and awaited by ops
RES = st.integers(0, 1)  # resource 0 has capacity 1, resource 1 capacity 2
STORES = st.integers(0, 1)  # two shared stores


def _ops(children):
    leaf = st.one_of(
        st.tuples(st.just("timeout"), DELAYS),
        st.tuples(st.just("hold"), RES, DELAYS),
        st.tuples(st.just("grab"), RES, DELAYS),
        st.tuples(st.just("all_of"), st.lists(DELAYS, max_size=3)),
        st.tuples(st.just("all_shared"),
                  st.lists(st.integers(0, SHARED - 1), max_size=3)),
        st.tuples(st.just("put"), STORES),
        st.tuples(st.just("get"), STORES),
        st.tuples(st.just("signal"), st.integers(0, SHARED - 1)),
        st.tuples(st.just("fail"), st.integers(0, SHARED - 1)),
        st.tuples(st.just("wait"), st.integers(0, SHARED - 1)),
        st.tuples(st.just("relay"), st.integers(0, SHARED - 1), DELAYS),
    )
    return st.lists(st.one_of(
        leaf,
        st.tuples(st.just("join"), children),
        st.tuples(st.just("join_all"), st.lists(children, max_size=2)),
    ), max_size=6)


PROGRAM = st.recursive(st.just([]), _ops, max_leaves=12)

DRIVER = st.lists(st.one_of(
    st.tuples(st.just("until_proc"), st.integers(0, 5)),
    st.tuples(st.just("until_time"), DELAYS),
    st.tuples(st.just("spawn"), PROGRAM),
), max_size=5)


def _plain(text: str) -> str:
    """``text`` without object addresses, which differ between runs."""
    return re.sub(r" at 0x[0-9a-f]+", "", text)


def _execute(env_cls, initial_time, programs, driver, every):
    """Run one program on ``env_cls``; return everything observable."""
    env = env_cls(initial_time)
    resources = [Resource(env, capacity=1), Resource(env, capacity=2)]
    stores = [Store(env), Store(env)]
    shared = [env.event() for _ in range(SHARED)]
    procs = []
    log = []
    samples = []
    env.set_observer(lambda now, depth: samples.append((now, depth)), every)

    def note(*entry):
        log.append((env.now,) + entry)

    def grab(res, delay):
        req = res.request_now()
        if req is None:
            req = res.request()
            yield req
        try:
            yield env.timeout(delay)
        finally:
            res.release(req)

    def relay(k, delay):
        def fire(_):
            note("relay", k)
            if not shared[k].triggered:
                shared[k].succeed(("relayed", k))
        env.timeout(delay).callbacks.append(fire)

    def run_op(op, name):
        kind = op[0]
        if kind == "timeout":
            return (yield env.timeout(op[1], value=name))
        if kind == "hold":
            return (yield from resources[op[1]].hold(op[2]))
        if kind == "grab":
            return (yield from grab(resources[op[1]], op[2]))
        if kind == "all_of":
            return (yield env.all_of([env.timeout(d) for d in op[1]]))
        if kind == "all_shared":
            return (yield env.all_of([shared[k] for k in op[1]]))
        if kind == "put":
            return stores[op[1]].put(name)
        if kind == "get":
            return (yield stores[op[1]].get())
        if kind == "signal":
            if not shared[op[1]].triggered:
                shared[op[1]].succeed(name)
            return None
        if kind == "fail":
            if not shared[op[1]].triggered:
                shared[op[1]].fail(ValueError(op[1]))
            return None
        if kind == "wait":
            return (yield shared[op[1]])
        if kind == "relay":
            return relay(op[1], op[2])
        if kind == "join":
            return (yield env.process(process(op[1], name + "/j")))
        return (yield env.all_of([env.process(process(sub, f"{name}/a{i}"))
                                  for i, sub in enumerate(op[1])]))

    def process(ops, name):
        note("start", name)
        for i, op in enumerate(ops):
            try:
                got = yield from run_op(op, f"{name}.{i}")
                note("op", name, i, _plain(repr(got)))
            except (ValueError, SimulationError) as exc:
                note("raised", name, i, type(exc).__name__, _plain(str(exc)))
        return name

    def act(call):
        try:
            note("returned", _plain(repr(call())))
        except SimulationError as exc:
            note("error", _plain(str(exc)))

    for i, ops in enumerate(programs):
        procs.append(env.process(process(ops, f"p{i}")))
    for action in driver:
        kind = action[0]
        if kind == "until_proc":
            if action[1] < len(procs):
                act(lambda: env.run(until=procs[action[1]]))
        elif kind == "until_time":
            act(lambda: env.run(until=env.now + action[1]))
        else:
            procs.append(env.process(process(action[1], f"p{len(procs)}")))
    for _ in range(4):  # a run that raised leaves the rest queued
        if env.peek() == float("inf"):
            break
        act(env.run)
    return {"log": log, "samples": samples, "dispatched": env.dispatched,
            "now": env.now, "quiescent": env.quiescent(),
            "held": [r.count for r in resources],
            "waiting": [r.queue_length for r in resources],
            "stored": [len(store) for store in stores]}


@settings(max_examples=250, deadline=None)
@given(
    initial_time=st.sampled_from([0.0, 10.0]),
    programs=st.lists(PROGRAM, min_size=1, max_size=5),
    driver=DRIVER,
    every=st.integers(1, 3),
)
def test_fifo_dispatches_in_heap_order(initial_time, programs, driver, every):
    fifo = _execute(Environment, initial_time, programs, driver, every)
    heap = _execute(HeapEnvironment, initial_time, programs, driver, every)
    assert fifo == heap


def test_sub_ulp_timeouts_tie_with_events_due_now():
    """A sub-ulp delay does not move the clock in either environment."""
    for env_cls in (Environment, HeapEnvironment):
        env = env_cls(10.0)
        order = []
        env.timeout(1e-16).callbacks.append(lambda _: order.append("sub-ulp"))
        env.event().succeed().callbacks.append(lambda _: order.append("now"))
        env.run()
        assert order == ["sub-ulp", "now"]
        assert env.now == 10.0
        assert env.dispatched == 2


def test_run_until_event_then_deadline_resumes_the_instant():
    """Stopping at an event mid-instant leaves its peers due now."""
    for env_cls in (Environment, HeapEnvironment):
        env = env_cls()
        first = env.timeout(1.0)
        env.timeout(1.0)
        env.timeout(2.0)
        env.run(until=first)
        assert env.peek() == 1.0
        env.run(until=1.5)
        assert (env.now, env.dispatched, env.peek()) == (1.5, 2, 2.0)
