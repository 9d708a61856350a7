"""Tests for the observability event bus and the profiler's use of it."""

import pytest

from repro.gpu.kernel import KernelSpec
from repro.obs import (
    ApiEvent,
    EventBus,
    KernelEvent,
    ObsEvent,
    SpanEvent,
    TransferEvent,
)
from repro.profile import Profiler


def _kernel(name="k", stage="fp"):
    return KernelSpec(name=name, layer="l", stage=stage, duration=1.0,
                      flops=0.0, bytes_moved=0)


# ----------------------------------------------------------------------
# EventBus
# ----------------------------------------------------------------------
def test_typed_subscription_receives_only_its_type():
    bus = EventBus()
    seen = []
    bus.subscribe(KernelEvent, seen.append)
    bus.publish(KernelEvent(gpu=0, name="k", layer="l", stage="fp",
                            start=0.0, end=1.0))
    bus.publish(ApiEvent(name="cudaFree", gpu=0, start=0.0, end=1.0))
    assert len(seen) == 1
    assert isinstance(seen[0], KernelEvent)


def test_wildcard_subscription_receives_everything():
    bus = EventBus()
    seen = []
    bus.subscribe(None, seen.append)
    bus.publish(KernelEvent(gpu=0, name="k", layer="l", stage="fp",
                            start=0.0, end=1.0))
    bus.publish(SpanEvent(name="fp", gpu=0, iteration=0, start=0.0, end=1.0))
    assert len(seen) == 2


def test_obsevent_base_class_is_wildcard():
    bus = EventBus()
    seen = []
    bus.subscribe(ObsEvent, seen.append)
    bus.publish(TransferEvent(kind="p2p", src=0, dst=1, nbytes=10,
                              start=0.0, end=1.0))
    assert len(seen) == 1
    assert bus.subscriber_count() == 1


def test_unsubscribe_stops_delivery():
    bus = EventBus()
    seen = []
    handler = bus.subscribe(KernelEvent, seen.append)
    bus.unsubscribe(KernelEvent, handler)
    bus.publish(KernelEvent(gpu=0, name="k", layer="l", stage="fp",
                            start=0.0, end=1.0))
    assert not seen
    bus.unsubscribe(KernelEvent, handler)  # double-unsubscribe is a no-op


def test_typed_handlers_run_before_wildcards():
    bus = EventBus()
    order = []
    bus.subscribe(None, lambda e: order.append("wild"))
    bus.subscribe(KernelEvent, lambda e: order.append("typed"))
    bus.publish(KernelEvent(gpu=0, name="k", layer="l", stage="fp",
                            start=0.0, end=1.0))
    assert order == ["typed", "wild"]


# ----------------------------------------------------------------------
# Profiler as a bus citizen
# ----------------------------------------------------------------------
def test_record_calls_publish_typed_events():
    p = Profiler()
    seen = []
    p.bus.subscribe(None, seen.append)
    p.record_kernel(0, _kernel(), 0.0, 1.0)
    p.record_transfer("p2p", 0, 1, 10, 0.0, 1.0)
    p.record_api("cudaLaunchKernel", 0, 0.0, 0.1)
    p.record_span("fp", 0, 0, 0.0, 1.0)
    assert [type(e) for e in seen] == [
        KernelEvent, TransferEvent, ApiEvent, SpanEvent,
    ]
    # List accumulation rides the same stream.
    assert len(p.kernels) == len(p.transfers) == len(p.apis) == len(p.spans) == 1


def test_disabled_profiler_publishes_nothing():
    p = Profiler(enabled=False)
    seen = []
    p.bus.subscribe(None, seen.append)
    p.record_kernel(0, _kernel(), 0.0, 1.0)
    p.publish(KernelEvent(gpu=0, name="k", layer="l", stage="fp",
                          start=0.0, end=1.0))
    assert not seen and not p.kernels


def test_external_publish_lands_in_record_lists():
    p = Profiler()
    p.bus.publish(KernelEvent(gpu=3, name="x", layer="l", stage="wu",
                              start=0.0, end=2.0))
    assert len(p.kernels) == 1
    assert p.kernels[0].gpu == 3
    assert p.kernel_time(stage="wu") == pytest.approx(2.0)


def test_shared_bus_between_profilers():
    bus = EventBus()
    a = Profiler(bus=bus)
    b = Profiler(bus=bus)
    a.record_kernel(0, _kernel(), 0.0, 1.0)
    assert len(a.kernels) == len(b.kernels) == 1


# ----------------------------------------------------------------------
# span() context manager
# ----------------------------------------------------------------------
def test_span_context_manager_with_callable_clock():
    t = {"now": 1.0}
    p = Profiler(clock=lambda: t["now"])
    with p.span("fp", gpu=2, iteration=7):
        t["now"] = 3.5
    assert len(p.spans) == 1
    span = p.spans[0]
    assert (span.name, span.gpu, span.iteration) == ("fp", 2, 7)
    assert span.start == 1.0 and span.end == 3.5


def test_span_context_manager_with_environment_clock():
    from repro.sim import Environment

    env = Environment()
    p = Profiler()
    p.bind_clock(env)

    def proc():
        with p.span("iteration", iteration=1):
            yield env.timeout(2.0)

    env.run(until=env.process(proc()))
    assert p.spans[0].end - p.spans[0].start == pytest.approx(2.0)


def test_span_records_even_on_exception():
    p = Profiler(clock=lambda: 5.0)
    with pytest.raises(RuntimeError):
        with p.span("bp"):
            raise RuntimeError("boom")
    assert p.spans and p.spans[0].name == "bp"


def test_span_without_clock_raises():
    p = Profiler()
    with pytest.raises(ValueError, match="clock"):
        with p.span("fp"):
            pass


# ----------------------------------------------------------------------
# wants(): emitters build only what someone subscribed to
# ----------------------------------------------------------------------
def test_bus_wants_exact_type_subscribers():
    bus = EventBus()
    assert not bus.wants(KernelEvent)
    handler = bus.subscribe(KernelEvent, lambda e: None)
    assert bus.wants(KernelEvent)
    assert not bus.wants(ApiEvent)
    bus.unsubscribe(KernelEvent, handler)
    assert not bus.wants(KernelEvent)


def test_bus_wants_everything_under_a_wildcard():
    bus = EventBus()
    handler = bus.subscribe(None, lambda e: None)
    assert bus.wants(KernelEvent) and bus.wants(ApiEvent)
    bus.unsubscribe(None, handler)
    assert not bus.wants(ApiEvent)
    bus.subscribe(ObsEvent, lambda e: None)
    assert bus.wants(SpanEvent)


def test_profiler_wants_needs_a_subscriber_and_the_window():
    from repro.obs import RingStepEvent

    prof = Profiler()
    assert prof.wants(KernelEvent)  # the record list subscribes
    assert not prof.wants(RingStepEvent)
    prof.bus.subscribe(RingStepEvent, lambda e: None)
    assert prof.wants(RingStepEvent)
    prof.enabled = False
    assert not prof.wants(RingStepEvent) and not prof.wants(KernelEvent)
