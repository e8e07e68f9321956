"""Wall-clock paced execution with a hardware-in-the-loop delivery sink.

Two cooperating contexts: a producer thread runs the scheduler ahead of the
wall clock, feeding a bounded time-ordered buffer (a full buffer blocks the
producer, never drops events); the caller's thread drains it and delivers
each decoded event to the sink no earlier than its simulated end time mapped
onto the wall clock. Delivery order equals log order.
"""

from __future__ import annotations

import gc
import math
import queue
import threading
import time
from dataclasses import replace
from typing import Callable

from .channel import PathLossModel, RadioConfig
from .errors import RealtimeViolationError
from .mac import MacParams, Outcome, RunStats, TxEvent, _iter_events
from .scenario import Scenario

# Lag beyond one beacon period means the emulated channel no longer lines up
# with the device under test; the run is aborted rather than silently late.
DEFAULT_LAG_BUDGET_S = 0.1

# Simulated span of the pre-flight dry run that estimates the speedup.
PROBE_DURATION_S = 2.0
# Events the producer may run ahead of delivery before it blocks.
BUFFER_SIZE = 1024

_SPIN_THRESHOLD_S = 0.002
_SENTINEL = object()


def _sleep_until(deadline: float) -> None:
    # coarse sleep, then a short spin: plain time.sleep() oversleeps by more
    # than the delivery-lag budget allows for
    while True:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            return
        if remaining > _SPIN_THRESHOLD_S:
            time.sleep(remaining - _SPIN_THRESHOLD_S)
        else:
            while time.perf_counter() < deadline:
                pass
            return


def estimate_speedup(scenario: Scenario, model: PathLossModel,
                     radio: RadioConfig, params: MacParams,
                     hv_transmits: bool = True) -> float:
    """Dry-run a truncated copy of the scenario and report sim/wall speedup."""
    probe_s = min(PROBE_DURATION_S, scenario.duration_s)
    probe = replace(scenario, duration_s=probe_s)
    stats = RunStats(sim_duration_s=probe_s)
    t0 = time.perf_counter()
    for _ in _iter_events(probe, model, radio, params, stats,
                          hv_transmits=hv_transmits):
        pass
    wall = time.perf_counter() - t0
    return probe_s / wall if wall > 0 else math.inf


def run_realtime(scenario: Scenario, model: PathLossModel, radio: RadioConfig,
                 params: MacParams, sink: Callable[[TxEvent], None],
                 hv_transmits: bool = True,
                 lag_budget_s: float = DEFAULT_LAG_BUDGET_S,
                 skip_budget_check: bool = False) -> tuple[list[TxEvent], RunStats]:
    """Paced run: identical event log to run(), plus delivery-lag statistics.

    Raises RealtimeViolationError (carrying the partial log) when the
    scheduler cannot keep ahead of the wall clock or a delivery lags past
    ``lag_budget_s``.
    """
    if not skip_budget_check:
        speedup = estimate_speedup(scenario, model, radio, params,
                                   hv_transmits=hv_transmits)
        if speedup < 1.25:
            raise RealtimeViolationError(
                f"scheduler dry run projects only {speedup:.2f}x real time; "
                f"refusing to pace this scenario")

    stats = RunStats(sim_duration_s=scenario.duration_s)
    buf: queue.Queue = queue.Queue(maxsize=BUFFER_SIZE)
    stop = threading.Event()
    producer_error: list[BaseException] = []

    def producer() -> None:
        try:
            for event in _iter_events(scenario, model, radio, params, stats,
                                      hv_transmits=hv_transmits):
                if stop.is_set():
                    return
                buf.put(event)
        except BaseException as exc:  # surfaced on the consumer side
            producer_error.append(exc)
        finally:
            buf.put(_SENTINEL)

    worker = threading.Thread(target=producer, name="rtcsim-producer", daemon=True)
    # collector pauses over a large heap can exceed the lag budget; hold it
    # off for the paced window and collect once afterwards
    gc_was_enabled = gc.isenabled()
    gc.disable()
    t_wall0 = time.perf_counter()
    worker.start()

    events: list[TxEvent] = []
    lags: list[float] = []
    try:
        while True:
            item = buf.get()
            if item is _SENTINEL:
                break
            event = item
            events.append(event)
            if event.outcome is not Outcome.DECODED:
                continue
            deadline = t_wall0 + event.end_s
            _sleep_until(deadline)
            sink(event)
            lag = time.perf_counter() - deadline
            lags.append(lag)
            if lag > lag_budget_s:
                raise RealtimeViolationError(
                    f"delivery lagged {lag*1e3:.1f}ms behind the wall clock "
                    f"(budget {lag_budget_s*1e3:.0f}ms)",
                    events=events, lag_s=lag)
    finally:
        stop.set()
        # unblock the producer if it is waiting on a full buffer
        while True:
            try:
                buf.get_nowait()
            except queue.Empty:
                break
        worker.join(timeout=10.0)
        if gc_was_enabled:
            gc.enable()
            gc.collect()

    if producer_error:
        raise producer_error[0]

    stats.wall_time_s = time.perf_counter() - t_wall0
    stats.speedup = (scenario.duration_s / stats.wall_time_s
                     if stats.wall_time_s > 0 else math.inf)
    if lags:
        ordered = sorted(lags)
        idx = min(len(ordered) - 1, math.ceil(0.99 * len(ordered)) - 1)
        stats.p99_delivery_lag_s = ordered[max(idx, 0)]
    else:
        stats.p99_delivery_lag_s = 0.0
    return events, stats
