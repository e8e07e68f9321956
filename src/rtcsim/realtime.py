"""Wall-clock paced execution with a hardware-in-the-loop delivery sink.

One thread runs the scheduler and delivers. Each decoded event waits in a
FIFO until its simulated end time, mapped onto the wall clock, has passed;
after every scheduled event the due ones go to the sink, and once the
scheduler is done the rest are delivered at their deadlines. A delivery is
never early, and it is late by at most the time the scheduler takes for one
event, besides what the host adds. Delivery order equals log order.

Per-run tables the scheduler reads (``Scenario.beacon_positions``) are built
before the wall clock starts: built inside the window, they would hold back
the first deliveries by the time they take.
"""

from __future__ import annotations

import gc
import math
import time
from collections import deque
from dataclasses import replace
from typing import Callable

from . import mac
from .channel import PathLossModel, RadioConfig
from .errors import RealtimeViolationError
from .mac import MacParams, Outcome, RunStats, TxEvent, _iter_events
from .scenario import DEFAULT_TX_RATE_HZ, Scenario

# Lag beyond one beacon period means the emulated channel no longer lines up
# with the device under test; the run is aborted rather than silently late.
DEFAULT_LAG_BUDGET_S = 1.0 / DEFAULT_TX_RATE_HZ

# Simulated span of the pre-flight dry run that estimates the speedup.
PROBE_DURATION_S = 2.0

_SPIN_THRESHOLD_S = 0.002


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
    ``lag_budget_s``, and SchedulingError as run() does on an invariant breach.
    """
    if not skip_budget_check:
        speedup = estimate_speedup(scenario, model, radio, params,
                                   hv_transmits=hv_transmits)
        if speedup < 1.25:
            raise RealtimeViolationError(
                f"scheduler dry run projects only {speedup:.2f}x real time; "
                f"refusing to pace this scenario")

    scenario.beacon_positions  # before the window: see the module docstring
    stats = RunStats(sim_duration_s=scenario.duration_s)
    events: list[TxEvent] = []
    lags: list[float] = []
    pending: deque[TxEvent] = deque()

    def deliver(event: TxEvent) -> None:
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

    # collector pauses over a large heap can exceed the lag budget; hold it
    # off for the paced window and collect once afterwards
    gc_was_enabled = gc.isenabled()
    gc.disable()
    t_wall0 = time.perf_counter()
    try:
        for event in _iter_events(scenario, model, radio, params, stats,
                                  hv_transmits=hv_transmits):
            events.append(event)
            if event.outcome is Outcome.DECODED:
                pending.append(event)
            while pending and t_wall0 + pending[0].end_s <= time.perf_counter():
                deliver(pending.popleft())
        while pending:
            deliver(pending.popleft())
    finally:
        if gc_was_enabled:
            gc.enable()
            gc.collect()

    stats.wall_time_s = time.perf_counter() - t_wall0
    stats.speedup = (scenario.duration_s / stats.wall_time_s
                     if stats.wall_time_s > 0 else math.inf)
    if lags:
        ordered = sorted(lags)
        idx = min(len(ordered) - 1, math.ceil(0.99 * len(ordered)) - 1)
        stats.p99_delivery_lag_s = ordered[max(idx, 0)]
    else:
        stats.p99_delivery_lag_s = 0.0
    mac.verify_run_invariants(events, stats, params, model, radio)
    return events, stats
