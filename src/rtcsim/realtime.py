"""Wall-clock paced execution with a hardware-in-the-loop delivery sink.

One thread runs the scheduler and delivers. Each decoded event waits in a
FIFO until its simulated end time, mapped onto the wall clock, has passed;
after every scheduled event the due ones go to the sink, and once the
scheduler is done the rest are delivered at their deadlines. A delivery is
never early, and it is late by at most the time the scheduler takes for one
event, besides what the host adds. Delivery order equals log order.

Waiting is one plain ``time.sleep`` up to the deadline. On a shared 2-core
Linux host, two sets of 3,000 sleeps of 1 ms overshot by 68 and 97 us at the
median and by 0.24 and 1.75 ms at p99 (worst 10.1 and 6.4 ms), depending on
the host's other load: far inside the lag budget. Nothing is dry-run up
front: a scheduler that cannot keep ahead of the wall clock makes its next
due delivery late, and the per-delivery lag check aborts the run.

Per-run tables the scheduler reads (``Scenario.beacon_positions``) are built
before the wall clock starts: built inside the window, they would hold back
the first deliveries by the time they take. Automatic garbage collection is
paused for the paced window, and what it left is promoted to the oldest
generation without a collection after it, through the same
``mac.collection_paused`` window that ``mac.run`` uses.
"""

from __future__ import annotations

import math
import time
from collections import deque
from typing import Callable

from . import mac
from .channel import PathLossModel, RadioConfig
from .errors import RealtimeViolationError
from .mac import MacParams, Outcome, RunStats, TxEvent, _iter_events
from .scenario import DEFAULT_TX_RATE_HZ, Scenario

# Lag beyond one beacon period means the emulated channel no longer lines up
# with the device under test; the run is aborted rather than silently late.
DEFAULT_LAG_BUDGET_S = 1.0 / DEFAULT_TX_RATE_HZ


def run_realtime(scenario: Scenario, model: PathLossModel, radio: RadioConfig,
                 params: MacParams, sink: Callable[[TxEvent], None],
                 hv_transmits: bool = True,
                 lag_budget_s: float = DEFAULT_LAG_BUDGET_S) -> tuple[list[TxEvent], RunStats]:
    """Paced run: identical event log to run(), plus delivery-lag statistics.

    Raises RealtimeViolationError (carrying the partial log) when a delivery
    lags past ``lag_budget_s``, whether the sink or the scheduler fell
    behind, and SchedulingError as run() does on an invariant breach.
    """
    scenario.beacon_positions  # before the window: see the module docstring
    stats = RunStats(sim_duration_s=scenario.duration_s)
    events: list[TxEvent] = []
    lags: list[float] = []
    pending: deque[TxEvent] = deque()

    def deliver(event: TxEvent) -> None:
        deadline = t_wall0 + event.end_s
        ahead = deadline - time.perf_counter()
        if ahead > 0:
            time.sleep(ahead)
        sink(event)
        lag = time.perf_counter() - deadline
        lags.append(lag)
        if lag > lag_budget_s:
            raise RealtimeViolationError(
                f"delivery lagged {lag*1e3:.1f}ms behind the wall clock "
                f"(budget {lag_budget_s*1e3:.0f}ms)",
                events=events, lag_s=lag)

    with mac.collection_paused():
        t_wall0 = time.perf_counter()
        for event in _iter_events(scenario, model, radio, params, stats,
                                  hv_transmits=hv_transmits):
            events.append(event)
            if event.outcome is Outcome.DECODED:
                pending.append(event)
            while pending and t_wall0 + pending[0].end_s <= time.perf_counter():
                deliver(pending.popleft())
        while pending:
            deliver(pending.popleft())

    stats.wall_time_s = time.perf_counter() - t_wall0
    if lags:
        ordered = sorted(lags)
        idx = min(len(ordered) - 1, math.ceil(0.99 * len(ordered)) - 1)
        stats.p99_delivery_lag_s = ordered[max(idx, 0)]
    else:
        stats.p99_delivery_lag_s = 0.0
    mac.verify_run_invariants(events, stats, params, model, radio)
    return events, stats
