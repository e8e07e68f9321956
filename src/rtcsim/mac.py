"""Broadcast CSMA/CA scheduler.

The engine keeps a priority queue holding one pending packet per vehicle,
ordered by scheduled channel-access time. The head packet opens a
transmission; every queue head falling inside its influence window is then
handled by exactly one of five overlap rules:

* within the propagation delay of the start: the sender cannot be sensed
  yet, the head transmits too and the packets collide (COLLISION_PD);
* hidden from the sender, anywhere inside the on-air interval: the head
  senses an idle channel and collides (COLLISION_HIDDEN);
* sensed, inside the on-air interval: the head defers with a random
  backoff, consumed as idle slots after the inter-frame space (BACKOFF);
* inside the inter-frame space after the transmission: the head moves to
  the end of that space, keeping it idle (AIFS_WAIT);
* beyond the inter-frame space: the transmission is closed and resolved
  (POST_TX).

Reception is evaluated at the host vehicle only: the strongest overlapping
packet is decoded when it clears the sensitivity floor and the capture
margin over the runner-up.

Everything the loop needs that does not change during a run is worked out
once before it starts: the timing sums, the fixed propagation delay, the
hidden test on distance (``channel.hidden_predicate``, shared with the run
invariants and the busy-percent metric) and the position of every vehicle
at each of its beacon instants (``Scenario.beacon_positions``, shared with
the packet-error metric). Beacon instants come from
``MobilityTrace.beacon_time``, and ``position_at`` answers a parked host
vehicle without interpolating.
"""

from __future__ import annotations

import heapq
import math
import time as _time
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterator, Optional

from . import channel as chan
from .channel import PathLossModel, RadioConfig
from .errors import SchedulingError, ValidationError
from .scenario import Scenario, position_at, write_lines

SPEED_OF_LIGHT_MPS = 2.998e8

_M64 = (1 << 64) - 1


class PdMode(Enum):
    FIXED = "fixed"
    PER_PAIR_SPEED_OF_LIGHT = "per_pair"


@dataclass(frozen=True)
class MacParams:
    """Medium-access timing constants.

    The arbitration gap is derived, never stored: aifs = sifs + 2 * slot.
    """

    slot_time_s: float = 13e-6
    sifs_s: float = 32e-6
    cw_min: int = 0
    cw_max: int = 15
    tx_interval_s: float = 520e-6
    pd_mode: PdMode = PdMode.FIXED
    pd_s: float = 3e-6

    def __post_init__(self):
        if self.slot_time_s <= 0:
            raise ValidationError("slot_time_s must be positive")
        if self.sifs_s < 0:
            raise ValidationError("sifs_s must be non-negative")
        if not 0 <= self.cw_min <= self.cw_max:
            raise ValidationError("need 0 <= cw_min <= cw_max")
        if self.tx_interval_s <= 0:
            raise ValidationError("tx_interval_s must be positive")
        if self.pd_mode is PdMode.FIXED and not 0 <= self.pd_s < self.tx_interval_s:
            raise ValidationError("need 0 <= pd_s < tx_interval_s")

    @cached_property
    def aifs_s(self) -> float:
        return self.sifs_s + 2.0 * self.slot_time_s

    def pd_for(self, a: "Packet", b: "Packet") -> float:
        if self.pd_mode is PdMode.FIXED:
            return self.pd_s
        return chan.distance_m(a.tx_position, b.tx_position) / SPEED_OF_LIGHT_MPS

    def aifs_target(self, current_end_s: float) -> float:
        return current_end_s + self.aifs_s

    def backoff_target(self, current_end_s: float, counter: int) -> float:
        return current_end_s + self.aifs_s + counter * self.slot_time_s


@dataclass(slots=True)
class Packet:
    """One scheduled beacon transmission attempt.

    ``sched_time_s`` only ever moves later; ``backoff_counter`` is drawn at
    most once and then consumed (set to zero) when mapped to idle slots.
    """

    vehicle_id: int
    seq: int
    gen_time_s: float
    sched_time_s: float
    duration_s: float
    tx_position: tuple[float, float]
    backoff_counter: Optional[int] = None

    @property
    def key(self) -> tuple[int, int]:
        return (self.vehicle_id, self.seq)


class OverlapState(Enum):
    COLLISION_PD = "collision_pd"
    COLLISION_HIDDEN = "collision_hidden"
    BACKOFF = "backoff"
    AIFS_WAIT = "aifs_wait"
    POST_TX = "post_tx"


# Reading a member through its Enum class runs a descriptor (about 0.2 us
# on CPython 3.11, several times per queue head); the band rule and the
# scheduler loop read these module names instead.
_COLLISION_PD = OverlapState.COLLISION_PD
_COLLISION_HIDDEN = OverlapState.COLLISION_HIDDEN
_BACKOFF = OverlapState.BACKOFF
_AIFS_WAIT = OverlapState.AIFS_WAIT
_POST_TX = OverlapState.POST_TX


class Outcome(Enum):
    DECODED = "decoded"
    COLLIDED = "collided"
    BELOW_SENSITIVITY = "below_sensitivity"


@dataclass(slots=True)
class TxEvent:
    """One completed channel occupancy with its outcome at the host vehicle."""

    transmitter: Packet
    start_s: float
    end_s: float
    colliders: tuple[Packet, ...]
    outcome: Outcome
    winner: Optional[Packet]
    hv_distance_m: float

    @property
    def transmitter_id(self) -> int:
        return self.transmitter.vehicle_id

    @property
    def winner_id(self) -> Optional[int]:
        return self.winner.vehicle_id if self.winner is not None else None

    @property
    def arrivals(self) -> int:
        return 1 + len(self.colliders)


@dataclass
class RunStats:
    sim_duration_s: float = 0.0
    wall_time_s: float = 0.0
    packets_generated: int = 0
    packets_decoded: int = 0
    packets_collided: int = 0
    packets_below_sensitivity: int = 0
    packets_expired: int = 0
    packets_queued_at_end: int = 0
    events: int = 0
    p99_delivery_lag_s: Optional[float] = None

    @property
    def speedup(self) -> float:
        """Simulated seconds per wall-clock second of the run."""
        return (self.sim_duration_s / self.wall_time_s
                if self.wall_time_s > 0 else math.inf)

    def conservation_holds(self) -> bool:
        accounted = (self.packets_decoded + self.packets_collided
                     + self.packets_below_sensitivity + self.packets_expired
                     + self.packets_queued_at_end)
        return accounted == self.packets_generated


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _M64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


class KeyedBackoffRng:
    """Backoff counter source: splitmix64 keyed by (run seed, vehicle, seq).

    The draw is a pure function of the packet identity, so logs reproduce
    across runs, platforms, and builds, and the same counters can be handed
    to an independent replay. The modulo fold over the contention window is
    exactly uniform whenever the window size is a power of two (the default
    [0, 15] window) and carries a < 2**-57 bias otherwise.
    """

    def __init__(self, seed: int, cw_min: int, cw_max: int):
        self.seed = seed & _M64
        self.cw_min = cw_min
        self.cw_max = cw_max
        self._seed_hash = _splitmix64(self.seed)
        self._span = cw_max - cw_min + 1

    def draw(self, packet: Packet) -> int:
        h = _splitmix64(self._seed_hash ^ (packet.vehicle_id & _M64))
        h = _splitmix64(h ^ (packet.seq & _M64))
        return self.cw_min + (h % self._span)


def overlap_band(diff: float, hidden: bool, pd: float, tx: float,
                 tx_aifs: float) -> OverlapState:
    """The overlap rule on plain numbers: ``diff`` after a transmission start.

    ``tx`` is the transmission interval and ``tx_aifs`` the interval plus
    the arbitration gap. The bands are, in order of precedence: hidden and
    diff <= tx -> COLLISION_HIDDEN; diff <= pd -> COLLISION_PD;
    diff <= tx -> BACKOFF; diff <= tx_aifs -> AIFS_WAIT; beyond -> POST_TX.
    All upper bounds are inclusive.
    """
    if diff < 0:
        raise SchedulingError(
            f"queue ordering breach: a packet is scheduled {-diff:.3e}s "
            f"before the transmission it overlaps")
    if hidden and diff <= tx:
        return _COLLISION_HIDDEN
    if diff <= pd:
        return _COLLISION_PD
    if diff <= tx:
        return _BACKOFF
    if diff <= tx_aifs:
        return _AIFS_WAIT
    return _POST_TX


def classify(current: Packet, next_pkt: Packet, params: MacParams,
             hidden: bool) -> OverlapState:
    """Overlap rule for ``next_pkt`` relative to the transmitting ``current``."""
    return overlap_band(next_pkt.sched_time_s - current.sched_time_s, hidden,
                        params.pd_for(current, next_pkt), params.tx_interval_s,
                        params.tx_interval_s + params.aifs_s)


def apply_backoff(next_pkt: Packet, rng: KeyedBackoffRng, params: MacParams,
                  current_end_s: float) -> Packet:
    """Defer a packet that sensed the channel busy.

    Draws the counter on first need, then consumes it: the whole countdown
    maps to idle slots after the arbitration gap in one move, so a later
    re-deferral of the same packet lands on the first idle slot.
    """
    if next_pkt.backoff_counter is None:
        next_pkt.backoff_counter = rng.draw(next_pkt)
    next_pkt.sched_time_s = params.backoff_target(current_end_s,
                                                  next_pkt.backoff_counter)
    next_pkt.backoff_counter = 0
    return next_pkt


def reschedule_after_aifs(next_pkt: Packet, current_end_s: float,
                          params: MacParams) -> Packet:
    """Push a packet out of the post-transmission idle gap."""
    next_pkt.sched_time_s = params.aifs_target(current_end_s)
    return next_pkt


def init_queue(scenario: Scenario, params: MacParams,
               hv_transmits: bool = True) -> list:
    """Heap of (sched, vehicle_id, seq, Packet) holding each vehicle's first packet."""
    traces = scenario.all_traces() if hv_transmits else scenario.rv_traces
    positions = scenario.beacon_positions
    heap = []
    for trace in traces:
        gen = trace.beacon_time(0)
        if gen >= scenario.duration_s:
            continue
        vid = trace.vehicle_id
        pkt = Packet(vid, 0, gen, gen, params.tx_interval_s, positions[vid][0])
        heap.append((gen, vid, 0, pkt))
    heapq.heapify(heap)
    return heap


def resolve_transmission(current: Packet, overlap: list[Packet],
                         model: PathLossModel, radio: RadioConfig,
                         hv_position: tuple[float, float]) -> TxEvent:
    """Close a transmission: capture resolution at the host vehicle.

    A lone arrival that clears the sensitivity floor must still clear the
    capture margin over the noise floor; one that fails either bar is
    reported as below sensitivity.
    """
    hv_distance = chan.distance_m(current.tx_position, hv_position)
    arrivals = [(current, chan.rss_dbm(radio, model, hv_distance))]
    for pkt in overlap:
        arrivals.append((pkt, chan.rss_dbm(radio, model,
                                           chan.distance_m(pkt.tx_position, hv_position))))
    winner = chan.resolve_capture(radio, arrivals)
    if winner is not None:
        outcome = Outcome.DECODED
    elif len(arrivals) >= 2:
        outcome = Outcome.COLLIDED
    else:
        outcome = Outcome.BELOW_SENSITIVITY
    return TxEvent(
        transmitter=current,
        start_s=current.sched_time_s,
        end_s=current.sched_time_s + current.duration_s,
        colliders=tuple(overlap),
        outcome=outcome,
        winner=winner,
        hv_distance_m=hv_distance,
    )


def _iter_events(scenario: Scenario, model: PathLossModel, radio: RadioConfig,
                 params: MacParams, stats: RunStats,
                 hv_transmits: bool = True) -> Iterator[TxEvent]:
    """Generator core shared by the batch and real-time runners."""
    heap = init_queue(scenario, params, hv_transmits=hv_transmits)
    stats.packets_generated = len(heap)
    rng = KeyedBackoffRng(scenario.seed, params.cw_min, params.cw_max)
    duration = scenario.duration_s
    hv_trace = scenario.hv_trace
    traces = scenario.traces_by_id
    positions = scenario.beacon_positions
    tx = params.tx_interval_s
    aifs = params.aifs_s
    tx_aifs = tx + aifs
    fixed_pd = params.pd_s if params.pd_mode is PdMode.FIXED else None
    hidden_at = chan.hidden_predicate(radio, model)
    last_start = -math.inf

    def insert_successor(parent: Packet) -> None:
        trace = traces[parent.vehicle_id]
        seq = parent.seq + 1
        gen = trace.beacon_time(seq)
        if gen >= duration:
            return
        # a vehicle contends for one packet at a time: the follow-up may not
        # hit the air before the previous one has left it plus the idle gap
        floor = parent.sched_time_s + tx + aifs
        sched = gen if gen > floor else floor
        if sched >= duration:
            stats.packets_expired += 1
            return
        vid = trace.vehicle_id
        stats.packets_generated += 1
        heapq.heappush(heap, (sched, vid, seq,
                              Packet(vid, seq, gen, sched, tx, positions[vid][seq])))

    while heap:
        _, _, _, current = heapq.heappop(heap)
        start = current.sched_time_s
        if start < last_start:
            raise SchedulingError("popped packet travels back in time")
        last_start = start
        if start >= duration:
            stats.packets_queued_at_end = 1 + len(heap)
            break

        end = start + tx
        boundary = end + aifs
        cx, cy = current.tx_position
        overlap: list[Packet] = []
        # a head keyed at this very instant collides whatever the band rule
        # would weigh: hidden or not, its offset 0 is within pd and tx
        while heap and heap[0][0] == start:
            overlap.append(heapq.heappop(heap)[3])

        while heap:
            head = heap[0][3]
            diff = head.sched_time_s - start
            if diff > tx:
                hidden = False
            else:
                hx, hy = head.tx_position
                hidden = hidden_at(math.hypot(cx - hx, cy - hy))
            pd = fixed_pd if fixed_pd is not None else params.pd_for(current, head)
            state = overlap_band(diff, hidden, pd, tx, tx_aifs)
            if state is _POST_TX:
                break
            if state is _AIFS_WAIT and head.sched_time_s >= boundary:
                # already parked on the first idle instant: no longer interferes
                break
            heapq.heappop(heap)
            if state in (_COLLISION_PD, _COLLISION_HIDDEN):
                overlap.append(head)
                continue
            if state is _BACKOFF:
                apply_backoff(head, rng, params, end)
            else:
                reschedule_after_aifs(head, end, params)
            if head.sched_time_s >= duration:
                stats.packets_expired += 1
                continue
            heapq.heappush(heap, (head.sched_time_s, head.vehicle_id, head.seq, head))

        event = resolve_transmission(current, overlap, model, radio,
                                     position_at(hv_trace, start))
        stats.events += 1
        if event.outcome is Outcome.DECODED:
            stats.packets_decoded += 1
            stats.packets_collided += event.arrivals - 1
        elif event.outcome is Outcome.COLLIDED:
            stats.packets_collided += event.arrivals
        else:
            stats.packets_below_sensitivity += 1
        for pkt in (current, *overlap):
            insert_successor(pkt)
        yield event


def run(scenario: Scenario, model: PathLossModel, radio: RadioConfig,
        params: MacParams, hv_transmits: bool = True) -> tuple[list[TxEvent], RunStats]:
    """Execute the scenario offline; returns the time-ordered event log and stats."""
    stats = RunStats(sim_duration_s=scenario.duration_s)
    t0 = _time.perf_counter()
    events = list(_iter_events(scenario, model, radio, params, stats,
                               hv_transmits=hv_transmits))
    stats.wall_time_s = _time.perf_counter() - t0
    verify_run_invariants(events, stats, params, model, radio)
    return events, stats


def verify_run_invariants(events: list[TxEvent], stats: RunStats,
                          params: MacParams, model: PathLossModel,
                          radio: RadioConfig) -> None:
    """Hard checks on a finished run; raises SchedulingError on any breach.

    * every packet is accounted for exactly once (conservation),
    * each event occupies exactly one transmission interval,
    * consecutive events from mutually sensable transmitters keep at least
      the arbitration gap of idle air between them.
    """
    if not stats.conservation_holds():
        raise SchedulingError(
            f"packet conservation breach: generated={stats.packets_generated} "
            f"decoded={stats.packets_decoded} collided={stats.packets_collided} "
            f"below={stats.packets_below_sensitivity} "
            f"expired={stats.packets_expired} queued={stats.packets_queued_at_end}")
    aifs = params.aifs_s
    hidden_at = chan.hidden_predicate(radio, model)
    for prev, cur in zip(events, events[1:]):
        if cur.start_s < prev.start_s:
            raise SchedulingError("event log is not time-ordered")
        gap = cur.start_s - prev.end_s
        if gap >= aifs - 1e-12:
            continue
        if not hidden_at(chan.distance_m(prev.transmitter.tx_position,
                                         cur.transmitter.tx_position)):
            raise SchedulingError(
                f"idle-gap breach: events at {prev.start_s:.6f}s and "
                f"{cur.start_s:.6f}s are {gap*1e6:.2f}us apart")
    for ev in events:
        if abs((ev.end_s - ev.start_s) - params.tx_interval_s) > 1e-12:
            raise SchedulingError("event duration differs from tx_interval")
        if ev.outcome is Outcome.DECODED and ev.winner is None:
            raise SchedulingError("decoded event without winner")


# ---------------------------------------------------------------------------
# event log file: CSV, one row per transmission event

EVENT_LOG_HEADER = "start_s,end_s,transmitter_id,outcome,winner_id,n_colliders,hv_distance_m"


def format_event_row(ev: TxEvent) -> str:
    winner = "" if ev.winner_id is None else str(ev.winner_id)
    return (f"{ev.start_s!r},{ev.end_s!r},{ev.transmitter_id},"
            f"{ev.outcome.value},{winner},{len(ev.colliders)},{ev.hv_distance_m!r}")


def write_event_log(events: list[TxEvent], path) -> None:
    write_lines(path, EVENT_LOG_HEADER, map(format_event_row, events))
