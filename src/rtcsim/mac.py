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
the packet-error metric, interpolated in one array pass per vehicle). Beacon
instants come from ``MobilityTrace.beacon_time``, and ``position_at``
answers a parked host vehicle without interpolating. Backoff counters are
worked out a vehicle row at a time, in one uint64 array pass over a chunk of
sequence numbers, and read back per draw (``KeyedBackoffRng``). The loop
keeps its packet counters in locals. Timings whose slot vanishes when added
to the run's horizon are refused before the first packet is queued.

A head deferred to exactly the first idle instant after a transmission (a
zero or spent backoff counter, or a move out of the inter-frame space) goes
on a plain side list instead of the heap; when that list is not empty the
next transmission starts at that instant, with the list and the heap entries
keyed there as its same-instant set. Both runners hold automatic garbage
collection off for the run and then promote its objects to the oldest
generation without collecting them (``collection_paused``).
"""

from __future__ import annotations

import gc
import heapq
import math
import time as _time
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterator, Optional

import numpy as np

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
    """Packet counts and timing of one run.

    Every beacon generated before the horizon is counted once. A vehicle
    whose packet would start past the horizon queues nothing more, so its
    later beacons count as generated and expired with that packet.
    """

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


# splitmix64's published increment, multipliers and shifts, held as np.uint64
# so that every operation below is uint64 array arithmetic, which wraps
# modulo 2**64 without a warning: numpy scalar arithmetic would warn, and a
# Python int operand promotes to float64 under numpy 1.x rules
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SHIFT30, _SHIFT27, _SHIFT31 = np.uint64(30), np.uint64(27), np.uint64(31)

# sequence numbers a vehicle's row of counters grows by: 256 covers a 20 s
# run at 10 Hz in one pass
_ROW_CHUNK = 256


def _splitmix_u64(x: np.ndarray) -> np.ndarray:
    """splitmix64 of each element of a uint64 array."""
    z = x + _GAMMA
    z ^= z >> _SHIFT30
    z *= _MIX1
    z ^= z >> _SHIFT27
    z *= _MIX2
    z ^= z >> _SHIFT31
    return z


class KeyedBackoffRng:
    """Backoff counter source: splitmix64 keyed by (run seed, vehicle, seq).

    The draw is a pure function of the packet identity, so logs reproduce
    across runs, platforms, and builds, and the same counters can be handed
    to an independent replay. The modulo fold over the contention window is
    exactly uniform whenever the window size is a power of two (the default
    [0, 15] window) and carries a < 2**-57 bias otherwise.

    A vehicle's first draw works out its counters for a chunk of sequence
    numbers in one uint64 array pass; a later ``seq`` past the row grows it
    to the end of that seq's chunk. Every other draw is a lookup, and the
    order of draws changes no counter.
    """

    def __init__(self, seed: int, cw_min: int, cw_max: int):
        self.seed = seed & _M64
        self.cw_min = cw_min
        self.cw_max = cw_max
        self._seed_hash = int(_splitmix_u64(np.array([self.seed], dtype=np.uint64))[0])
        span = cw_max - cw_min + 1
        # a window of 2**64 slots or more folds nothing
        self._span = np.uint64(span) if span <= _M64 else None
        self._rows: dict[int, list[int]] = {}

    def draw(self, packet: Packet) -> int:
        seq = packet.seq
        row = self._rows.get(packet.vehicle_id)
        if row is None or seq >= len(row):
            row = self._grow(packet.vehicle_id, seq)
        return self.cw_min + row[seq]

    def _grow(self, vehicle_id: int, seq: int) -> list[int]:
        """The vehicle's row, extended to the end of the chunk holding ``seq``."""
        row = self._rows.setdefault(vehicle_id, [])
        key = _splitmix_u64(np.array([self._seed_hash ^ (vehicle_id & _M64)],
                                     dtype=np.uint64))
        seqs = np.arange(len(row), (seq // _ROW_CHUNK + 1) * _ROW_CHUNK,
                         dtype=np.uint64)
        h = _splitmix_u64(key ^ seqs)
        if self._span is not None:
            h %= self._span
        row.extend(h.tolist())
        return row


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
    next_pkt.sched_time_s = (current_end_s + params.aifs_s
                             + next_pkt.backoff_counter * params.slot_time_s)
    next_pkt.backoff_counter = 0
    return next_pkt


def reschedule_after_aifs(next_pkt: Packet, current_end_s: float,
                          params: MacParams) -> Packet:
    """Push a packet out of the post-transmission idle gap."""
    next_pkt.sched_time_s = current_end_s + params.aifs_s
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
    """Generator core shared by the batch and real-time runners.

    The packet counters live in locals and reach ``stats`` once the queue is
    drained or the horizon is reached. Timings whose slot vanishes when added
    to the horizon are refused before anything is queued: every instant a
    transmission can start lies below the horizon, so an arbitration gap of
    two such slots would round away there and let transmissions run back to
    back.
    """
    duration = scenario.duration_s
    if duration + params.slot_time_s == duration:
        raise ValidationError(f"slot_time_s {params.slot_time_s!r} vanishes against "
                              f"the {duration!r} s run horizon")
    heap = init_queue(scenario, params, hv_transmits=hv_transmits)
    # looked up per run, not per import, so a stand-in module installed
    # before the run sees every push and pop
    heappush, heappop = heapq.heappush, heapq.heappop
    rng = KeyedBackoffRng(scenario.seed, params.cw_min, params.cw_max)
    hv_trace = scenario.hv_trace
    traces = scenario.traces_by_id
    positions = scenario.beacon_positions
    tx = params.tx_interval_s
    aifs = params.aifs_s
    tx_aifs = tx + aifs
    fixed_pd = params.pd_s if params.pd_mode is PdMode.FIXED else None
    hidden_at = chan.hidden_predicate(radio, model)
    decoded_outcome, collided_outcome = Outcome.DECODED, Outcome.COLLIDED
    generated = len(heap)
    expired = decoded = collided = below = n_events = queued = 0
    last_start = -math.inf
    # heads deferred to exactly the first idle instant after a transmission,
    # as (vehicle_id, seq, packet): one pending packet per vehicle, so
    # sorting never compares two packets
    pile: list = []

    # a head keyed at the instant a transmission starts collides whatever the
    # band rule would weigh: hidden or not, its offset 0 is within pd and tx
    while heap or pile:
        if pile:
            # no heap entry precedes the pile: the band scan pops each head with
            # diff <= tx_aifs, and pred(boundary) - start rounds to <= tx + aifs
            start = boundary
            while heap and heap[0][0] == start:
                pile.append(heappop(heap)[1:])
            # heap order: the lowest (vehicle_id, seq) transmits
            pile.sort()
            current = pile[0][2]
            overlap: list[Packet] = [entry[2] for entry in pile[1:]]
            pile.clear()
        else:
            current = heappop(heap)[3]
            start = current.sched_time_s
            overlap = []
            while heap and heap[0][0] == start:
                overlap.append(heappop(heap)[3])
        if start < last_start:
            raise SchedulingError("popped packet travels back in time")
        last_start = start
        if start >= duration:
            queued = 1 + len(overlap) + len(heap)
            break

        end = start + tx
        boundary = end + aifs
        cx, cy = current.tx_position

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
            heappop(heap)
            if state is _COLLISION_PD or state is _COLLISION_HIDDEN:
                overlap.append(head)
                continue
            if state is _BACKOFF:
                apply_backoff(head, rng, params, end)
            else:
                reschedule_after_aifs(head, end, params)
            sched = head.sched_time_s
            if sched >= duration:
                # its vehicle's later beacons expire with it (see RunStats)
                unqueued = len(positions[head.vehicle_id]) - head.seq - 1
                generated += unqueued
                expired += 1 + unqueued
            elif sched == boundary:
                pile.append((head.vehicle_id, head.seq, head))
            else:
                heappush(heap, (sched, head.vehicle_id, head.seq, head))

        event = resolve_transmission(current, overlap, model, radio,
                                     position_at(hv_trace, start))
        n_events += 1
        outcome = event.outcome
        if outcome is decoded_outcome:
            decoded += 1
            collided += len(overlap)
        elif outcome is collided_outcome:
            collided += 1 + len(overlap)
        else:
            below += 1

        # each sender's next beacon
        for parent in (current, *overlap):
            vid = parent.vehicle_id
            seq = parent.seq + 1
            gen = traces[vid].beacon_time(seq)
            if gen >= duration:
                continue
            # a vehicle contends for one packet at a time: the follow-up may
            # not hit the air before the previous one has left it plus the
            # idle gap
            floor = parent.sched_time_s + tx + aifs
            sched = gen if gen > floor else floor
            vehicle_positions = positions[vid]
            if sched >= duration:
                # this beacon and its vehicle's later ones expire (see RunStats)
                unqueued = len(vehicle_positions) - seq
                generated += unqueued
                expired += unqueued
                continue
            generated += 1
            heappush(heap, (sched, vid, seq,
                            Packet(vid, seq, gen, sched, tx, vehicle_positions[seq])))
        yield event

    stats.packets_generated = generated
    stats.packets_expired = expired
    stats.packets_decoded = decoded
    stats.packets_collided = collided
    stats.packets_below_sensitivity = below
    stats.packets_queued_at_end = queued
    stats.events = n_events


@contextmanager
def collection_paused():
    """Hold off automatic cyclic garbage collection for a run, then promote
    what it left to the oldest generation.

    A run builds a large, growing graph of packets and events with no
    reference cycles, so the collector's automatic passes re-walk it and
    free nothing; in a paced run one such pause can also exceed the lag
    budget. On the way out ``gc.freeze(); gc.unfreeze()`` moves every
    tracked object into the oldest generation in O(1), without walking any
    of them, so the caller's next allocations do not set off young passes
    over the run's objects either. Cycles the caller creates inside the
    window are therefore freed at a later full pass, not on leaving it.

    The promotion is skipped when the caller holds frozen objects on entry,
    which unfreezing would release. Nothing changes if collection was
    already off on entry.
    """
    was_enabled = gc.isenabled()
    promote = gc.get_freeze_count() == 0
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            if promote:
                gc.freeze()
                gc.unfreeze()
            gc.enable()


def run(scenario: Scenario, model: PathLossModel, radio: RadioConfig,
        params: MacParams, hv_transmits: bool = True) -> tuple[list[TxEvent], RunStats]:
    """Execute the scenario offline; returns the time-ordered event log and stats."""
    stats = RunStats(sim_duration_s=scenario.duration_s)
    with collection_paused():
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
