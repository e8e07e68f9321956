"""Brute-force time-stepped replay used to validate the event-driven scheduler.

Instead of absorbing queue heads around a transmission, this walks the clock
in fixed ticks: whenever a pending packet's scheduled instant is reached it
senses the channel and either transmits, joins an ongoing transmission as a
collider (inside the propagation delay, or hidden from the sender), or
defers by the same backoff / idle-gap rules the scheduler applies.

Sensing follows the scheduler's channel abstraction: only the packet that
opened a transmission occupies the channel for sensing purposes; colliders
are recorded inside that transmission's event and do not defer later
packets. Ticks with no scheduled instant are skipped in one jump, which is
behavior-preserving because nothing can change state between two scheduled
instants. Intended for small instances only: the cost is
O(horizon / tick * n) in the worst case.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Optional

from . import channel as chan
from .channel import PathLossModel, RadioConfig
from .errors import ValidationError
from .mac import (KeyedBackoffRng, MacParams, Packet, TxEvent,
                  resolve_transmission)

MAX_PACKETS = 8
MAX_STEPS = 1_000_000


@dataclass
class _OpenTransmission:
    owner: Packet
    start_s: float
    end_s: float
    colliders: list[Packet] = field(default_factory=list)


def oracle_replay(packets: list[Packet], model: PathLossModel,
                  radio: RadioConfig, params: MacParams,
                  tick_s: float = 1e-6,
                  hv_position: tuple[float, float] = (0.0, 0.0),
                  rng: Optional[KeyedBackoffRng] = None) -> list[TxEvent]:
    """Replay a fixed packet set tick by tick; returns the event log.

    Packets are not regenerated: each input packet transmits exactly once.
    Backoff counters come from ``rng`` (same keyed generator the scheduler
    uses) so a run with the same seed draws identical values.
    """
    if len(packets) > MAX_PACKETS:
        raise ValidationError(
            f"oracle handles at most {MAX_PACKETS} packets, got {len(packets)}")
    if tick_s > 1e-6:
        raise ValidationError("oracle tick must be <= 1 microsecond")
    if rng is None:
        rng = KeyedBackoffRng(0, params.cw_min, params.cw_max)

    tx = params.tx_interval_s
    pending = [(p.sched_time_s, p.vehicle_id, p.seq, p) for p in packets]
    heapq.heapify(pending)
    open_txs: list[_OpenTransmission] = []
    last: Optional[_OpenTransmission] = None

    steps = 0
    tick_index = 0
    while pending:
        steps += 1
        if steps > MAX_STEPS:
            raise ValidationError("oracle did not converge (too many steps)")
        due = pending[0][0]
        # advance the tick clock to the first tick at or past the next
        # scheduled instant; everything in between is provably idle
        next_index = int(due / tick_s)
        if next_index * tick_s < due - 1e-15:
            next_index += 1
        tick_index = max(tick_index, next_index)

        _, _, _, pkt = heapq.heappop(pending)
        s = pkt.sched_time_s

        if last is not None:
            diff = s - last.start_s
            gap_end = last.end_s + params.aifs_s
            if diff <= tx:
                # sender still on air at this instant
                hidden = chan.is_hidden(radio, model, last.owner.tx_position,
                                        pkt.tx_position)
                if hidden or diff <= params.pd_for(last.owner, pkt):
                    last.colliders.append(pkt)
                    continue
                if pkt.backoff_counter is None:
                    pkt.backoff_counter = rng.draw(pkt)
                pkt.sched_time_s = (last.end_s + params.aifs_s
                                    + pkt.backoff_counter * params.slot_time_s)
                pkt.backoff_counter = 0
                heapq.heappush(pending,
                               (pkt.sched_time_s, pkt.vehicle_id, pkt.seq, pkt))
                continue
            if s < gap_end:
                # idle gap after the last transmission must stay idle;
                # exactly at its end the channel is free again
                pkt.sched_time_s = gap_end
                heapq.heappush(pending,
                               (pkt.sched_time_s, pkt.vehicle_id, pkt.seq, pkt))
                continue

        opened = _OpenTransmission(owner=pkt, start_s=s, end_s=s + tx)
        open_txs.append(opened)
        last = opened

    events = []
    for ot in open_txs:
        events.append(resolve_transmission(ot.owner, ot.colliders, model,
                                           radio, hv_position))
    events.sort(key=lambda ev: (ev.start_s, ev.transmitter_id))
    return events
