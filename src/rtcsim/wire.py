"""UDP emission boundary: the stand-in for a DSRC modem feeding a device under test.

Each decoded event becomes one fixed-layout little-endian datagram:

    u32 magic 0x42534D31, u32 vehicle_id, u32 seq,
    f64 gen_time_s, f64 x_m, f64 y_m,
    f32 speed_mps, f32 heading_rad, f32 rss_dbm

48 bytes total, trivially parseable by test harnesses.
"""

from __future__ import annotations

import socket
import struct
from dataclasses import dataclass

from . import channel as chan
from .channel import PathLossModel, RadioConfig
from .errors import ValidationError
from .mac import TxEvent
from .scenario import Scenario, position_at, speed_heading_at

BSM_MAGIC = 0x42534D31
_BSM_STRUCT = struct.Struct("<IIIdddfff")
BSM_DATAGRAM_SIZE = _BSM_STRUCT.size  # 48


@dataclass(frozen=True)
class BsmRecord:
    vehicle_id: int
    seq: int
    gen_time_s: float
    x_m: float
    y_m: float
    speed_mps: float
    heading_rad: float
    rss_dbm: float


def pack_bsm(record: BsmRecord) -> bytes:
    return _BSM_STRUCT.pack(BSM_MAGIC, record.vehicle_id, record.seq,
                            record.gen_time_s, record.x_m, record.y_m,
                            record.speed_mps, record.heading_rad,
                            record.rss_dbm)


def unpack_bsm(data: bytes) -> BsmRecord:
    if len(data) != BSM_DATAGRAM_SIZE:
        raise ValidationError(
            f"datagram must be {BSM_DATAGRAM_SIZE} bytes, got {len(data)}")
    magic, vid, seq, gen, x, y, speed, heading, rss = _BSM_STRUCT.unpack(data)
    if magic != BSM_MAGIC:
        raise ValidationError(f"bad datagram magic 0x{magic:08X}")
    return BsmRecord(vid, seq, gen, x, y, speed, heading, rss)


def event_to_record(event: TxEvent, scenario: Scenario, model: PathLossModel,
                    radio: RadioConfig) -> BsmRecord:
    """Materialize the decoded winner of an event as an over-the-wire record."""
    winner = event.winner
    if winner is None:
        raise ValidationError("only decoded events can be emitted")
    speed, heading = speed_heading_at(scenario.traces_by_id[winner.vehicle_id],
                                      winner.gen_time_s)
    hv_pos = position_at(scenario.hv_trace, event.start_s)
    rss = chan.rss_dbm(radio, model,
                       chan.distance_m(winner.tx_position, hv_pos))
    return BsmRecord(
        vehicle_id=winner.vehicle_id,
        seq=winner.seq,
        gen_time_s=winner.gen_time_s,
        x_m=winner.tx_position[0],
        y_m=winner.tx_position[1],
        speed_mps=speed,
        heading_rad=heading,
        rss_dbm=rss,
    )


class UdpSink:
    """Delivery sink sending one datagram per decoded event."""

    def __init__(self, scenario: Scenario, model: PathLossModel,
                 radio: RadioConfig, host: str, port: int):
        self.scenario = scenario
        self.model = model
        self.radio = radio
        self.address = (host, port)
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)

    def __call__(self, event: TxEvent) -> None:
        record = event_to_record(event, self.scenario, self.model, self.radio)
        self._sock.sendto(pack_bsm(record), self.address)

    def close(self) -> None:
        self._sock.close()


class NullSink:
    """Sink that drops every delivery; real-time pacing still applies."""

    def __call__(self, event: TxEvent) -> None:
        pass

    def close(self) -> None:
        pass
