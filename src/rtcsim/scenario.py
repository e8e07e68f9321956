"""Vehicle mobility scenarios: synthetic topologies, trace files, schedules.

A scenario is one host vehicle (HV) plus any number of emulated remote
vehicles (RVs), each described by a time-stamped waypoint trace and a
periodic packet generation schedule. Three synthetic topologies are
generated directly (disk, linear road, crossing roads); externally produced
logs enter through the same CSV trace format.
"""

from __future__ import annotations

import json
import math
import os
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .errors import TraceParseError, ValidationError

TWO_PI = 2.0 * math.pi

# Generated traces are sampled at the beacon cadence; position queries
# between samples interpolate linearly.
WAYPOINT_PERIOD_S = 0.1

# Safety-beacon rate of every vehicle unless a scenario sets its own.
DEFAULT_TX_RATE_HZ = 10.0

TRACE_HEADER = "time_s,vehicle_id,x_m,y_m,speed_mps,heading_rad"
MANIFEST_NAME = "scenario.json"


class Topology(Enum):
    DISK = "disk"
    LINEAR = "linear"
    INTERSECTION = "intersection"


@dataclass(frozen=True)
class TopologySpec:
    """Geometry and population of a synthetic scenario.

    ``vehicle_count`` includes the HV, so the emulated RV count is
    ``vehicle_count - 1``. For the intersection, ``arm_length_m`` is the
    center-to-end length of each of the four arms (two crossing roads of
    ``2 * arm_length_m`` total length each).
    """

    kind: Topology
    vehicle_count: int
    radius_m: float = 0.0
    length_m: float = 0.0
    arm_length_m: float = 0.0
    hv_position: Optional[tuple[float, float]] = None  # None = geometry center

    def __post_init__(self):
        if self.vehicle_count < 1:
            raise ValidationError("vehicle_count must be >= 1 (the HV)")
        if self.kind is Topology.DISK and self.radius_m <= 0:
            raise ValidationError("disk topology needs radius_m > 0")
        if self.kind is Topology.LINEAR and self.length_m <= 0:
            raise ValidationError("linear topology needs length_m > 0")
        if self.kind is Topology.INTERSECTION and self.arm_length_m <= 0:
            raise ValidationError("intersection topology needs arm_length_m > 0")


@dataclass(frozen=True)
class Waypoint:
    time_s: float
    x_m: float
    y_m: float
    speed_mps: float
    heading_rad: float

    def __post_init__(self):
        if self.time_s < 0:
            raise ValidationError("waypoint time must be >= 0")
        if self.speed_mps < 0:
            raise ValidationError("waypoint speed must be >= 0")
        if not 0.0 <= self.heading_rad < TWO_PI:
            raise ValidationError("heading must lie in [0, 2*pi)")


@dataclass(frozen=True)
class MobilityTrace:
    """One vehicle's path plus its beacon generation parameters."""

    vehicle_id: int
    waypoints: tuple[Waypoint, ...]
    tx_rate_hz: float = DEFAULT_TX_RATE_HZ
    gen_phase_s: float = 0.0

    def __post_init__(self):
        if self.vehicle_id < 0:
            raise ValidationError("vehicle_id must be non-negative")
        if not self.waypoints:
            raise ValidationError("trace needs at least one waypoint")
        for a, b in zip(self.waypoints, self.waypoints[1:]):
            if b.time_s <= a.time_s:
                raise ValidationError(
                    f"vehicle {self.vehicle_id}: waypoint times must be "
                    f"strictly increasing (t={b.time_s})")
        if self.tx_rate_hz <= 0:
            raise ValidationError("tx_rate_hz must be positive")
        if not 0.0 <= self.gen_phase_s < 1.0 / self.tx_rate_hz:
            raise ValidationError("gen_phase_s must lie in [0, 1/tx_rate_hz)")

    @cached_property
    def _times(self) -> list[float]:
        return [w.time_s for w in self.waypoints]

    def beacon_time(self, seq: int) -> float:
        """Generation instant of beacon ``seq``: ``phase + seq/rate``, never accumulated."""
        return self.gen_phase_s + seq * (1.0 / self.tx_rate_hz)

    @cached_property
    def fixed_position(self) -> Optional[tuple[float, float]]:
        """The one position of a trace that never moves, else None.

        ``position_at`` returns it as is; the beacon table may differ from it
        in the sign of a zero, which gives the same distance to any point.
        """
        x, y = self.waypoints[0].x_m, self.waypoints[0].y_m
        if all(w.x_m == x and w.y_m == y for w in self.waypoints):
            return (x, y)
        return None


@dataclass(frozen=True)
class Scenario:
    hv_trace: MobilityTrace
    rv_traces: tuple[MobilityTrace, ...]
    duration_s: float
    seed: int

    def __post_init__(self):
        if not (math.isfinite(self.duration_s) and self.duration_s > 0):
            raise ValidationError(f"duration_s must be finite and positive, "
                                  f"got {self.duration_s!r}")
        # the backoff hash keys on 64 bits; a wider seed would alias another
        if not 0 <= self.seed < 1 << 64:
            raise ValidationError(f"seed must lie in [0, 2**64), got {self.seed}")
        ids = [self.hv_trace.vehicle_id] + [t.vehicle_id for t in self.rv_traces]
        if len(set(ids)) != len(ids):
            raise ValidationError("vehicle ids must be unique within a scenario")

    @property
    def vehicle_count(self) -> int:
        return 1 + len(self.rv_traces)

    def all_traces(self) -> tuple[MobilityTrace, ...]:
        return (self.hv_trace,) + self.rv_traces

    @cached_property
    def traces_by_id(self) -> dict[int, MobilityTrace]:
        return {t.vehicle_id: t for t in self.all_traces()}

    @cached_property
    def beacon_positions(self) -> dict[int, list[tuple[float, float]]]:
        """Each vehicle's position at each of its beacon generation instants.

        Entry ``k`` of a vehicle's list equals ``position_at`` at the
        ``k``-th time of its ``generation_schedule``; the times ascend, so
        one forward walk over the waypoints serves them all. Built on first
        use, which the runners make part of the run rather than of scenario
        set-up.
        """
        return {t.vehicle_id: _walk_positions(t, generation_schedule(t, self.duration_s))
                for t in self.all_traces()}


def _between(a: Waypoint, b: Waypoint, t: float) -> tuple[float, float]:
    """Position at ``t`` on the straight leg from waypoint ``a`` to ``b``."""
    f = (t - a.time_s) / (b.time_s - a.time_s)
    return (a.x_m + f * (b.x_m - a.x_m), a.y_m + f * (b.y_m - a.y_m))


def position_at(trace: MobilityTrace, t: float) -> tuple[float, float]:
    """Linearly interpolated position, clamped outside the covered interval.

    A parked trace answers with its ``fixed_position``.
    """
    fixed = trace.fixed_position
    if fixed is not None:
        return fixed
    wps = trace.waypoints
    if t <= wps[0].time_s:
        return (wps[0].x_m, wps[0].y_m)
    if t >= wps[-1].time_s:
        return (wps[-1].x_m, wps[-1].y_m)
    i = bisect_right(trace._times, t)
    return _between(wps[i - 1], wps[i], t)


def _walk_positions(trace: MobilityTrace, times: list[float]) -> list[tuple[float, float]]:
    """``position_at`` at each of ascending ``times``, in one pass over the waypoints."""
    wps = trace.waypoints
    first, last = wps[0], wps[-1]
    out = []
    i = 1
    for t in times:
        if t <= first.time_s:
            out.append((first.x_m, first.y_m))
        elif t >= last.time_s:
            out.append((last.x_m, last.y_m))
        else:
            # the bisect_right index: first waypoint strictly after t
            while wps[i].time_s <= t:
                i += 1
            out.append(_between(wps[i - 1], wps[i], t))
    return out


def speed_heading_at(trace: MobilityTrace, t: float) -> tuple[float, float]:
    """Interpolated speed and the heading held from the earlier waypoint."""
    wps = trace.waypoints
    i = bisect_right(trace._times, t)
    a = wps[max(i - 1, 0)]
    if t <= wps[0].time_s or i == len(wps):
        return a.speed_mps, a.heading_rad
    b = wps[i]
    f = (t - a.time_s) / (b.time_s - a.time_s)
    return a.speed_mps + f * (b.speed_mps - a.speed_mps), a.heading_rad


def generation_schedule(trace: MobilityTrace, duration_s: float) -> list[float]:
    """Beacon generation timestamps ``trace.beacon_time(k)`` within [0, duration)."""
    out = []
    t = trace.beacon_time(0)
    while t < duration_s:
        out.append(t)
        t = trace.beacon_time(len(out))
    return out


def _sample_times(duration_s: float) -> list[float]:
    n = int(math.ceil(duration_s / WAYPOINT_PERIOD_S - 1e-9))
    times = [k * WAYPOINT_PERIOD_S for k in range(n + 1)]
    if times[-1] < duration_s:
        times.append(duration_s)
    return times


def _disk_waypoints(rng, radius_m, speed_mps, duration_s) -> list[Waypoint]:
    # uniform over the disk area, then constant-speed circular motion about
    # the center; the 1 m clamp keeps the angular rate finite near the middle
    r = radius_m * math.sqrt(rng.uniform(0.0, 1.0))
    theta0 = rng.uniform(0.0, TWO_PI)
    omega = speed_mps / max(r, 1.0)
    wps = []
    for t in _sample_times(duration_s):
        theta = theta0 + omega * t
        heading = (theta + 0.5 * math.pi) % TWO_PI
        wps.append(Waypoint(t, r * math.cos(theta), r * math.sin(theta),
                            omega * r, heading))
    return wps


def _segment_position(s0: float, direction: int, speed: float, t: float,
                      lo: float, hi: float) -> tuple[float, float]:
    """1-D position and travel sign on [lo, hi] with elastic end reflection."""
    span = hi - lo
    if span <= 0 or speed == 0.0:
        return s0, float(direction)
    u = (s0 - lo) + direction * speed * t
    m = u % (2.0 * span)
    if m <= span:
        return lo + m, 1.0
    return lo + 2.0 * span - m, -1.0


def _road_waypoints(rng, lo, hi, axis, speed_mps, duration_s) -> list[Waypoint]:
    # axis 0: road along x at y=0; axis 1: road along y at x=0
    s0 = rng.uniform(lo, hi)
    direction = 1 if rng.integers(0, 2) == 1 else -1
    wps = []
    for t in _sample_times(duration_s):
        s, sign = _segment_position(s0, direction, speed_mps, t, lo, hi)
        travel = direction * sign
        if axis == 0:
            pos = (s, 0.0)
            heading = 0.0 if travel >= 0 else math.pi
        else:
            pos = (0.0, s)
            heading = 0.5 * math.pi if travel >= 0 else 1.5 * math.pi
        wps.append(Waypoint(t, pos[0], pos[1], speed_mps, heading))
    return wps


def generate_topology(spec: TopologySpec, speed_mps: float, duration_s: float,
                      seed: int, tx_rate_hz: float = DEFAULT_TX_RATE_HZ) -> Scenario:
    """Place RVs uniformly on the geometry and move them at constant speed.

    Deterministic for a fixed seed: per-vehicle draws happen in vehicle-id
    order (placement first, then the generation phase). The HV sits at the
    geometry center unless ``spec`` pins an explicit position.
    """
    if speed_mps < 0:
        raise ValidationError("speed_mps must be >= 0")
    if duration_s <= 0:
        raise ValidationError("duration_s must be positive")
    if tx_rate_hz <= 0:
        raise ValidationError("tx_rate_hz must be positive")
    if seed < 0:
        raise ValidationError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    period = 1.0 / tx_rate_hz

    hv_pos = spec.hv_position if spec.hv_position is not None else (0.0, 0.0)
    hv_phase = rng.uniform(0.0, period)
    hv = MobilityTrace(0, tuple(Waypoint(t, hv_pos[0], hv_pos[1], 0.0, 0.0)
                                for t in _sample_times(duration_s)), tx_rate_hz, hv_phase)

    rvs = []
    for vid in range(1, spec.vehicle_count):
        if spec.kind is Topology.DISK:
            wps = _disk_waypoints(rng, spec.radius_m, speed_mps, duration_s)
        elif spec.kind is Topology.LINEAR:
            half = spec.length_m / 2.0
            wps = _road_waypoints(rng, -half, half, 0, speed_mps, duration_s)
        else:
            axis = int(rng.integers(0, 2))
            a = spec.arm_length_m
            wps = _road_waypoints(rng, -a, a, axis, speed_mps, duration_s)
        phase = rng.uniform(0.0, period)
        rvs.append(MobilityTrace(vid, tuple(wps), tx_rate_hz, phase))
    return Scenario(hv_trace=hv, rv_traces=tuple(rvs), duration_s=duration_s,
                    seed=seed)


EARTH_RADIUS_M = 6_371_000.0


def project_geodetic(lat_deg: float, lon_deg: float, ref_lat_deg: float,
                     ref_lon_deg: float) -> tuple[float, float]:
    """Local equirectangular projection onto the planar frame.

    Converters feeding geodetic logs into the trace format should anchor the
    reference at the HV's first fix; the flat-earth error stays negligible
    within the few-kilometer scenario scales handled here.
    """
    x = (EARTH_RADIUS_M * math.radians(lon_deg - ref_lon_deg)
         * math.cos(math.radians(ref_lat_deg)))
    y = EARTH_RADIUS_M * math.radians(lat_deg - ref_lat_deg)
    return (x, y)


# ---------------------------------------------------------------------------
# trace file format: one UTF-8 CSV per vehicle, header line TRACE_HEADER,
# `.` decimal separator, LF line endings


def _parse_row(parts: list[str], lineno: int, path: str | None):
    if len(parts) != 6:
        raise TraceParseError(f"expected 6 fields, got {len(parts)}", lineno, path)
    try:
        t = float(parts[0])
        vid = int(parts[1])
        x = float(parts[2])
        y = float(parts[3])
        speed = float(parts[4])
        heading = float(parts[5])
    except ValueError as exc:
        raise TraceParseError(f"unparsable field ({exc})", lineno, path) from None
    for name, value in (("time_s", t), ("x_m", x), ("y_m", y),
                        ("speed_mps", speed), ("heading_rad", heading)):
        if not math.isfinite(value):
            raise TraceParseError(f"non-finite {name} value", lineno, path)
    if t < 0:
        raise TraceParseError("time_s must be >= 0", lineno, path)
    if vid < 0:
        raise TraceParseError("vehicle_id must be >= 0", lineno, path)
    if speed < 0:
        raise TraceParseError("speed_mps must be >= 0", lineno, path)
    if not 0.0 <= heading < TWO_PI:
        raise TraceParseError("heading_rad must lie in [0, 2*pi)", lineno, path)
    return vid, Waypoint(t, x, y, speed, heading)


def parse_trace_file(source) -> list[MobilityTrace]:
    """Read waypoint rows into per-vehicle traces.

    ``source`` may be a path or an open text stream. The header line is
    optional; line numbers in errors are 1-based physical lines. Generation
    parameters are not part of the row format, so every trace carries the
    MobilityTrace defaults (the scenario manifest holds the real values).
    """
    path = None
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        path = str(source)
        lines = Path(source).read_text(encoding="utf-8").splitlines()

    per_vehicle: dict[int, list[Waypoint]] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if lineno == 1 and line.lower().startswith("time_s"):
            continue
        vid, wp = _parse_row(line.split(","), lineno, path)
        per_vehicle.setdefault(vid, []).append(wp)

    traces = []
    for vid in sorted(per_vehicle):
        wps = sorted(per_vehicle[vid], key=lambda w: w.time_s)
        for a, b in zip(wps, wps[1:]):
            if b.time_s == a.time_s:
                raise ValidationError(
                    f"duplicate waypoint time {a.time_s} for vehicle {vid}")
        traces.append(MobilityTrace(vid, tuple(wps)))
    return traces


def trace_file_name(vehicle_id: int) -> str:
    return f"vehicle_{vehicle_id}.csv"


def write_lines(path, header: str, rows: Iterable[str]) -> None:
    """Write a header and rows as UTF-8 text, one LF-terminated line each."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([header, *rows]) + "\n")


def write_trace_file(trace: MobilityTrace, path) -> None:
    rows = (f"{w.time_s!r},{trace.vehicle_id},{w.x_m!r},{w.y_m!r},"
            f"{w.speed_mps!r},{w.heading_rad!r}" for w in trace.waypoints)
    try:
        write_lines(path, TRACE_HEADER, rows)
    except OSError as exc:
        raise ValidationError(f"cannot write trace file {path}: {exc}") from exc


def write_trace_files(scenario: Scenario, directory) -> list[Path]:
    """One CSV per vehicle, named by vehicle id. Round-trips bit-for-bit."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for trace in scenario.all_traces():
        p = directory / trace_file_name(trace.vehicle_id)
        write_trace_file(trace, p)
        paths.append(p)
    return paths


def save_scenario(scenario: Scenario, directory) -> Path:
    """Write per-vehicle trace files plus the JSON manifest; returns the manifest path."""
    directory = Path(directory)
    write_trace_files(scenario, directory)
    manifest = {
        "hv_id": scenario.hv_trace.vehicle_id,
        "duration_s": scenario.duration_s,
        "seed": scenario.seed,
        "tx_rate_hz": scenario.hv_trace.tx_rate_hz,
        "vehicles": [
            {
                "id": t.vehicle_id,
                "file": trace_file_name(t.vehicle_id),
                "tx_rate_hz": t.tx_rate_hz,
                "gen_phase_s": t.gen_phase_s,
            }
            for t in scenario.all_traces()
        ],
    }
    path = directory / MANIFEST_NAME
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def _manifest_value(value, kind: type, what: str):
    """A manifest entry of JSON type ``kind``; a float entry also takes an
    integer, and JSON ``true``/``false`` is never a number."""
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise TypeError(f"{what} must be {kind.__name__}, got {value!r}")
    return kind(value)


def _manifest_file(value) -> str:
    """A manifest's vehicle file name, normalized. It must stay inside the
    manifest's directory: no absolute path, no ``..`` climbing out of it.
    The check is lexical, and reading the normalized name opens the file it
    judged."""
    name = _manifest_value(value, str, "vehicle file")
    normal = os.path.normpath(name)
    if "\0" in name or os.path.isabs(normal) or Path(normal).parts[:1] == (os.pardir,):
        raise ValidationError(f"vehicle file {name!r} lies outside the scenario directory")
    return normal


def load_scenario(source) -> Scenario:
    """Rebuild a scenario from a manifest path or its directory."""
    path = Path(source)
    if path.is_dir():
        path = path / MANIFEST_NAME
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot load scenario manifest {path}: {exc}") from exc

    try:
        hv_id = _manifest_value(manifest["hv_id"], int, "hv_id")
        duration_s = _manifest_value(manifest["duration_s"], float, "duration_s")
        seed = _manifest_value(manifest["seed"], int, "seed")
        rate = _manifest_value(manifest["tx_rate_hz"], float, "tx_rate_hz")
        entries = [(_manifest_value(entry["id"], int, "vehicle id"),
                    _manifest_file(entry["file"]),
                    _manifest_value(entry.get("tx_rate_hz", rate), float, "tx_rate_hz"),
                    _manifest_value(entry.get("gen_phase_s", 0.0), float, "gen_phase_s"))
                   for entry in manifest["vehicles"]]
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValidationError(f"malformed scenario manifest {path} "
                              f"({type(exc).__name__}: {exc})") from None
    traces: dict[int, MobilityTrace] = {}
    for vid, name, rate, phase in entries:
        match = [t for t in parse_trace_file(path.parent / name) if t.vehicle_id == vid]
        if len(match) != 1:
            raise ValidationError(
                f"trace file {name} does not contain exactly vehicle {vid}")
        traces[vid] = MobilityTrace(match[0].vehicle_id, match[0].waypoints, rate, phase)
    if hv_id not in traces:
        raise ValidationError("manifest hv_id has no trace")
    rvs = tuple(traces[vid] for vid in sorted(traces) if vid != hv_id)
    return Scenario(hv_trace=traces[hv_id], rv_traces=rvs,
                    duration_s=duration_s, seed=seed)
