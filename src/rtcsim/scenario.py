"""Vehicle mobility scenarios: synthetic topologies, trace files, schedules.

A scenario is one host vehicle (HV) plus any number of emulated remote
vehicles (RVs), each described by a time-stamped mobility trace and a
periodic packet generation schedule. Three synthetic topologies are
generated directly (disk, linear road, crossing roads); externally produced
logs enter through the same CSV trace format.
"""

from __future__ import annotations

import json
import math
import os
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .errors import TraceParseError, ValidationError

TWO_PI = 2.0 * math.pi
_INF = math.inf

# Generated traces are sampled at the beacon cadence; position queries
# between samples interpolate linearly.
SAMPLE_PERIOD_S = 0.1

# Safety-beacon rate of every vehicle unless a scenario sets its own.
DEFAULT_TX_RATE_HZ = 10.0

# Most beacons a run may generate (duration x the vehicles' summed rates; a
# scenario still to be generated adds 1 / SAMPLE_PERIOD_S samples per
# vehicle-second). At ~220 bytes each, measured on a 1000-vehicle disk run,
# the limit holds a generated run under 1.2 GB (a loaded scenario counts only
# its beacons, ~370 bytes each there: ~1.9 GB); a larger one is refused first.
MAX_RUN_BEACONS = 5_000_000

# Largest coordinate magnitude of a trace sample: the difference of two
# coordinates then stays finite, so interpolating a leg never overflows.
MAX_COORD_M = 1e307

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
        # rng.uniform places vehicles only over a finite range, 2 * arm_length_m on a crossing
        if not all(map(math.isfinite, (self.radius_m, self.length_m, 2.0 * self.arm_length_m))):
            raise ValidationError(
                f"topology dimensions must be finite, and so must 2 * arm_length_m; got "
                f"radius_m={self.radius_m!r}, length_m={self.length_m!r}, "
                f"arm_length_m={self.arm_length_m!r}")


def _sample_ok(time_s, x_m, y_m, speed_mps, heading_rad):
    """The trace-sample rule on one row's floats or, elementwise, on float64 columns."""
    # & where `and` would refuse an array; every comparison is false for NaN
    return ((0.0 <= time_s) & (time_s < _INF) & (abs(x_m) <= MAX_COORD_M)
            & (abs(y_m) <= MAX_COORD_M) & (0.0 <= speed_mps) & (speed_mps < _INF)
            & (0.0 <= heading_rad) & (heading_rad < TWO_PI))


def check_sample(time_s: float, x_m: float, y_m: float, speed_mps: float,
                 heading_rad: float) -> None:
    """The rule every trace sample obeys, one row of a trace file."""
    if not _sample_ok(time_s, x_m, y_m, speed_mps, heading_rad):
        raise ValidationError(
            f"a trace sample needs finite time_s >= 0 and speed_mps >= 0, x_m and y_m "
            f"within +-{MAX_COORD_M:g}, and heading_rad in [0, 2*pi); "
            f"got {(time_s, x_m, y_m, speed_mps, heading_rad)}")


@dataclass(frozen=True)
class MobilityTrace:
    """One vehicle's path, one ``array('d')`` per trace-file column (the
    constructor packs any other sequence of numbers), plus its beacon generation
    parameters. Traces may share a column, so columns are never mutated."""

    vehicle_id: int
    time_s: array
    x_m: array
    y_m: array
    speed_mps: array
    heading_rad: array
    tx_rate_hz: float = DEFAULT_TX_RATE_HZ
    gen_phase_s: float = 0.0

    def __post_init__(self):
        # the wire's vehicle_id field is u32
        if not 0 <= self.vehicle_id < 1 << 32:
            raise ValidationError(f"vehicle_id must lie in [0, 2**32), got {self.vehicle_id}")
        for name in ("time_s", "x_m", "y_m", "speed_mps", "heading_rad"):
            column = getattr(self, name)
            if type(column) is not array or column.typecode != "d":
                try:
                    object.__setattr__(self, name, array("d", column))
                except (TypeError, OverflowError) as exc:
                    raise ValidationError(f"vehicle {self.vehicle_id}: {name} {exc}") from None
        times = self.time_s
        if not times:
            raise ValidationError("trace needs at least one sample")
        columns = (times, self.x_m, self.y_m, self.speed_mps, self.heading_rad)
        if any(len(column) != len(times) for column in columns):
            raise ValidationError(f"vehicle {self.vehicle_id}: trace columns differ in length")
        # one array pass per column; check_sample reports the first failing row
        values = [np.frombuffer(column) for column in columns]
        ok = _sample_ok(*values)
        if not ok.all():
            check_sample(*(column[int(ok.argmin())] for column in columns))
        t = values[0]
        later = t[1:] <= t[:-1]
        if later.any():
            raise ValidationError(
                f"vehicle {self.vehicle_id}: sample times must be "
                f"strictly increasing (t={float(t[1:][later.argmax()])})")
        if self.tx_rate_hz <= 0:
            raise ValidationError("tx_rate_hz must be positive")
        if not 0.0 <= self.gen_phase_s < 1.0 / self.tx_rate_hz:
            raise ValidationError("gen_phase_s must lie in [0, 1/tx_rate_hz)")

    def beacon_time(self, seq: int) -> float:
        """Generation instant of beacon ``seq``: ``phase + seq/rate``, never accumulated."""
        return self.gen_phase_s + seq * (1.0 / self.tx_rate_hz)

    @cached_property
    def fixed_position(self) -> Optional[tuple[float, float]]:
        """The one position of a trace that never moves, else None.

        ``position_at`` and the beacon table return it as is at every instant.
        """
        x, y = self.x_m[0], self.y_m[0]
        if all(v == x for v in self.x_m) and all(v == y for v in self.y_m):
            return (x, y)
        return None


@dataclass(frozen=True)
class Scenario:
    hv_trace: MobilityTrace
    rv_traces: tuple[MobilityTrace, ...]
    duration_s: float
    seed: int

    def __post_init__(self):
        check_run(self.duration_s, self.seed,
                  sum(t.tx_rate_hz for t in self.all_traces()))
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
        ``k``-th time of its ``generation_schedule``, signed zeros included:
        a parked vehicle's entries are its ``fixed_position``, and a moving
        one's are interpolated in one array pass over its beacon instants,
        with ``position_at``'s operations. Built on first use, which the
        runners make part of the run rather than of scenario set-up.
        """
        return {t.vehicle_id: _positions_at(t, _beacon_times(t, self.duration_s))
                for t in self.all_traces()}


def check_run(duration_s: float, seed: int, beacons_per_s: float) -> None:
    """A Scenario's duration and seed rules, and MAX_RUN_BEACONS at ``beacons_per_s``."""
    if not (math.isfinite(duration_s) and duration_s > 0):
        raise ValidationError(f"duration_s must be finite and positive, got {duration_s!r}")
    # the backoff hash keys on 64 bits; a wider seed would alias another
    if not 0 <= seed < 1 << 64:
        raise ValidationError(f"seed must lie in [0, 2**64), got {seed}")
    beacons = duration_s * beacons_per_s
    if not beacons <= MAX_RUN_BEACONS:
        raise ValidationError(f"a {duration_s!r} s run generates {beacons:.7g} beacons; "
                              f"the limit is {MAX_RUN_BEACONS}")


def position_at(trace: MobilityTrace, t: float) -> tuple[float, float]:
    """Linearly interpolated position, clamped outside the covered interval.

    A parked trace answers with its ``fixed_position``.
    """
    fixed = trace.fixed_position
    if fixed is not None:
        return fixed
    times, xs, ys = trace.time_s, trace.x_m, trace.y_m
    if t <= times[0]:
        return (xs[0], ys[0])
    if t >= times[-1]:
        return (xs[-1], ys[-1])
    # on the straight leg from sample i - 1 to sample i
    i = bisect_right(times, t)
    f = (t - times[i - 1]) / (times[i] - times[i - 1])
    return (xs[i - 1] + f * (xs[i] - xs[i - 1]), ys[i - 1] + f * (ys[i] - ys[i - 1]))


def _positions_at(trace: MobilityTrace, times: np.ndarray) -> list[tuple[float, float]]:
    """``position_at`` at each of ascending ``times``."""
    fixed = trace.fixed_position
    if fixed is not None:
        return [fixed] * len(times)
    samples = np.array(trace.time_s)
    columns = (np.array(trace.x_m), np.array(trace.y_m))
    # clamped to the first sample up to it and to the last from it on
    before = times <= samples[0]
    inner = ~before & (times < samples[-1])
    t = times[inner]
    # position_at's bisect_right index and leg, for every inner instant at once
    i = np.searchsorted(samples, t, side="right")
    f = (t - samples[i - 1]) / (samples[i] - samples[i - 1])
    out = []
    for col in columns:
        values = np.where(before, col[0], col[-1])
        values[inner] = col[i - 1] + f * (col[i] - col[i - 1])
        out.append(values.tolist())
    return list(zip(*out))


def speed_heading_at(trace: MobilityTrace, t: float) -> tuple[float, float]:
    """Interpolated speed and the heading held from the earlier sample."""
    times, speeds = trace.time_s, trace.speed_mps
    i = bisect_right(times, t)
    a = max(i - 1, 0)
    if t <= times[0] or i == len(times):
        return speeds[a], trace.heading_rad[a]
    f = (t - times[a]) / (times[i] - times[a])
    return speeds[a] + f * (speeds[i] - speeds[a]), trace.heading_rad[a]


def _beacon_times(trace: MobilityTrace, duration_s: float) -> np.ndarray:
    """``trace.beacon_time(k)`` for each beacon generated within [0, duration)."""
    # beacon_time is monotone in k: settle the count with it at the edge
    n = max(0, math.ceil((duration_s - trace.gen_phase_s) * trace.tx_rate_hz))
    while n > 0 and trace.beacon_time(n - 1) >= duration_s:
        n -= 1
    while trace.beacon_time(n) < duration_s:
        n += 1
    return trace.gen_phase_s + np.arange(n) * (1.0 / trace.tx_rate_hz)


def generation_schedule(trace: MobilityTrace, duration_s: float) -> list[float]:
    """Beacon generation timestamps ``trace.beacon_time(k)`` within [0, duration)."""
    return _beacon_times(trace, duration_s).tolist()


def _sample_grid(duration_s: float) -> array:
    n = int(math.ceil(duration_s / SAMPLE_PERIOD_S - 1e-9))
    times = array("d", [k * SAMPLE_PERIOD_S for k in range(n + 1)])
    if times[-1] < duration_s:
        times.append(duration_s)
    return times


def _packed(values: np.ndarray) -> array:
    """float64 ``values`` in an exact-size ``array('d')``; ``frombytes`` would over-allocate."""
    packed = array("d", [0.0]) * len(values)
    memoryview(packed)[:] = values
    return packed


def _disk_columns(rng, radius_m, speed_mps, times) -> tuple[array, ...]:
    """x, y, speed and heading columns at ``times``."""
    # uniform over the disk area, then constant-speed circular motion about
    # the center; the 1 m clamp keeps the angular rate finite near the middle
    r = radius_m * math.sqrt(rng.uniform(0.0, 1.0))
    theta0 = rng.uniform(0.0, TWO_PI)
    omega = speed_mps / max(r, 1.0)
    # numpy's + * % round each sample as Python's operators do; cos and sin
    # stay libm's, one call per sample
    thetas = theta0 + omega * np.frombuffer(times)
    angles, n = thetas.tolist(), len(times)
    return (_packed(r * np.fromiter(map(math.cos, angles), float, n)),
            _packed(r * np.fromiter(map(math.sin, angles), float, n)),
            array("d", [omega * r]) * n,
            _packed((thetas + 0.5 * math.pi) % TWO_PI))


def _road_columns(rng, lo, hi, axis, speed_mps, times) -> tuple[array, ...]:
    """x, y, speed and heading columns at ``times``, reflecting off both ends of [lo, hi]."""
    # axis 0: road along x at y=0; axis 1: road along y at x=0
    s0 = rng.uniform(lo, hi)
    direction = 1 if rng.integers(0, 2) == 1 else -1
    forward, backward = (0.0, math.pi) if axis == 0 else (0.5 * math.pi, 1.5 * math.pi)
    n, span = len(times), hi - lo
    if span <= 0 or speed_mps == 0.0:  # parked at s0, facing forward
        along, headings = array("d", [s0]) * n, array("d", [forward]) * n
    else:
        # travelled distance folded onto one round trip: out to span, then back;
        # a position that overflows fails the sample check, which reports it
        with np.errstate(over="ignore", invalid="ignore"):
            m = ((s0 - lo) + direction * speed_mps * np.frombuffer(times)) % (2.0 * span)
            out = m <= span
            along = _packed(np.where(out, lo + m, lo + 2.0 * span - m))
        headings = _packed(np.where(out == (direction == 1), forward, backward))
    across = array("d", [0.0]) * n
    xs, ys = (along, across) if axis == 0 else (across, along)
    return xs, ys, array("d", [speed_mps]) * n, headings


def generate_topology(spec: TopologySpec, speed_mps: float, duration_s: float,
                      seed: int, tx_rate_hz: float = DEFAULT_TX_RATE_HZ) -> Scenario:
    """Place RVs uniformly on the geometry and move them at constant speed.

    Deterministic for a fixed seed: per-vehicle draws happen in vehicle-id
    order (placement first, then the generation phase). The HV sits at the
    geometry center unless ``spec`` pins an explicit position. The scenario's
    rules, a finite travel and the speed's sign (by ``check_sample``, so a
    host-only scenario is held to it too) are checked before anything is
    allocated.
    """
    if not tx_rate_hz > 0:
        raise ValidationError("tx_rate_hz must be positive")
    check_run(duration_s, seed, spec.vehicle_count * (tx_rate_hz + 1.0 / SAMPLE_PERIOD_S))
    times = _sample_grid(duration_s)
    if not math.isfinite(speed_mps * times[-1]):
        raise ValidationError(f"speed_mps {speed_mps!r} over {times[-1]!r} s "
                              f"travels no finite distance")
    check_sample(0.0, 0.0, 0.0, speed_mps, 0.0)
    rng = np.random.default_rng(seed)
    period = 1.0 / tx_rate_hz

    hv_pos = spec.hv_position if spec.hv_position is not None else (0.0, 0.0)
    hv_phase = rng.uniform(0.0, period)
    n = len(times)
    zeros = array("d", [0.0]) * n
    hv = MobilityTrace(0, times, array("d", [hv_pos[0]]) * n, array("d", [hv_pos[1]]) * n,
                       zeros, zeros, tx_rate_hz, hv_phase)

    rvs = []
    for vid in range(1, spec.vehicle_count):
        if spec.kind is Topology.DISK:
            columns = _disk_columns(rng, spec.radius_m, speed_mps, times)
        elif spec.kind is Topology.LINEAR:
            half = spec.length_m / 2.0
            columns = _road_columns(rng, -half, half, 0, speed_mps, times)
        else:
            axis = int(rng.integers(0, 2))
            a = spec.arm_length_m
            columns = _road_columns(rng, -a, a, axis, speed_mps, times)
        phase = rng.uniform(0.0, period)
        rvs.append(MobilityTrace(vid, times, *columns, tx_rate_hz, phase))
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
    """A row's vehicle id and sample; ``check_sample`` judges the values."""
    if len(parts) != 6:
        raise TraceParseError(f"expected 6 fields, got {len(parts)}", lineno, path)
    try:
        vid = int(parts[1])
        sample = (float(parts[0]), float(parts[2]), float(parts[3]),
                  float(parts[4]), float(parts[5]))
        check_sample(*sample)
        return vid, sample
    except ValueError as exc:
        raise TraceParseError(f"unparsable field ({exc})", lineno, path) from None
    except ValidationError as exc:
        raise TraceParseError(str(exc), lineno, path) from None


def _read_columns(source) -> dict[int, tuple[array, ...]]:
    """Each vehicle's checked rows, sorted by time, as the five packed sample columns.

    ``source`` may be a path or an open text stream. The header line is
    optional; line numbers in errors are 1-based physical lines.
    """
    path = None
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        path = str(source)
        lines = Path(source).read_text(encoding="utf-8").splitlines()

    per_vehicle: dict[int, list[tuple[float, ...]]] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if lineno == 1 and line.lower().startswith("time_s"):
            continue
        vid, sample = _parse_row(line.split(","), lineno, path)
        per_vehicle.setdefault(vid, []).append(sample)
    return {vid: tuple(array("d", column) for column in
                       zip(*sorted(samples, key=itemgetter(0))))
            for vid, samples in per_vehicle.items()}


def parse_trace_file(source) -> list[MobilityTrace]:
    """Read sample rows into per-vehicle traces, in vehicle-id order.

    Generation parameters are not part of the row format, so every trace
    carries the MobilityTrace defaults (the scenario manifest holds the real
    values). MobilityTrace judges the sorted rows, so a repeated time raises
    its ValidationError.
    """
    columns = _read_columns(source)
    return [MobilityTrace(vid, *columns[vid]) for vid in sorted(columns)]


def trace_file_name(vehicle_id: int) -> str:
    return f"vehicle_{vehicle_id}.csv"


WRITE_CHUNK_ROWS = 4096  # rows per write: bounds the text a writer holds at once


def write_lines(path, header: str, rows: Iterable[str]) -> None:
    """Write a header and rows as UTF-8 text, one LF-terminated line each.

    ``rows`` is consumed once, WRITE_CHUNK_ROWS at a time.
    """
    rows = iter(rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header)
        while chunk := list(islice(rows, WRITE_CHUNK_ROWS)):
            fh.write("\n" + "\n".join(chunk))
        fh.write("\n")


def write_trace_file(trace: MobilityTrace, path) -> None:
    rows = (f"{t!r},{trace.vehicle_id},{x!r},{y!r},{speed!r},{heading!r}"
            for t, x, y, speed, heading in zip(trace.time_s, trace.x_m, trace.y_m,
                                               trace.speed_mps, trace.heading_rad))
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
        columns = _read_columns(path.parent / name)
        if vid not in columns:
            raise ValidationError(f"trace file {name} does not contain vehicle {vid}")
        traces[vid] = MobilityTrace(vid, *columns[vid], rate, phase)
    if hv_id not in traces:
        raise ValidationError("manifest hv_id has no trace")
    rvs = tuple(traces[vid] for vid in sorted(traces) if vid != hv_id)
    return Scenario(hv_trace=traces[hv_id], rv_traces=rvs,
                    duration_s=duration_s, seed=seed)
