"""Reductions from an event log to the evaluation artifacts.

Channel-busy-percent time series, packet-error-rate histogram over
transmitter-to-host distance, received-signal-strength curve, and the
per-run summary table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from . import channel as chan
from .channel import PathLossModel, RadioConfig
from .errors import ValidationError
from .mac import Outcome, RunStats, TxEvent
# position_at is unused here, but perfbench's tracer wraps metrics.position_at
from .scenario import (Scenario, _beacon_times, _positions_at, position_at,
                       write_lines)

DEFAULT_CBP_WINDOW_S = 0.1
DEFAULT_PER_BIN_M = 25.0
DEFAULT_PER_MAX_DISTANCE_M = 400.0

# Most points one CBP series, PER histogram or RSS curve may hold; a longer
# one is refused before anything is allocated for it.
MAX_SERIES_POINTS = 1_000_000


@dataclass
class CbpSeries:
    window_s: float
    samples: list[tuple[float, float]]  # (window start, busy fraction)
    average: float


@dataclass
class PerBin:
    d_lo_m: float
    d_hi_m: float
    sent: int
    errors: int

    @property
    def per(self) -> Optional[float]:
        return self.errors / self.sent if self.sent > 0 else None


@dataclass
class PerHistogram:
    bin_width_m: float
    max_distance_m: float
    bins: list[PerBin]
    average: Optional[float]  # error-weighted over all counted packets

    @property
    def total_sent(self) -> int:
        return sum(b.sent for b in self.bins)

    @property
    def total_errors(self) -> int:
        return sum(b.errors for b in self.bins)


def _check_length(points: float, what: str) -> None:
    if not points <= MAX_SERIES_POINTS:
        raise ValidationError(f"{what} gives {points:.7g} points; the limit is "
                              f"{MAX_SERIES_POINTS}")


def cbp_window_count(duration_s: float, window_s: float) -> int:
    """Windows of a CBP series over ``duration_s``, within MAX_SERIES_POINTS."""
    if window_s <= 0:
        raise ValidationError("window_s must be positive")
    windows = duration_s / window_s - 1e-12
    _check_length(windows, f"metrics.cbp_window_s = {window_s!r} over {duration_s!r} s")
    return int(math.ceil(windows))


def per_bin_count(max_distance_m: float, bin_width_m: float) -> int:
    """Bins of a PER histogram up to ``max_distance_m``, within MAX_SERIES_POINTS."""
    if bin_width_m <= 0:
        raise ValidationError("bin_width_m must be positive")
    bins = max_distance_m / bin_width_m - 1e-12
    _check_length(bins, f"metrics.per_bin_m = {bin_width_m!r} up to {max_distance_m!r} m")
    return int(math.ceil(bins))


def compute_cbp(events: Sequence[TxEvent], scenario: Scenario,
                model: PathLossModel, radio: RadioConfig,
                window_s: float = DEFAULT_CBP_WINDOW_S) -> CbpSeries:
    """Fraction of each window during which the HV senses the channel busy.

    An event counts while its transmitter's signal at the HV reaches the
    carrier-sense threshold (the HV's own transmissions trivially do).
    Overlapping occupancies are unioned, not summed. ``events`` must come in
    start order, as the runners emit them: each busy interval extends the
    last merged one or starts a new one. An event that starts before the
    one ahead of it raises ValidationError.
    """
    duration = scenario.duration_s
    n_windows = cbp_window_count(duration, window_s)
    hidden_at = chan.hidden_predicate(radio, model)
    busy: list[list[float]] = []  # merged [start, end] intervals
    last_start = -math.inf
    for ev in events:
        lo = ev.start_s
        if lo < last_start:
            raise ValidationError(f"compute_cbp needs events in start order; "
                                  f"{lo!r} s follows {last_start!r} s")
        last_start = lo
        hi = min(ev.end_s, duration)
        if hi <= lo or hidden_at(ev.hv_distance_m):
            continue
        if busy and lo <= busy[-1][1]:
            busy[-1][1] = max(busy[-1][1], hi)
        else:
            busy.append([lo, hi])

    samples = []
    total_busy = 0.0
    i = 0
    for k in range(n_windows):
        w_lo = k * window_s
        w_hi = min((k + 1) * window_s, duration)
        occupied = 0.0
        while i < len(busy) and busy[i][1] <= w_lo:
            i += 1
        j = i
        while j < len(busy) and busy[j][0] < w_hi:
            occupied += min(busy[j][1], w_hi) - max(busy[j][0], w_lo)
            j += 1
        width = w_hi - w_lo
        samples.append((w_lo, occupied / width if width > 0 else 0.0))
        total_busy += occupied
    return CbpSeries(window_s=window_s, samples=samples,
                     average=total_busy / duration)


def compute_per(events: Sequence[TxEvent], scenario: Scenario, hv_id: int,
                bin_width_m: float = DEFAULT_PER_BIN_M,
                max_distance_m: float = DEFAULT_PER_MAX_DISTANCE_M) -> PerHistogram:
    """Error rate of RV packets binned by transmitter-HV distance at generation.

    Every scheduled RV packet closer than ``max_distance_m`` counts as sent;
    it counts as an error unless some event decoded it as the capture
    winner. Packets that expired or never reached the air are errors in
    their distance bin.
    """
    n_bins = per_bin_count(max_distance_m, bin_width_m)
    hv_trace = scenario.traces_by_id[hv_id]
    decoded: dict[int, set[int]] = {}
    for ev in events:
        winner = ev.winner
        if ev.outcome is Outcome.DECODED and winner is not None:
            decoded.setdefault(winner.vehicle_id, set()).add(winner.seq)

    hypot = math.hypot
    last_bin = n_bins - 1
    sent = [0] * n_bins
    errors = [0] * n_bins
    for trace in scenario.all_traces():
        vid = trace.vehicle_id
        if vid == hv_id:
            continue
        # the host at each of this vehicle's beacon instants, as the beacon table
        # places the vehicle itself (a parked host is its one position)
        hv_at = _positions_at(hv_trace, _beacon_times(trace, scenario.duration_s))
        got = decoded.get(vid, ())
        for seq, ((x, y), (hx, hy)) in enumerate(zip(scenario.beacon_positions[vid],
                                                     hv_at)):
            d = hypot(x - hx, y - hy)
            if d >= max_distance_m:
                continue
            idx = min(int(d / bin_width_m), last_bin)
            sent[idx] += 1
            if seq not in got:
                errors[idx] += 1
    bins = [PerBin(k * bin_width_m, min((k + 1) * bin_width_m, max_distance_m),
                   sent[k], errors[k]) for k in range(n_bins)]
    total_sent = sum(sent)
    total_err = sum(errors)
    average = total_err / total_sent if total_sent > 0 else None
    return PerHistogram(bin_width_m=bin_width_m, max_distance_m=max_distance_m,
                        bins=bins, average=average)


def rss_curve(radio: RadioConfig, model: PathLossModel, d_min_m: float,
              d_max_m: float, step_m: float) -> list[tuple[float, float]]:
    """Tabulated received signal strength over [d_min, d_max]."""
    if not 0 <= d_min_m < d_max_m < math.inf:
        raise ValidationError("need 0 <= d_min < d_max < inf")
    if not step_m > 0:
        raise ValidationError("step_m must be positive")
    steps = (d_max_m - d_min_m) / step_m + 1e-9
    _check_length(steps + 1.0, f"rss --step {step_m!r} over [{d_min_m!r}, {d_max_m!r}] m")
    n = int(math.floor(steps)) + 1
    return [(d_min_m + k * step_m,
             chan.rss_dbm(radio, model, d_min_m + k * step_m)) for k in range(n)]


@dataclass
class SimReport:
    """One finished run's summary row; ``rtcsim report`` merges their CSV text."""

    label: str
    topology: str
    vehicles: int
    channel: str
    seed: int
    duration_s: float
    avg_cbp: Optional[float]      # fraction in [0, 1]
    avg_per: Optional[float]
    stats: RunStats
    note: str = ""

    def to_text(self) -> str:
        header = (f"{'label':<18} {'topology':<12} {'veh':>5} {'channel':<18} "
                  f"{'CBP%':>7} {'PER%':>7} {'events':>8} {'wall_s':>8} "
                  f"{'speedup':>8}  note")
        cbp = f"{100.0 * self.avg_cbp:.2f}" if self.avg_cbp is not None else "-"
        per = f"{100.0 * self.avg_per:.2f}" if self.avg_per is not None else "-"
        speed = self.stats.speedup
        flag = " (real-time capable)" if speed > 1.0 else ""
        return "\n".join([
            header, "-" * len(header),
            f"{self.label:<18} {self.topology:<12} {self.vehicles:>5} {self.channel:<18} "
            f"{cbp:>7} {per:>7} {self.stats.events:>8} "
            f"{self.stats.wall_time_s:>8.3f} {speed:>8.2f}  {self.note}{flag}"])

    # deterministic columns only: wall-clock figures live in stats.json
    CSV_HEADER = ("label,topology,vehicles,channel,seed,duration_s,avg_cbp,"
                  "avg_per,packets_generated,decoded,collided,below_sensitivity,"
                  "expired,queued_at_end,events,note")

    def to_csv(self) -> str:
        cbp = "" if self.avg_cbp is None else repr(self.avg_cbp)
        per = "" if self.avg_per is None else repr(self.avg_per)
        s = self.stats
        return (f"{self.CSV_HEADER}\n"
                f"{self.label},{self.topology},{self.vehicles},{self.channel},{self.seed},"
                f"{self.duration_s!r},{cbp},{per},{s.packets_generated},"
                f"{s.packets_decoded},{s.packets_collided},"
                f"{s.packets_below_sensitivity},{s.packets_expired},"
                f"{s.packets_queued_at_end},{s.events},{self.note}\n")


def summarize(events: Sequence[TxEvent], cbp: CbpSeries, per: PerHistogram,
              stats: RunStats, *, label: str = "run", topology: str = "custom",
              vehicles: int = 0, channel: str = "custom", seed: int = 0,
              duration_s: Optional[float] = None) -> SimReport:
    """The report of a finished run."""
    if duration_s is None:
        duration_s = stats.sim_duration_s
    traffic = stats.events > 0
    return SimReport(label, topology, vehicles, channel, seed, duration_s,
                     cbp.average if traffic else 0.0, per.average,
                     stats, "" if traffic else "no traffic")


def write_cbp_csv(cbp: CbpSeries, path) -> None:
    write_lines(path, "t_start_s,busy_fraction",
                (f"{t!r},{b!r}" for t, b in cbp.samples))


def write_per_csv(per: PerHistogram, path) -> None:
    write_lines(path, "d_lo_m,d_hi_m,sent,errors,per",
                (f"{b.d_lo_m!r},{b.d_hi_m!r},{b.sent},{b.errors},"
                 f"{'' if b.per is None else repr(b.per)}" for b in per.bins))


def write_rss_csv(points: list[tuple[float, float]], path) -> None:
    write_lines(path, "d_m,rss_dbm", (f"{d!r},{r!r}" for d, r in points))


def write_plot_data(path, cbp: Optional[CbpSeries] = None,
                    per: Optional[PerHistogram] = None,
                    rss: Optional[list[tuple[float, float]]] = None) -> None:
    """Long-format series CSV (series,x,y) for external plotting tools."""
    lines = []
    if cbp is not None:
        lines.extend(f"cbp,{t!r},{b!r}" for t, b in cbp.samples)
    if per is not None:
        lines.extend(f"per,{(b.d_lo_m + b.d_hi_m) / 2.0!r},{b.per!r}"
                     for b in per.bins if b.per is not None)
    if rss is not None:
        lines.extend(f"rss,{d!r},{r!r}" for d, r in rss)
    write_lines(path, "series,x,y", lines)
