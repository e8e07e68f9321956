"""Channel-busy series, error-rate histogram, signal curve, and summaries."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import parked_trace, run_capped_cli
from rtcsim.channel import (PathLossModel, RadioConfig,
                            default_three_log_distance)
from rtcsim.cli import EXIT_CONFIG
from rtcsim.errors import ValidationError
from rtcsim.mac import MacParams, Outcome, Packet, RunStats, TxEvent, run
from rtcsim.metrics import (MAX_SERIES_POINTS, cbp_window_count, compute_cbp,
                            compute_per, per_bin_count, rss_curve, summarize,
                            write_plot_data)
from rtcsim.scenario import (MobilityTrace, Scenario, Topology, TopologySpec,
                             generate_topology, generation_schedule, position_at)
from rtcsim import channel as chan

MODEL = default_three_log_distance()
RADIO = RadioConfig()
PARAMS = MacParams()


def static_scenario(n_rvs, duration_s=1.0, spacing_m=50.0, rate=10.0):
    def trace(vid, x, phase):
        return parked_trace(vid, (x, 0.0), (0.0, duration_s), rate, phase)

    hv = trace(0, 0.0, 0.0)
    rvs = tuple(trace(i + 1, spacing_m * (i + 1), i * 1e-3) for i in range(n_rvs))
    return Scenario(hv_trace=hv, rv_traces=rvs, duration_s=duration_s, seed=0)


def make_event(vid, start, duration=440e-6, hv_distance=10.0,
               outcome=Outcome.DECODED, colliders=(), pos=(10.0, 0.0), seq=0):
    packet = Packet(vid, seq, start, start, pos)
    winner = packet if outcome is Outcome.DECODED else None
    return TxEvent(transmitter=packet, start_s=start, end_s=start + duration,
                   colliders=tuple(colliders), outcome=outcome, winner=winner,
                   hv_distance_m=hv_distance)


class TestComputeCbp:
    def test_empty_log_is_all_zero(self):
        sc = static_scenario(2, duration_s=1.0)
        cbp = compute_cbp([], sc, MODEL, RADIO, window_s=0.1)
        assert len(cbp.samples) == 10
        assert all(b == 0.0 for _, b in cbp.samples)
        assert cbp.average == 0.0

    def test_one_event_per_window(self):
        sc = static_scenario(1, duration_s=1.0)
        events = [make_event(1, 0.1 * k + 0.01) for k in range(10)]
        cbp = compute_cbp(events, sc, MODEL, RADIO, window_s=0.1)
        for _, busy in cbp.samples:
            assert busy == pytest.approx(440e-6 / 0.1, rel=1e-12)
        assert cbp.average == pytest.approx(0.0044, rel=1e-12)

    def test_transmitter_below_carrier_sense_not_busy(self):
        sc = static_scenario(1, duration_s=0.2)
        far = make_event(1, 0.01, hv_distance=2000.0)
        near = make_event(1, 0.11, hv_distance=5.0)
        cbp = compute_cbp([far, near], sc, MODEL, RADIO, window_s=0.1)
        assert cbp.samples[0][1] == 0.0
        assert cbp.samples[1][1] > 0.0

    def test_overlapping_occupancies_are_unioned(self):
        sc = static_scenario(2, duration_s=0.1)
        a = make_event(1, 0.01, duration=400e-6)
        b = make_event(2, 0.0102, duration=400e-6)  # overlaps a by half
        cbp = compute_cbp([a, b], sc, MODEL, RADIO, window_s=0.1)
        union = (0.0102 + 400e-6) - 0.01
        assert cbp.samples[0][1] == pytest.approx(union / 0.1, rel=1e-9)

    def test_matches_time_discretized_recount(self):
        sc = generate_topology(
            TopologySpec(kind=Topology.DISK, vehicle_count=4, radius_m=300.0),
            5.0, 2.0, seed=12)
        events, _ = run(sc, MODEL, RADIO, PARAMS)
        window = 0.1
        cbp = compute_cbp(events, sc, MODEL, RADIO, window_s=window)
        tick = 10e-6
        intervals = [(ev.start_s, ev.end_s) for ev in events
                     if chan.rss_dbm(RADIO, MODEL, ev.hv_distance_m)
                     >= RADIO.cs_threshold_dbm]
        for k, (w_lo, measured) in enumerate(cbp.samples):
            w_hi = min(w_lo + window, sc.duration_s)
            n_ticks = round((w_hi - w_lo) / tick)
            busy_ticks = 0
            for i in range(n_ticks):
                mid = w_lo + (i + 0.5) * tick
                if any(lo <= mid < hi for lo, hi in intervals):
                    busy_ticks += 1
            touching = sum(1 for lo, hi in intervals if lo < w_hi and hi > w_lo)
            tolerance = (touching + 1) * tick / (w_hi - w_lo)
            assert abs(measured - busy_ticks * tick / (w_hi - w_lo)) <= tolerance

    def test_window_validation(self):
        with pytest.raises(ValidationError):
            compute_cbp([], static_scenario(1), MODEL, RADIO, window_s=0.0)

    @pytest.mark.parametrize("hv_distance", [10.0, 2000.0])
    def test_out_of_order_start_is_rejected(self, hv_distance):
        # the order is checked on every event, sensed or hidden
        sc = static_scenario(2, duration_s=0.1)
        events = [make_event(1, 0.02), make_event(2, 0.01, hv_distance=hv_distance)]
        with pytest.raises(ValidationError, match="start order"):
            compute_cbp(events, sc, MODEL, RADIO, window_s=0.01)


CBP_UNIT_S = 1e-4


def reference_cbp(events, duration, window):
    """Busy fraction per window: the sensed intervals sorted, then merged."""
    intervals = sorted((ev.start_s, min(ev.end_s, duration)) for ev in events
                       if chan.rss_dbm(RADIO, MODEL, ev.hv_distance_m)
                       >= RADIO.cs_threshold_dbm and min(ev.end_s, duration) > ev.start_s)
    merged = []
    for lo, hi in intervals:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    samples, total = [], 0.0
    for k in range(cbp_window_count(duration, window)):
        w_lo, w_hi = k * window, min((k + 1) * window, duration)
        occupied = 0.0
        for lo, hi in merged:
            if hi > w_lo and lo < w_hi:
                occupied += min(hi, w_hi) - max(lo, w_lo)
        samples.append((w_lo, occupied / (w_hi - w_lo) if w_hi > w_lo else 0.0))
        total += occupied
    return samples, total / duration


@st.composite
def ordered_events(draw):
    horizon = draw(st.integers(8, 96)) * CBP_UNIT_S
    events = []
    start = 0.0
    for seq in range(draw(st.integers(0, 40))):
        # the same start again, a later one, or exactly where an earlier event
        # ends (touching); durations run short, long enough to nest others,
        # or past the horizon
        ends = [ev.end_s for ev in events if ev.end_s >= start]
        step = draw(st.sampled_from(["same", "later", "touch"] if ends else ["later"]))
        if step == "later":
            start += draw(st.integers(1, 12)) * CBP_UNIT_S
        elif step == "touch":
            start = draw(st.sampled_from(ends))
        units = draw(st.sampled_from([1, 2, 3, 5, 8, 24, 60]))
        distance = draw(st.sampled_from([5.0, 150.0, 835.0, 900.0, 2000.0]))
        events.append(make_event(1 + seq % 3, start, duration=units * CBP_UNIT_S,
                                 hv_distance=distance, seq=seq))
    window = draw(st.sampled_from([4, 7, 16])) * CBP_UNIT_S
    return events, horizon, window


def touching_pair():
    # (b - a) + (c - b) rounds above c - a here, so only a merged pair gives
    # the merged union's window sum
    first = make_event(1, CBP_UNIT_S, duration=CBP_UNIT_S)
    return [first, make_event(2, first.end_s, duration=5 * CBP_UNIT_S, seq=1)]


class TestCbpMergeProperty:
    @settings(max_examples=300, deadline=None)
    @given(ordered_events())
    @example((touching_pair(), 8 * CBP_UNIT_S, 7 * CBP_UNIT_S))
    def test_streamed_merge_equals_sort_then_merge(self, case):
        events, horizon, window = case
        cbp = compute_cbp(events, static_scenario(3, duration_s=horizon), MODEL, RADIO,
                          window_s=window)
        samples, average = reference_cbp(events, horizon, window)
        assert cbp.samples == samples
        assert cbp.average == average


class TestComputePer:
    def test_all_decoded_gives_zero_per(self):
        sc = static_scenario(2, duration_s=0.5)
        events = []
        for trace in sc.rv_traces:
            for seq, gen in enumerate(generation_schedule(trace, sc.duration_s)):
                x = trace.x_m[0]
                events.append(make_event(trace.vehicle_id, gen, hv_distance=x,
                                         pos=(x, 0.0), seq=seq))
        per = compute_per(events, sc, hv_id=0)
        assert per.average == 0.0
        for b in per.bins:
            assert b.per in (None, 0.0)

    def test_no_events_gives_total_loss(self):
        sc = static_scenario(2, duration_s=0.5)
        per = compute_per([], sc, hv_id=0)
        assert per.average == 1.0
        populated = [b for b in per.bins if b.sent > 0]
        assert populated and all(b.per == 1.0 for b in populated)

    def test_bins_partition_counted_packets(self):
        sc = generate_topology(
            TopologySpec(kind=Topology.DISK, vehicle_count=30, radius_m=500.0),
            10.0, 2.0, seed=8)
        events, _ = run(sc, MODEL, RADIO, PARAMS)
        per = compute_per(events, sc, hv_id=0)
        expected = 0
        for trace in sc.rv_traces:
            for gen in generation_schedule(trace, sc.duration_s):
                d = chan.distance_m(position_at(trace, gen),
                                    position_at(sc.hv_trace, gen))
                if d < per.max_distance_m:
                    expected += 1
        assert per.total_sent == expected
        assert per.bins[0].d_lo_m == 0.0
        assert per.bins[-1].d_hi_m == per.max_distance_m
        for a, b in zip(per.bins, per.bins[1:]):
            assert a.d_hi_m == b.d_lo_m

    def test_distance_measured_at_generation_time(self):
        # vehicle crosses the 400 m cap mid-run: only the near-side packets count
        rv = MobilityTrace(1, (0.0, 1.0), (390.0, 410.0), (0.0, 0.0), (20.0, 20.0),
                           (0.0, 0.0), 10.0, 0.0)
        hv = parked_trace(0, (0, 0), (0.0, 1.0), 10.0, 0.0)
        sc = Scenario(hv, (rv,), 1.0, 0)
        per = compute_per([], sc, hv_id=0)
        gens = generation_schedule(rv, 1.0)
        near = sum(1 for g in gens if 390.0 + 20.0 * g < 400.0)
        assert per.total_sent == near

    def test_decoded_winner_key_must_match_sequence(self):
        sc = static_scenario(1, duration_s=0.3)
        trace = sc.rv_traces[0]
        x = trace.x_m[0]
        gens = generation_schedule(trace, sc.duration_s)
        events = [make_event(1, gens[0], hv_distance=x, pos=(x, 0.0), seq=0)]
        per = compute_per(events, sc, hv_id=0)
        # three generated, one decoded
        assert per.total_sent == len(gens) == 3
        assert per.total_errors == 2

    def test_bin_width_validation(self):
        with pytest.raises(ValidationError):
            compute_per([], static_scenario(1), hv_id=0, bin_width_m=0.0)


@st.composite
def per_cases(draw):
    """A scenario of 1-4 RVs and a parked or moving host, a random set of
    decoded and lost (vehicle_id, seq) keys, and histogram settings."""
    duration = draw(st.floats(min_value=0.05, max_value=2.0))
    coordinate = st.floats(min_value=-500.0, max_value=500.0)

    def trace(vid):
        rate = draw(st.sampled_from([1.0, 3.0, 10.0, 12.5]))
        phase = draw(st.floats(min_value=0.0, max_value=1.0 / rate, exclude_max=True))
        times = sorted(set(draw(st.lists(st.floats(min_value=0.0, max_value=2.5),
                                         min_size=1, max_size=6))))
        n = len(times)
        if draw(st.booleans()):
            xs, ys = (draw(coordinate),) * n, (draw(coordinate),) * n
        else:
            xs = tuple(draw(st.lists(coordinate, min_size=n, max_size=n)))
            ys = tuple(draw(st.lists(coordinate, min_size=n, max_size=n)))
        return MobilityTrace(vid, tuple(times), xs, ys, (0.0,) * n, (0.0,) * n,
                             rate, phase)

    rvs = tuple(trace(vid) for vid in range(1, draw(st.integers(1, 4)) + 1))
    sc = Scenario(trace(0), rvs, duration, 0)
    keys = st.tuples(st.integers(0, 5), st.integers(0, 25))
    outcome = st.sampled_from([Outcome.DECODED, Outcome.COLLIDED])
    events = [make_event(vid, 0.0, seq=seq, outcome=draw(outcome))
              for vid, seq in draw(st.lists(keys, max_size=40))]
    bin_width = draw(st.floats(min_value=5.0, max_value=300.0))
    return sc, events, bin_width, draw(st.floats(min_value=50.0, max_value=800.0))


class TestPerProperty:
    @settings(max_examples=300, deadline=None, database=None)
    @given(per_cases())
    def test_matches_a_per_beacon_brute_force(self, case):
        sc, events, bin_width, max_distance = case
        per = compute_per(events, sc, hv_id=0, bin_width_m=bin_width,
                          max_distance_m=max_distance)
        decoded = {ev.winner.key for ev in events if ev.outcome is Outcome.DECODED}
        sent = [0] * len(per.bins)
        errors = [0] * len(per.bins)
        for trace in sc.rv_traces:
            for seq, gen in enumerate(generation_schedule(trace, sc.duration_s)):
                d = chan.distance_m(position_at(trace, gen), position_at(sc.hv_trace, gen))
                if d >= max_distance:
                    continue
                k = min(int(d / bin_width), len(per.bins) - 1)
                sent[k] += 1
                errors[k] += (trace.vehicle_id, seq) not in decoded
        assert [b.sent for b in per.bins] == sent
        assert [b.errors for b in per.bins] == errors


class TestRssCurve:
    def test_row_count_inclusive(self):
        points = rss_curve(RADIO, MODEL, 1.0, 1000.0, 1.0)
        assert len(points) == 1000
        assert points[0][0] == 1.0
        assert points[-1][0] == 1000.0

    def test_flat_model(self):
        model = PathLossModel((1, 2, 3), (0, 0, 0), 30.0)
        points = rss_curve(RADIO, model, 0.0, 10.0, 1.0)
        assert all(r == 20.0 - 30.0 for _, r in points)

    def test_matches_closed_form(self):
        for d in (1.0, 100.0, 500.0):
            (_, measured), = rss_curve(RADIO, MODEL, d, d + 0.5, 1.0)
            if d < 200.0:
                expected = 46.6777 + 19.0 * math.log10(d)
            else:
                expected = (46.6777 + 19.0 * math.log10(200.0)
                            + 38.0 * math.log10(d / 200.0))
            assert measured == pytest.approx(20.0 - expected, abs=1e-9)

    def test_non_increasing(self):
        points = rss_curve(RADIO, MODEL, 0.5, 1500.0, 0.5)
        for (_, a), (_, b) in zip(points, points[1:]):
            assert b <= a + 1e-12

    def test_range_validation(self):
        with pytest.raises(ValidationError):
            rss_curve(RADIO, MODEL, 10.0, 5.0, 1.0)
        with pytest.raises(ValidationError):
            rss_curve(RADIO, MODEL, 0.0, 10.0, -1.0)
        with pytest.raises(ValidationError):
            rss_curve(RADIO, MODEL, 0.0, 10.0, math.nan)
        with pytest.raises(ValidationError):
            rss_curve(RADIO, MODEL, 0.0, math.inf, 1.0)


class TestSeriesSizeLimit:
    def test_counts_up_to_the_limit(self):
        assert cbp_window_count(20.0, 0.1) == 200
        assert cbp_window_count(1.0, 1.0 / MAX_SERIES_POINTS) == MAX_SERIES_POINTS
        assert per_bin_count(400.0, 25.0) == 16
        assert per_bin_count(MAX_SERIES_POINTS * 0.5, 0.5) == MAX_SERIES_POINTS

    def test_one_past_the_limit_is_refused(self):
        with pytest.raises(ValidationError, match=f"1000001 points; the limit is "
                                                  f"{MAX_SERIES_POINTS}"):
            cbp_window_count(MAX_SERIES_POINTS + 1.0, 1.0)
        with pytest.raises(ValidationError, match="1000001 points"):
            per_bin_count(MAX_SERIES_POINTS + 1.0, 1.0)
        with pytest.raises(ValidationError, match="1000001 points"):
            rss_curve(RADIO, MODEL, 0.0, float(MAX_SERIES_POINTS), 1.0)

    # each probe would allocate far past the cap if the limit were missing
    @pytest.mark.parametrize("args,count", [
        (("run", "--set", "metrics.cbp_window_s=1e-300"), "2e+301"),
        (("run", "--set", "metrics.per_bin_m=1e-300"), "4e+302"),
        (("rss", "--step", "1e-300"), "9.99e+302")])
    def test_cli_refuses_in_one_line_before_allocating(self, args, count, tmp_path):
        proc = run_capped_cli(*args, "--set", "scenario.vehicles=3",
                              "--out", str(tmp_path / "out"))
        assert proc.returncode == EXIT_CONFIG, proc.stderr[-2000:]
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert f"{count} points; the limit is {MAX_SERIES_POINTS}" in proc.stderr
        assert not (tmp_path / "out" / "event_log.csv").exists()


class TestSimReport:
    def _report(self, events, stats, sc, label="r"):
        cbp = compute_cbp(events, sc, MODEL, RADIO)
        per = compute_per(events, sc, hv_id=0)
        return summarize(events, cbp, per, stats, label=label, topology="disk",
                         vehicles=sc.vehicle_count, channel="three_log_distance",
                         seed=sc.seed, duration_s=sc.duration_s)

    def test_empty_log_marked_no_traffic(self):
        sc = static_scenario(0, duration_s=1.0)
        report = self._report([], RunStats(sim_duration_s=1.0, wall_time_s=0.1), sc)
        assert report.note == "no traffic"
        assert "no traffic" in report.to_text()

    def test_faster_than_realtime_flagged(self):
        sc = static_scenario(1, duration_s=2.0)
        events, stats = run(sc, MODEL, RADIO, PARAMS)
        report = self._report(events, stats, sc)
        assert stats.speedup > 1.0
        assert "real-time capable" in report.to_text()

    def test_csv_round_trip_field_count(self):
        sc = static_scenario(1, duration_s=1.0)
        events, stats = run(sc, MODEL, RADIO, PARAMS)
        report = self._report(events, stats, sc)
        lines = report.to_csv().strip().splitlines()
        assert len(lines) == 2
        assert len(lines[1].split(",")) == len(lines[0].split(","))

    def test_plot_data_series(self, tmp_path):
        sc = static_scenario(1, duration_s=1.0)
        events, stats = run(sc, MODEL, RADIO, PARAMS)
        cbp = compute_cbp(events, sc, MODEL, RADIO)
        per = compute_per(events, sc, hv_id=0)
        rss = rss_curve(RADIO, MODEL, 1.0, 10.0, 1.0)
        out = tmp_path / "plot.csv"
        write_plot_data(out, cbp=cbp, per=per, rss=rss)
        lines = out.read_text().splitlines()
        series = {line.split(",")[0] for line in lines[1:]}
        assert series == {"cbp", "per", "rss"}
