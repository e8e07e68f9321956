"""Scenario generation, interpolation, schedules, and trace file round-trips."""

import gc
import hashlib
import io
import json
import math
import sys
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from conftest import parked_trace, run_capped_cli
from rtcsim.cli import EXIT_CONFIG
from rtcsim import scenario as scenario_module
from rtcsim.cli import main as cli_main
from rtcsim.errors import TraceParseError, ValidationError
from rtcsim.scenario import (MAX_COORD_M, MAX_RUN_BEACONS, TWO_PI, MobilityTrace, Scenario,
                             Topology, TopologySpec, check_run, check_sample, generate_topology,
                             generation_schedule, load_scenario, parse_trace_file,
                             position_at, save_scenario, speed_heading_at,
                             write_lines, write_trace_files)


def disk_spec(n, radius=500.0):
    return TopologySpec(kind=Topology.DISK, vehicle_count=n, radius_m=radius)


class TestTopologySpec:
    def test_dimension_validation(self):
        with pytest.raises(ValidationError):
            TopologySpec(kind=Topology.DISK, vehicle_count=10, radius_m=0.0)
        with pytest.raises(ValidationError):
            TopologySpec(kind=Topology.LINEAR, vehicle_count=10, length_m=-5.0)
        with pytest.raises(ValidationError):
            TopologySpec(kind=Topology.INTERSECTION, vehicle_count=10)

    def test_vehicle_count_minimum(self):
        with pytest.raises(ValidationError):
            TopologySpec(kind=Topology.DISK, vehicle_count=0, radius_m=500)

    # a vehicle is placed by a uniform draw over its road, which numpy refuses
    # over an infinite range
    @pytest.mark.parametrize("kind,dimension,value", [
        (Topology.LINEAR, "length_m", math.inf),
        (Topology.LINEAR, "length_m", math.nan),
        (Topology.INTERSECTION, "arm_length_m", 1e308),
        (Topology.INTERSECTION, "arm_length_m", math.nextafter(sys.float_info.max / 2, math.inf)),
        (Topology.DISK, "radius_m", math.inf),
        (Topology.DISK, "length_m", math.nan)])
    def test_non_finite_dimension_or_range_rejected(self, kind, dimension, value):
        sizes = {"radius_m": 1.0, "length_m": 1.0, "arm_length_m": 1.0, dimension: value}
        with pytest.raises(ValidationError, match="must be finite"):
            TopologySpec(kind=kind, vehicle_count=4, **sizes)

    def test_largest_finite_ranges_accepted(self):
        TopologySpec(Topology.LINEAR, 4, length_m=sys.float_info.max)
        TopologySpec(Topology.INTERSECTION, 4, arm_length_m=sys.float_info.max / 2)
        TopologySpec(Topology.DISK, 4, radius_m=sys.float_info.max)
        # wide roads still generate while every position stays within MAX_COORD_M
        for spec in (TopologySpec(Topology.LINEAR, 4, length_m=2e306),
                     TopologySpec(Topology.INTERSECTION, 4, arm_length_m=1e306)):
            sc = generate_topology(spec, 10.0, 1.0, seed=1)
            assert max(abs(v) for t in sc.rv_traces for v in (*t.x_m, *t.y_m)) <= 1e306


class TestGenerateTopology:
    def test_hv_only_has_no_rvs(self):
        sc = generate_topology(disk_spec(1), 10.0, 20.0, seed=5)
        assert sc.rv_traces == ()
        assert sc.hv_trace.vehicle_id == 0

    def test_zero_speed_is_static(self):
        spec = TopologySpec(kind=Topology.LINEAR, vehicle_count=100, length_m=3000.0)
        sc = generate_topology(spec, 0.0, 20.0, seed=7)
        assert len(sc.rv_traces) == 99
        for trace in sc.rv_traces:
            assert set(trace.x_m) == {trace.x_m[0]} and set(trace.y_m) == {trace.y_m[0]}

    def test_disk_containment_exhaustive(self):
        sc = generate_topology(disk_spec(1000), 10.0, 20.0, seed=42)
        r2 = 500.0 ** 2 + 1e-9
        for trace in sc.rv_traces:
            for x, y in zip(trace.x_m, trace.y_m):
                assert x ** 2 + y ** 2 <= r2

    def test_linear_containment_and_reflection(self):
        spec = TopologySpec(kind=Topology.LINEAR, vehicle_count=50, length_m=3000.0)
        sc = generate_topology(spec, 30.0, 60.0, seed=3)
        for trace in sc.rv_traces:
            assert all(abs(x) <= 1500.0 + 1e-9 for x in trace.x_m)
            assert set(trace.y_m) == {0.0}

    def test_intersection_on_arms(self):
        spec = TopologySpec(kind=Topology.INTERSECTION, vehicle_count=80,
                            arm_length_m=750.0)
        sc = generate_topology(spec, 15.0, 20.0, seed=9)
        on_x = on_y = 0
        for trace in sc.rv_traces:
            for x, y in zip(trace.x_m, trace.y_m):
                assert x == 0.0 or y == 0.0
                assert abs(x) <= 750.0 + 1e-9 and abs(y) <= 750.0 + 1e-9
            if trace.y_m[0] == 0.0:
                on_x += 1
            else:
                on_y += 1
        assert on_x > 10 and on_y > 10

    def test_hv_at_center_or_explicit(self):
        sc = generate_topology(disk_spec(3), 10.0, 5.0, seed=1)
        assert (sc.hv_trace.x_m[0], sc.hv_trace.y_m[0]) == (0, 0)
        spec = TopologySpec(kind=Topology.DISK, vehicle_count=3, radius_m=500.0,
                            hv_position=(12.0, -7.0))
        sc2 = generate_topology(spec, 10.0, 5.0, seed=1)
        assert sc2.hv_trace.x_m[0] == 12.0
        assert sc2.hv_trace.y_m[0] == -7.0

    def test_deterministic_for_fixed_seed(self):
        a = generate_topology(disk_spec(50), 10.0, 20.0, seed=123)
        b = generate_topology(disk_spec(50), 10.0, 20.0, seed=123)
        assert a == b
        c = generate_topology(disk_spec(50), 10.0, 20.0, seed=124)
        assert a != c

    def test_phases_within_one_period(self):
        sc = generate_topology(disk_spec(40), 10.0, 20.0, seed=6, tx_rate_hz=10.0)
        for trace in sc.all_traces():
            assert 0.0 <= trace.gen_phase_s < 0.1

    def test_disk_radial_distribution_uniform_over_area(self):
        sc = generate_topology(disk_spec(10001), 0.0, 0.2, seed=2718)
        radii = [math.hypot(t.x_m[0], t.y_m[0]) for t in sc.rv_traces]
        result = scipy_stats.kstest(radii, lambda r: (r / 500.0) ** 2)
        assert result.statistic < 0.02

    def test_speed_validation(self):
        with pytest.raises(ValidationError):
            generate_topology(disk_spec(5), -1.0, 20.0, seed=1)

    @pytest.mark.parametrize("kind", list(Topology))
    @pytest.mark.parametrize("speed", [1.7e308, math.inf, math.nan])
    def test_infinite_travel_refused_before_generating(self, kind, speed):
        spec = TopologySpec(kind=kind, vehicle_count=3, radius_m=0.5, length_m=1.0,
                            arm_length_m=1.0)
        with pytest.raises(ValidationError, match="no finite distance"):
            generate_topology(spec, speed, 2.0, seed=1)

    def test_largest_finite_travel_generates(self):
        sc = generate_topology(disk_spec(3, radius=0.5), 1e308, 1.0, seed=1)
        assert all(math.isfinite(x) for t in sc.rv_traces for x in t.x_m)

    def test_infinite_travel_is_one_line_config_error(self, tmp_path, capsys):
        code = cli_main(["gen", "--speed", "1.7e308", "--radius", "0.5", "--vehicles", "3",
                         "--duration", "2", "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "no finite distance" in err

    @pytest.mark.parametrize("vehicles", [1, 2])
    def test_negative_speed_refused_with_or_without_remote_vehicles(self, vehicles):
        with pytest.raises(ValidationError, match="speed_mps >= 0"):
            generate_topology(disk_spec(vehicles), -5.0, 1.0, seed=1)

    @pytest.mark.parametrize("vehicles", ["1", "2"])
    @pytest.mark.parametrize("command", ["gen", "run"])
    def test_negative_speed_is_one_line_config_error(self, command, vehicles,
                                                     tmp_path, capsys):
        code = cli_main([command, "--set", f"scenario.vehicles={vehicles}",
                         "--set", "scenario.speed_mps=-5", "--set", "run.duration_s=1",
                         "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "speed_mps >= 0" in err
        assert not (tmp_path / "out").exists()

    def test_no_per_sample_objects(self):
        # a trace holds its samples in five column tuples, not an object each:
        # 101 vehicles over 20 s are 20,301 samples
        spec = disk_spec(101)
        generate_topology(spec, 10.0, 1.0, seed=7)
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            sc = generate_topology(spec, 10.0, 20.0, seed=7)
            added = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert added <= 10 * sc.vehicle_count

    @pytest.mark.parametrize("duration_s,seed", [
        (math.nan, 1), (math.inf, 1), (0.0, 1), (20.0, -1), (20.0, 2**64)])
    def test_scenario_rules_hold_before_generating(self, duration_s, seed):
        with pytest.raises(ValidationError, match="duration_s|seed"):
            generate_topology(disk_spec(5), 10.0, duration_s, seed)


class TestPositionAt:
    def test_single_waypoint_clamps(self):
        trace = parked_trace(1, (3.0, 4.0), (0.0,))
        assert position_at(trace, 10.0) == (3.0, 4.0)
        assert position_at(trace, -1.0) == (3.0, 4.0)

    def test_midpoint(self):
        trace = MobilityTrace(1, (0, 2), (0, 10), (0, 0), (5, 5), (0, 0))
        assert position_at(trace, 1.0) == (5.0, 0.0)

    def test_three_quarter_point(self):
        trace = MobilityTrace(1, (0, 2), (0, 10), (0, 0), (5, 5), (0, 0))
        # hand computation: x = 0 + (1.5 / 2) * (10 - 0)
        assert position_at(trace, 1.5) == (7.5, 0.0)

    def test_clamps_beyond_ends(self):
        trace = MobilityTrace(1, (0, 2), (0, 10), (0, 0), (5, 5), (0, 0))
        assert position_at(trace, 99.0) == (10.0, 0.0)


class TestSpeedHeadingAt:
    TRACE = MobilityTrace(1, (1.0, 2.0, 4.0), (0, 3, 3), (0, 0, 9), (4.0, 8.0, 2.0),
                          (0.5, 1.5, 2.5))

    @pytest.mark.parametrize("t,expected", [
        (0.0, (4.0, 0.5)), (1.0, (4.0, 0.5)), (1.25, (5.0, 0.5)), (2.0, (8.0, 1.5)),
        (3.5, (3.5, 1.5)), (4.0, (2.0, 2.5)), (9.0, (2.0, 2.5))])
    def test_speed_interpolates_and_heading_holds(self, t, expected):
        assert speed_heading_at(self.TRACE, t) == expected


class TestFixedPosition:
    def test_static_trace_is_parked_at_its_waypoint(self):
        trace = parked_trace(1, (4.0, -3.0), (0.0, 0.5, 2.0))
        assert trace.fixed_position == (4.0, -3.0)
        for t in (-1.0, 0.0, 0.3, 0.5, 1.234, 5.0):
            assert position_at(trace, t) == trace.fixed_position

    def test_single_waypoint_is_parked(self):
        assert parked_trace(1, (2.0, 3.0), (1.0,)).fixed_position == (2.0, 3.0)

    @pytest.mark.parametrize("moved", ["x", "y"])
    def test_any_move_unparks(self, moved):
        last = (4.5, -3.0) if moved == "x" else (4.0, -3.5)
        trace = MobilityTrace(1, (0.0, 2.0), (4.0, last[0]), (-3.0, last[1]), (0.0, 0.0),
                              (0.0, 0.0))
        assert trace.fixed_position is None

    def test_generated_host_is_parked_and_rvs_move(self):
        sc = generate_topology(disk_spec(4), 10.0, 1.0, seed=5)
        assert sc.hv_trace.fixed_position == (0.0, 0.0)
        assert all(t.fixed_position is None for t in sc.rv_traces)


class TestBeaconPositions:
    def test_entry_k_is_position_at_kth_generation(self):
        sc = generate_topology(disk_spec(12), 10.0, 3.0, seed=5)
        table = sc.beacon_positions
        assert sorted(table) == sorted(t.vehicle_id for t in sc.all_traces())
        for trace in sc.all_traces():
            gens = generation_schedule(trace, sc.duration_s)
            assert table[trace.vehicle_id] == [position_at(trace, g) for g in gens]

    @staticmethod
    def assert_table_matches(traces, duration_s):
        hv = parked_trace(0, (0.0, 0.0), (0.0,))
        sc = Scenario(hv, tuple(traces), duration_s, 0)
        for trace in traces:
            expected = [position_at(trace, g)
                        for g in generation_schedule(trace, duration_s)]
            got = sc.beacon_positions[trace.vehicle_id]
            assert got == expected
            assert repr(got) == repr(expected)  # signed zeros too
            gens = generation_schedule(trace, duration_s)
            assert [trace.beacon_time(k) for k in range(len(gens))] == gens
            assert trace.beacon_time(len(gens)) >= duration_s

    def test_single_waypoint(self):
        self.assert_table_matches(
            [parked_trace(1, (-0.0, 7.5), (0.4,))], 1.0)

    def test_irregular_spacing(self):
        times = (0.0, 0.013, 0.5, 0.51, 0.9, 1.7, 1.75, 3.0)
        trace = MobilityTrace(1, times, tuple(3.0 * t * t - 1.0 for t in times),
                              tuple(math.sin(7.0 * t) for t in times), (1.0,) * len(times),
                              (0.0,) * len(times), 10.0, 0.037)
        self.assert_table_matches([trace], 3.0)

    def test_beacons_before_first_and_after_last_waypoint(self):
        trace = MobilityTrace(1, (0.35, 0.55, 0.8), (1.0, 4.0, 9.0), (2.0, -2.0, 0.5),
                              (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), 10.0, 0.02)
        gens = generation_schedule(trace, 1.5)
        assert gens[0] < trace.time_s[0] and gens[-1] > trace.time_s[-1]
        self.assert_table_matches([trace], 1.5)

    def test_beacon_exactly_on_a_waypoint_time(self):
        # 4 Hz from phase 0 puts beacons at exact quarters, the sample times;
        # 0.1 + (0.3 - 0.1) != 0.3, so interpolating up to a sample instead
        # of starting from it shows
        trace = MobilityTrace(1, (0.0, 0.25, 0.5, 1.0), (0.1, 0.3, -2.0, 5.0),
                              (0.0, 0.7, 0.1, 5.0), (1.0,) * 4, (0.0,) * 4, 4.0, 0.0)
        assert {0.25, 0.5} <= set(generation_schedule(trace, 1.0))
        self.assert_table_matches([trace], 1.0)

    def test_two_hertz_with_phase(self):
        trace = MobilityTrace(1, tuple(0.1 * k for k in range(31)),
                              tuple(10.0 * math.cos(k) for k in range(31)),
                              tuple(10.0 * math.sin(k) for k in range(31)),
                              (1.0,) * 31, (0.0,) * 31, 2.0, 0.3137)
        self.assert_table_matches([trace], 3.0)

    def test_not_built_during_set_up(self, tmp_path):
        # the table belongs to the run's cost, not to generating or loading
        sc = generate_topology(disk_spec(5), 10.0, 1.0, seed=5)
        save_scenario(sc, tmp_path)
        for scenario in (sc, load_scenario(tmp_path)):
            assert "beacon_positions" not in vars(scenario)


@st.composite
def trace_and_horizon(draw):
    """A trace of 1-40 irregular samples, some on beacon instants, and a
    horizon that is arbitrary or exactly a beacon instant."""
    rate = draw(st.one_of(st.sampled_from([1.0, 2.0, 3.0, 4.0, 7.5, 10.0]),
                          st.floats(min_value=0.5, max_value=40.0)))
    period = 1.0 / rate
    phase = draw(st.one_of(st.just(0.0), st.just(-0.0),
                           st.floats(min_value=0.0, max_value=period, exclude_max=True)))
    instant = st.integers(0, 30).map(lambda k: phase + k * period)
    times = sorted(set(draw(st.lists(
        st.one_of(instant, st.floats(min_value=0.0, max_value=6.0)),
        min_size=1, max_size=40))))
    coordinate = st.one_of(st.just(-0.0), st.just(0.0),
                           st.floats(min_value=-1e4, max_value=1e4),
                           st.floats(min_value=-MAX_COORD_M, max_value=MAX_COORD_M))
    if draw(st.booleans()):
        xs = [draw(coordinate)] * len(times)  # parked, perhaps at -0.0
    else:
        xs = draw(st.lists(coordinate, min_size=len(times), max_size=len(times)))
    ys = draw(st.lists(coordinate, min_size=len(times), max_size=len(times)))
    n = len(times)
    trace = MobilityTrace(1, tuple(times), tuple(xs), tuple(ys), (0.0,) * n,
                          (0.0,) * n, rate, phase)
    horizon = draw(st.one_of(instant.filter(lambda t: t > 0),
                             st.floats(min_value=1e-3, max_value=6.0)))
    return trace, horizon


def moving_trace(rate):
    return MobilityTrace(1, (0.0, 0.5, 2.0), (-0.0, 3.0, 1.0), (2.0, -0.0, -0.0),
                         (0.0,) * 3, (0.0,) * 3, rate, 0.0)


class TestBeaconTableProperty:
    @settings(max_examples=400, deadline=None, database=None)
    @given(trace_and_horizon())
    # (horizon - phase) * rate rounds to one beacon too many: the horizon is
    # beacon_time(12) itself, and 13 is its ceiling
    @example((moving_trace(10.0), 1.2000000000000002))
    # and to one too few: 12 beacons lie below this horizon, whose product is 11
    @example((moving_trace(12.0), 0.9166666666666667))
    def test_table_is_position_at_on_the_schedule(self, case):
        trace, duration_s = case
        sc = Scenario(parked_trace(0, (0.0, 0.0), (0.0,)), (trace,), duration_s, 0)
        gens = generation_schedule(trace, duration_s)
        expected = []
        while trace.beacon_time(len(expected)) < duration_s:
            expected.append(trace.beacon_time(len(expected)))
        assert repr(gens) == repr(expected)
        assert repr(sc.beacon_positions[1]) == repr([position_at(trace, g) for g in gens])


class TestGenerationSchedule:
    def test_ten_hertz_over_one_second(self):
        trace = parked_trace(1, (0, 0), (0,), 10.0, 0.0)
        ts = generation_schedule(trace, 1.0)
        assert ts == pytest.approx([k * 0.1 for k in range(10)])
        assert len(ts) == 10

    def test_single_period(self):
        trace = parked_trace(1, (0, 0), (0,), 10.0, 0.05)
        assert generation_schedule(trace, 0.1) == [0.05]

    def test_count_and_last_timestamp(self):
        trace = parked_trace(1, (0, 0), (0,), 10.0, 0.02)
        ts = generation_schedule(trace, 20.0)
        assert len(ts) == 200
        assert ts[-1] == pytest.approx(19.92, abs=1e-12)

    def test_spacing_is_exactly_one_period(self):
        trace = parked_trace(1, (0, 0), (0,), 10.0, 0.0371)
        ts = generation_schedule(trace, 20.0)
        for a, b in zip(ts, ts[1:]):
            assert abs((b - a) - 0.1) < 1e-12

    def test_strictly_increasing(self):
        trace = parked_trace(1, (0, 0), (0,), 25.0, 0.01)
        ts = generation_schedule(trace, 5.0)
        assert all(b > a for a, b in zip(ts, ts[1:]))


class TestParseTraceFile:
    def test_empty_file(self):
        assert parse_trace_file(io.StringIO("")) == []

    def test_two_rows_one_vehicle(self):
        body = "0.0,5,1.0,2.0,3.0,0.5\n0.1,5,1.5,2.5,3.0,0.5\n"
        traces = parse_trace_file(io.StringIO(body))
        assert len(traces) == 1
        assert traces[0].vehicle_id == 5
        assert tuple(traces[0].time_s) == (0.0, 0.1)

    def test_header_is_optional(self):
        with_header = "time_s,vehicle_id,x_m,y_m,speed_mps,heading_rad\n0.0,1,0,0,0,0\n"
        without = "0.0,1,0,0,0,0\n"
        assert parse_trace_file(io.StringIO(with_header)) == \
            parse_trace_file(io.StringIO(without))

    def test_nan_row_reports_line_one(self):
        with pytest.raises(TraceParseError) as err:
            parse_trace_file(io.StringIO("0.1,5,NaN,0,10,0\n"))
        assert err.value.line == 1

    def test_malformed_row_line_number_after_header(self):
        header = "time_s,vehicle_id,x_m,y_m,speed_mps,heading_rad\n"
        for rows, line in (("0.0,1,0,0,0,0\nbogus\n", 3), ("0.0,1,0,0,-2.0,0\n", 2)):
            with pytest.raises(TraceParseError) as err:
                parse_trace_file(io.StringIO(header + rows))
            assert err.value.line == line

    def test_duplicate_time_rejected(self):
        body = "0.0,5,0,0,0,0\n0.0,5,1,1,0,0\n"
        with pytest.raises(ValidationError):
            parse_trace_file(io.StringIO(body))

    def test_rows_sorted_by_time(self):
        body = "0.2,5,2,0,0,0\n0.0,5,0,0,0,0\n0.1,5,1,0,0,0\n"
        (trace,) = parse_trace_file(io.StringIO(body))
        assert tuple(trace.time_s) == (0.0, 0.1, 0.2)
        assert tuple(trace.x_m) == (0.0, 1.0, 2.0)

    def test_field_range_validation(self):
        with pytest.raises(TraceParseError):
            parse_trace_file(io.StringIO("0.0,1,0,0,-2.0,0\n"))
        with pytest.raises(TraceParseError):
            parse_trace_file(io.StringIO("0.0,1,0,0,0,7.0\n"))


class TestTraceFilesRoundTrip:
    def test_file_count_and_names(self, tmp_path):
        sc = generate_topology(disk_spec(3), 10.0, 1.0, seed=4)
        paths = write_trace_files(sc, tmp_path)
        assert sorted(p.name for p in paths) == \
            ["vehicle_0.csv", "vehicle_1.csv", "vehicle_2.csv"]

    def test_hv_only_writes_single_file(self, tmp_path):
        sc = generate_topology(disk_spec(1), 10.0, 1.0, seed=4)
        paths = write_trace_files(sc, tmp_path)
        assert [p.name for p in paths] == ["vehicle_0.csv"]

    def test_waypoints_round_trip_bit_for_bit(self, tmp_path):
        sc = generate_topology(disk_spec(100), 13.7, 20.0, seed=31)
        write_trace_files(sc, tmp_path)
        parsed = {}
        for trace in sc.all_traces():
            for t in parse_trace_file(tmp_path / f"vehicle_{trace.vehicle_id}.csv"):
                parsed[t.vehicle_id] = t
        for trace in sc.all_traces():
            columns = [(t.time_s, t.x_m, t.y_m, t.speed_mps, t.heading_rad)
                       for t in (parsed[trace.vehicle_id], trace)]
            assert repr(columns[0]) == repr(columns[1])  # signed zeros too

    def test_manifest_round_trip_restores_scenario(self, tmp_path):
        sc = generate_topology(disk_spec(20), 8.0, 10.0, seed=77)
        save_scenario(sc, tmp_path)
        loaded = load_scenario(tmp_path)
        assert loaded == sc

    def test_each_loaded_sample_is_checked_once(self, tmp_path, monkeypatch):
        # by check_sample as its row is parsed, with its line number; the trace
        # built with the manifest's rate and phase judges whole columns and
        # calls check_sample only to report a failing row
        sc = generate_topology(disk_spec(11), 8.0, 2.0, seed=77)
        save_scenario(sc, tmp_path)
        calls = []

        def counted(*sample):
            calls.append(sample)
            return check_sample(*sample)

        monkeypatch.setattr(scenario_module, "check_sample", counted)
        loaded = load_scenario(tmp_path)
        assert loaded == sc
        samples = sum(len(trace.time_s) for trace in sc.all_traces())
        assert samples == 11 * 21
        assert len(calls) == samples
        # a trace built directly reports its first bad row as check_sample does
        columns = [[float(k) for k in range(5)]] + [[0.0] * 5 for _ in range(4)]
        columns[4][3] = TWO_PI
        with pytest.raises(ValidationError) as direct:
            MobilityTrace(1, *columns)
        with pytest.raises(ValidationError) as row:
            check_sample(3.0, 0.0, 0.0, 0.0, TWO_PI)
        assert str(direct.value) == str(row.value)

    @pytest.mark.parametrize("key", ["vehicles", "hv_id", "duration_s", "seed"])
    def test_manifest_missing_key_rejected(self, tmp_path, key):
        save_scenario(generate_topology(disk_spec(3), 8.0, 1.0, seed=77), tmp_path)
        path = tmp_path / "scenario.json"
        manifest = json.loads(path.read_text())
        del manifest[key]
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValidationError, match=key):
            load_scenario(tmp_path)

    # linear reflects off both road ends, intersection uses both axes and pins
    # the HV; a rewrite of the generators must reproduce these bytes
    PINNED = {
        "disk": (disk_spec(5, radius=300.0), 13.7, 2.0, 7,
                 "46abe0b3780ee8528bc3a965476d47e59bda8a5f8166cca8c9986c4328857cac"),
        "linear": (TopologySpec(kind=Topology.LINEAR, vehicle_count=5, length_m=80.0),
                   30.0, 3.0, 11,
                   "c030b8c964416924abf260b39d6a77b13c85b718e39d25a34fa2d3032a7a07ff"),
        "intersection": (TopologySpec(kind=Topology.INTERSECTION, vehicle_count=6,
                                      arm_length_m=40.0, hv_position=(12.5, -7.25)),
                         15.0, 2.05, 1,
                         "582d4cfb61c238fc3c1d6fff8996197b063c923b0053254770c636bb7a83677f"),
    }

    @pytest.mark.parametrize("case", list(PINNED))
    def test_generated_trace_bytes_are_pinned(self, case, tmp_path):
        spec, speed, duration_s, seed, expected = self.PINNED[case]
        paths = write_trace_files(generate_topology(spec, speed, duration_s, seed), tmp_path)
        data = b"".join(p.read_bytes() for p in paths)
        assert hashlib.sha256(data).hexdigest() == expected

    def test_rerun_same_seed_identical_bytes(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        for d in (a_dir, b_dir):
            save_scenario(generate_topology(disk_spec(10), 5.0, 2.0, seed=55), d)
        for name in [p.name for p in a_dir.iterdir()]:
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


COLUMNS = ("time_s", "x_m", "y_m", "speed_mps", "heading_rad")


def assert_packed(trace):
    for name in COLUMNS:
        column = getattr(trace, name)
        assert type(column) is array and column.typecode == "d", name


class TestPackedColumns:
    def test_generated_traces_are_packed_and_share_one_time_column(self):
        for spec in (disk_spec(4),
                     TopologySpec(kind=Topology.LINEAR, vehicle_count=3, length_m=80.0),
                     TopologySpec(kind=Topology.INTERSECTION, vehicle_count=3,
                                  arm_length_m=40.0)):
            sc = generate_topology(spec, 10.0, 1.0, seed=3)
            for trace in sc.all_traces():
                assert_packed(trace)
            assert len({id(trace.time_s) for trace in sc.all_traces()}) == 1

    def test_generated_columns_hold_no_spare_capacity(self):
        # columns live as long as the scenario; an over-allocated one wastes its tail
        for spec in (disk_spec(4),
                     TopologySpec(kind=Topology.LINEAR, vehicle_count=4, length_m=80.0),
                     TopologySpec(kind=Topology.INTERSECTION, vehicle_count=4,
                                  arm_length_m=40.0)):
            for trace in generate_topology(spec, 10.0, 20.0, seed=3).rv_traces:
                for name in COLUMNS[1:]:
                    column = getattr(trace, name)
                    assert sys.getsizeof(column) == sys.getsizeof(array("d", column)), name

    def test_loaded_traces_are_packed(self, tmp_path):
        save_scenario(generate_topology(disk_spec(3), 10.0, 1.0, seed=3), tmp_path)
        for trace in load_scenario(tmp_path).all_traces():
            assert_packed(trace)
        for trace in parse_trace_file(tmp_path / "vehicle_1.csv"):
            assert_packed(trace)

    def test_constructor_packs_sequences_and_keeps_packed_columns(self):
        packed = array("d", [-0.0, 2.5])
        trace = MobilityTrace(1, [0, 1], (-0.0, 0.0), packed, array("f", [1.0, 2.0]),
                              (0.0, 0.0))
        assert_packed(trace)
        assert trace.y_m is packed
        assert [math.copysign(1.0, v) for v in trace.x_m] == [-1.0, 1.0]
        assert type(trace.time_s[1]) is float and trace.time_s[1] == 1.0

    @pytest.mark.parametrize("value", ["1.0", 10 ** 400])
    def test_unpackable_value_is_a_validation_error(self, value):
        with pytest.raises(ValidationError, match="x_m"):
            MobilityTrace(1, (0.0,), (value,), (0.0,), (0.0,), (0.0,))

    def test_save_load_save_writes_identical_files(self, tmp_path):
        sc = generate_topology(TopologySpec(kind=Topology.INTERSECTION, vehicle_count=6,
                                            arm_length_m=40.0, hv_position=(12.5, -0.0)),
                               15.0, 2.05, seed=1)
        save_scenario(sc, tmp_path / "a")
        save_scenario(load_scenario(tmp_path / "a"), tmp_path / "b")
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestWriteLines:
    HEADER = "t_s,label"

    @staticmethod
    def rows(n):
        return [f"{k * 0.1!r},v\u00e9hicule-{k}" for k in range(n)]

    @pytest.mark.parametrize("n", [0, 1, scenario_module.WRITE_CHUNK_ROWS,
                                   scenario_module.WRITE_CHUNK_ROWS + 1])
    def test_bytes_equal_the_joined_text(self, tmp_path, n):
        rows = self.rows(n)
        write_lines(tmp_path / "out.csv", self.HEADER, rows)
        expected = ("\n".join([self.HEADER, *rows]) + "\n").encode("utf-8")
        assert (tmp_path / "out.csv").read_bytes() == expected

    def test_generator_is_consumed_once(self, tmp_path):
        n = scenario_module.WRITE_CHUNK_ROWS + 1
        pulled = []

        def rows():
            for row in self.rows(n):
                pulled.append(row)
                yield row

        write_lines(tmp_path / "out.csv", self.HEADER, rows())
        assert pulled == self.rows(n)
        expected = ("\n".join([self.HEADER, *pulled]) + "\n").encode("utf-8")
        assert (tmp_path / "out.csv").read_bytes() == expected


def save_edited_manifest(directory, **values):
    """Save a 3-vehicle scenario, then overwrite manifest entries by key."""
    save_scenario(generate_topology(disk_spec(3), 8.0, 1.0, seed=77), directory)
    path = directory / "scenario.json"
    manifest = json.loads(path.read_text())
    manifest.update(values)
    path.write_text(json.dumps(manifest))


class TestManifestValues:
    @pytest.mark.parametrize("key,value", [
        ("hv_id", [1]), ("hv_id", True), ("hv_id", 1.0), ("seed", -5),
        ("seed", 2**70), ("seed", 2**64), ("seed", 7.5), ("seed", True),
        ("duration_s", 0), ("duration_s", -1.0), ("duration_s", "1"),
        ("duration_s", True), ("duration_s", 10**400), ("tx_rate_hz", True),
        ("vehicles", [{"id": True, "file": "vehicle_1.csv"}]),
        ("vehicles", [{"id": 1, "file": 5}])])
    def test_bad_value_is_one_line_config_error(self, key, value, tmp_path, capsys):
        save_edited_manifest(tmp_path, **{key: value})
        code = cli_main(["run", "--trace-dir", str(tmp_path),
                         "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("mode", [("--mode", "batch"),
                                      ("--mode", "realtime", "--emit-udp", "127.0.0.1:9")])
    def test_vehicle_id_past_the_wire_field_is_config_error(self, mode, tmp_path, capsys):
        # the datagram's vehicle_id is u32; such a scenario never starts
        save_edited_manifest(tmp_path)
        path = tmp_path / "scenario.json"
        manifest = json.loads(path.read_text())
        entry = manifest["vehicles"][1]
        entry["id"] = 2**32
        path.write_text(json.dumps(manifest))
        trace_path = tmp_path / entry["file"]
        lines = trace_path.read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        trace_path.write_text("\n".join(
            [lines[0]] + [",".join([r[0], str(2**32), *r[2:]]) for r in rows]) + "\n")
        code = cli_main(["run", "--trace-dir", str(tmp_path), *mode,
                         "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "vehicle_id must lie in [0, 2**32)" in err
        assert not (tmp_path / "out").exists()

    def test_largest_seed_loads(self, tmp_path):
        save_edited_manifest(tmp_path, seed=2**64 - 1)
        assert load_scenario(tmp_path).seed == 2**64 - 1

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_duration_rejected_before_allocating(self, value, tmp_path):
        save_edited_manifest(tmp_path, duration_s=value)  # written as NaN, Infinity
        proc = run_capped_cli("run", "--trace-dir", str(tmp_path),
                              "--out", str(tmp_path / "out"))
        assert proc.returncode == EXIT_CONFIG, proc.stderr[-2000:]
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


    def test_negative_zero_phase_logs_the_scheduled_instant(self, tmp_path):
        # -0.0 lies in [0, period); the first beacon is logged at 0.0, the
        # instant the generation schedule lists
        save_edited_manifest(tmp_path)
        path = tmp_path / "scenario.json"
        manifest = json.loads(path.read_text())
        assert manifest["vehicles"][0]["id"] == manifest["hv_id"]
        manifest["vehicles"][0]["gen_phase_s"] = -0.0
        path.write_text(json.dumps(manifest))
        hv = load_scenario(tmp_path).hv_trace
        assert repr(hv.gen_phase_s) == "-0.0"
        assert repr(generation_schedule(hv, 1.0)[0]) == "0.0"
        assert cli_main(["run", "--trace-dir", str(tmp_path),
                         "--out", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "event_log.csv").read_text().splitlines()
        assert rows[1].startswith("0.0,0.00052,0,")


class TestManifestFiles:
    @staticmethod
    def save_with_file(directory, name):
        save_scenario(generate_topology(disk_spec(3), 8.0, 1.0, seed=77), directory)
        path = directory / "scenario.json"
        manifest = json.loads(path.read_text())
        manifest["vehicles"][1]["file"] = name
        path.write_text(json.dumps(manifest))

    @pytest.mark.parametrize("name", ["../vehicle_1.csv", "ABSOLUTE", "a/../../x.csv",
                                      "vehicle_1.csv\x00"])
    def test_file_outside_the_directory_is_config_error(self, name, tmp_path, capsys):
        scenario_dir = tmp_path / "scenario"
        scenario_dir.mkdir()
        if name == "ABSOLUTE":
            name = str(scenario_dir / "vehicle_1.csv")
        # real trace files wait at each target, so only the check can refuse
        save_scenario(generate_topology(disk_spec(3), 8.0, 1.0, seed=77), tmp_path)
        (tmp_path / "x.csv").write_text((tmp_path / "vehicle_1.csv").read_text())
        self.save_with_file(scenario_dir, name)
        code = cli_main(["run", "--trace-dir", str(scenario_dir),
                         "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "outside the scenario directory" in err

    def test_relative_name_inside_the_directory_loads(self, tmp_path):
        self.save_with_file(tmp_path, "./vehicle_1.csv")
        assert load_scenario(tmp_path).vehicle_count == 3


class TestGeodeticProjection:
    def test_reference_maps_to_origin(self):
        from rtcsim.scenario import project_geodetic
        assert project_geodetic(42.0, -83.0, 42.0, -83.0) == (0.0, 0.0)

    def test_one_degree_of_latitude(self):
        from rtcsim.scenario import project_geodetic
        _, y = project_geodetic(43.0, -83.0, 42.0, -83.0)
        assert y == pytest.approx(111_194.9, rel=1e-4)  # R * pi / 180

    def test_longitude_shrinks_with_latitude(self):
        from rtcsim.scenario import project_geodetic
        x_equator, _ = project_geodetic(0.0, 0.01, 0.0, 0.0)
        x_north, _ = project_geodetic(60.0, 0.01, 60.0, 0.0)
        assert x_north == pytest.approx(x_equator * 0.5, rel=1e-9)


class TestRunSize:
    def test_limit_is_inclusive(self):
        check_run(1.0, 0, float(MAX_RUN_BEACONS))
        with pytest.raises(ValidationError, match=f"5000001 beacons; the limit is "
                                                  f"{MAX_RUN_BEACONS}"):
            check_run(1.0, 0, MAX_RUN_BEACONS + 1.0)

    # each probe would allocate far past the cap if the limit were missing;
    # a duration of 1e300 meets the CBP window limit first
    @pytest.mark.parametrize("args,refusal", [
        (("run", "--set", "run.duration_s=1e300"), "1e+301 points"),
        (("run", "--set", "run.duration_s=1e7", "--set", "metrics.cbp_window_s=100"),
         "2e+10 beacons"),
        (("run", "--set", "scenario.vehicles=100000000"), "4e+10 beacons"),
        (("gen", "--duration", "1e300"), "2e+303 beacons")])
    def test_cli_refuses_in_one_line_before_allocating(self, args, refusal, tmp_path):
        proc = run_capped_cli(*args, "--out", str(tmp_path / "out"))
        assert proc.returncode == EXIT_CONFIG, proc.stderr[-2000:]
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert f"{refusal}; the limit is " in proc.stderr

    def test_saved_scenario_refused_in_one_line_before_allocating(self, tmp_path):
        save_edited_manifest(tmp_path, duration_s=1e300)
        proc = run_capped_cli("run", "--trace-dir", str(tmp_path),
                              "--set", "metrics.cbp_window_s=1e299",
                              "--out", str(tmp_path / "out"))
        assert proc.returncode == EXIT_CONFIG, proc.stderr[-2000:]
        assert proc.stderr.count("\n") == 1
        assert f"3e+301 beacons; the limit is {MAX_RUN_BEACONS}" in proc.stderr


class TestScenarioInvariants:
    def test_duplicate_vehicle_ids_rejected(self):
        hv = parked_trace(0, (0, 0), (0,))
        rv = parked_trace(0, (1, 1), (0,))
        with pytest.raises(ValidationError):
            Scenario(hv, (rv,), 10.0, 1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", range(5))
    def test_waypoint_fields_must_be_finite(self, field, value):
        values = [0.0] * 5
        values[field] = value
        with pytest.raises(ValidationError, match="a trace sample needs"):
            check_sample(*values)
        columns = [(0.0, 1.0) for _ in range(5)]
        columns[field] = (0.0, value) if field else (value, 1.0)
        with pytest.raises(ValidationError, match="a trace sample needs"):
            MobilityTrace(1, *columns)

    def test_coordinates_bounded_so_legs_stay_finite(self):
        beyond = math.nextafter(MAX_COORD_M, math.inf)
        for x, y in ((beyond, 0.0), (0.0, -beyond)):
            with pytest.raises(ValidationError, match="a trace sample needs"):
                check_sample(0.0, x, y, 0.0, 0.0)
        # the widest leg allowed interpolates without overflow or warning
        trace = MobilityTrace(1, (0.0, 1.0), (-MAX_COORD_M, MAX_COORD_M),
                              (MAX_COORD_M, -MAX_COORD_M), (0.0, 0.0), (0.0, 0.0))
        sc = Scenario(parked_trace(0, (0.0, 0.0), (0.0,)), (trace,), 1.0, 0)
        assert sc.beacon_positions[1][5] == position_at(trace, 0.5) == (0.0, 0.0)

    @pytest.mark.parametrize("short", range(5))
    def test_columns_of_unequal_length_rejected(self, short):
        columns = [(0.0, 1.0) for _ in range(5)]
        columns[short] = (0.0,)
        with pytest.raises(ValidationError, match="differ in length"):
            MobilityTrace(1, *columns)

    def test_empty_columns_rejected(self):
        with pytest.raises(ValidationError, match="at least one sample"):
            MobilityTrace(1, (), (), (), (), ())

    def test_waypoint_monotonicity_enforced(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            MobilityTrace(1, (1, 1), (0, 1), (0, 1), (0, 0), (0, 0))

    @pytest.mark.parametrize("duration_s", [0.0, -1.0, math.nan, math.inf])
    def test_duration_must_be_finite_and_positive(self, duration_s):
        hv = parked_trace(0, (0, 0), (0,))
        with pytest.raises(ValidationError, match="duration_s"):
            Scenario(hv, (), duration_s, 1)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
    def test_seed_must_fit_64_bits(self, seed):
        hv = parked_trace(0, (0, 0), (0,))
        with pytest.raises(ValidationError, match="seed"):
            Scenario(hv, (), 1.0, seed)

    @pytest.mark.parametrize("vid", [-1, 2**32, 2**64])
    def test_vehicle_id_must_fit_the_wire(self, vid):
        with pytest.raises(ValidationError, match="vehicle_id"):
            parked_trace(vid, (0, 0), (0,))

    def test_largest_vehicle_id_accepted(self):
        assert parked_trace(2**32 - 1, (0, 0), (0,)).vehicle_id == 2**32 - 1

    def test_phase_must_sit_inside_period(self):
        with pytest.raises(ValidationError):
            parked_trace(1, (0, 0), (0,), 10.0, 0.2)


def reference_sample_ok(time_s, x_m, y_m, speed_mps, heading_rad):
    """The sample rule spelled with chained comparisons, one row at a time."""
    return (0.0 <= time_s < math.inf and -MAX_COORD_M <= x_m <= MAX_COORD_M
            and -MAX_COORD_M <= y_m <= MAX_COORD_M
            and 0.0 <= speed_mps < math.inf and 0.0 <= heading_rad < TWO_PI)


def around(value):
    return [math.nextafter(value, -math.inf), value, math.nextafter(value, math.inf)]


# every edge of the rule with its float neighbours
SAMPLE_EDGES = [math.nan, math.inf, -math.inf, 1.0, *around(0.0), -0.0,
                *around(MAX_COORD_M), *around(-MAX_COORD_M), *around(TWO_PI)]


class TestSampleRule:
    """MobilityTrace's column pass against ``check_sample`` row by row."""

    @settings(max_examples=500, deadline=None, database=None)
    @given(rows=st.integers(1, 6),
           edits=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 4),
                                    st.sampled_from(SAMPLE_EDGES)), max_size=4))
    def test_trace_raises_for_the_first_failing_row(self, rows, edits):
        columns = [[float(k) for k in range(rows)]] + [[0.0] * rows for _ in range(4)]
        for row, column, value in edits:
            columns[column][row % rows] = value
        samples = list(zip(*columns))
        failing = []
        for sample in samples:
            try:
                check_sample(*sample)
            except ValidationError as exc:
                failing.append(str(exc))
            assert (not failing) == reference_sample_ok(*sample), sample
            if failing:
                break
        increasing = all(a < b for a, b in zip(columns[0], columns[0][1:]))
        if failing or not increasing:
            with pytest.raises(ValidationError) as raised:
                MobilityTrace(1, *columns)
            # the sample check runs first, so a bad row wins over a repeated time
            expected = failing[0] if failing else "strictly increasing"
            assert expected in str(raised.value)
        else:
            MobilityTrace(1, *columns)


def reference_disk_columns(rng, radius_m, speed_mps, times):
    """The disk generator's formulas applied one sample at a time."""
    r = radius_m * math.sqrt(rng.uniform(0.0, 1.0))
    theta0 = rng.uniform(0.0, TWO_PI)
    omega = speed_mps / max(r, 1.0)
    thetas = [theta0 + omega * t for t in times]
    return (array("d", [r * math.cos(theta) for theta in thetas]),
            array("d", [r * math.sin(theta) for theta in thetas]),
            array("d", [omega * r]) * len(times),
            array("d", [(theta + 0.5 * math.pi) % TWO_PI for theta in thetas]))


def reference_segment_position(s0, direction, speed, t, lo, hi):
    """1-D position and travel sign on [lo, hi] with elastic end reflection."""
    span = hi - lo
    if span <= 0 or speed == 0.0:
        return s0, float(direction)
    u = (s0 - lo) + direction * speed * t
    m = u % (2.0 * span)
    if m <= span:
        return lo + m, 1.0
    return lo + 2.0 * span - m, -1.0


def reference_road_columns(rng, lo, hi, axis, speed_mps, times):
    """The road generator's reflection applied one sample at a time."""
    s0 = rng.uniform(lo, hi)
    direction = 1 if rng.integers(0, 2) == 1 else -1
    forward, backward = (0.0, math.pi) if axis == 0 else (0.5 * math.pi, 1.5 * math.pi)
    along, signs = zip(*[reference_segment_position(s0, direction, speed_mps, t, lo, hi)
                         for t in times])
    along = array("d", along)
    across = array("d", [0.0]) * len(times)
    xs, ys = (along, across) if axis == 0 else (across, along)
    return (xs, ys, array("d", [speed_mps]) * len(times),
            array("d", [forward if direction * sign >= 0 else backward for sign in signs]))


def assert_same_columns(columns, reference):
    assert [type(c) for c in columns] == [array] * 4
    assert [c.tobytes() for c in columns] == [c.tobytes() for c in reference]


# a zero speed, the smallest and one whose 20 s travel nears the float range
speeds = st.one_of(st.sampled_from([0.0, 5e-324, 8e306]),
                   st.floats(min_value=0.0, max_value=100.0))
# mostly off the 0.1 s sample grid, so the grid ends on the duration itself
durations = st.one_of(st.sampled_from([2.05, 20.0]),
                      st.floats(min_value=1e-3, max_value=20.0))


class TestGeneratorColumns:
    """The array generators against their scalar formulas, bit for bit."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(seed=st.integers(0, 2**64 - 1), speed=speeds, duration=durations,
           radius=st.one_of(st.floats(min_value=5e-324, max_value=1.0),
                            st.floats(min_value=1.0, max_value=1e4)))
    def test_disk_columns(self, seed, speed, duration, radius):
        times = scenario_module._sample_grid(duration)
        columns = scenario_module._disk_columns(np.random.default_rng(seed), radius,
                                                speed, times)
        assert_same_columns(columns, reference_disk_columns(
            np.random.default_rng(seed), radius, speed, times))

    @settings(max_examples=300, deadline=None, database=None)
    @given(seed=st.integers(0, 2**64 - 1), speed=speeds, duration=durations,
           size=st.one_of(st.sampled_from([5e-324, 1e-323, 1e307]),
                          st.floats(min_value=5e-324, max_value=1e307)),
           intersection=st.booleans(), axis=st.integers(0, 1))
    def test_road_columns(self, seed, speed, duration, size, intersection, axis):
        # the bounds generate_topology passes: a linear road's halves, an arm
        lo, hi = (-size, size) if intersection else (-size / 2.0, size / 2.0)
        times = scenario_module._sample_grid(duration)
        columns = scenario_module._road_columns(np.random.default_rng(seed), lo, hi, axis,
                                                speed, times)
        assert_same_columns(columns, reference_road_columns(
            np.random.default_rng(seed), lo, hi, axis, speed, times))
