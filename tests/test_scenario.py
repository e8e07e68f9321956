"""Scenario generation, interpolation, schedules, and trace file round-trips."""

import io
import json
import math

import pytest
from scipy import stats as scipy_stats

from rtcsim.errors import TraceParseError, ValidationError
from rtcsim.scenario import (MobilityTrace, Scenario, Topology, TopologySpec,
                             Waypoint, generate_topology, generation_schedule,
                             load_scenario, parse_trace_file, position_at,
                             save_scenario, write_trace_files)


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
            first = (trace.waypoints[0].x_m, trace.waypoints[0].y_m)
            assert all((w.x_m, w.y_m) == first for w in trace.waypoints)

    def test_disk_containment_exhaustive(self):
        sc = generate_topology(disk_spec(1000), 10.0, 20.0, seed=42)
        r2 = 500.0 ** 2 + 1e-9
        for trace in sc.rv_traces:
            for w in trace.waypoints:
                assert w.x_m ** 2 + w.y_m ** 2 <= r2

    def test_linear_containment_and_reflection(self):
        spec = TopologySpec(kind=Topology.LINEAR, vehicle_count=50, length_m=3000.0)
        sc = generate_topology(spec, 30.0, 60.0, seed=3)
        for trace in sc.rv_traces:
            for w in trace.waypoints:
                assert abs(w.x_m) <= 1500.0 + 1e-9
                assert w.y_m == 0.0

    def test_intersection_on_arms(self):
        spec = TopologySpec(kind=Topology.INTERSECTION, vehicle_count=80,
                            arm_length_m=750.0)
        sc = generate_topology(spec, 15.0, 20.0, seed=9)
        on_x = on_y = 0
        for trace in sc.rv_traces:
            for w in trace.waypoints:
                assert w.x_m == 0.0 or w.y_m == 0.0
                assert abs(w.x_m) <= 750.0 + 1e-9 and abs(w.y_m) <= 750.0 + 1e-9
            if trace.waypoints[0].y_m == 0.0:
                on_x += 1
            else:
                on_y += 1
        assert on_x > 10 and on_y > 10

    def test_hv_at_center_or_explicit(self):
        sc = generate_topology(disk_spec(3), 10.0, 5.0, seed=1)
        assert (sc.hv_trace.waypoints[0].x_m, sc.hv_trace.waypoints[0].y_m) == (0, 0)
        spec = TopologySpec(kind=Topology.DISK, vehicle_count=3, radius_m=500.0,
                            hv_position=(12.0, -7.0))
        sc2 = generate_topology(spec, 10.0, 5.0, seed=1)
        assert sc2.hv_trace.waypoints[0].x_m == 12.0
        assert sc2.hv_trace.waypoints[0].y_m == -7.0

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
        radii = [math.hypot(t.waypoints[0].x_m, t.waypoints[0].y_m)
                 for t in sc.rv_traces]
        result = scipy_stats.kstest(radii, lambda r: (r / 500.0) ** 2)
        assert result.statistic < 0.02

    def test_speed_validation(self):
        with pytest.raises(ValidationError):
            generate_topology(disk_spec(5), -1.0, 20.0, seed=1)


class TestPositionAt:
    def test_single_waypoint_clamps(self):
        trace = MobilityTrace(1, (Waypoint(0.0, 3.0, 4.0, 0.0, 0.0),))
        assert position_at(trace, 10.0) == (3.0, 4.0)
        assert position_at(trace, -1.0) == (3.0, 4.0)

    def test_midpoint(self):
        trace = MobilityTrace(1, (Waypoint(0, 0, 0, 5, 0), Waypoint(2, 10, 0, 5, 0)))
        assert position_at(trace, 1.0) == (5.0, 0.0)

    def test_three_quarter_point(self):
        trace = MobilityTrace(1, (Waypoint(0, 0, 0, 5, 0), Waypoint(2, 10, 0, 5, 0)))
        # hand computation: x = 0 + (1.5 / 2) * (10 - 0)
        assert position_at(trace, 1.5) == (7.5, 0.0)

    def test_clamps_beyond_ends(self):
        trace = MobilityTrace(1, (Waypoint(0, 0, 0, 5, 0), Waypoint(2, 10, 0, 5, 0)))
        assert position_at(trace, 99.0) == (10.0, 0.0)


class TestBeaconPositions:
    def test_entry_k_is_position_at_kth_generation(self):
        sc = generate_topology(disk_spec(12), 10.0, 3.0, seed=5)
        table = sc.beacon_positions
        assert sorted(table) == sorted(t.vehicle_id for t in sc.all_traces())
        for trace in sc.all_traces():
            gens = generation_schedule(trace, sc.duration_s)
            assert table[trace.vehicle_id] == [position_at(trace, g) for g in gens]

    def test_not_built_during_set_up(self, tmp_path):
        # the table belongs to the run's cost, not to generating or loading
        sc = generate_topology(disk_spec(5), 10.0, 1.0, seed=5)
        save_scenario(sc, tmp_path)
        for scenario in (sc, load_scenario(tmp_path)):
            assert "beacon_positions" not in vars(scenario)


class TestGenerationSchedule:
    def test_ten_hertz_over_one_second(self):
        trace = MobilityTrace(1, (Waypoint(0, 0, 0, 0, 0),), 10.0, 0.0)
        ts = generation_schedule(trace, 1.0)
        assert ts == pytest.approx([k * 0.1 for k in range(10)])
        assert len(ts) == 10

    def test_single_period(self):
        trace = MobilityTrace(1, (Waypoint(0, 0, 0, 0, 0),), 10.0, 0.05)
        assert generation_schedule(trace, 0.1) == [0.05]

    def test_count_and_last_timestamp(self):
        trace = MobilityTrace(1, (Waypoint(0, 0, 0, 0, 0),), 10.0, 0.02)
        ts = generation_schedule(trace, 20.0)
        assert len(ts) == 200
        assert ts[-1] == pytest.approx(19.92, abs=1e-12)

    def test_spacing_is_exactly_one_period(self):
        trace = MobilityTrace(1, (Waypoint(0, 0, 0, 0, 0),), 10.0, 0.0371)
        ts = generation_schedule(trace, 20.0)
        for a, b in zip(ts, ts[1:]):
            assert abs((b - a) - 0.1) < 1e-12

    def test_strictly_increasing(self):
        trace = MobilityTrace(1, (Waypoint(0, 0, 0, 0, 0),), 25.0, 0.01)
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
        assert len(traces[0].waypoints) == 2

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
        body = "time_s,vehicle_id,x_m,y_m,speed_mps,heading_rad\n0.0,1,0,0,0,0\nbogus\n"
        with pytest.raises(TraceParseError) as err:
            parse_trace_file(io.StringIO(body))
        assert err.value.line == 3

    def test_duplicate_time_rejected(self):
        body = "0.0,5,0,0,0,0\n0.0,5,1,1,0,0\n"
        with pytest.raises(ValidationError):
            parse_trace_file(io.StringIO(body))

    def test_rows_sorted_by_time(self):
        body = "0.2,5,2,0,0,0\n0.0,5,0,0,0,0\n0.1,5,1,0,0,0\n"
        (trace,) = parse_trace_file(io.StringIO(body))
        assert [w.time_s for w in trace.waypoints] == [0.0, 0.1, 0.2]

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
            assert parsed[trace.vehicle_id].waypoints == trace.waypoints

    def test_manifest_round_trip_restores_scenario(self, tmp_path):
        sc = generate_topology(disk_spec(20), 8.0, 10.0, seed=77)
        save_scenario(sc, tmp_path)
        loaded = load_scenario(tmp_path)
        assert loaded == sc

    @pytest.mark.parametrize("key", ["vehicles", "hv_id", "duration_s", "seed"])
    def test_manifest_missing_key_rejected(self, tmp_path, key):
        save_scenario(generate_topology(disk_spec(3), 8.0, 1.0, seed=77), tmp_path)
        path = tmp_path / "scenario.json"
        manifest = json.loads(path.read_text())
        del manifest[key]
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValidationError, match=key):
            load_scenario(tmp_path)

    def test_rerun_same_seed_identical_bytes(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        for d in (a_dir, b_dir):
            save_scenario(generate_topology(disk_spec(10), 5.0, 2.0, seed=55), d)
        for name in [p.name for p in a_dir.iterdir()]:
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


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


class TestScenarioInvariants:
    def test_duplicate_vehicle_ids_rejected(self):
        hv = MobilityTrace(0, (Waypoint(0, 0, 0, 0, 0),))
        rv = MobilityTrace(0, (Waypoint(0, 1, 1, 0, 0),))
        with pytest.raises(ValidationError):
            Scenario(hv, (rv,), 10.0, 1)

    def test_waypoint_monotonicity_enforced(self):
        with pytest.raises(ValidationError):
            MobilityTrace(1, (Waypoint(1, 0, 0, 0, 0), Waypoint(1, 1, 1, 0, 0)))

    def test_phase_must_sit_inside_period(self):
        with pytest.raises(ValidationError):
            MobilityTrace(1, (Waypoint(0, 0, 0, 0, 0),), 10.0, 0.2)
