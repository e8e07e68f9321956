"""Scenario generation, interpolation, schedules, and trace file round-trips."""

import io
import json
import math

import pytest
from scipy import stats as scipy_stats

from conftest import run_capped_cli
from rtcsim.cli import EXIT_CONFIG
from rtcsim.cli import main as cli_main
from rtcsim.errors import TraceParseError, ValidationError
from rtcsim.scenario import (MobilityTrace, Scenario, Topology, TopologySpec,
                             Waypoint, generate_topology, generation_schedule,
                             load_scenario, parse_trace_file, position_at,
                             save_scenario, speed_heading_at, write_trace_files)


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


class TestSpeedHeadingAt:
    TRACE = MobilityTrace(1, (Waypoint(1.0, 0, 0, 4.0, 0.5), Waypoint(2.0, 3, 0, 8.0, 1.5),
                              Waypoint(4.0, 3, 9, 2.0, 2.5)))

    @pytest.mark.parametrize("t,expected", [
        (0.0, (4.0, 0.5)), (1.0, (4.0, 0.5)), (1.25, (5.0, 0.5)), (2.0, (8.0, 1.5)),
        (3.5, (3.5, 1.5)), (4.0, (2.0, 2.5)), (9.0, (2.0, 2.5))])
    def test_speed_interpolates_and_heading_holds(self, t, expected):
        assert speed_heading_at(self.TRACE, t) == expected


class TestFixedPosition:
    def test_static_trace_is_parked_at_its_waypoint(self):
        wps = tuple(Waypoint(t, 4.0, -3.0, 0.0, 0.0) for t in (0.0, 0.5, 2.0))
        trace = MobilityTrace(1, wps)
        assert trace.fixed_position == (4.0, -3.0)
        for t in (-1.0, 0.0, 0.3, 0.5, 1.234, 5.0):
            assert position_at(trace, t) == trace.fixed_position

    def test_single_waypoint_is_parked(self):
        assert MobilityTrace(1, (Waypoint(1.0, 2.0, 3.0, 0.0, 0.0),)).fixed_position \
            == (2.0, 3.0)

    @pytest.mark.parametrize("moved", ["x", "y"])
    def test_any_move_unparks(self, moved):
        last = (Waypoint(2.0, 4.5, -3.0, 0.0, 0.0) if moved == "x"
                else Waypoint(2.0, 4.0, -3.5, 0.0, 0.0))
        trace = MobilityTrace(1, (Waypoint(0.0, 4.0, -3.0, 0.0, 0.0), last))
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
        hv = MobilityTrace(0, (Waypoint(0.0, 0.0, 0.0, 0.0, 0.0),))
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
            [MobilityTrace(1, (Waypoint(0.4, -0.0, 7.5, 0.0, 0.0),))], 1.0)

    def test_irregular_spacing(self):
        times = (0.0, 0.013, 0.5, 0.51, 0.9, 1.7, 1.75, 3.0)
        wps = tuple(Waypoint(t, 3.0 * t * t - 1.0, math.sin(7.0 * t), 1.0, 0.0)
                    for t in times)
        self.assert_table_matches([MobilityTrace(1, wps, 10.0, 0.037)], 3.0)

    def test_beacons_before_first_and_after_last_waypoint(self):
        wps = (Waypoint(0.35, 1.0, 2.0, 1.0, 0.0), Waypoint(0.55, 4.0, -2.0, 1.0, 0.0),
               Waypoint(0.8, 9.0, 0.5, 1.0, 0.0))
        trace = MobilityTrace(1, wps, 10.0, 0.02)
        gens = generation_schedule(trace, 1.5)
        assert gens[0] < wps[0].time_s and gens[-1] > wps[-1].time_s
        self.assert_table_matches([trace], 1.5)

    def test_beacon_exactly_on_a_waypoint_time(self):
        # 4 Hz from phase 0 puts beacons at exact quarters, the waypoint times;
        # 0.1 + (0.3 - 0.1) != 0.3, so interpolating up to a waypoint instead
        # of starting from it shows
        wps = (Waypoint(0.0, 0.1, 0.0, 1.0, 0.0), Waypoint(0.25, 0.3, 0.7, 1.0, 0.0),
               Waypoint(0.5, -2.0, 0.1, 1.0, 0.0), Waypoint(1.0, 5.0, 5.0, 1.0, 0.0))
        trace = MobilityTrace(1, wps, 4.0, 0.0)
        assert {0.25, 0.5} <= set(generation_schedule(trace, 1.0))
        self.assert_table_matches([trace], 1.0)

    def test_two_hertz_with_phase(self):
        wps = tuple(Waypoint(0.1 * k, 10.0 * math.cos(k), 10.0 * math.sin(k), 1.0, 0.0)
                    for k in range(31))
        self.assert_table_matches([MobilityTrace(1, wps, 2.0, 0.3137)], 3.0)

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


class TestScenarioInvariants:
    def test_duplicate_vehicle_ids_rejected(self):
        hv = MobilityTrace(0, (Waypoint(0, 0, 0, 0, 0),))
        rv = MobilityTrace(0, (Waypoint(0, 1, 1, 0, 0),))
        with pytest.raises(ValidationError):
            Scenario(hv, (rv,), 10.0, 1)

    def test_waypoint_monotonicity_enforced(self):
        with pytest.raises(ValidationError):
            MobilityTrace(1, (Waypoint(1, 0, 0, 0, 0), Waypoint(1, 1, 1, 0, 0)))

    @pytest.mark.parametrize("duration_s", [0.0, -1.0, math.nan, math.inf])
    def test_duration_must_be_finite_and_positive(self, duration_s):
        hv = MobilityTrace(0, (Waypoint(0, 0, 0, 0, 0),))
        with pytest.raises(ValidationError, match="duration_s"):
            Scenario(hv, (), duration_s, 1)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
    def test_seed_must_fit_64_bits(self, seed):
        hv = MobilityTrace(0, (Waypoint(0, 0, 0, 0, 0),))
        with pytest.raises(ValidationError, match="seed"):
            Scenario(hv, (), 1.0, seed)

    def test_phase_must_sit_inside_period(self):
        with pytest.raises(ValidationError):
            MobilityTrace(1, (Waypoint(0, 0, 0, 0, 0),), 10.0, 0.2)
