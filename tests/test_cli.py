"""Command-line surface: gen/run/rss/report, config handling, exit codes."""

import argparse
import configparser
import json

import pytest

from conftest import slow_scheduler
from rtcsim import metrics
from rtcsim.channel import (RadioConfig, default_fowlerville,
                            default_three_log_distance)
from rtcsim.cli import EXIT_CONFIG, EXIT_OK, _build_parser, main
from rtcsim.config import (_default_document, build_run_config, dump_config,
                           parse_endpoint, read_config_document)
from rtcsim.errors import ConfigError
from rtcsim.mac import MacParams
from rtcsim.metrics import rss_curve
from rtcsim.scenario import DEFAULT_TX_RATE_HZ, load_scenario


def run_cli(*args):
    return main(list(args))


class TestConfigDocument:
    def test_defaults_build(self):
        cfg = build_run_config(read_config_document())
        assert cfg.duration_s == 20.0
        assert cfg.mac.tx_interval_s == pytest.approx(520e-6)
        assert cfg.mac.aifs_s == pytest.approx(58e-6)
        assert cfg.radio.cs_threshold_dbm == -94.0
        assert set(cfg.models) == {"three_log_distance", "fowlerville"}
        # the document's defaults come from the objects that own them
        assert cfg.mac == MacParams()
        assert cfg.radio == RadioConfig()
        assert cfg.models["three_log_distance"] == default_three_log_distance()
        assert cfg.models["fowlerville"] == default_fowlerville()
        assert cfg.tx_rate_hz == DEFAULT_TX_RATE_HZ
        assert (cfg.cbp_window_s, cfg.per_bin_m, cfg.per_max_distance_m) == (
            metrics.DEFAULT_CBP_WINDOW_S, metrics.DEFAULT_PER_BIN_M,
            metrics.DEFAULT_PER_MAX_DISTANCE_M)

    def test_set_overrides(self):
        parser = read_config_document(None, ["run.seed=77", "scenario.vehicles=12"])
        cfg = build_run_config(parser)
        assert cfg.seed == 77
        assert cfg.topology_spec.vehicle_count == 12

    def test_config_file_overlay(self, tmp_path):
        doc = tmp_path / "exp.ini"
        doc.write_text("[run]\nduration_s = 3.5\n[scenario]\ntopology = linear\n")
        cfg = build_run_config(read_config_document(str(doc)))
        assert cfg.duration_s == 3.5
        assert cfg.topology_spec.kind.value == "linear"
        doc.write_text("[run]\nduration_s = 3.5\n[sceanrio]\ntopology = linear\n")
        with pytest.raises(ConfigError):
            read_config_document(str(doc))

    def test_dump_round_trips(self):
        parser = read_config_document(None, ["run.seed=123", "mac.cw_max=31"])
        text = dump_config(parser)
        back = configparser.ConfigParser(interpolation=None)
        back.read_string(text)
        a = build_run_config(parser)
        b = build_run_config(back)
        assert a == b

    def test_realtime_needs_a_sink(self):
        parser = read_config_document(None, ["run.mode=realtime"])
        with pytest.raises(ConfigError):
            build_run_config(parser)
        parser = read_config_document(None, ["run.mode=realtime",
                                             "run.null_sink=true"])
        assert build_run_config(parser).mode == "realtime"

    def test_endpoint_parsing(self):
        assert parse_endpoint("127.0.0.1:4000") == ("127.0.0.1", 4000)
        with pytest.raises(ConfigError):
            parse_endpoint("no-port")
        with pytest.raises(ConfigError):
            parse_endpoint("host:abc")
        assert parse_endpoint("h:1") == ("h", 1)
        assert parse_endpoint("h:65535") == ("h", 65535)
        for bad in ("h:0", "h:-1", "h:65536"):
            with pytest.raises(ConfigError):
                parse_endpoint(bad)

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            build_run_config(read_config_document(None, ["run.duration_s=soon"]))
        with pytest.raises(ConfigError):
            build_run_config(read_config_document(None, ["scenario.topology=moebius"]))


class TestGen:
    def test_writes_trace_files_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "scen"
        code = run_cli("gen", "--topology", "disk", "--radius", "500",
                       "--vehicles", "100", "--seed", "42", "--duration", "5",
                       "--out", str(out))
        assert code == EXIT_OK
        files = sorted(p.name for p in out.iterdir())
        assert "scenario.json" in files
        assert sum(1 for f in files if f.startswith("vehicle_")) == 100
        assert "100 trace files" in capsys.readouterr().out

    def test_rerun_same_seed_identical_bytes(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("gen", "--topology", "disk", "--radius", "400",
                           "--vehicles", "20", "--seed", "9", "--duration", "2",
                           "--out", str(out)) == EXIT_OK
            outs.append(out)
        for p in outs[0].iterdir():
            assert p.read_bytes() == (outs[1] / p.name).read_bytes()

    def test_zero_vehicles_is_usage_error(self, tmp_path, capsys):
        code = run_cli("gen", "--topology", "disk", "--vehicles", "0",
                       "--out", str(tmp_path / "x"))
        assert code == EXIT_CONFIG
        assert "error" in capsys.readouterr().err

    def test_road_without_finite_range_is_one_line_config_error(self, tmp_path, capsys):
        # each arm is finite, but the road of two is 2e308 long: the placement
        # draw cannot span it
        out = tmp_path / "o"
        code = run_cli("gen", "--topology", "intersection", "--arm-length", "1e308",
                       "--vehicles", "4", "--out", str(out))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: topology dimensions must be finite")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_generated_scenario_loads_back(self, tmp_path):
        out = tmp_path / "scen"
        run_cli("gen", "--topology", "intersection", "--vehicles", "10",
                "--seed", "4", "--duration", "3", "--out", str(out))
        sc = load_scenario(out)
        assert sc.vehicle_count == 10


class TestRun:
    def test_batch_smoke_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli("run", "--set", "scenario.vehicles=20",
                       "--set", "run.duration_s=2", "--seed", "5",
                       "--out", str(out))
        assert code == EXIT_OK
        for name in ("event_log.csv", "cbp.csv", "per.csv", "rss.csv",
                     "plotdata.csv", "summary.csv", "summary.txt", "stats.json"):
            assert (out / name).exists(), name
        assert "disk" in capsys.readouterr().out
        stats = json.loads((out / "stats.json").read_text())
        assert stats["mode"] == "batch"
        header = (out / "event_log.csv").read_text().splitlines()[0]
        assert header == ("start_s,end_s,transmitter_id,outcome,winner_id,"
                          "n_colliders,hv_distance_m")

    def test_runs_saved_scenario_from_trace_dir(self, tmp_path):
        scen = tmp_path / "scen"
        run_cli("gen", "--topology", "disk", "--vehicles", "8", "--seed", "2",
                "--duration", "2", "--out", str(scen))
        out = tmp_path / "run"
        code = run_cli("run", "--trace-dir", str(scen), "--out", str(out),
                       "--set", "run.duration_s=2")
        assert code == EXIT_OK
        assert (out / "event_log.csv").exists()

    def test_trace_dir_summary_reports_the_saved_scenario(self, tmp_path):
        # the seed and duration come from the saved manifest, not from the
        # run settings, which keep their defaults here
        scen = tmp_path / "scen"
        run_cli("gen", "--vehicles", "4", "--duration", "5", "--seed", "11",
                "--out", str(scen))
        out = tmp_path / "run"
        assert run_cli("run", "--trace-dir", str(scen), "--out", str(out)) == EXIT_OK
        header, row = (out / "summary.csv").read_text().splitlines()
        summary = dict(zip(header.split(","), row.split(",")))
        assert (summary["seed"], summary["duration_s"]) == ("11", "5.0")

    def test_dump_config_echoes_effective_document(self, capsys):
        code = run_cli("run", "--set", "run.seed=31", "--dump-config")
        assert code == EXIT_OK
        text = capsys.readouterr().out
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(text)
        assert parser.get("run", "seed") == "31"

    @pytest.mark.parametrize("entry", [
        "run.duration_s=inf", "run.duration_s=nan", "radio.capture_margin_db=nan",
        "mac.slot_time_us=nan", "scenario.radius_m=nan", "scenario.hv_x=abc",
        "run.duraton_s=1", "rnu.seed=1", "run.seed=-1",
        "run.emit_udp=127.0.0.1:99999"])
    def test_malformed_entry_is_one_line_config_error(self, entry, tmp_path, capsys):
        code = run_cli("run", "--set", entry, "--set", "scenario.vehicles=2",
                       "--out", str(tmp_path / "x"))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unknown_profile_is_config_error(self, tmp_path, capsys):
        code = run_cli("run", "--set", "run.channel_profile=nonexistent",
                       "--out", str(tmp_path / "x"))
        assert code == EXIT_CONFIG

    @pytest.mark.realtime
    def test_realtime_null_sink_smoke(self, tmp_path):
        out = tmp_path / "rt"
        code = run_cli("run", "--mode", "realtime", "--null-sink",
                       "--set", "scenario.vehicles=3",
                       "--set", "run.duration_s=1", "--seed", "3",
                       "--out", str(out))
        assert code == EXIT_OK
        stats = json.loads((out / "stats.json").read_text())
        assert stats["p99_delivery_lag_s"] is not None


def _config_flags():
    """(subcommand, action) of every flag that sets a config entry."""
    subparsers = next(a for a in _build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    return [(command, action) for command, sub in subparsers.choices.items()
            for action in sub._actions if "." in action.dest]


# a value unlike the default for each flag that takes text
FLAG_TEXT = {"run.out": "elsewhere", "run.emit_udp": "127.0.0.1:4000",
             "scenario.trace_dir": "saved", "run.channel_profile": "fowlerville",
             "scenario.topology": "intersection", "run.mode": "realtime"}


class TestConfigFlags:
    def test_every_subcommand_has_flags(self):
        assert {command for command, _ in _config_flags()} == {"gen", "run", "rss"}

    @pytest.mark.parametrize("command,action", _config_flags(),
                             ids=lambda v: v if isinstance(v, str) else v.option_strings[0])
    def test_flag_sets_the_entry_its_dest_names(self, command, action, capsys):
        section, key = action.dest.split(".")
        assert key in _default_document()[section]
        if action.nargs == 0:
            values, expected = [], action.const
        elif action.type is not None:
            values, expected = ["7"], str(action.type("7"))
        else:
            values, expected = [FLAG_TEXT[action.dest]], FLAG_TEXT[action.dest]
        # the --set gives a realtime run its sink; a flag takes precedence
        assert run_cli(command, action.option_strings[0], *values,
                       "--set", "run.emit_udp=127.0.0.1:9", "--dump-config") == EXIT_OK
        dumped = configparser.ConfigParser(interpolation=None)
        dumped.read_string(capsys.readouterr().out)
        assert dumped.get(section, key) == expected
        if action.dest == "scenario.trace_dir":
            assert dumped.get("scenario", "topology") == "traces"


class TestRss:
    def test_row_count(self, tmp_path, capsys):
        out = tmp_path / "rss"
        code = run_cli("rss", "--d-min", "1", "--d-max", "1000", "--step", "1",
                       "--out", str(out))
        assert code == EXIT_OK
        lines = (out / "rss.csv").read_text().splitlines()
        assert len(lines) == 1001  # header + 1000 samples

    def test_output_matches_direct_calls(self, tmp_path):
        out = tmp_path / "rss"
        run_cli("rss", "--d-min", "1", "--d-max", "50", "--step", "0.5",
                "--out", str(out))
        direct = rss_curve(RadioConfig(capture_margin_db=5.0),
                           default_three_log_distance(), 1.0, 50.0, 0.5)
        lines = (out / "rss.csv").read_text().splitlines()[1:]
        parsed = [tuple(map(float, line.split(","))) for line in lines]
        assert parsed == [(d, r) for d, r in direct]

    def test_curve_continuous_at_breakpoints(self, tmp_path):
        out = tmp_path / "rss"
        run_cli("rss", "--d-min", "199", "--d-max", "501", "--step", "0.25",
                "--out", str(out))
        lines = (out / "rss.csv").read_text().splitlines()[1:]
        values = [float(line.split(",")[1]) for line in lines]
        for a, b in zip(values, values[1:]):
            assert abs(a - b) < 0.5  # no jumps across 200 m / 500 m


@pytest.mark.realtime
class TestUdpEmission:
    def test_realtime_emit_udp_delivers_decoded_events(self, tmp_path):
        import socket
        import threading
        from rtcsim.wire import unpack_bsm

        server = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        server.bind(("127.0.0.1", 0))
        server.settimeout(0.5)
        port = server.getsockname()[1]
        received = []
        done = threading.Event()

        def listen():
            while not done.is_set():
                try:
                    data, _ = server.recvfrom(4096)
                    received.append(unpack_bsm(data))
                except socket.timeout:
                    continue

        thread = threading.Thread(target=listen, daemon=True)
        thread.start()
        out = tmp_path / "rt"
        code = run_cli("run", "--mode", "realtime",
                       "--emit-udp", f"127.0.0.1:{port}",
                       "--set", "scenario.vehicles=4",
                       "--set", "run.duration_s=1", "--seed", "6",
                       "--out", str(out))
        import time
        time.sleep(0.6)
        done.set()
        thread.join()
        server.close()
        assert code == EXIT_OK

        rows = (out / "event_log.csv").read_text().splitlines()[1:]
        decoded = [r for r in rows if r.split(",")[3] == "decoded"]
        assert len(received) == len(decoded)
        gen_times = [r.gen_time_s for r in received]
        assert gen_times == sorted(gen_times)


class TestExitCodes:
    def test_realtime_violation_maps_to_exit_3(self, tmp_path, monkeypatch, capsys):
        from rtcsim.errors import RealtimeViolationError
        import rtcsim.cli as cli_mod

        def explode(*args, **kwargs):
            raise RealtimeViolationError("fell behind", events=[], lag_s=0.5)

        monkeypatch.setattr(cli_mod, "run_realtime", explode)
        code = run_cli("run", "--mode", "realtime", "--null-sink",
                       "--set", "scenario.vehicles=2",
                       "--set", "run.duration_s=1", "--out", str(tmp_path / "x"))
        assert code == 3
        assert capsys.readouterr().err == "error: real-time violation: fell behind\n"

    @pytest.mark.realtime
    def test_slow_scheduler_exits_3_without_traceback(self, tmp_path, monkeypatch,
                                                      capsys):
        import rtcsim.realtime as rt
        monkeypatch.setattr(rt, "_iter_events", slow_scheduler())
        code = run_cli("run", "--mode", "realtime", "--null-sink",
                       "--set", "scenario.vehicles=4",
                       "--set", "run.duration_s=1", "--seed", "3",
                       "--out", str(tmp_path / "x"))
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: real-time violation: ") and err.count("\n") == 1

    @pytest.mark.parametrize("mode", [(), ("--mode", "realtime", "--null-sink")],
                             ids=["batch", "realtime"])
    def test_slot_vanishing_at_the_horizon_exits_2(self, mode, tmp_path, capsys):
        # a 1e-300 s slot rounds away against a 1 s horizon, and with it the
        # arbitration gap: transmissions would run back to back
        code = run_cli("run", *mode, "--seed", "3", "--set", "scenario.vehicles=50",
                       "--set", "run.duration_s=1", "--set", "mac.slot_time_us=1e-294",
                       "--set", "mac.sifs_us=0", "--out", str(tmp_path / "x"))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: slot_time_s 1e-300 vanishes") and err.count("\n") == 1

    def test_invariant_breach_maps_to_exit_4(self, tmp_path, monkeypatch, capsys):
        from rtcsim.errors import SchedulingError
        import rtcsim.mac as mac_mod

        def explode(*args, **kwargs):
            raise SchedulingError("conservation broken")

        monkeypatch.setattr(mac_mod, "verify_run_invariants", explode)
        code = run_cli("run", "--set", "scenario.vehicles=2",
                       "--set", "run.duration_s=1", "--out", str(tmp_path / "x"))
        assert code == 4
        assert capsys.readouterr().err == "error: invariant breach: conservation broken\n"


class TestReport:
    def test_merges_and_sorts_by_density(self, tmp_path, capsys):
        dirs = []
        for n, seed in ((30, 1), (10, 2), (20, 3)):
            out = tmp_path / f"run{n}"
            run_cli("run", "--set", f"scenario.vehicles={n}",
                    "--set", "run.duration_s=1", "--seed", str(seed),
                    "--out", str(out))
            dirs.append(str(out))
        capsys.readouterr()
        merged = tmp_path / "merged.csv"
        code = run_cli("report", *dirs, "--out", str(merged))
        assert code == EXIT_OK
        rows = merged.read_text().splitlines()[1:]
        densities = [int(r.split(",")[2]) for r in rows]
        assert densities == [10, 20, 30]

    def test_missing_directory_is_config_error(self, tmp_path, capsys):
        assert run_cli("report", str(tmp_path / "nope")) == EXIT_CONFIG
        (tmp_path / "summary.csv").write_text("label,topology\nrun,disk\n")
        assert run_cli("report", str(tmp_path)) == EXIT_CONFIG

    def test_six_scenario_layout_yields_eighteen_rows(self, tmp_path, capsys):
        # both channel profiles x three topologies x three densities, scaled
        # down in size so the layout check stays fast
        dirs = []
        for profile in ("fowlerville", "three_log_distance"):
            for topology in ("disk", "linear", "intersection"):
                for n in (4, 8, 12):
                    out = tmp_path / f"{profile}-{topology}-{n}"
                    code = run_cli(
                        "run", "--set", f"scenario.topology={topology}",
                        "--set", f"scenario.vehicles={n}",
                        "--set", f"run.channel_profile={profile}",
                        "--set", "run.duration_s=0.5", "--seed", "1",
                        "--out", str(out))
                    assert code == EXIT_OK
                    dirs.append(str(out))
        capsys.readouterr()
        merged = tmp_path / "tables.csv"
        assert run_cli("report", *dirs, "--out", str(merged)) == EXIT_OK
        rows = [r.split(",") for r in merged.read_text().splitlines()[1:]]
        assert len(rows) == 18
        layout = [(r[3], r[1], int(r[2])) for r in rows]
        assert layout == sorted(layout)  # channel, then topology, then density
