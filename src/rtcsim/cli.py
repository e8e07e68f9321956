"""Command-line front end: scenario generation, runs, curves, and reports.

Exit codes: 0 success, 2 configuration or usage error, 3 real-time pacing
violation, 4 scheduler invariant breach, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import metrics
from .config import (RunConfig, build_run_config, dump_config,
                     read_config_document)
from .errors import (ConfigError, RealtimeViolationError, SchedulingError,
                     TraceParseError, ValidationError)
from .mac import run as mac_run
from .mac import write_event_log
from .realtime import run_realtime
from .scenario import Scenario, generate_topology, load_scenario, save_scenario
from .wire import NullSink, UdpSink

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_REALTIME = 3
EXIT_INVARIANT = 4
EXIT_IO = 5

log = logging.getLogger("rtcsim")


def _setup_logging() -> None:
    level_name = os.environ.get("RTCSIM_LOG", "WARNING").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtcsim",
        description="Real-time DSRC vehicle-to-vehicle broadcast channel emulator",
        epilog="Exit codes: 0 ok, 2 config error, 3 realtime violation, "
               "4 invariant breach, 5 I/O failure. "
               "Set RTCSIM_LOG=DEBUG|INFO|WARNING for diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="config document (INI) overlaying defaults")
    common.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="SECTION.KEY=VALUE",
                        help="override one config entry (repeatable)")
    common.add_argument("--seed", type=int, help="shorthand for --set run.seed=...")
    common.add_argument("--out", help="shorthand for --set run.out=...")
    common.add_argument("--dump-config", action="store_true",
                        help="print the effective config document and exit")

    p_gen = sub.add_parser("gen", parents=[common],
                           help="generate scenario trace files and manifest")
    p_gen.add_argument("--topology", choices=["disk", "linear", "intersection"])
    p_gen.add_argument("--radius", type=float, help="disk radius in meters")
    p_gen.add_argument("--length", type=float, help="linear road length in meters")
    p_gen.add_argument("--arm-length", type=float,
                       help="intersection arm length in meters")
    p_gen.add_argument("--vehicles", type=int, help="vehicle count including the HV")
    p_gen.add_argument("--speed", type=float, help="RV speed in m/s")
    p_gen.add_argument("--duration", type=float, help="covered time span in seconds")

    p_run = sub.add_parser("run", parents=[common],
                           help="execute a scenario and write the report files")
    p_run.add_argument("--mode", choices=["batch", "realtime"])
    p_run.add_argument("--emit-udp", metavar="HOST:PORT",
                       help="deliver decoded packets as UDP datagrams")
    p_run.add_argument("--null-sink", action="store_true",
                       help="realtime mode without any delivery target")
    p_run.add_argument("--trace-dir", help="run a saved scenario instead of generating")

    p_rss = sub.add_parser("rss", parents=[common],
                           help="tabulate the signal-strength curve")
    p_rss.add_argument("--profile", help="channel profile name")
    p_rss.add_argument("--d-min", type=float, default=1.0)
    p_rss.add_argument("--d-max", type=float, default=1000.0)
    p_rss.add_argument("--step", type=float, default=1.0)

    p_rep = sub.add_parser("report", help="merge summary rows from run directories")
    p_rep.add_argument("dirs", nargs="+", help="output directories of finished runs")
    p_rep.add_argument("--out", help="write the merged CSV here")

    return parser


def _effective_config(args) -> tuple[RunConfig, str]:
    overrides = list(args.overrides)
    if getattr(args, "seed", None) is not None:
        overrides.append(f"run.seed={args.seed}")
    if getattr(args, "out", None) is not None:
        overrides.append(f"run.out={args.out}")
    for attr, key in (("topology", "scenario.topology"),
                      ("radius", "scenario.radius_m"),
                      ("length", "scenario.length_m"),
                      ("arm_length", "scenario.arm_length_m"),
                      ("vehicles", "scenario.vehicles"),
                      ("speed", "scenario.speed_mps"),
                      ("duration", "run.duration_s"),
                      ("mode", "run.mode"),
                      ("emit_udp", "run.emit_udp"),
                      ("trace_dir", "scenario.trace_dir")):
        value = getattr(args, attr, None)
        if value is not None:
            overrides.append(f"{key}={value}")
    if getattr(args, "trace_dir", None):
        overrides.append("scenario.topology=traces")
    if getattr(args, "null_sink", False):
        overrides.append("run.null_sink=true")
    parser = read_config_document(args.config, overrides)
    return build_run_config(parser), dump_config(parser)


def _materialize_scenario(cfg: RunConfig) -> Scenario:
    if cfg.trace_dir is not None:
        log.info("loading scenario from %s", cfg.trace_dir)
        return load_scenario(cfg.trace_dir)
    log.info("generating %s scenario with %d vehicles (seed %d)",
             cfg.topology_spec.kind.value, cfg.topology_spec.vehicle_count, cfg.seed)
    return generate_topology(cfg.topology_spec, cfg.speed_mps, cfg.duration_s,
                             cfg.seed, tx_rate_hz=cfg.tx_rate_hz)


def cmd_gen(args) -> int:
    cfg, text = _effective_config(args)
    if args.dump_config:
        print(text, end="")
        return EXIT_OK
    if cfg.topology_spec is None:
        raise ConfigError("gen needs a synthetic topology, not trace_dir input")
    scenario = _materialize_scenario(cfg)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    manifest = save_scenario(scenario, cfg.out_dir)
    print(f"wrote {scenario.vehicle_count} trace files + manifest to {cfg.out_dir} "
          f"(topology={cfg.topology_spec.kind.value}, seed={scenario.seed})")
    log.debug("manifest at %s", manifest)
    return EXIT_OK


def _run_label(cfg: RunConfig, scenario: Scenario) -> tuple[str, str]:
    if cfg.topology_spec is not None:
        topology = cfg.topology_spec.kind.value
    else:
        topology = "traces"
    label = f"{topology}-{scenario.vehicle_count}-{cfg.channel_profile}"
    return label, topology


def cmd_run(args) -> int:
    cfg, text = _effective_config(args)
    if args.dump_config:
        print(text, end="")
        return EXIT_OK
    scenario = _materialize_scenario(cfg)
    model = cfg.model
    # refuse metric series past the size limit before the run, not after it
    metrics.cbp_window_count(scenario.duration_s, cfg.cbp_window_s)
    metrics.per_bin_count(cfg.per_max_distance_m, cfg.per_bin_m)
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)

    sink = None
    try:
        if cfg.mode == "realtime":
            if cfg.emit_udp is not None:
                sink = UdpSink(scenario, model, cfg.radio, *cfg.emit_udp)
            else:
                sink = NullSink()
            events, stats = run_realtime(scenario, model, cfg.radio, cfg.mac,
                                         sink, hv_transmits=cfg.hv_transmits)
        else:
            events, stats = mac_run(scenario, model, cfg.radio, cfg.mac,
                                    hv_transmits=cfg.hv_transmits)
    finally:
        if sink is not None:
            sink.close()

    cbp = metrics.compute_cbp(events, scenario, model, cfg.radio,
                              window_s=cfg.cbp_window_s)
    per = metrics.compute_per(events, scenario, scenario.hv_trace.vehicle_id,
                              bin_width_m=cfg.per_bin_m,
                              max_distance_m=cfg.per_max_distance_m)
    rss_points = metrics.rss_curve(cfg.radio, model, 1.0, 1000.0, 1.0)
    label, topology = _run_label(cfg, scenario)
    report = metrics.summarize(events, cbp, per, stats, label=label,
                               topology=topology,
                               vehicles=scenario.vehicle_count,
                               channel=cfg.channel_profile, seed=cfg.seed,
                               duration_s=cfg.duration_s)

    write_event_log(events, out / "event_log.csv")
    metrics.write_cbp_csv(cbp, out / "cbp.csv")
    metrics.write_per_csv(per, out / "per.csv")
    metrics.write_rss_csv(rss_points, out / "rss.csv")
    metrics.write_plot_data(out / "plotdata.csv", cbp=cbp, per=per, rss=rss_points)
    (out / "summary.csv").write_text(report.to_csv(), encoding="utf-8")
    (out / "summary.txt").write_text(report.to_text() + "\n", encoding="utf-8")
    timing = {
        "wall_time_s": stats.wall_time_s,
        "speedup": stats.speedup,
        "realtime_capable": stats.speedup > 1.0,
        "p99_delivery_lag_s": stats.p99_delivery_lag_s,
        "mode": cfg.mode,
    }
    (out / "stats.json").write_text(json.dumps(timing, indent=2, sort_keys=True) + "\n",
                                    encoding="utf-8")
    print(report.to_text())
    return EXIT_OK


def cmd_rss(args) -> int:
    cfg, text = _effective_config(args)
    if args.dump_config:
        print(text, end="")
        return EXIT_OK
    profile = args.profile or cfg.channel_profile
    if profile not in cfg.models:
        raise ConfigError(f"channel profile '{profile}' is not defined")
    points = metrics.rss_curve(cfg.radio, cfg.models[profile],
                               args.d_min, args.d_max, args.step)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.out_dir / "rss.csv"
    metrics.write_rss_csv(points, path)
    print(f"wrote {len(points)} samples to {path}")
    return EXIT_OK


def cmd_report(args) -> int:
    rows = []
    header = None
    for d in args.dirs:
        path = Path(d) / "summary.csv"
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from exc
        if not lines:
            continue
        header = lines[0]
        for line in lines[1:]:
            parts = line.split(",")
            try:
                # channel, topology, density ascending
                rows.append(((parts[3], parts[1], int(parts[2])), line))
            except (IndexError, ValueError):
                raise ConfigError(f"{path}: malformed summary row '{line}'") from None

    rows.sort(key=lambda row: row[0])
    merged = "\n".join([header or metrics.SimReport.CSV_HEADER]
                       + [line for _, line in rows]) + "\n"
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(merged, encoding="utf-8")
    print(merged, end="")
    return EXIT_OK


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"gen": cmd_gen, "run": cmd_run, "rss": cmd_rss, "report": cmd_report}
    try:
        return handlers[args.command](args)
    except RealtimeViolationError as exc:
        log.error("real-time violation: %s", exc)
        print(f"error: real-time violation: {exc}", file=sys.stderr)
        return EXIT_REALTIME
    except SchedulingError as exc:
        log.error("invariant breach: %s", exc)
        print(f"error: invariant breach: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ConfigError, TraceParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
