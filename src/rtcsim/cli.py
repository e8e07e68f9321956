"""Command-line front end: scenario generation, runs, curves, and reports.

Exit codes: 0 success, 2 configuration or usage error, 3 real-time pacing
violation, 4 scheduler invariant breach, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import json
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


class _TraceDir(argparse.Action):
    """``--trace-dir``: sets scenario.trace_dir and scenario.topology = traces."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        setattr(namespace, "scenario.topology", "traces")


def _build_parser() -> argparse.ArgumentParser:
    """Each flag that sets a config entry has the entry's ``section.key`` as dest."""
    parser = argparse.ArgumentParser(
        prog="rtcsim",
        description="Real-time DSRC vehicle-to-vehicle broadcast channel emulator",
        epilog="Exit codes: 0 ok, 2 config error, 3 realtime violation, "
               "4 invariant breach, 5 I/O failure.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="config document (INI) overlaying defaults")
    common.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="SECTION.KEY=VALUE",
                        help="override one config entry (repeatable)")
    common.add_argument("--seed", dest="run.seed", type=int,
                        help="shorthand for --set run.seed=...")
    common.add_argument("--out", dest="run.out", help="shorthand for --set run.out=...")
    common.add_argument("--dump-config", action="store_true",
                        help="print the effective config document and exit")

    p_gen = sub.add_parser("gen", parents=[common],
                           help="generate scenario trace files and manifest")
    p_gen.add_argument("--topology", dest="scenario.topology",
                       choices=["disk", "linear", "intersection"])
    p_gen.add_argument("--radius", dest="scenario.radius_m", type=float,
                       help="disk radius in meters")
    p_gen.add_argument("--length", dest="scenario.length_m", type=float,
                       help="linear road length in meters")
    p_gen.add_argument("--arm-length", dest="scenario.arm_length_m", type=float,
                       help="intersection arm length in meters")
    p_gen.add_argument("--vehicles", dest="scenario.vehicles", type=int,
                       help="vehicle count including the HV")
    p_gen.add_argument("--speed", dest="scenario.speed_mps", type=float,
                       help="RV speed in m/s")
    p_gen.add_argument("--duration", dest="run.duration_s", type=float,
                       help="covered time span in seconds")

    p_run = sub.add_parser("run", parents=[common],
                           help="execute a scenario and write the report files")
    p_run.add_argument("--mode", dest="run.mode", choices=["batch", "realtime"])
    p_run.add_argument("--emit-udp", dest="run.emit_udp", metavar="HOST:PORT",
                       help="deliver decoded packets as UDP datagrams")
    p_run.add_argument("--null-sink", dest="run.null_sink", action="store_const",
                       const="true", help="realtime mode without any delivery target")
    p_run.add_argument("--trace-dir", dest="scenario.trace_dir", action=_TraceDir,
                       help="run a saved scenario instead of generating")

    p_rss = sub.add_parser("rss", parents=[common],
                           help="tabulate the signal-strength curve")
    p_rss.add_argument("--profile", dest="run.channel_profile",
                       help="channel profile name")
    p_rss.add_argument("--d-min", type=float, default=1.0)
    p_rss.add_argument("--d-max", type=float, default=1000.0)
    p_rss.add_argument("--step", type=float, default=1.0)

    p_rep = sub.add_parser("report", help="merge summary rows from run directories")
    p_rep.add_argument("dirs", nargs="+", help="output directories of finished runs")
    p_rep.add_argument("--out", help="write the merged CSV here")

    return parser


def _materialize_scenario(cfg: RunConfig) -> Scenario:
    if cfg.trace_dir is not None:
        return load_scenario(cfg.trace_dir)
    return generate_topology(cfg.topology_spec, cfg.speed_mps, cfg.duration_s,
                             cfg.seed, tx_rate_hz=cfg.tx_rate_hz)


def cmd_gen(args, cfg: RunConfig) -> int:
    if cfg.topology_spec is None:
        raise ConfigError("gen needs a synthetic topology, not trace_dir input")
    scenario = _materialize_scenario(cfg)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    save_scenario(scenario, cfg.out_dir)
    print(f"wrote {scenario.vehicle_count} trace files + manifest to {cfg.out_dir} "
          f"(topology={cfg.topology_spec.kind.value}, seed={scenario.seed})")
    return EXIT_OK


def _run_label(cfg: RunConfig, scenario: Scenario) -> tuple[str, str]:
    if cfg.topology_spec is not None:
        topology = cfg.topology_spec.kind.value
    else:
        topology = "traces"
    label = f"{topology}-{scenario.vehicle_count}-{cfg.channel_profile}"
    return label, topology


def cmd_run(args, cfg: RunConfig) -> int:
    model = cfg.model
    # refuse metric series past the size limit before generating, where the
    # duration is already known, and before the run
    metrics.per_bin_count(cfg.per_max_distance_m, cfg.per_bin_m)
    if cfg.trace_dir is None:
        metrics.cbp_window_count(cfg.duration_s, cfg.cbp_window_s)
    scenario = _materialize_scenario(cfg)
    metrics.cbp_window_count(scenario.duration_s, cfg.cbp_window_s)
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
                               channel=cfg.channel_profile, seed=scenario.seed,
                               duration_s=scenario.duration_s)

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


def cmd_rss(args, cfg: RunConfig) -> int:
    points = metrics.rss_curve(cfg.radio, cfg.model, args.d_min, args.d_max, args.step)
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


def _configured(args) -> int:
    """Build the config from defaults, --config, --set and the flags, in rising
    precedence, then dump it or hand it to the subcommand."""
    flags = [f"{key}={value}" for key, value in vars(args).items()
             if "." in key and value is not None]
    parser = read_config_document(args.config, args.overrides + flags)
    cfg = build_run_config(parser)
    if args.dump_config:
        print(dump_config(parser), end="")
        return EXIT_OK
    return {"gen": cmd_gen, "run": cmd_run, "rss": cmd_rss}[args.command](args, cfg)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return cmd_report(args) if args.command == "report" else _configured(args)
    except RealtimeViolationError as exc:
        print(f"error: real-time violation: {exc}", file=sys.stderr)
        return EXIT_REALTIME
    except SchedulingError as exc:
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
