"""One benchmark operation, run in a fresh process.

Usage: python3 perfbench/worker.py '<json spec>'

A fresh process per operation keeps the per-process shadowing cache and the
peak-memory high-water mark cold, as they are for a command-line user. The
operation follows the call sequence of ``rtcsim run``: materialise the
scenario, schedule it (batch or paced), compute CBP, PER and the RSS curve,
summarise, and write the artifacts. It then checks its own outputs and
prints one JSON object as its last stdout line.

Modes:
  batch    ``rtcsim.mac.run`` on a generated or saved scenario.
  paced    ``rtcsim.run_realtime`` through ``rtcsim.wire.UdpSink``; the sink
           wrapper only adds one ``perf_counter`` stamp per delivery.
  prepare  generate the scenario and save it with ``save_scenario``.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import resource
import sys
import time
from pathlib import Path

from tracer import Tracer, install_rtcsim_wrappers

RADIUS_M = 500.0
SPEED_MPS = 10.0
DURATION_S = 20.0
TX_RATE_HZ = 10.0
# Nominal duration of reference_loop_s(); calibrated times read as seconds on
# a host where the loop takes this long.
REFERENCE_LOOP_S = 0.1
HASHED_ARTIFACTS = ("event_log.csv", "cbp.csv", "per.csv", "summary.csv")
SUMMARY_COUNTERS = (("packets_generated", "packets_generated"),
                    ("decoded", "packets_decoded"),
                    ("collided", "packets_collided"),
                    ("below_sensitivity", "packets_below_sensitivity"),
                    ("expired", "packets_expired"),
                    ("queued_at_end", "packets_queued_at_end"),
                    ("events", "events"))


def lag_origin(stamps: list[float], end_times: list[float]) -> float:
    """Wall-clock instant onto which the paced run mapped simulated time 0.

    The runner delivers each decoded event no earlier than origin + end_s,
    so every ``stamp - end_s`` is at least the origin and the smallest one
    is the tightest estimate available from outside the runner.
    """
    return min(s - e for s, e in zip(stamps, end_times))


def delivery_lags(stamps: list[float], end_times: list[float]) -> list[float]:
    """Per-delivery lag behind the deadline, measured from the estimated origin."""
    origin = lag_origin(stamps, end_times)
    return [s - e - origin for s, e in zip(stamps, end_times)]


def reference_loop_s(n: int = 60000) -> float:
    """Time a fixed pure-Python loop of the kind rtcsim's hot path runs.

    Integer hashing, log10/hypot arithmetic, tuple building and heap
    traffic, with no rtcsim code, so no change to the program moves it. On
    a shared host the interpreter's speed drifts by up to 1.6x for seconds
    to minutes; dividing a stage's time by this loop's time measured just
    before and after the stage cancels most of that drift.
    """
    t0 = time.perf_counter()
    heap: list = []
    acc = 0.0
    x = 0x9E3779B97F4A7C15
    for i in range(n):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        d = math.hypot((x >> 40) & 1023, (x >> 20) & 1023) + 1.0
        acc += 38.0 * math.log10(d / 200.0)
        heapq.heappush(heap, ((x >> 8) & 0xFFFFF, i, (d, acc)))
        if len(heap) > 1000:
            heapq.heappop(heap)
    return time.perf_counter() - t0


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _scenario(tracer, spec, rtcsim):
    wl = spec["workload"]
    if wl["source"] == "load" and spec["mode"] != "prepare":
        with tracer.span("load"):
            return rtcsim.load_scenario(spec["scenario_dir"])
    topology = rtcsim.TopologySpec(rtcsim.Topology.DISK, wl["vehicles"],
                                   radius_m=RADIUS_M)
    with tracer.span("generate"):
        return rtcsim.generate_topology(topology, SPEED_MPS, DURATION_S,
                                        spec["seed"], tx_rate_hz=TX_RATE_HZ)


def _model(rtcsim, profile: str):
    if profile == "fowlerville":
        return rtcsim.default_fowlerville()
    return rtcsim.default_three_log_distance()


def _report_and_write(tracer, out: Path, events, stats, scenario, model, radio,
                      spec, mode: str) -> None:
    """The ``rtcsim run`` sequence after scheduling: metrics, then artifacts."""
    from rtcsim import metrics
    from rtcsim.mac import write_event_log

    wl = spec["workload"]
    topology = "traces" if wl["source"] == "load" else "disk"
    with tracer.span("cbp"):
        cbp = metrics.compute_cbp(events, scenario, model, radio)
    with tracer.span("per"):
        per = metrics.compute_per(events, scenario, scenario.hv_trace.vehicle_id)
    with tracer.span("rss_curve"):
        rss_points = metrics.rss_curve(radio, model, 1.0, 1000.0, 1.0)
    with tracer.span("summarize"):
        report = metrics.summarize(
            events, cbp, per, stats,
            label=f"{topology}-{scenario.vehicle_count}-{wl['profile']}",
            topology=topology, vehicles=scenario.vehicle_count,
            channel=wl["profile"], seed=spec["seed"], duration_s=DURATION_S)
    with tracer.span("write_artifacts"):
        with tracer.span("write_event_log"):
            write_event_log(events, out / "event_log.csv")
        metrics.write_cbp_csv(cbp, out / "cbp.csv")
        metrics.write_per_csv(per, out / "per.csv")
        metrics.write_rss_csv(rss_points, out / "rss.csv")
        metrics.write_plot_data(out / "plotdata.csv", cbp=cbp, per=per, rss=rss_points)
        (out / "summary.csv").write_text(report.to_csv(), encoding="utf-8")
        (out / "summary.txt").write_text(report.to_text() + "\n", encoding="utf-8")
        timing = {"wall_time_s": stats.wall_time_s, "speedup": stats.speedup,
                  "realtime_capable": stats.speedup > 1.0,
                  "p99_delivery_lag_s": stats.p99_delivery_lag_s, "mode": mode}
        (out / "stats.json").write_text(
            json.dumps(timing, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def check_artifacts(out: Path, stats) -> list[str]:
    """Output checks on a finished run; returns the failures found."""
    errors = []
    if not stats.conservation_holds():
        errors.append("RunStats packet conservation fails")
    rows = (out / "event_log.csv").read_text(encoding="utf-8").splitlines()[1:]
    if len(rows) != stats.events:
        errors.append(f"event_log.csv has {len(rows)} rows, RunStats.events={stats.events}")
    header, row = (out / "summary.csv").read_text(encoding="utf-8").splitlines()[:2]
    summary = dict(zip(header.split(","), row.split(",")))
    for column, field in SUMMARY_COUNTERS:
        if int(summary[column]) != getattr(stats, field):
            errors.append(f"summary.csv {column}={summary[column]} but "
                          f"RunStats.{field}={getattr(stats, field)}")
    return errors


def _layer_figures(tracer: Tracer) -> dict:
    spans = {name: tracer.span_seconds(name)
             for name in ("generate", "load", "invariants", "cbp", "per",
                          "rss_curve", "write_event_log")}
    spans["schedule_self"] = tracer.span_self_seconds("schedule")
    spans["write_self"] = tracer.span_self_seconds("write_artifacts")
    return {"spans": spans,
            "calls": {k: list(v) for k, v in tracer.calls().items()}}


def _event_figures(events, stats) -> dict:
    return {
        "stats": {field: getattr(stats, field) for _, field in SUMMARY_COUNTERS},
        "arrivals_per_event": (sum(ev.arrivals for ev in events) / len(events)
                               if events else 0.0),
    }


def run_batch(spec, rtcsim, tracer, out: Path) -> dict:
    wl = spec["workload"]
    model = _model(rtcsim, wl["profile"])
    radio = rtcsim.RadioConfig()
    params = rtcsim.MacParams()
    loops = [reference_loop_s()]
    t0 = time.perf_counter()
    scenario = _scenario(tracer, spec, rtcsim)
    setup_s = time.perf_counter() - t0
    loops.append(reference_loop_s())
    t_run0 = time.perf_counter()
    cpu0 = time.process_time()
    with tracer.span("schedule") as sched:
        events, stats = rtcsim.run(scenario, model, radio, params)
    _report_and_write(tracer, out, events, stats, scenario, model, radio, spec, "batch")
    run_s = time.perf_counter() - t_run0
    cpu = time.process_time() - cpu0
    loops.append(reference_loop_s())
    setup_scale = 2 * REFERENCE_LOOP_S / (loops[0] + loops[1])
    run_scale = 2 * REFERENCE_LOOP_S / (loops[1] + loops[2])
    schedule_s = sched["end"] - sched["start"]
    result = {
        "peak_rss_mb": _peak_rss_mb(),
        "setup_s": setup_s * setup_scale,
        "run_wall_s": run_s * run_scale,
        "sim_speedup": DURATION_S / (schedule_s * run_scale),
        "cpu_per_sim_s": cpu * run_scale / DURATION_S,
        "raw": {"setup_s": setup_s, "run_wall_s": run_s, "schedule_s": schedule_s,
                "reference_loop_s": loops},
    }
    result["errors"] = check_artifacts(out, stats)
    result.update(_event_figures(events, stats))
    if spec.get("keys"):
        result["decoded_keys"] = sorted(ev.winner.key for ev in events
                                        if ev.outcome is rtcsim.Outcome.DECODED)
    return result


def run_paced(spec, rtcsim, tracer, out: Path) -> dict:
    from rtcsim.wire import UdpSink

    wl = spec["workload"]
    model = _model(rtcsim, wl["profile"])
    radio = rtcsim.RadioConfig()
    params = rtcsim.MacParams()
    loops = [reference_loop_s()]
    t0 = time.perf_counter()
    scenario = _scenario(tracer, spec, rtcsim)
    generate_s = time.perf_counter() - t0
    loops.append(reference_loop_s())
    # the pre-flight dry run follows the second loop at once, so both parts
    # of set-up share one scale; the paced window itself is not scaled
    setup_scale = 2 * REFERENCE_LOOP_S / (loops[0] + loops[1])

    udp = UdpSink(scenario, model, radio, "127.0.0.1", spec["udp_port"])
    stamps: list[float] = []
    stamp = stamps.append
    clock = time.perf_counter

    def sink(event) -> None:
        udp(event)
        stamp(clock())

    # run_realtime aborts some runs at a varying point even untraced, and the
    # wrappers slow its producer further. An abort would make the traced
    # counts unrepeatable, so the traced operation paces without a lag limit
    # and its lags are never reported.
    budget = {"lag_budget_s": math.inf} if spec["trace"] else {}
    aborted = None
    cpu0 = time.process_time()
    t_call = time.perf_counter()
    try:
        with tracer.span("run_realtime"):
            events, stats = rtcsim.run_realtime(scenario, model, radio, params, sink,
                                                **budget)
    except rtcsim.RealtimeViolationError as exc:
        events, stats, aborted = exc.events, None, str(exc)
    finally:
        udp.close()
    t_return = time.perf_counter()

    decoded = [ev for ev in events if ev.outcome is rtcsim.Outcome.DECODED]
    delivered = decoded[:len(stamps)]
    end_times = [ev.end_s for ev in delivered]
    origin = lag_origin(stamps, end_times) if stamps else t_return
    lags = delivery_lags(stamps, end_times) if stamps else []
    result = {
        "aborted": aborted,
        "delivered": [[ev.winner.vehicle_id, ev.winner.seq, lag]
                      for ev, lag in zip(delivered, lags)],
        "preflight_s": origin - t_call,
        "setup_s": (generate_s + origin - t_call) * setup_scale,
        "sim_speedup": DURATION_S / (t_return - origin),
        "raw": {"setup_s": generate_s + origin - t_call, "reference_loop_s": loops},
        "errors": [],
    }
    if stats is not None:
        _report_and_write(tracer, out, events, stats, scenario, model, radio,
                          spec, "realtime")
        result["errors"] = check_artifacts(out, stats)
        result.update(_event_figures(events, stats))
    # an aborted run writes no artifacts, as with the command line
    result["run_wall_s"] = time.perf_counter() - origin
    result["cpu_per_sim_s"] = (time.process_time() - cpu0) / DURATION_S
    result["peak_rss_mb"] = _peak_rss_mb()
    return result


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    import rtcsim

    src = Path(spec["src"]).resolve()
    if src not in Path(rtcsim.__file__).resolve().parents:
        print(f"rtcsim imported from {rtcsim.__file__}, not from {src}", file=sys.stderr)
        return 2
    out = Path(spec["out"])
    out.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(spec["run_id"])
    if spec["mode"] == "prepare":
        rtcsim.save_scenario(_scenario(tracer, spec, rtcsim), spec["scenario_dir"])
        result = {"generate_s": tracer.span_seconds("generate")}
    else:
        if spec["trace"]:
            install_rtcsim_wrappers(tracer)
        try:
            runner = run_paced if spec["mode"] == "paced" else run_batch
            result = runner(spec, rtcsim, tracer, out)
        finally:
            tracer.uninstall()
        if not result["errors"] and (out / "event_log.csv").exists():
            result["sha256"] = {name: _sha256(out / name) for name in HASHED_ARTIFACTS}
        if spec["trace"]:
            result.update(_layer_figures(tracer))
            (out / "spans.json").write_text(json.dumps(tracer.spans, indent=1) + "\n",
                                            encoding="utf-8")
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
