"""Layered benchmark of rtcsim, run from the repository root.

Usage:
  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                           [--record-sha]

Workloads (their rationale is recorded in BENCHMARK.json):
  disk1000        batch, disk of radius 500 m, 1000 vehicles, three_log_distance
  traces100-fowl  batch, same geometry, 100 vehicles, fowlerville, reloaded
                  from trace files saved before timing starts
  paced500-udp    run_realtime on the same geometry with 500 vehicles, sending
                  every decoded event through rtcsim.wire.UdpSink to a
                  receiver process (dut.py)
  paced1000-udp   the same on the disk1000 scenario; run by hand only. On a
                  2-core host run_realtime aborts about a third of its
                  operations there (delivery lag past the 100 ms budget within
                  the first few dozen deliveries), so its figures are bimodal
                  from run to run. At 500 vehicles none of 64 operations
                  aborted; the largest lag seen at seed 7 was 62 ms.

The seed (default 7) only generates the scenario. Every operation runs in a
fresh worker process (worker.py), one at a time, and operations start until
``--seconds`` have passed; a paced operation always runs its whole 20 s
scenario. Each figure is the median over the operations of the run.

Set-up and batch times are calibrated against the host's speed: each
operation times a fixed pure-Python loop (worker.reference_loop_s) before
set-up and after it, and batch operations again after the run; each stage's
seconds are scaled by worker.REFERENCE_LOOP_S over the mean of its two
bracketing loop times. On a shared 2-core host the interpreter's speed drifts
by up to 1.6x for seconds to minutes. Over sets of ten 35 s runs, the
calibration cut the spread (IQR/median) of the per-run run_wall_s from
0.05-0.36 raw to 0.02-0.04 on traces100-fowl and from 0.09-0.25 to 0.06-0.15
on disk1000, and the gap between two such sets at seed 7 on disk1000 from 36%
to 9%. Each operation's raw seconds are printed next to its calibrated ones.
The paced window itself is wall-clock bound and is not scaled.

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
BENCHMARK.json. With ``--trace 1`` every untraced operation is paired with
one that wraps rtcsim's stage and hot calls (tracer.py), and the line
reports the per-layer metrics; lag figures still come from the untraced
paced operations, because the wrappers slow the producer.

Every operation's outputs are checked: packet conservation, event-log rows
against RunStats.events, summary.csv counters against RunStats, artifacts
byte-identical across the run, and for paced runs identity with the batch
log of the same scenario plus the receiver's decoded (vehicle_id, seq) set.
``--record-sha`` stores the artifact hashes in expected_sha256.json, against
which later runs print whether their outputs match.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import socket
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work"
EXPECTED_SHA = BENCH / "expected_sha256.json"
ON_TIME_S = 1e-3
# Longest a single worker may take; a traced paced operation takes about 25 s.
OP_TIMEOUT_S = 60.0

WORKLOADS = {
    "disk1000": {"mode": "batch", "source": "generate", "vehicles": 1000,
                 "profile": "three_log_distance"},
    "traces100-fowl": {"mode": "batch", "source": "load", "vehicles": 100,
                       "profile": "fowlerville"},
    "paced500-udp": {"mode": "paced", "source": "generate", "vehicles": 500,
                     "profile": "three_log_distance"},
    # by hand only: aborts a share of its operations, see the module docstring
    "paced1000-udp": {"mode": "paced", "source": "generate", "vehicles": 1000,
                      "profile": "three_log_distance"},
}


class OpFailed(Exception):
    """A worker process crashed, timed out or printed no result."""


def environment_stamp() -> dict:
    stamp = {"python": platform.python_version(), "numpy": metadata.version("numpy"),
             "nproc": os.cpu_count(), "git_sha": None, "git_dirty": None}
    try:
        # a checkout without .git may sit inside another repository
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             text=True, capture_output=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            stamp["git_sha"] = lines[1]
            status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                    text=True, capture_output=True, timeout=10)
            stamp["git_dirty"] = bool(status.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        pass
    return stamp


def paced_outcome(expected: set, received: set,
                  delivered: list) -> tuple[int, int, int]:
    """(attempted, failed, on time) for one paced operation.

    Each decoded event of the batch log is one attempted delivery. It
    succeeds when the runner delivered it and the receiver decoded the
    winner's (vehicle_id, seq); deliveries an abort cut off never arrive and
    fail. A success is on time when it reached the sink within ON_TIME_S of
    its deadline.
    """
    sent = {(vid, seq) for vid, seq, _ in delivered}
    ok = expected & received & sent
    on_time = sum(1 for vid, seq, lag in delivered
                  if lag <= ON_TIME_S and (vid, seq) in ok)
    return len(expected), len(expected) - len(ok), on_time


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))]


class Runner:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.name = workload
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.dir = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(BENCH)] + ([self.env["PYTHONPATH"]]
                                               if self.env.get("PYTHONPATH") else []))
        self.errors: list[str] = []
        self.prepared: dict | None = None

    def worker(self, mode: str, label: str, trace: bool = False, **extra) -> dict:
        spec = {"workload": self.workload, "seed": self.seed, "mode": mode,
                "trace": trace, "out": str(self.dir / label),
                "scenario_dir": str(self.dir / "scenario"), "src": str(ROOT / "src"),
                "run_id": f"{self.name}-{self.seed}-{label}", **extra}
        try:
            proc = subprocess.run([sys.executable, str(BENCH / "worker.py"),
                                   json.dumps(spec)], env=self.env, text=True,
                                  capture_output=True, timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise OpFailed(f"{label}: worker timed out") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            raise OpFailed(f"{label}: worker exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def paced_op(self, label: str, trace: bool) -> tuple[dict, dict]:
        """One paced operation with a fresh receiver; returns (worker, receiver) reports."""
        dut = subprocess.Popen([sys.executable, str(BENCH / "dut.py")], env=self.env,
                               text=True, stdout=subprocess.PIPE)
        try:
            port = int(dut.stdout.readline())
            result = self.worker("paced", label, trace, udp_port=port)
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
                sock.sendto(b"STOP", ("127.0.0.1", port))
            out, _ = dut.communicate(timeout=30)
            return result, json.loads(out.strip().splitlines()[-1])
        except (ValueError, subprocess.TimeoutExpired) as exc:
            raise OpFailed(f"{label}: receiver failed: {exc}") from exc
        finally:
            if dut.poll() is None:
                dut.kill()
            dut.wait()

    def run(self) -> tuple[list, list, dict | None]:
        """All operations of the run: (untraced ops, traced ops, batch reference)."""
        untraced, traced = [], []
        self.dir.mkdir(parents=True, exist_ok=True)
        if self.workload["source"] == "load":
            self.prepared = self.worker("prepare", "prepare")
        deadline = time.monotonic() + self.seconds
        paced = self.workload["mode"] == "paced"
        while not untraced or time.monotonic() < deadline:
            for trace, ops in ((False, untraced), (True, traced))[:1 + self.trace]:
                label = f"op{len(ops)}{'-traced' if trace else ''}"
                try:
                    ops.append(self.paced_op(label, trace) if paced
                               else (self.worker("batch", label, trace), None))
                except OpFailed as exc:
                    self.errors.append(str(exc))
                    ops.append(None)
                if not any(ops) and self.errors:
                    return untraced, traced, None
        reference = None
        if paced:
            try:
                reference = self.worker("batch", "reference", keys=True)
            except OpFailed as exc:
                self.errors.append(str(exc))
        return untraced, traced, reference


def load_expected() -> dict:
    if EXPECTED_SHA.exists():
        return json.loads(EXPECTED_SHA.read_text(encoding="utf-8"))
    return {}


def check_and_count(runner: Runner, untraced, traced, reference, log) -> dict:
    """Output checks over every operation; returns the counts and shas."""
    errors = list(runner.errors)
    attempted = failed = 0
    shas = []
    paced = runner.workload["mode"] == "paced"
    expected_keys = set()
    if paced:
        if reference is None or reference["errors"]:
            errors.append("batch reference run failed")
        else:
            expected_keys = {tuple(k) for k in reference["decoded_keys"]}
            shas.append(("reference", reference["sha256"]))
    labelled = ([(f"op{i}", op) for i, op in enumerate(untraced)]
                + [(f"op{i}-traced", op) for i, op in enumerate(traced)])
    for label, op in labelled:
        if op is None:
            attempted += max(len(expected_keys), 1) if paced else 1
            failed += max(len(expected_keys), 1) if paced else 1
            continue
        result, dut = op
        op_errors = list(result["errors"])
        if paced:
            n, lost, on_time = paced_outcome(
                expected_keys, {tuple(k) for k in dut["keys"]}, result["delivered"])
            attempted += max(n, 1)
            failed += lost if n else 1
            result["on_time_frac"] = on_time / n if n else 0.0
            if result["aborted"]:
                log(f"  {label}: paced run aborted: {result['aborted']}")
            if dut["bad"]:
                op_errors.append(f"{dut['bad']} undecodable datagrams")
        else:
            attempted += 1
            failed += 1 if op_errors else 0
        if "sha256" in result:
            shas.append((label, result["sha256"]))
        for e in op_errors:
            errors.append(f"{label}: {e}")
        detail = f", setup_s {result['setup_s']:.3f}, run_wall_s {result['run_wall_s']:.3f}"
        if "raw" in result:
            raw = result["raw"]
            detail += (" (raw " + "".join(f"{k} {raw[k]:.3f} s, " for k in
                                           ("setup_s", "run_wall_s") if k in raw)
                       + f"reference loop {statistics.mean(raw['reference_loop_s']):.4f} s)")
        if paced:
            detail += (f", {len(result['delivered'])}/{n} delivered, "
                       f"on time {result['on_time_frac']:.4f}")
        log(f"  {label}: output checks {'ok' if not op_errors else 'FAILED'}"
            + (f" ({len(op_errors)} failures)" if op_errors else "") + detail)
    distinct = {json.dumps(s, sort_keys=True) for _, s in shas}
    if len(distinct) > 1:
        errors.append("artifacts differ between operations of the run"
                      + (" (paced log differs from the batch log)" if paced else ""))
    for e in errors:
        log(f"  check failed: {e}")
    return {"attempted": attempted, "failed": failed, "errors": errors,
            "sha256": shas[0][1] if len(distinct) == 1 else None}


def med(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def end_to_end(runner: Runner, untraced, counts) -> dict:
    results = [op[0] for op in untraced if op is not None]
    # aborted paced operations count in on_time_frac and ok_frac, not in the
    # medians of whole-run times
    complete = [r for r in results if not r.get("aborted")] or results
    names = ["setup_s", "run_wall_s", "sim_speedup", "cpu_per_sim_s", "peak_rss_mb"]
    figures = {name: med(r[name] for r in complete) for name in names}
    # a batch run delivers nothing against the wall clock, so nothing is late
    figures["on_time_frac"] = (med(r["on_time_frac"] for r in results)
                               if runner.workload["mode"] == "paced" else 1.0)
    figures["ok_frac"] = (counts["attempted"] - counts["failed"]) / counts["attempted"]
    return figures


def per_layer(runner: Runner, untraced, traced) -> tuple[dict, bool]:
    """Per-layer figures, and whether the call counts repeat across traced ops."""
    # an aborted paced operation stops after a few deliveries; its lags count,
    # but its length would distort the medians of whole-run figures
    plain = [op for op in untraced if op is not None]
    complete = [op for op in plain if not op[0].get("aborted")]
    layered = [op[0] for op in traced if op is not None]
    calls = [r["calls"] for r in layered]
    spans = [r["spans"] for r in layered]

    def n(name):
        return calls[0].get(name, [0, 0.0])[0] if calls else 0

    def self_s(*names):
        return med(sum(c.get(name, [0, 0.0])[1] for name in names) for c in calls)

    def span(name):
        return med(s[name] for s in spans)

    first = next((r for r in layered if "stats" in r), None)
    stats = first["stats"] if first else {}
    figures = {
        "scenario.generate_s": (runner.prepared["generate_s"]
                                if runner.workload["source"] == "load"
                                else span("generate")),
        "scenario.load_s": span("load"),
        "scenario.position_at_calls": n("scenario.position_at"),
        "scenario.position_at_s": self_s("scenario.position_at"),
        "channel.is_hidden_calls": n("channel.is_hidden"),
        "channel.is_hidden_s": self_s("channel.is_hidden"),
        "channel.path_loss_calls": n("channel.path_loss_db"),
        "channel.path_loss_s": self_s("channel.path_loss_db"),
        "channel.capture_calls": n("channel.resolve_capture"),
        "channel.capture_s": self_s("channel.resolve_capture"),
        "mac.resolve_s": self_s("mac.resolve_transmission"),
        "mac.schedule_s": span("schedule_self"),
        "mac.invariants_s": span("invariants"),
        "mac.events": stats.get("events", 0),
        "mac.classify_calls": n("mac.classify"),
        "mac.classify_s": self_s("mac.classify"),
        "mac.backoff_draws": n("mac.KeyedBackoffRng.draw"),
        "mac.redeferrals": n("mac.redeferral"),
        "mac.aifs_moves": n("mac.reschedule_after_aifs"),
        "mac.heap_pushes": n("heapq.heappush"),
        "mac.heap_pops": n("heapq.heappop"),
        "mac.arrivals_per_event": first["arrivals_per_event"] if first else 0.0,
        "mac.decoded_frac": (stats["packets_decoded"] / stats["packets_generated"]
                             if stats.get("packets_generated") else 0.0),
        "mac.write_event_log_s": span("write_event_log"),
        "metrics.cbp_s": span("cbp"),
        "metrics.per_s": span("per"),
        "metrics.rss_curve_s": span("rss_curve"),
        "metrics.write_s": span("write_self"),
        "trace.overhead_s": (med(r["run_wall_s"] for r in layered)
                             - med(r["run_wall_s"] for r, _ in complete)),
    }
    # lags come from the untraced operations: the wrappers slow the producer.
    # Batch operations deliver nothing, so their realtime and wire figures are 0.
    lags = [lag for r, _ in plain for _, _, lag in r.get("delivered", ())]
    figures.update({
        "realtime.preflight_s": med(r.get("preflight_s") for r, _ in plain),
        "realtime.lag_p50_ms": 1e3 * quantile(lags, 0.50) if lags else 0.0,
        "realtime.lag_p99_ms": 1e3 * quantile(lags, 0.99) if lags else 0.0,
        "realtime.lag_max_ms": 1e3 * max(lags) if lags else 0.0,
        "realtime.deliveries": med(len(r["delivered"]) for r, d in complete if d),
        "wire.encode_calls": n("wire.pack_bsm"),
        "wire.encode_s": self_s("wire.event_to_record", "wire.pack_bsm"),
        "wire.datagrams_received": med(d["received"] for _, d in complete if d),
        "wire.datagrams_bad": med(d["bad"] for _, d in plain if d),
    })
    repeat = {json.dumps({k: v[0] for k, v in c.items()}, sort_keys=True) for c in calls}
    return figures, len(repeat) <= 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-sha", action="store_true",
                        help="store this run's artifact hashes as the expected ones")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rtcsim" / "__init__.py").is_file():
        print(f"error: rtcsim sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2

    def log(line: str) -> None:
        print(line, flush=True)

    env = environment_stamp()
    load_before = os.getloadavg()[0]
    log(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}")
    log(f"  env: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
        f"git {env['git_sha'] or 'unknown'}"
        + ("" if env["git_dirty"] is None else f" dirty={env['git_dirty']}"))
    if load_before > (env["nproc"] or 1):
        log(f"  WARNING: set started with 1-min load average {load_before:.2f} "
            f"above nproc={env['nproc']}")

    runner = Runner(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        untraced, traced, reference = runner.run()
        counts = check_and_count(runner, untraced, traced, reference, log)
        if args.trace:
            figures, counts_repeat = per_layer(runner, untraced, traced)
            spans_out = WORK / f"spans-{args.workload}-{args.seed}.json"
            spans_out.write_text(json.dumps(
                [json.loads((runner.dir / d / "spans.json").read_text())
                 for d in sorted(p.name for p in runner.dir.iterdir())
                 if (runner.dir / d / "spans.json").exists()]) + "\n")
        else:
            figures = end_to_end(runner, untraced, counts)
    finally:
        shutil.rmtree(runner.dir, ignore_errors=True)

    expected = load_expected()
    recorded = expected.get(args.workload, {}).get(str(args.seed))
    if counts["sha256"] is None:
        verdict = "unavailable"
    elif recorded is None:
        verdict = "no recorded hashes for this seed"
    else:
        verdict = "match" if recorded == counts["sha256"] else "MISMATCH (behaviour changed)"
    log(f"  artifacts vs recorded sha256: {verdict}")
    if args.record_sha and counts["sha256"] is not None and not counts["errors"]:
        expected.setdefault(args.workload, {})[str(args.seed)] = counts["sha256"]
        EXPECTED_SHA.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if args.trace:
        if not counts_repeat:
            log("  WARNING: call counts differ between traced operations")
        log(f"  tracing overhead: {figures['trace.overhead_s']:+.3f} s of run_wall_s")
    for name, value in figures.items():
        log(f"  {name:<26} {value:>14.6g} {units[name]}")
    load_after = os.getloadavg()[0]
    log(f"  load average: {load_before:.2f} before, {load_after:.2f} after")

    result = {
        "correct": not counts["errors"],
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
