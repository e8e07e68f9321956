"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one summary line per
criterion. The three 20 s disk runs (100/500/1000 vehicles) are shared
between the channel-busy, error-rate, and invariant criteria.
"""

import math
import time

import pytest

from conftest import event_signature, run_both_ways
from rtcsim.channel import RadioConfig, default_three_log_distance, rss_dbm
from rtcsim.cli import EXIT_OK, main as cli_main
from rtcsim.mac import (MacParams, OverlapState, Packet, classify, run,
                        verify_run_invariants)
from rtcsim.metrics import compute_cbp, compute_per, rss_curve
from rtcsim.realtime import run_realtime
from rtcsim.scenario import Topology, TopologySpec, generate_topology
from rtcsim.wire import NullSink

MODEL = default_three_log_distance()
RADIO = RadioConfig()
PARAMS = MacParams()

ACCEPTANCE_SEED = 7
DURATION_S = 20.0


def report(criterion: str, detail: str) -> None:
    print(f"\n[PASS] {criterion}: {detail}")


@pytest.fixture(scope="module")
def density_runs():
    """One 20 s disk run per density, with metrics and wall times."""
    out = {}
    for n in (100, 500, 1000):
        spec = TopologySpec(kind=Topology.DISK, vehicle_count=n, radius_m=500.0)
        scenario = generate_topology(spec, 10.0, DURATION_S, seed=ACCEPTANCE_SEED)
        events, stats = run(scenario, MODEL, RADIO, PARAMS)
        cbp = compute_cbp(events, scenario, MODEL, RADIO)
        per = compute_per(events, scenario, hv_id=0)
        per50 = compute_per(events, scenario, hv_id=0, bin_width_m=50.0)
        out[n] = dict(scenario=scenario, events=events, stats=stats,
                      cbp=cbp, per=per, per50=per50)
    return out


def test_criterion_1_oracle_equivalence():
    """1000 seeded 2-5 packet bursts: scheduler and tick replay agree exactly."""
    t0 = time.perf_counter()
    for seed in range(1000):
        scheduled, replayed = run_both_ways(seed=seed)
        a = [event_signature(e) for e in scheduled]
        b = [event_signature(e) for e in replayed]
        assert a == b, f"divergence at seed {seed}"
        for ev_a, ev_b in zip(scheduled, replayed):
            assert abs(ev_a.start_s - ev_b.start_s) <= 1e-9
            assert ev_a.outcome is ev_b.outcome
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report("criterion 1 (oracle equivalence)",
           f"1000 instances identical in {elapsed:.1f}s (< 60s)")


def test_criterion_2_state_boundary_partition():
    """Classification flips exactly at the documented inclusive band edges."""
    eps = 1e-12
    pd = PARAMS.pd_s
    tx = PARAMS.tx_interval_s
    edge = tx + PARAMS.aifs_s
    expected = {
        False: [
            (0.0, OverlapState.COLLISION_PD),
            (pd - eps, OverlapState.COLLISION_PD),
            (pd, OverlapState.COLLISION_PD),
            (pd + eps, OverlapState.BACKOFF),
            (tx - eps, OverlapState.BACKOFF),
            (tx, OverlapState.BACKOFF),
            (tx + eps, OverlapState.AIFS_WAIT),
            (edge - eps, OverlapState.AIFS_WAIT),
            (edge, OverlapState.AIFS_WAIT),
            (edge + eps, OverlapState.POST_TX),
        ],
        True: [
            (0.0, OverlapState.COLLISION_HIDDEN),
            (pd - eps, OverlapState.COLLISION_HIDDEN),
            (pd, OverlapState.COLLISION_HIDDEN),
            (pd + eps, OverlapState.COLLISION_HIDDEN),
            (tx - eps, OverlapState.COLLISION_HIDDEN),
            (tx, OverlapState.COLLISION_HIDDEN),
            (tx + eps, OverlapState.AIFS_WAIT),
            (edge - eps, OverlapState.AIFS_WAIT),
            (edge, OverlapState.AIFS_WAIT),
            (edge + eps, OverlapState.POST_TX),
        ],
    }
    checks = 0
    for hidden, cases in expected.items():
        for diff, want in cases:
            current = Packet(1, 0, 0.0, 0.0, (0.0, 0.0))
            nxt = Packet(2, 0, diff, diff, (0.0, 0.0))
            got = classify(current, nxt, PARAMS, hidden=hidden)
            assert got is want, (diff, hidden, got, want)
            checks += 1
    report("criterion 2 (state boundaries)",
           f"{checks} edge probes flip on the documented sides")


def test_criterion_3_rss_closed_form():
    """Curve matches the hand-written piecewise expression to 1e-9 dB."""
    import random
    model = MODEL

    def analytic(d):
        # written out by hand, independent of the library accumulation
        if d < 1.0:
            loss = 46.6777
        elif d < 200.0:
            loss = 46.6777 + 19.0 * math.log10(d)
        elif d < 500.0:
            loss = 46.6777 + 19.0 * math.log10(200.0) \
                + 38.0 * math.log10(d / 200.0)
        else:
            loss = 46.6777 + 19.0 * math.log10(200.0) \
                + 38.0 * math.log10(500.0 / 200.0) + 38.0 * math.log10(d / 500.0)
        return 20.0 - loss

    rnd = random.Random(13)
    worst = 0.0
    for _ in range(10_000):
        d = rnd.uniform(0.0, 2000.0)
        worst = max(worst, abs(rss_dbm(RADIO, model, d) - analytic(d)))
    assert worst <= 1e-9

    points = rss_curve(RADIO, model, 1.0, 1500.0, 0.25)
    for (_, a), (_, b) in zip(points, points[1:]):
        assert b <= a + 1e-12

    # three regions, each with its configured log-distance slope
    for lo, hi, exponent in ((1.0, 200.0, 1.9), (200.0, 500.0, 3.8),
                             (500.0, 1500.0, 3.8)):
        xs = [math.log10(d) for d, _ in points if lo < d < hi]
        ys = [r for d, r in points if lo < d < hi]
        n = len(xs)
        mx = sum(xs) / n
        my = sum(ys) / n
        slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) \
            / sum((x - mx) ** 2 for x in xs)
        assert slope == pytest.approx(-10.0 * exponent, abs=1e-6)
    report("criterion 3 (RSS closed form)",
           f"10000 samples within {worst:.2e} dB; monotone; 3 region slopes")


def test_criterion_4_cbp_density_trend(density_runs):
    """Average channel busy: ~half at 100 vehicles, saturated at 500+."""
    cbp = {n: 100.0 * density_runs[n]["cbp"].average for n in (100, 500, 1000)}
    walls = sum(density_runs[n]["stats"].wall_time_s for n in (100, 500, 1000))
    assert 44.0 <= cbp[100] <= 60.0, cbp
    assert 85.0 <= cbp[500] <= 96.0, cbp
    assert 85.0 <= cbp[1000] <= 96.0, cbp
    assert cbp[100] < cbp[500] <= cbp[1000] + 1.0, cbp
    assert walls < 30.0
    report("criterion 4 (CBP density trend)",
           f"CBP = {cbp[100]:.2f}/{cbp[500]:.2f}/{cbp[1000]:.2f}% "
           f"(runs took {walls:.1f}s < 30s)")


def test_criterion_5_per_trends(density_runs):
    """Error rate: near zero at 100 vehicles, 80-95% at 1000, rising with distance."""
    per100 = 100.0 * density_runs[100]["per"].average
    per1000 = 100.0 * density_runs[1000]["per"].average
    assert per100 <= 5.0, per100
    assert 80.0 <= per1000 <= 95.0, per1000

    smoothed = [b.per for b in density_runs[1000]["per50"].bins if b.per is not None]
    inversions = sum(1 for a, b in zip(smoothed, smoothed[1:]) if b < a - 1e-12)
    assert inversions <= 1, smoothed
    report("criterion 5 (PER trends)",
           f"PER(100) = {per100:.2f}% <= 5%, PER(1000) = {per1000:.2f}% in [80,95], "
           f"{inversions} inversion(s) across 50 m bins")


@pytest.mark.realtime
def test_criterion_6_realtime_performance(density_runs):
    """1000-vehicle batch beats the clock; paced 100-vehicle run stays tight."""
    batch_wall = density_runs[1000]["stats"].wall_time_s
    assert batch_wall < 20.0, batch_wall

    scenario = density_runs[100]["scenario"]
    events, stats = run_realtime(scenario, MODEL, RADIO, PARAMS, NullSink())
    assert stats.p99_delivery_lag_s is not None
    assert stats.p99_delivery_lag_s < 0.010, stats.p99_delivery_lag_s
    batch_events = density_runs[100]["events"]
    assert [event_signature(e) for e in events] == \
        [event_signature(e) for e in batch_events]
    target = "met" if batch_wall < 10.0 else "missed"
    report("criterion 6 (real-time performance)",
           f"1000-vehicle batch wall {batch_wall:.2f}s < 20s (10s target {target}); "
           f"realtime p99 lag {1e3 * stats.p99_delivery_lag_s:.2f}ms < 10ms, "
           f"0 violations")


DETERMINISM_ARTIFACTS = ("event_log.csv", "cbp.csv", "per.csv", "rss.csv",
                         "plotdata.csv", "summary.csv")


@pytest.mark.realtime
def test_criterion_7_determinism(tmp_path):
    """Same config and seed give byte-identical logs and reports in both modes."""
    def execute(mode, out):
        args = ["run", "--set", "scenario.vehicles=8",
                "--set", "run.duration_s=2", "--seed", "11",
                "--mode", mode, "--out", str(out)]
        if mode == "realtime":
            args.append("--null-sink")
        assert cli_main(args) == EXIT_OK

    compared = 0
    for mode in ("batch", "realtime"):
        a = tmp_path / f"{mode}_a"
        b = tmp_path / f"{mode}_b"
        execute(mode, a)
        execute(mode, b)
        for name in DETERMINISM_ARTIFACTS:
            assert (a / name).read_bytes() == (b / name).read_bytes(), \
                f"{mode}/{name} differs between identical runs"
            compared += 1
    report("criterion 7 (determinism)",
           f"{compared} artifacts byte-identical across repeated batch and "
           f"realtime runs")


def test_criterion_8_invariants_on_acceptance_runs(density_runs):
    """Conservation and idle-gap invariants hold on every acceptance run."""
    for n, bundle in density_runs.items():
        verify_run_invariants(bundle["events"], bundle["stats"], PARAMS,
                              MODEL, RADIO)
        assert bundle["stats"].conservation_holds(), n
    report("criterion 8 (run invariants)",
           "conservation and idle-gap checks pass on the 100/500/1000 runs")
