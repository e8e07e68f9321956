"""Wall-clock pacing, delivery sinks, and the datagram format."""

import gc
import socket
import threading
import time

import pytest

from conftest import event_signature
from rtcsim.channel import RadioConfig, default_three_log_distance
from rtcsim.errors import (RealtimeViolationError, SchedulingError,
                           ValidationError)
from rtcsim.mac import MacParams, Outcome, run
from rtcsim.realtime import estimate_speedup, run_realtime
from rtcsim.scenario import Topology, TopologySpec, generate_topology
from rtcsim.wire import (BSM_DATAGRAM_SIZE, BsmRecord, NullSink, UdpSink,
                         pack_bsm, unpack_bsm)

MODEL = default_three_log_distance()
RADIO = RadioConfig()
PARAMS = MacParams()


def small_scenario(n=5, duration=2.0, seed=3):
    spec = TopologySpec(kind=Topology.DISK, vehicle_count=n, radius_m=300.0)
    return generate_topology(spec, 10.0, duration, seed=seed)


class TestWireFormat:
    def test_pack_unpack_round_trip(self):
        rec = BsmRecord(vehicle_id=7, seq=42, gen_time_s=1.25, x_m=-12.5,
                        y_m=300.0, speed_mps=13.5, heading_rad=1.57,
                        rss_dbm=-61.25)
        data = pack_bsm(rec)
        assert len(data) == BSM_DATAGRAM_SIZE == 48
        back = unpack_bsm(data)
        assert back.vehicle_id == 7 and back.seq == 42
        assert back.gen_time_s == 1.25 and back.x_m == -12.5
        assert back.rss_dbm == pytest.approx(-61.25, abs=1e-5)

    def test_bad_magic_rejected(self):
        data = b"\x00" * BSM_DATAGRAM_SIZE
        with pytest.raises(ValidationError):
            unpack_bsm(data)

    def test_truncated_datagram_rejected(self):
        with pytest.raises(ValidationError):
            unpack_bsm(b"\x01\x02")


@pytest.mark.realtime
class TestRealtime:
    def test_empty_scenario_returns_immediately(self):
        sc = small_scenario(n=1, duration=0.5)
        t0 = time.perf_counter()
        events, stats = run_realtime(sc, MODEL, RADIO, PARAMS, NullSink(),
                                     hv_transmits=False, skip_budget_check=True)
        assert events == []
        assert time.perf_counter() - t0 < 0.5
        assert stats.p99_delivery_lag_s == 0.0

    def test_log_identical_to_batch_run(self):
        sc = small_scenario(n=5, duration=1.5)
        batch, _ = run(sc, MODEL, RADIO, PARAMS)
        paced, stats = run_realtime(sc, MODEL, RADIO, PARAMS, NullSink())
        key = lambda ev: (ev.start_s, ev.transmitter.key, ev.outcome,
                          tuple(c.key for c in ev.colliders))
        assert [key(e) for e in batch] == [key(e) for e in paced]
        # pacing stretches the run to roughly simulated time
        assert stats.wall_time_s >= 1.4

    def test_delivery_respects_deadlines_and_reports_lag(self):
        sc = small_scenario(n=4, duration=1.0)
        wall0 = time.perf_counter()
        deliveries = []

        def sink(ev):
            deliveries.append((time.perf_counter() - wall0, ev.end_s))

        events, stats = run_realtime(sc, MODEL, RADIO, PARAMS, sink)
        decoded = [e for e in events if e.outcome is Outcome.DECODED]
        assert len(deliveries) == len(decoded)
        for arrived, end_s in deliveries:
            assert arrived >= end_s - 1e-3  # never early
        assert stats.p99_delivery_lag_s is not None
        assert stats.p99_delivery_lag_s < 0.05

    def test_slow_sink_trips_violation_with_partial_log(self):
        sc = small_scenario(n=4, duration=2.0)

        def stalling_sink(ev):
            time.sleep(0.15)

        with pytest.raises(RealtimeViolationError) as err:
            run_realtime(sc, MODEL, RADIO, PARAMS, stalling_sink,
                         lag_budget_s=0.1)
        assert err.value.lag_s > 0.1
        partial = [event_signature(e) for e in err.value.events]
        batch, _ = run(sc, MODEL, RADIO, PARAMS)
        assert 0 < len(partial) <= len(batch)
        assert partial == [event_signature(e) for e in batch[:len(partial)]]
        assert gc.isenabled()

    def test_scheduler_error_propagates(self, monkeypatch):
        sc = small_scenario(n=4, duration=1.0)
        batch, _ = run(sc, MODEL, RADIO, PARAMS)

        def failing_events(*args, **kwargs):
            yield from batch[:2]
            raise SchedulingError("heap corrupted")

        import rtcsim.realtime as rt
        monkeypatch.setattr(rt, "_iter_events", failing_events)
        with pytest.raises(SchedulingError, match="heap corrupted"):
            run_realtime(sc, MODEL, RADIO, PARAMS, NullSink(),
                         skip_budget_check=True)
        assert gc.isenabled()

    def test_beacon_table_built_before_paced_window(self, monkeypatch):
        import rtcsim.realtime as rt
        sc = small_scenario(n=4, duration=1.0)
        built = []

        def no_events(scenario, *args, **kwargs):
            built.append("beacon_positions" in vars(scenario))
            return iter(())

        monkeypatch.setattr(rt, "_iter_events", no_events)
        run_realtime(sc, MODEL, RADIO, PARAMS, NullSink(), skip_budget_check=True)
        assert built == [True]

    def test_run_invariants_checked(self, monkeypatch):
        import rtcsim.mac as mac

        def breach(*args, **kwargs):
            raise SchedulingError("conservation broken")

        monkeypatch.setattr(mac, "verify_run_invariants", breach)
        sc = small_scenario(n=1, duration=0.5)
        with pytest.raises(SchedulingError, match="conservation broken"):
            run_realtime(sc, MODEL, RADIO, PARAMS, NullSink(),
                         hv_transmits=False, skip_budget_check=True)

    def test_budget_check_refuses_slow_scenarios(self):
        sc = small_scenario(n=4, duration=1.0)
        import rtcsim.realtime as rt
        original = rt.estimate_speedup
        rt.estimate_speedup = lambda *a, **k: 0.5
        try:
            with pytest.raises(RealtimeViolationError):
                run_realtime(sc, MODEL, RADIO, PARAMS, NullSink())
        finally:
            rt.estimate_speedup = original

    def test_estimate_speedup_is_fast_for_small_runs(self):
        sc = small_scenario(n=10, duration=2.0)
        assert estimate_speedup(sc, MODEL, RADIO, PARAMS) > 2.0


@pytest.mark.realtime
class TestUdpSink:
    def test_one_datagram_per_decoded_event(self):
        sc = small_scenario(n=3, duration=1.0, seed=8)
        received = []
        server = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        server.bind(("127.0.0.1", 0))
        server.settimeout(0.5)
        port = server.getsockname()[1]
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
        sink = UdpSink(sc, MODEL, RADIO, "127.0.0.1", port)
        try:
            events, _ = run_realtime(sc, MODEL, RADIO, PARAMS, sink)
        finally:
            sink.close()
        time.sleep(0.6)
        done.set()
        thread.join()
        server.close()

        decoded = [e for e in events if e.outcome is Outcome.DECODED]
        assert len(received) == len(decoded)
        gen_times = [r.gen_time_s for r in received]
        assert gen_times == sorted(gen_times)
        winners = [(e.winner.vehicle_id, e.winner.seq) for e in decoded]
        assert [(r.vehicle_id, r.seq) for r in received] == winners
