"""Tests of the benchmark's own code: tracing, lag estimation, failure counting,
the receiver process and one short paced operation."""

import json
import os
import socket
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run
import tracer
import worker
from tracer import Tracer, install_rtcsim_wrappers

BENCH = Path(__file__).resolve().parent.parent


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(tracer, "_clock", fake)
    return fake


def test_nested_self_time_charges_each_wrapped_call_its_own_work(clock):
    # mirrors is_hidden -> rss_dbm -> path_loss_db, where rss_dbm is not wrapped
    ns = types.SimpleNamespace()

    def path_loss_db():
        clock.advance(3.0)

    def rss_dbm():
        clock.advance(1.0)
        ns.path_loss_db()

    def is_hidden():
        clock.advance(2.0)
        rss_dbm()
        clock.advance(0.5)

    ns.path_loss_db = path_loss_db
    ns.is_hidden = is_hidden
    t = Tracer("test")
    t.patch(ns, "path_loss_db", t.counted("path_loss_db", ns.path_loss_db))
    t.patch(ns, "is_hidden", t.counted("is_hidden", ns.is_hidden))
    ns.is_hidden()
    ns.is_hidden()
    ns.path_loss_db()
    calls = t.calls()
    assert calls["is_hidden"] == (2, pytest.approx(7.0))
    assert calls["path_loss_db"] == (3, pytest.approx(9.0))
    assert clock.now == pytest.approx(16.0)


def test_span_self_time_excludes_child_spans(clock):
    t = Tracer("run-1")
    with t.span("schedule"):
        clock.advance(4.0)
        with t.span("invariants"):
            clock.advance(1.0)
    assert t.span_seconds("schedule") == pytest.approx(5.0)
    assert t.span_self_seconds("schedule") == pytest.approx(4.0)
    parent, child = t.spans
    assert child["parent"] == parent["id"] and parent["parent"] is None
    assert {s["run_id"] for s in t.spans} == {"run-1"}


def test_real_channel_calls_are_counted_once_each():
    from rtcsim import channel

    t = Tracer("test")
    install_rtcsim_wrappers(t)
    try:
        channel.is_hidden(channel.RadioConfig(), channel.default_three_log_distance(),
                          (0.0, 0.0), (900.0, 0.0))
    finally:
        t.uninstall()
    calls = t.calls()
    assert calls["channel.is_hidden"][0] == 1
    assert calls["channel.path_loss_db"][0] == 1
    assert calls["channel.is_hidden"][1] >= 0.0
    assert calls["channel.path_loss_db"][1] >= 0.0


def test_uninstall_restores_every_original_function():
    import heapq

    from rtcsim import channel, mac, metrics, wire

    watched = [(channel, "is_hidden"), (channel, "path_loss_db"),
               (channel, "resolve_capture"), (mac, "classify"),
               (mac, "apply_backoff"), (mac, "reschedule_after_aifs"),
               (mac, "resolve_transmission"), (mac, "verify_run_invariants"),
               (mac, "heapq"), (mac.KeyedBackoffRng, "draw"),
               (mac, "position_at"), (metrics, "position_at"), (wire, "position_at"),
               (wire, "event_to_record"), (wire, "pack_bsm")]
    before = [owner.__dict__[name] for owner, name in watched]
    t = Tracer("test")
    install_rtcsim_wrappers(t)
    try:
        assert all(owner.__dict__[name] is not orig
                   for (owner, name), orig in zip(watched, before))
    finally:
        t.uninstall()
    assert all(owner.__dict__[name] is orig
               for (owner, name), orig in zip(watched, before))
    assert mac.heapq is heapq


def test_lag_origin_recovers_a_synthetic_delivery_schedule():
    origin = 1234.5
    end_times = [0.0005 * k for k in range(1, 2001)]
    lags = [(k * 7919 % 1000) * 1e-6 + 2e-6 for k in range(len(end_times))]
    stamps = [origin + e + lag for e, lag in zip(end_times, lags)]
    assert worker.lag_origin(stamps, end_times) == pytest.approx(origin + min(lags), abs=1e-9)
    measured = worker.delivery_lags(stamps, end_times)
    assert measured == pytest.approx([lag - min(lags) for lag in lags], abs=1e-9)


def test_aborted_paced_run_counts_undelivered_events_as_failures():
    expected = {(v, 0) for v in range(10)}
    # the abort cut the run after six deliveries; one of them was lost on the
    # way and one arrived late
    delivered = [[v, 0, 2e-3 if v == 5 else 1e-4] for v in range(6)]
    received = {(v, 0) for v in range(6) if v != 3} | {(99, 0)}
    assert run.paced_outcome(expected, received, delivered) == (10, 5, 4)


def test_failed_fraction_of_a_set_with_an_aborted_operation():
    keys = [[v, 0] for v in range(8)]
    sha = {"event_log.csv": "a"}
    complete = ({"errors": [], "aborted": None, "sha256": sha, "run_wall_s": 20.1, "setup_s": 0.5,
                 "delivered": [k + [1e-4] for k in keys]},
                {"bad": 0, "keys": keys})
    aborted = ({"errors": [], "aborted": "delivery lagged 120.0ms", "run_wall_s": 0.2, "setup_s": 0.5,
                "delivered": [k + [1e-4] for k in keys[:3]]},
               {"bad": 0, "keys": keys[:3]})
    runner = types.SimpleNamespace(workload={"mode": "paced"}, errors=[])
    reference = {"errors": [], "decoded_keys": keys, "sha256": sha}
    counts = run.check_and_count(runner, [complete, aborted], [], reference,
                                 lambda line: None)
    assert (counts["attempted"], counts["failed"]) == (16, 5)
    assert counts["errors"] == []
    assert complete[0]["on_time_frac"] == 1.0
    assert aborted[0]["on_time_frac"] == pytest.approx(3 / 8)


def _start_receiver():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    dut = subprocess.Popen([sys.executable, str(BENCH / "dut.py")], env=env,
                           text=True, stdout=subprocess.PIPE)
    return dut, int(dut.stdout.readline())


def _stop_receiver(dut, port) -> dict:
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.sendto(b"STOP", ("127.0.0.1", port))
    out, _ = dut.communicate(timeout=30)
    return json.loads(out.strip().splitlines()[-1])


def test_receiver_decodes_records_and_counts_bad_datagrams():
    from rtcsim.wire import BsmRecord, pack_bsm

    dut, port = _start_receiver()
    try:
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            for vid, seq in ((4, 0), (4, 1), (9, 0)):
                record = BsmRecord(vid, seq, 0.1, 1.0, 2.0, 10.0, 0.5, -80.0)
                sock.sendto(pack_bsm(record), ("127.0.0.1", port))
            sock.sendto(b"not a record", ("127.0.0.1", port))
        report = _stop_receiver(dut, port)
    finally:
        if dut.poll() is None:
            dut.kill()
        dut.wait()
    assert report == {"received": 4, "bad": 1, "keys": [[4, 0], [4, 1], [9, 0]]}


def test_paced_operation_delivers_the_batch_log_to_the_receiver(tmp_path, monkeypatch):
    import rtcsim

    monkeypatch.setattr(worker, "DURATION_S", 1.0)
    workload = {"mode": "paced", "source": "generate", "vehicles": 20,
                "profile": "three_log_distance"}
    batch_spec = {"workload": workload, "seed": 3, "mode": "batch", "keys": True}
    (tmp_path / "batch").mkdir()
    batch = worker.run_batch(batch_spec, rtcsim, Tracer("batch"), tmp_path / "batch")
    dut, port = _start_receiver()
    try:
        (tmp_path / "paced").mkdir()
        paced = worker.run_paced(dict(batch_spec, mode="paced", trace=False, udp_port=port),
                                 rtcsim, Tracer("paced"), tmp_path / "paced")
        report = _stop_receiver(dut, port)
    finally:
        if dut.poll() is None:
            dut.kill()
        dut.wait()
    assert batch["errors"] == [] and paced["errors"] == [] and paced["aborted"] is None
    for name in worker.HASHED_ARTIFACTS:
        assert ((tmp_path / "paced" / name).read_bytes()
                == (tmp_path / "batch" / name).read_bytes()), name
    expected = {tuple(k) for k in batch["decoded_keys"]}
    assert expected and report["bad"] == 0
    attempted, failed, on_time = run.paced_outcome(
        expected, {tuple(k) for k in report["keys"]}, paced["delivered"])
    assert (attempted, failed) == (len(expected), 0)
    assert 0 < on_time <= attempted
    assert paced["setup_s"] > 0 and paced["preflight_s"] > 0
