"""Shared test helpers: scheduler-versus-replay checks, a stalling scheduler and
a command line run under a memory cap."""

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import rtcsim
from rtcsim.channel import RadioConfig, default_three_log_distance
from rtcsim.mac import KeyedBackoffRng, MacParams, Packet, _iter_events
from rtcsim.mac import run as mac_run
from rtcsim.oracle import oracle_replay
from rtcsim.scenario import DEFAULT_TX_RATE_HZ, MobilityTrace, Scenario

# one packet per vehicle inside a 100 ms burst; the horizon leaves room for
# every deferral chain to resolve before anything can expire
ORACLE_DURATION_S = 0.999
ORACLE_RATE_HZ = 1.0


def build_instance(seed: int, n_min: int = 2, n_max: int = 5,
                   box_m: float = 600.0):
    """Random static burst: mixed hidden/non-hidden pairs, microsecond grid."""
    rnd = random.Random(seed)
    n = rnd.randint(n_min, n_max)
    vehicles = []
    for vid in range(1, n + 1):
        pos = (rnd.uniform(-box_m, box_m), rnd.uniform(-box_m, box_m))
        gen = rnd.randrange(0, 99_000) * 1e-6
        vehicles.append((vid, pos, gen))
    return vehicles


def parked_trace(vid: int, pos, times, rate: float = DEFAULT_TX_RATE_HZ,
                 phase: float = 0.0) -> MobilityTrace:
    """A trace that stands still at ``pos``, sampled at ``times``."""
    n = len(times)
    return MobilityTrace(vid, tuple(times), (pos[0],) * n, (pos[1],) * n,
                         (0.0,) * n, (0.0,) * n, rate, phase)


def instance_scenario(vehicles, seed: int) -> Scenario:
    def trace(vid, pos, phase):
        return parked_trace(vid, pos, (0.0, ORACLE_DURATION_S), ORACLE_RATE_HZ, phase)

    hv = trace(0, (0.0, 0.0), 0.0)
    rvs = tuple(trace(vid, pos, gen) for vid, pos, gen in vehicles)
    return Scenario(hv_trace=hv, rv_traces=rvs, duration_s=ORACLE_DURATION_S,
                    seed=seed)


def instance_packets(vehicles) -> list[Packet]:
    return [Packet(vehicle_id=vid, seq=0, gen_time_s=gen, sched_time_s=gen,
                   tx_position=pos)
            for vid, pos, gen in vehicles]


def event_signature(ev):
    return (ev.transmitter.key, round(ev.start_s, 9), round(ev.end_s, 9),
            tuple(c.key for c in ev.colliders), ev.outcome,
            ev.winner.key if ev.winner is not None else None)


def slow_scheduler(stall_s: float = 0.15):
    """Stand-in for ``realtime._iter_events`` that stalls, then yields the log."""
    def iter_events(*args, **kwargs):
        time.sleep(stall_s)
        yield from _iter_events(*args, **kwargs)
    return iter_events


def run_both_ways(seed: int, model=None, radio=None, params=None):
    """Execute one instance through the scheduler and the tick replay."""
    model = model or default_three_log_distance()
    radio = radio or RadioConfig()
    params = params or MacParams()
    vehicles = build_instance(seed)
    scenario = instance_scenario(vehicles, seed)
    scheduled, _ = mac_run(scenario, model, radio, params, hv_transmits=False)
    replayed = oracle_replay(instance_packets(vehicles), model, radio,
                             params, tick_s=1e-6, hv_position=(0.0, 0.0),
                             rng=KeyedBackoffRng(seed, params.cw_min,
                                                 params.cw_max))
    return scheduled, replayed


def assert_logs_equal(scheduled, replayed, context=""):
    a = [event_signature(e) for e in scheduled]
    b = [event_signature(e) for e in replayed]
    assert a == b, f"{context}\nscheduler: {a}\nreplay:    {b}"


# Runs the command line under a 1 GiB address-space cap, so an input that
# makes the run grow without bound fails with MemoryError instead of
# exhausting the host.
CAPPED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from rtcsim.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run_capped_cli(*args: str) -> subprocess.CompletedProcess:
    """``rtcsim`` with ``args`` in a child process under the address-space cap."""
    src = str(Path(rtcsim.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", CAPPED_CLI, *args], env=env,
                          capture_output=True, text=True, timeout=120)
