"""The benchmark's tracer patches rtcsim attributes by name.

``perfbench/tracer.py`` replaces hot functions of ``channel``, ``mac``,
``metrics`` and ``wire`` and puts the originals back afterwards. A refactor
that renames or drops one of them, or a loop that binds the heap functions at
import time or goes round a counted helper, would only show in a traced
benchmark run; this test makes it fail here instead.
"""

import sys
from pathlib import Path

from rtcsim import channel, mac, metrics, wire
from rtcsim.channel import RadioConfig, default_three_log_distance
from rtcsim.scenario import Topology, TopologySpec, generate_topology

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")

# what the traced run below makes of each counted name
PINNED_CALLS = {
    "heapq.heappush": 657,
    "heapq.heappop": 757,
    "mac.KeyedBackoffRng.draw": 267,
    "mac.apply_backoff": 358,
    "mac.redeferral": 91,
    "mac.reschedule_after_aifs": 29,
}


def namespaces():
    return {m.__name__: dict(vars(m)) for m in (channel, mac, metrics, wire)} | {
        "KeyedBackoffRng": dict(vars(mac.KeyedBackoffRng))}


def test_wrappers_install_count_and_uninstall():
    sys.path.insert(0, PERFBENCH)
    try:
        from tracer import Tracer, install_rtcsim_wrappers
    finally:
        sys.path.remove(PERFBENCH)
    before = namespaces()
    tracer = Tracer("t")
    try:
        install_rtcsim_wrappers(tracer)
        sc = generate_topology(
            TopologySpec(kind=Topology.DISK, vehicle_count=100, radius_m=300.0),
            10.0, 0.5, seed=3)
        _, stats = mac.run(sc, default_three_log_distance(), RadioConfig(),
                           mac.MacParams())
    finally:
        tracer.uninstall()
    assert namespaces() == before
    calls = {name: n for name, (n, _) in tracer.calls().items()}
    assert calls["mac.resolve_transmission"] == stats.events == 455
    # the scheduler reaches the heap, the backoff draw and the rescheduling
    # rules through the names the tracer replaces, once per operation
    assert {name: calls.get(name) for name in PINNED_CALLS} == PINNED_CALLS
    assert tracer.span_seconds("invariants") > 0
