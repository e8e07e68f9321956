"""Tick replay versus the event-driven scheduler on small instances."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (assert_logs_equal, instance_packets, instance_scenario,
                      run_both_ways)
from rtcsim.channel import RadioConfig, default_three_log_distance
from rtcsim.errors import ValidationError
from rtcsim.mac import (KeyedBackoffRng, MacParams, Outcome, Packet, PdMode,
                        format_event_row, run)
from rtcsim.oracle import oracle_replay

MODEL = default_three_log_distance()
RADIO = RadioConfig()
PARAMS = MacParams()


def pkt(vid, sched, pos=(0.0, 0.0), counter=None):
    p = Packet(vehicle_id=vid, seq=0, gen_time_s=sched, sched_time_s=sched,
               tx_position=pos)
    p.backoff_counter = counter
    return p


class TestOracleAlone:
    def test_single_packet_transmits_at_generation(self):
        events = oracle_replay([pkt(1, 0.004, (50.0, 0.0))], MODEL, RADIO,
                               PARAMS, hv_position=(0.0, 0.0))
        assert len(events) == 1
        assert events[0].start_s == 0.004
        assert events[0].outcome is Outcome.DECODED

    def test_pd_tie_collides(self):
        events = oracle_replay([pkt(1, 0.001, (100.0, 0.0)),
                                pkt(2, 0.001, (-100.0, 0.0))],
                               MODEL, RADIO, PARAMS)
        assert len(events) == 1
        assert events[0].transmitter.vehicle_id == 1
        assert [c.vehicle_id for c in events[0].colliders] == [2]
        assert events[0].outcome is Outcome.COLLIDED

    def test_sensed_packet_backs_off_by_injected_counter(self):
        first = pkt(1, 0.001, (10.0, 0.0))
        second = pkt(2, 0.0012, (20.0, 0.0), counter=4)
        events = oracle_replay([first, second], MODEL, RADIO, PARAMS)
        assert len(events) == 2
        expected = (0.001 + PARAMS.tx_interval_s) + PARAMS.aifs_s \
            + 4 * PARAMS.slot_time_s
        assert events[1].start_s == pytest.approx(expected, abs=1e-12)

    def test_hidden_packet_ignores_ongoing_transmission(self):
        first = pkt(1, 0.001, (500.0, 0.0))
        second = pkt(2, 0.0013, (-500.0, 0.0))  # 1000 m apart: mutually hidden
        events = oracle_replay([first, second], MODEL, RADIO, PARAMS)
        assert len(events) == 1
        assert [c.vehicle_id for c in events[0].colliders] == [2]

    def test_packet_count_cap(self):
        packets = [pkt(i, i * 1e-3) for i in range(1, 10)]
        with pytest.raises(ValidationError):
            oracle_replay(packets, MODEL, RADIO, PARAMS)

    def test_tick_granularity_cap(self):
        with pytest.raises(ValidationError):
            oracle_replay([pkt(1, 0.0)], MODEL, RADIO, PARAMS, tick_s=1e-3)


class TestSchedulerEquivalence:
    def test_pd_collision_case(self):
        scheduled, replayed = run_both_ways(seed=101)
        assert_logs_equal(scheduled, replayed)

    def test_backoff_case_same_drawn_counter(self):
        # seed chosen so the instance contains a sensed mid-transmission
        # arrival; the replay must land on the identical backoff slot
        for seed in (7, 23, 57):
            scheduled, replayed = run_both_ways(seed=seed)
            assert_logs_equal(scheduled, replayed, context=f"seed={seed}")

    def test_random_instances(self):
        for seed in range(300):
            scheduled, replayed = run_both_ways(seed=seed)
            assert_logs_equal(scheduled, replayed, context=f"seed={seed}")


def exact_rows(vehicles, params, seed=0):
    """Event rows and collider ids of the scheduler and of the replay."""
    scheduled, _ = run(instance_scenario(vehicles, seed), MODEL, RADIO, params,
                       hv_transmits=False)
    replayed = oracle_replay(instance_packets(vehicles), MODEL, RADIO,
                             params, rng=KeyedBackoffRng(seed, params.cw_min,
                                                         params.cw_max))
    return [[(format_event_row(ev), [c.vehicle_id for c in ev.colliders])
             for ev in log] for log in (scheduled, replayed)]


PER_PAIR = MacParams(pd_mode=PdMode.PER_PAIR_SPEED_OF_LIGHT)


class TestPropagationDelayPastAirtime:
    def test_far_head_after_the_airtime_waits_out_the_gap(self):
        # 200 km apart the per-pair delay (0.667 ms) outlasts the 0.52 ms
        # airtime; a head 0.55 ms after the start meets an idle channel in
        # the inter-frame space, not the sender's propagation delay
        vehicles = [(1, (10.0, 0.0), 0.010), (2, (200_010.0, 0.0), 0.01055)]
        scheduled, replayed = exact_rows(vehicles, PER_PAIR)
        assert scheduled == replayed
        assert [cols for _, cols in scheduled] == [[], []]
        assert scheduled[1][0].startswith(repr(0.010 + 520e-6 + 58e-6))


def nudged(x: float, ulps: int) -> float:
    toward = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        x = math.nextafter(x, toward)
    return x


positions_m = st.one_of(st.floats(-400.0, 400.0), st.floats(-1500.0, 1500.0),
                        st.floats(-250_000.0, 250_000.0))


class TestBandEdgesThroughTheLoop:
    """A second and third vehicle's beacon a few ulps around the first one's
    start plus pd, tx or tx + aifs, through ``mac.run`` and the replay."""

    @pytest.mark.parametrize("params", [PARAMS, PER_PAIR], ids=["fixed", "per_pair"])
    @settings(max_examples=150, deadline=None, database=None)
    # from a start at 0.0 the offsets are exact, so a head lands on each
    # inclusive edge itself; a later start rounds them to its own grid
    @given(start=st.one_of(st.just(0.0), st.floats(1e-3, 0.09)),
           xs=st.tuples(positions_m, positions_m, positions_m),
           edges=st.tuples(*[st.tuples(st.sampled_from(["pd", "tx", "tx_aifs"]),
                                       st.integers(-3, 3))] * 2),
           seed=st.integers(0, 2**32))
    def test_scheduler_rows_match_the_replay(self, params, start, xs, edges, seed):
        first = Packet(1, 0, start, start, (xs[0], 0.0))
        vehicles = [(1, first.tx_position, start)]
        for vid, (x, (edge, ulps)) in enumerate(zip(xs[1:], edges), start=2):
            pos = (x, 0.0)
            offset = {"pd": params.pd_for(first, Packet(vid, 0, 0.0, 0.0, pos)),
                      "tx": params.tx_interval_s,
                      "tx_aifs": params.tx_interval_s + params.aifs_s}[edge]
            vehicles.append((vid, pos, max(0.0, nudged(start + offset, ulps))))
        scheduled, replayed = exact_rows(vehicles, params, seed)
        assert scheduled == replayed
