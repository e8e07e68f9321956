"""Overlap classification, rescheduling rules, and the event-driven run loop."""

import gc
import hashlib
import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import parked_trace
from rtcsim import channel as chan
from rtcsim import mac
from rtcsim.channel import (RadioConfig, default_fowlerville,
                            default_three_log_distance, rss_dbm)
from rtcsim.errors import SchedulingError, ValidationError
from rtcsim.mac import (KeyedBackoffRng, MacParams, Outcome, OverlapState,
                        Packet, PdMode, apply_backoff, classify,
                        format_event_row, init_queue, reschedule_after_aifs,
                        resolve_transmission, run)
from rtcsim.metrics import (compute_cbp, compute_per, write_cbp_csv,
                            write_per_csv)
from rtcsim.realtime import run_realtime
from rtcsim.scenario import (MobilityTrace, Scenario, Topology, TopologySpec,
                             generate_topology, generation_schedule,
                             load_scenario, save_scenario)
from rtcsim.wire import NullSink, event_to_record, pack_bsm

MODEL = default_three_log_distance()
RADIO = RadioConfig()
PARAMS = MacParams()


def pkt(vid, sched, gen=None, pos=(0.0, 0.0), seq=0):
    gen = sched if gen is None else gen
    return Packet(vehicle_id=vid, seq=seq, gen_time_s=gen, sched_time_s=sched,
                  tx_position=pos)


def static_scenario(positions, phases, duration_s=1.0, seed=0, rate=10.0):
    """HV at origin plus one static RV per (position, phase) pair."""
    def trace(vid, pos, phase):
        return parked_trace(vid, pos, (0.0, duration_s), rate, phase)

    hv = trace(0, (0.0, 0.0), phases[0])
    rvs = tuple(trace(i + 1, p, ph)
                for i, (p, ph) in enumerate(zip(positions[1:], phases[1:])))
    return Scenario(hv_trace=hv, rv_traces=rvs, duration_s=duration_s, seed=seed)


class TestMacParams:
    def test_aifs_identity(self):
        p = MacParams(slot_time_s=13e-6, sifs_s=32e-6)
        assert p.aifs_s == 32e-6 + 2 * 13e-6

    def test_validation(self):
        with pytest.raises(ValidationError):
            MacParams(cw_min=5, cw_max=3)
        with pytest.raises(ValidationError):
            MacParams(slot_time_s=0.0)
        with pytest.raises(ValidationError):
            MacParams(pd_s=1e-3, tx_interval_s=520e-6)

    def test_per_pair_propagation_delay(self):
        p = MacParams(pd_mode=PdMode.PER_PAIR_SPEED_OF_LIGHT)
        a = pkt(1, 0.0, pos=(0.0, 0.0))
        b = pkt(2, 0.0, pos=(299.8, 0.0))
        assert p.pd_for(a, b) == pytest.approx(1e-6, rel=1e-9)


class TestClassify:
    def test_zero_diff_is_pd_collision(self):
        assert classify(pkt(1, 0.0), pkt(2, 0.0), PARAMS, hidden=False) \
            is OverlapState.COLLISION_PD

    def test_just_past_pd_is_backoff(self):
        nxt = pkt(2, PARAMS.pd_s + 1e-6)
        assert classify(pkt(1, 0.0), nxt, PARAMS, hidden=False) \
            is OverlapState.BACKOFF

    def test_hidden_mid_transmission_is_hidden_collision(self):
        nxt = pkt(2, PARAMS.tx_interval_s / 2)
        assert classify(pkt(1, 0.0), nxt, PARAMS, hidden=True) \
            is OverlapState.COLLISION_HIDDEN

    def test_hidden_takes_precedence_inside_pd(self):
        assert classify(pkt(1, 0.0), pkt(2, 0.0), PARAMS, hidden=True) \
            is OverlapState.COLLISION_HIDDEN

    def test_just_past_aifs_window_is_post_tx(self):
        nxt = pkt(2, PARAMS.tx_interval_s + PARAMS.aifs_s + 1e-6)
        assert classify(pkt(1, 0.0), nxt, PARAMS, hidden=False) \
            is OverlapState.POST_TX

    def test_boundary_partition(self):
        """Every band edge is inclusive on the documented side."""
        eps = 1e-12
        tx = PARAMS.tx_interval_s
        aifs = PARAMS.aifs_s
        table = {
            False: [
                (PARAMS.pd_s - eps, OverlapState.COLLISION_PD),
                (PARAMS.pd_s, OverlapState.COLLISION_PD),
                (PARAMS.pd_s + eps, OverlapState.BACKOFF),
                (tx - eps, OverlapState.BACKOFF),
                (tx, OverlapState.BACKOFF),
                (tx + eps, OverlapState.AIFS_WAIT),
                (tx + aifs - eps, OverlapState.AIFS_WAIT),
                (tx + aifs, OverlapState.AIFS_WAIT),
                (tx + aifs + eps, OverlapState.POST_TX),
            ],
            True: [
                (0.0, OverlapState.COLLISION_HIDDEN),
                (PARAMS.pd_s, OverlapState.COLLISION_HIDDEN),
                (PARAMS.pd_s + eps, OverlapState.COLLISION_HIDDEN),
                (tx, OverlapState.COLLISION_HIDDEN),
                (tx + eps, OverlapState.AIFS_WAIT),
                (tx + aifs, OverlapState.AIFS_WAIT),
                (tx + aifs + eps, OverlapState.POST_TX),
            ],
        }
        for hidden, cases in table.items():
            for diff, expected in cases:
                state = classify(pkt(1, 0.0), pkt(2, diff), PARAMS, hidden=hidden)
                assert state is expected, (diff, hidden, state)

    def test_per_pair_delay_stops_at_the_airtime(self):
        # 200 km apart the per-pair delay outlasts the airtime: the whole
        # on-air interval is its band, and nothing after it
        params = MacParams(pd_mode=PdMode.PER_PAIR_SPEED_OF_LIGHT)
        tx = params.tx_interval_s
        far = (200_000.0, 0.0)
        assert params.pd_for(pkt(1, 0.0), pkt(2, 0.0, pos=far)) > tx + params.aifs_s
        for diff, expected in [(tx, OverlapState.COLLISION_PD),
                               (math.nextafter(tx, 1.0), OverlapState.AIFS_WAIT),
                               (tx + params.aifs_s, OverlapState.AIFS_WAIT),
                               (tx + 2 * params.aifs_s, OverlapState.POST_TX)]:
            state = classify(pkt(1, 0.0), pkt(2, diff, pos=far), params, hidden=False)
            assert state is expected, diff

    def test_negative_diff_raises(self):
        with pytest.raises(SchedulingError):
            classify(pkt(1, 1.0), pkt(2, 0.5), PARAMS, hidden=False)


class TestFirstIdleInstant:
    """No float before ``(start + tx) + aifs`` lies more than ``tx + aifs``
    after ``start``, so the band scan leaves no queue head behind the first
    idle instant and the scheduler may start there without looking."""

    @settings(max_examples=2000, deadline=None, database=None)
    @given(start=st.floats(min_value=0.0, max_value=1e300),
           tx=st.floats(min_value=0.0, max_value=1e300, exclude_min=True),
           aifs=st.floats(min_value=0.0, max_value=1e300))
    @example(start=1.0, tx=0.5, aifs=0.5)  # the boundary is a power of two
    @example(start=0.0, tx=5e-324, aifs=0.0)
    @example(start=3.0, tx=520e-6, aifs=58e-6)
    def test_nothing_before_the_boundary_lies_past_the_band(self, start, tx, aifs):
        boundary = (start + tx) + aifs
        assume(math.isfinite(boundary) and math.isfinite(tx + aifs))
        assert math.nextafter(boundary, -math.inf) - start <= tx + aifs


class TestBackoff:
    def test_zero_counter_lands_on_first_idle_slot(self):
        rng = KeyedBackoffRng(0, 0, 0)  # degenerate window: always draws 0
        p = pkt(2, 1e-4)
        apply_backoff(p, rng, PARAMS, current_end_s=520e-6)
        assert p.sched_time_s == 520e-6 + PARAMS.aifs_s
        assert p.backoff_counter == 0

    def test_counter_fifteen_adds_fifteen_slots(self):
        p = pkt(2, 1e-4)
        p.backoff_counter = 15
        apply_backoff(p, KeyedBackoffRng(0, 0, 15), PARAMS, current_end_s=520e-6)
        # Table values: 15 slots of 13 us after the 58 us arbitration gap
        assert p.sched_time_s == pytest.approx(520e-6 + 58e-6 + 195e-6, abs=1e-15)

    def test_counter_is_consumed(self):
        p = pkt(2, 1e-4)
        p.backoff_counter = 7
        apply_backoff(p, KeyedBackoffRng(0, 0, 15), PARAMS, current_end_s=520e-6)
        assert p.backoff_counter == 0
        first = p.sched_time_s
        apply_backoff(p, KeyedBackoffRng(0, 0, 15), PARAMS, current_end_s=1e-3)
        assert p.sched_time_s == 1e-3 + PARAMS.aifs_s
        assert p.sched_time_s > first

    def test_draws_deterministic_and_in_window(self):
        rng_a = KeyedBackoffRng(99, 0, 15)
        rng_b = KeyedBackoffRng(99, 0, 15)
        draws = set()
        for vid in range(50):
            for seq in range(4):
                p = pkt(vid, 0.0, seq=seq)
                d = rng_a.draw(p)
                assert d == rng_b.draw(p)
                assert 0 <= d <= 15
                draws.add(d)
        assert len(draws) == 16  # every slot reachable

    def test_different_seed_changes_draws(self):
        p = pkt(3, 0.0)
        assert any(KeyedBackoffRng(s, 0, 15).draw(p)
                   != KeyedBackoffRng(s + 1, 0, 15).draw(p) for s in range(8))


def splitmix64(x):
    """Scalar splitmix64 from its published increment, multipliers and shifts."""
    mask = (1 << 64) - 1
    z = (x + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def reference_draw(seed, cw_min, cw_max, vid, seq):
    h = splitmix64(splitmix64(splitmix64(seed) ^ vid) ^ seq)
    return cw_min + h % (cw_max - cw_min + 1)


class TestKeyedDrawReference:
    """``KeyedBackoffRng.draw`` against a scalar splitmix64 written here."""

    SEEDS = (0, 1, 2**64 - 1)
    # the last two: a window of 2**64 - 1 slots, and one of 2**64 that folds nothing
    WINDOWS = ((0, 15), (0, 0), (5, 5), (3, 9), (1, 2**64 - 1), (0, 2**64 - 1))
    VIDS = (0, 2**32 - 1)
    # both sides of the first chunk boundaries, and a row grown by a jump
    SEQS = (0, 1, 255, 256, 257, 511, 512, 513, 70_000)

    @pytest.mark.parametrize("window", WINDOWS, ids=str)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_reference(self, seed, window):
        rng = KeyedBackoffRng(seed, *window)
        for vid in self.VIDS:
            for seq in self.SEQS:
                assert rng.draw(pkt(vid, 0.0, seq=seq)) == reference_draw(
                    seed, *window, vid, seq), (vid, seq)

    def test_far_sequence_number(self):
        # MAX_RUN_BEACONS bounds a vehicle's sequence numbers
        seed, window, vid = 2**64 - 1, (3, 9), 2**32 - 1
        rng = KeyedBackoffRng(seed, *window)
        for seq in (5_000_000, 4_999_999, 0, 256):
            assert rng.draw(pkt(vid, 0.0, seq=seq)) == reference_draw(
                seed, *window, vid, seq), seq

    def test_draw_order_changes_no_counter(self):
        packets = [pkt(vid, 0.0, seq=seq) for vid in (0, 5, 2**32 - 1)
                   for seq in range(0, 1200, 7)]
        in_order = KeyedBackoffRng(11, 3, 9)
        expected = [in_order.draw(p) for p in packets]
        shuffled = list(range(len(packets)))
        random.Random(4).shuffle(shuffled)
        rng = KeyedBackoffRng(11, 3, 9)
        got = {i: rng.draw(packets[i]) for i in shuffled}
        assert [got[i] for i in range(len(packets))] == expected


class TestRescheduleAfterAifs:
    def test_moved_to_end_of_gap(self):
        p = pkt(2, 520e-6 + 29e-6)
        reschedule_after_aifs(p, 520e-6, PARAMS)
        assert p.sched_time_s == 520e-6 + PARAMS.aifs_s

    def test_boundary_is_a_no_op(self):
        target = 520e-6 + PARAMS.aifs_s
        p = pkt(2, target)
        reschedule_after_aifs(p, 520e-6, PARAMS)
        assert p.sched_time_s == target


class TestInitQueue:
    def test_head_is_earliest_phase(self):
        sc = static_scenario([(0, 0), (10, 0), (20, 0), (30, 0)],
                             [0.04, 0.01, 0.02, 0.03])
        heap = init_queue(sc)
        assert heap[0][3].vehicle_id == 1  # phase 0.01

    def test_tie_broken_by_vehicle_id(self):
        sc = static_scenario([(0, 0), (10, 0), (20, 0)], [0.05, 0.02, 0.02])
        heap = init_queue(sc)
        assert heap[0][3].vehicle_id == 1

    def test_one_entry_per_vehicle(self):
        sc = generate_topology(
            TopologySpec(kind=Topology.DISK, vehicle_count=100, radius_m=500.0),
            10.0, 20.0, seed=11)
        assert len(init_queue(sc)) == 100
        assert len(init_queue(sc, hv_transmits=False)) == 99


class TestResolveTransmission:
    @staticmethod
    def resolve(current, overlap):
        return resolve_transmission(current, overlap,
                                    current.sched_time_s + PARAMS.tx_interval_s,
                                    MODEL, RADIO, (0.0, 0.0))

    def test_clean_transmission_decodes(self):
        current = pkt(1, 0.0, pos=(10.0, 0.0))
        ev = self.resolve(current, [])
        assert ev.outcome is Outcome.DECODED
        assert ev.winner is current
        assert ev.hv_distance_m == 10.0
        assert ev.end_s - ev.start_s == PARAMS.tx_interval_s

    def test_equidistant_overlap_collides(self):
        current = pkt(1, 0.0, pos=(100.0, 0.0))
        other = pkt(2, 0.0, pos=(-100.0, 0.0))
        ev = self.resolve(current, [other])
        assert ev.outcome is Outcome.COLLIDED
        assert ev.winner is None

    def test_near_transmitter_captures_over_far_collider(self):
        current = pkt(1, 0.0, pos=(50.0, 0.0))
        far = pkt(2, 0.0, pos=(400.0, 0.0))
        gap = (rss_dbm(RADIO, MODEL, 50.0) - rss_dbm(RADIO, MODEL, 400.0))
        assert gap >= RADIO.capture_margin_db  # premise of the example
        ev = self.resolve(current, [far])
        assert ev.outcome is Outcome.DECODED
        assert ev.winner is current

    def test_sole_weak_arrival_below_sensitivity(self):
        current = pkt(1, 0.0, pos=(2000.0, 0.0))
        ev = self.resolve(current, [])
        assert ev.outcome is Outcome.BELOW_SENSITIVITY


class TestRun:
    def test_hv_only_without_hv_traffic_is_empty(self):
        sc = static_scenario([(0.0, 0.0)], [0.0])
        events, stats = run(sc, MODEL, RADIO, PARAMS, hv_transmits=False)
        assert events == []
        assert stats.packets_generated == 0

    def test_hv_only_with_hv_traffic_transmits(self):
        sc = static_scenario([(0.0, 0.0)], [0.0], duration_s=1.0)
        events, stats = run(sc, MODEL, RADIO, PARAMS)
        assert len(events) == 10
        assert all(ev.outcome is Outcome.DECODED for ev in events)

    def test_slot_that_vanishes_at_the_horizon_is_refused(self):
        # half an ulp of the horizon rounds away when added to it; one ulp
        # registers, and every gap between sensed transmissions stays open
        sc = static_scenario([(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)],
                             [0.0, 1e-4, 2e-4], duration_s=1.0)
        with pytest.raises(ValidationError, match="vanishes"):
            run(sc, MODEL, RADIO, MacParams(slot_time_s=math.ulp(1.0) / 2, sifs_s=0.0))
        events, _ = run(sc, MODEL, RADIO, MacParams(slot_time_s=math.ulp(1.0), sifs_s=0.0))
        assert events
        assert all(b.start_s > a.end_s for a, b in zip(events, events[1:]))

    def test_two_vehicles_staggered_phases_never_collide(self):
        params = MacParams(tx_interval_s=440e-6)
        sc = static_scenario([(0.0, 0.0), (30.0, 0.0)], [0.0, 0.05],
                             duration_s=20.0)
        events, stats = run(sc, MODEL, RADIO, params)
        assert len(events) == 400
        assert all(ev.colliders == () for ev in events)
        assert stats.packets_collided == 0
        assert stats.packets_decoded == 400

    def test_colocated_same_phase_always_collides(self):
        sc = static_scenario([(0.0, 0.0), (5.0, 0.0), (5.0, 0.0)],
                             [0.05, 0.02, 0.02], duration_s=2.0)
        events, stats = run(sc, MODEL, RADIO, PARAMS, hv_transmits=False)
        assert len(events) == 20
        assert all(ev.outcome is Outcome.COLLIDED for ev in events)
        assert all(len(ev.colliders) == 1 for ev in events)

    def test_chained_aifs_reschedules_collide_on_the_shared_slot(self):
        # two packets inside the post-transmission gap both move to its end,
        # then the later-inserted one collides with the first at zero diff
        tx = PARAMS.tx_interval_s
        base = 0.01
        sc = static_scenario(
            [(0.0, 0.0), (10.0, 0.0), (-10.0, 0.0), (30.0, 0.0)],
            [base, base + tx + 10e-6, base + tx + 20e-6, 0.09],
            duration_s=0.1, seed=3)
        events, stats = run(sc, MODEL, RADIO, PARAMS, hv_transmits=True)
        second = events[1]
        assert second.start_s == pytest.approx(base + tx + PARAMS.aifs_s, abs=1e-12)
        assert len(second.colliders) == 1
        assert second.outcome is Outcome.COLLIDED  # near-equal signal levels

    def test_backoff_defers_past_busy_transmission(self):
        sc = static_scenario([(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)],
                             [0.01, 0.0101, 0.09], duration_s=0.1, seed=9)
        events, _ = run(sc, MODEL, RADIO, PARAMS, hv_transmits=True)
        first, second = events[0], events[1]
        assert first.start_s == 0.01
        counter = KeyedBackoffRng(9, 0, 15).draw(
            Packet(1, 0, 0.0101, 0.0101, (10.0, 0.0)))
        assert counter > 0  # exercise the slot term, not just the gap
        expected = first.end_s + PARAMS.aifs_s + counter * PARAMS.slot_time_s
        assert second.start_s == pytest.approx(expected, abs=1e-15)

    def test_event_log_time_ordered_with_aifs_gaps(self):
        sc = generate_topology(
            TopologySpec(kind=Topology.DISK, vehicle_count=60, radius_m=400.0),
            10.0, 5.0, seed=17)
        events, stats = run(sc, MODEL, RADIO, PARAMS)  # invariants checked inside
        assert stats.conservation_holds()
        for a, b in zip(events, events[1:]):
            assert b.start_s - a.end_s >= PARAMS.aifs_s - 1e-12

    def test_monotone_rescheduling_and_conservation_at_saturation(self):
        sc = generate_topology(
            TopologySpec(kind=Topology.DISK, vehicle_count=300, radius_m=500.0),
            10.0, 2.0, seed=23)
        events, stats = run(sc, MODEL, RADIO, PARAMS)
        assert stats.conservation_holds()
        for ev in events:
            assert ev.transmitter.sched_time_s >= ev.transmitter.gen_time_s
            for c in ev.colliders:
                assert c.sched_time_s >= c.gen_time_s

    def test_determinism_same_seed(self):
        spec = TopologySpec(kind=Topology.DISK, vehicle_count=50, radius_m=500.0)
        sc = generate_topology(spec, 10.0, 5.0, seed=99)
        a, _ = run(sc, MODEL, RADIO, PARAMS)
        b, _ = run(sc, MODEL, RADIO, PARAMS)
        assert [(e.start_s, e.transmitter.vehicle_id, e.outcome) for e in a] == \
            [(e.start_s, e.transmitter.vehicle_id, e.outcome) for e in b]

    def test_expired_packets_counted(self):
        # the second vehicle senses the first and defers, but its backoff
        # slot lies past the horizon: the packet is dropped as expired
        sc = static_scenario([(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)],
                             [0.05, 0.0996, 0.0998], duration_s=0.1, seed=1)
        events, stats = run(sc, MODEL, RADIO, PARAMS, hv_transmits=False)
        assert stats.packets_expired == 1
        assert stats.conservation_holds()


    def test_backlogged_vehicle_waits_out_its_own_transmission(self):
        # 2,000 Hz beacons come faster than tx + aifs (578 us), so each
        # follow-up starts on its predecessor's contention floor; starts at
        # k * 578 us fit 87 events into 50 ms, and the 88th beacon, generated
        # at 43.5 ms, is floored past the horizon and expires. The vehicle
        # queues nothing after it, so the 12 beacons it would still generate
        # before the horizon expire with it, as the packet-error metric
        # counts them sent and lost.
        sc = static_scenario([(0.0, 0.0), (10.0, 0.0)], [0.0, 0.0],
                             duration_s=0.05, rate=2000.0)
        events, stats = run(sc, MODEL, RADIO, PARAMS, hv_transmits=False)
        assert len(events) == 87
        for a, b in zip(events, events[1:]):
            assert b.start_s == a.start_s + PARAMS.tx_interval_s + PARAMS.aifs_s
        assert len(sc.beacon_positions[1]) == 100
        assert stats.packets_generated == 100
        assert stats.packets_expired == 13 and stats.conservation_holds()

    def test_every_beacon_before_the_horizon_is_counted(self):
        # two vehicles at 1,500 Hz overload the channel; across these phases
        # packets expire on the contention floor and after a backoff, and
        # the vehicle's later beacons still count, one packet each
        for k in range(66):
            sc = static_scenario([(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)],
                                 [0.0, 0.0, k * 1e-5], duration_s=0.05,
                                 rate=1500.0)
            _, stats = run(sc, MODEL, RADIO, PARAMS, hv_transmits=False)
            beacons = sum(len(generation_schedule(t, sc.duration_s))
                          for t in sc.rv_traces)
            assert stats.packets_generated == beacons, k
            assert stats.packets_queued_at_end == 0, k
            assert stats.conservation_holds(), k

    @settings(max_examples=80, deadline=None, database=None)
    @given(vehicles=st.lists(
               st.tuples(st.sampled_from([10.0, 250.0, 1000.0, 1500.0, 2000.0]),
                         st.floats(0.0, 0.999), st.floats(-600.0, 600.0)),
               min_size=1, max_size=4),
           moving_host=st.booleans(), hv_transmits=st.booleans(),
           window=st.sampled_from([(0, 15), (0, 0), (7, 7)]),
           seed=st.integers(0, 2**64 - 1))
    def test_generated_is_the_beacon_count_of_the_transmitters(
            self, vehicles, moving_host, hv_transmits, window, seed):
        # mixed rates and phases overload the channel, so packets expire after
        # a backoff, on the contention floor and on the first idle instant;
        # vehicles over 836 m apart are hidden from each other
        duration = 0.03
        traces = [parked_trace(vid, (x, 0.0), (0.0, duration), rate, frac / rate)
                  for vid, (rate, frac, x) in enumerate(vehicles)]
        if moving_host:
            host = traces[0]
            traces[0] = MobilityTrace(0, (0.0, duration), (-100.0, 100.0), (0.0, 0.0),
                                      (200.0 / duration,) * 2, (0.0, 0.0),
                                      host.tx_rate_hz, host.gen_phase_s)
        sc = Scenario(traces[0], tuple(traces[1:]), duration, seed)
        params = MacParams(cw_min=window[0], cw_max=window[1])
        _, stats = run(sc, MODEL, RADIO, params, hv_transmits=hv_transmits)
        senders = traces if hv_transmits else traces[1:]
        assert stats.packets_generated == sum(len(generation_schedule(t, duration))
                                              for t in senders)
        assert stats.packets_queued_at_end == 0
        assert stats.conservation_holds()


class TestCollectionWindow:
    """``run`` holds automatic garbage collection off and restores it."""

    @pytest.mark.parametrize("case", ["pd_per_pair", "hv_silent", "fowlerville"])
    def test_run_leaves_no_cyclic_garbage(self, case):
        # what makes pausing the collector safe: a run frees everything it
        # drops by reference counting alone
        model, params, hv_transmits, _ = TestGoldenEventLog.CASES[case]
        sc = TestGoldenEventLog.golden_scenario()
        gc.collect()
        gc.disable()
        try:
            events, _ = run(sc, model, RADIO, params, hv_transmits=hv_transmits)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert events

    def test_collection_restored_after_return_and_after_error(self, monkeypatch):
        sc = static_scenario([(0.0, 0.0), (10.0, 0.0)], [0.0, 0.05])
        run(sc, MODEL, RADIO, PARAMS)
        assert gc.isenabled()
        seen = []

        def breach(*args, **kwargs):
            seen.append(gc.isenabled())
            raise SchedulingError("conservation broken")

        monkeypatch.setattr(mac, "verify_run_invariants", breach)
        with pytest.raises(SchedulingError, match="conservation broken"):
            run(sc, MODEL, RADIO, PARAMS)
        assert seen == [False]
        assert gc.isenabled()

    @pytest.mark.realtime
    def test_no_full_pass_and_nothing_left_frozen(self):
        # the window hands what a run left to the oldest generation without
        # walking it: no run, small or 150-vehicle, batch or paced, starts a
        # full pass, and the freeze used for the move is undone
        small = static_scenario([(0.0, 0.0), (10.0, 0.0)], [0.0, 0.05])
        large = TestGoldenEventLog.golden_scenario()
        paced = generate_topology(
            TopologySpec(kind=Topology.DISK, vehicle_count=150, radius_m=500.0),
            10.0, 0.3, seed=7)
        full_passes = []

        def record(phase, info):
            if phase == "start" and info["generation"] == 2:
                full_passes.append(info)

        gc.collect()
        assert gc.get_freeze_count() == 0
        gc.callbacks.append(record)
        try:
            run(small, MODEL, RADIO, PARAMS)
            run(large, MODEL, RADIO, PARAMS)
            events, _ = run_realtime(paced, MODEL, RADIO, PARAMS, NullSink())
        finally:
            gc.callbacks.remove(record)
        assert events
        assert full_passes == []
        assert gc.isenabled()
        assert gc.get_freeze_count() == 0

    def test_caller_frozen_objects_stay_frozen(self):
        sc = TestGoldenEventLog.golden_scenario()
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            assert frozen > 0
            run(sc, MODEL, RADIO, PARAMS)
            assert gc.get_freeze_count() == frozen
            assert gc.isenabled()
        finally:
            gc.unfreeze()


class TestGoldenEventLog:
    """Event-log rows of a 150-vehicle, 3 s disk run at seed 7, pinned by sha256.

    Any change to the scheduler or the channel that alters one byte of the
    log in these configurations fails here. The CBP and PER of each run must
    also come out the same when the shadow-free and parked-host shortcuts
    are switched off, and a run with a moving HV is pinned with its metrics.
    The datagrams the wire would send for the decoded events are pinned too.
    """

    CASES = {
        "three_log_distance": (
            default_three_log_distance(), MacParams(), True,
            "1164d6a2e5f963beffd29db5227f3ba0fe3796c62b3c8a3119a674e65d55f73f"),
        "fowlerville": (
            default_fowlerville(), MacParams(), True,
            "f9ca0d7091f0519478d6121814b4d92e95afe83e6af05adb00f3cf48e45ba322"),
        "pd_per_pair": (
            default_three_log_distance(),
            MacParams(pd_mode=PdMode.PER_PAIR_SPEED_OF_LIGHT), True,
            "a1cc5dc4b07f031e6b03ad195c79e6699e862ca6fd84daace30346aee8e7c877"),
        "cw_fixed": (
            default_three_log_distance(), MacParams(cw_min=7, cw_max=7), True,
            "2ff914e292822b7cbcac3377f703a115df147eeae6311845b6c8f94f797a3af7"),
        "hv_silent": (
            default_three_log_distance(), MacParams(), False,
            "dc45f158d85d38762b45cfcea9d8ff14c0ed7dc94a9f7fe222a004e7ac45e07e"),
        # every backoff counter is 0, so every deferral lands on the first
        # idle instant after the transmission that caused it
        "cw_fixed0": (
            default_three_log_distance(), MacParams(cw_min=0, cw_max=0), True,
            "78765523e712118ed15bcdccb048383c171c085be9a287c48c539502015cb033"),
    }

    @staticmethod
    def golden_scenario():
        return generate_topology(
            TopologySpec(kind=Topology.DISK, vehicle_count=150, radius_m=500.0),
            10.0, 3.0, seed=7)

    @staticmethod
    def outputs(sc, model, params, hv_transmits):
        """Event-log rows, CBP series and PER histogram of one run."""
        events, stats = run(sc, model, RADIO, params, hv_transmits=hv_transmits)
        assert stats.conservation_holds()
        rows = "\n".join(map(format_event_row, events))
        return (rows, compute_cbp(events, sc, model, RADIO),
                compute_per(events, sc, sc.hv_trace.vehicle_id))

    @pytest.mark.parametrize("case", list(CASES))
    def test_event_log_rows(self, case):
        model, params, hv_transmits, expected = self.CASES[case]
        rows, _, _ = self.outputs(self.golden_scenario(), model, params, hv_transmits)
        assert hashlib.sha256(rows.encode()).hexdigest() == expected

    @pytest.mark.parametrize("case", list(CASES))
    def test_fast_paths_match_the_general_paths(self, case, monkeypatch):
        # the distance threshold against the curve, the parked host against
        # interpolating it at every instant
        model, params, hv_transmits, _ = self.CASES[case]
        fast = self.outputs(self.golden_scenario(), model, params, hv_transmits)
        monkeypatch.setattr(chan, "hidden_range_m", lambda radio, model: None)
        monkeypatch.setattr(MobilityTrace, "fixed_position", None)
        sc = self.golden_scenario()
        assert sc.hv_trace.fixed_position is None
        rows, cbp, per = self.outputs(sc, model, params, hv_transmits)
        assert rows == fast[0]
        assert (cbp.samples, cbp.average) == (fast[1].samples, fast[1].average)
        assert (per.bins, per.average) == (fast[2].bins, fast[2].average)

    @classmethod
    def moving_host_scenario(cls, directory):
        """The golden scenario, saved and reloaded with an HV that drives
        across the disk on uneven legs."""
        base = cls.golden_scenario()
        hv = MobilityTrace(0, (0.0, 0.7, 1.3, 2.2, 3.0),
                           (-300.0, -160.0, -40.0, 140.0, 300.0),
                           (-50.0, -20.0, 0.0, 30.0, 80.0), (200.0,) * 5,
                           (0.2, 0.2, 0.0, 0.2, 0.3),
                           base.hv_trace.tx_rate_hz, base.hv_trace.gen_phase_s)
        save_scenario(Scenario(hv, base.rv_traces, base.duration_s, base.seed), directory)
        sc = load_scenario(directory)
        assert sc.hv_trace.fixed_position is None
        return sc

    def test_overloaded_mixed_rate_run(self):
        # a 2 kHz host and remotes at 1 kHz and 250 Hz: the host's follow-ups
        # start on its contention floor while other heads wait on the first
        # idle instant, and the last deferral before the horizon expires a
        # packet as another waits there
        duration = 0.041
        hv = parked_trace(0, (0.0, 0.0), (0.0, duration), 2000.0, 0.00046)
        rvs = (parked_trace(1, (10.0, 0.0), (0.0, duration), 1000.0, 0.00079),
               parked_trace(2, (20.0, 0.0), (0.0, duration), 250.0, 0.00047))
        sc = Scenario(hv_trace=hv, rv_traces=rvs, duration_s=duration, seed=2557)
        events, stats = run(sc, MODEL, RADIO, PARAMS)
        rows = "\n".join(map(format_event_row, events))
        assert hashlib.sha256(rows.encode()).hexdigest() == \
            "a3d6f2efff1d61bae2077781a1269edf96e1535fb084c46d4bfbe001f95fdf31"
        assert (stats.events, stats.packets_generated, stats.packets_decoded,
                stats.packets_collided, stats.packets_expired) == (71, 134, 71, 50, 13)
        floor = PARAMS.tx_interval_s + PARAMS.aifs_s
        assert any(b.start_s == a.start_s + floor and b.colliders
                   for a, b in zip(events, events[1:]))

    def test_moving_host_vehicle(self, tmp_path):
        sc = self.moving_host_scenario(tmp_path)
        rows, cbp, per = self.outputs(sc, default_three_log_distance(), MacParams(), True)
        write_cbp_csv(cbp, tmp_path / "cbp.csv")
        write_per_csv(per, tmp_path / "per.csv")
        digests = [hashlib.sha256(data).hexdigest() for data in (
            rows.encode(), (tmp_path / "cbp.csv").read_bytes(),
            (tmp_path / "per.csv").read_bytes())]
        assert digests == [
            "b34937b13b115bfa0b518560829852872cedbe8b8d0b5daee7bfab67d766fbef",
            "8b92ca6b5a8087b8f1f6c59a72096544bea766d6b2521cd7e3788b3cfdd196df",
            "bb62deb6963a87b271efae0e2d518767bfc117792a202a204346cfd15eb25925"]

    @pytest.mark.parametrize("case,model,decoded,expected", [
        ("three_log_distance", default_three_log_distance(), 3312,
         "686a20fc2b1b5656b8b648616807a3a37ba6ae9ea145bee2b14f1ad4c6607516"),
        ("fowlerville", default_fowlerville(), 2524,
         "9b0fae849c87bdbf98d80c565bb3b2780b1e81b7463e16f5ad60cad07f257fc9"),
        ("moving_host", default_three_log_distance(), 3385,
         "3f05e3d894dadf9b75758702024fdade4df421ac66d40a4f8e7773ac61072193"),
    ])
    def test_datagrams(self, case, model, decoded, expected, tmp_path):
        """Every field of every datagram: position, speed, heading and RSS."""
        sc = (self.moving_host_scenario(tmp_path) if case == "moving_host"
              else self.golden_scenario())
        events, _ = run(sc, model, RADIO, MacParams())
        datagrams = [pack_bsm(event_to_record(ev, sc, model, RADIO))
                     for ev in events if ev.outcome is Outcome.DECODED]
        assert len(datagrams) == decoded
        assert hashlib.sha256(b"".join(datagrams)).hexdigest() == expected
