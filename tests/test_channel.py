"""Path loss, sensing, and capture resolution."""

import math
import random
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtcsim.channel import (SHADOWING_QUANTUM_M, PathLossModel, RadioConfig,
                            _shadow_draw, default_fowlerville,
                            default_three_log_distance, hidden_predicate,
                            hidden_range_m, is_hidden, path_loss_db,
                            resolve_capture, rss_dbm)
from rtcsim.errors import ValidationError


def three_log(d0=1.0, d1=200.0, d2=500.0, n0=1.9, n1=3.8, n2=3.8, ref=46.67):
    return PathLossModel((d0, d1, d2), (n0, n1, n2), ref)


def to_bits(d: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", d))[0]


def from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def ulp_neighbours(d: float, n: int) -> list[float]:
    """``d`` and its ``n`` float neighbours on each side, none negative."""
    bits = to_bits(d)
    return [from_bits(b) for b in range(max(bits - n, 0), bits + n + 1)]


def sequential_path_loss(model: PathLossModel, d_m: float) -> float:
    """Region-by-region accumulation of the loss curve, the reference form."""
    bounds = model.boundaries_m
    loss = model.ref_loss_db
    if d_m >= bounds[0]:
        last = len(bounds) - 1
        for i, lo in enumerate(bounds):
            if i < last and d_m >= bounds[i + 1]:
                loss += 10.0 * model.exponents[i] * math.log10(bounds[i + 1] / lo)
            else:
                loss += 10.0 * model.exponents[i] * math.log10(d_m / lo)
                break
    if model.shadowing_sigma_db > 0.0:
        quantum = int(d_m // SHADOWING_QUANTUM_M)
        loss += model.shadowing_sigma_db * _shadow_draw(model.shadowing_seed, quantum)
    return loss


def random_shadow_free(seed: int) -> tuple[RadioConfig, PathLossModel]:
    """Random regions, some flat, with the carrier-sense threshold crossed
    at a random distance, which may lie in any region."""
    rng = random.Random(seed)
    bounds = [rng.uniform(0.5, 5.0)]
    for _ in range(rng.randint(0, 4)):
        bounds.append(bounds[-1] * rng.uniform(1.5, 6.0))
    exponents = [rng.choice((0.0, rng.uniform(1.0, 5.0))) for _ in bounds[:-1]]
    exponents.append(rng.uniform(1.0, 5.0))
    model = PathLossModel(tuple(bounds), tuple(exponents), rng.uniform(20.0, 60.0))
    cs = rng.uniform(-110.0, -60.0)
    crossing = rng.uniform(bounds[0], 1.5 * bounds[-1])
    radio = RadioConfig(tx_power_dbm=cs + path_loss_db(model, crossing),
                        cs_threshold_dbm=cs, rx_sensitivity_dbm=cs + 3.0)
    return radio, model


class TestPathLoss:
    def test_loss_at_reference_distance(self):
        assert path_loss_db(three_log(), 1.0) == pytest.approx(46.67, abs=1e-12)

    def test_loss_below_reference_clamps(self):
        assert path_loss_db(three_log(), 0.25) == pytest.approx(46.67, abs=1e-12)

    def test_region_two_closed_form(self):
        # hand evaluation: 46.67 + 10 * 1.9 * log10(100 / 1)
        assert path_loss_db(three_log(), 100.0) == pytest.approx(84.67, abs=1e-9)

    def test_region_three_closed_form(self):
        model = three_log()
        expected = 46.67 + 19.0 * math.log10(200.0) + 38.0 * math.log10(300.0 / 200.0)
        assert path_loss_db(model, 300.0) == pytest.approx(expected, abs=1e-9)

    def test_continuity_at_breakpoints(self):
        model = three_log()
        for b in (1.0, 200.0, 500.0):
            below = path_loss_db(model, b - 1e-9)
            above = path_loss_db(model, b + 1e-9)
            assert abs(above - below) < 1e-6

    @pytest.mark.parametrize("model", [default_three_log_distance(),
                                       default_fowlerville()],
                             ids=["three_log_distance", "fowlerville"])
    def test_matches_sequential_accumulation(self, model):
        rng = random.Random(5)
        distances = [d for b in model.boundaries_m for d in ulp_neighbours(b, 8)]
        distances += [rng.uniform(0.0, 2000.0) for _ in range(50_000)]
        distances += [10.0 ** rng.uniform(-3.0, 6.0) for _ in range(50_000)]
        distances += [0.0, 1e300, sys.float_info.max]
        for d in distances:
            assert path_loss_db(model, d) == sequential_path_loss(model, d), d

    def test_negative_distance_rejected(self):
        with pytest.raises(ValidationError):
            path_loss_db(three_log(), -1.0)

    def test_monotone_non_decreasing_without_shadowing(self):
        rng = random.Random(2024)
        for _ in range(200):
            bounds = sorted(rng.uniform(0.5, 800.0) for _ in range(3))
            if bounds[0] >= bounds[1] or bounds[1] >= bounds[2]:
                continue
            model = PathLossModel(
                tuple(bounds),
                (rng.uniform(0, 5), rng.uniform(0, 5), rng.uniform(0, 5)),
                ref_loss_db=rng.uniform(0, 80))
            d_a = rng.uniform(0.0, 2000.0)
            d_b = rng.uniform(0.0, 2000.0)
            lo, hi = sorted((d_a, d_b))
            assert path_loss_db(model, lo) <= path_loss_db(model, hi) + 1e-12

    def test_model_validation(self):
        with pytest.raises(ValidationError):
            three_log(1, 1, 500, 1.9, 3.8, 3.8, 46.67)
        with pytest.raises(ValidationError):
            three_log(1, 200, 500, -1.0, 3.8, 3.8, 46.67)
        with pytest.raises(ValidationError):
            PathLossModel((1, 50), (2.0, 3.0), 47.0, shadowing_sigma_db=-1)


class TestShadowing:
    def test_deterministic_per_seed_and_distance(self):
        model = default_fowlerville()
        assert path_loss_db(model, 123.4) == path_loss_db(model, 123.4)

    def test_same_quantum_shares_draw(self):
        model = PathLossModel((1.0,), (0.0,), 50.0,
                              shadowing_sigma_db=4.0, shadowing_seed=9)
        # zero exponent: any difference inside one 1 m quantum is the fade
        assert path_loss_db(model, 10.2) == path_loss_db(model, 10.9)
        assert path_loss_db(model, 10.2) != path_loss_db(model, 11.1)

    def test_different_seed_changes_fade(self):
        a = PathLossModel((1.0,), (2.0,), 47.0, 3.0, shadowing_seed=1)
        b = PathLossModel((1.0,), (2.0,), 47.0, 3.0, shadowing_seed=2)
        assert path_loss_db(a, 50.0) != path_loss_db(b, 50.0)


class TestRss:
    def test_rss_at_reference(self):
        radio = RadioConfig()
        assert rss_dbm(radio, three_log(), 1.0) == pytest.approx(20.0 - 46.67)

    def test_zero_loss_model_is_identity(self):
        model = three_log(1, 2, 3, 0, 0, 0, 0.0)
        radio = RadioConfig()
        for d in (0.0, 1.0, 10.0, 5000.0):
            assert rss_dbm(radio, model, d) == 20.0

    def test_monotone_non_increasing(self):
        radio = RadioConfig()
        model = default_three_log_distance()
        rng = random.Random(7)
        for _ in range(100):
            lo, hi = sorted((rng.uniform(0, 1500), rng.uniform(0, 1500)))
            assert rss_dbm(radio, model, lo) >= rss_dbm(radio, model, hi) - 1e-12


class TestHidden:
    def test_coincident_not_hidden(self):
        radio = RadioConfig()
        assert not is_hidden(radio, default_three_log_distance(), (3, 4), (3, 4))

    def test_far_apart_hidden(self):
        radio = RadioConfig()
        assert is_hidden(radio, default_three_log_distance(), (0, 0), (5000, 0))

    def test_symmetry(self):
        radio = RadioConfig()
        model = default_three_log_distance()
        rng = random.Random(11)
        for _ in range(100):
            a = (rng.uniform(-800, 800), rng.uniform(-800, 800))
            b = (rng.uniform(-800, 800), rng.uniform(-800, 800))
            assert is_hidden(radio, model, a, b) == is_hidden(radio, model, b, a)

    def test_boundary_matches_analytic_inversion(self):
        # invert the piecewise curve by hand for loss = tx - cs = 114 dB,
        # then bisect the predicate and compare the flip distance
        radio = RadioConfig()
        model = default_three_log_distance()
        loss_at_d2 = (model.ref_loss_db
                      + 19.0 * math.log10(200.0)
                      + 38.0 * math.log10(500.0 / 200.0))
        target = radio.tx_power_dbm - radio.cs_threshold_dbm
        analytic = 500.0 * 10.0 ** ((target - loss_at_d2) / 38.0)

        lo, hi = 500.0, 2000.0
        while hi - lo > 1e-7:
            mid = (lo + hi) / 2.0
            if is_hidden(radio, model, (0.0, 0.0), (mid, 0.0)):
                hi = mid
            else:
                lo = mid
        assert hi == pytest.approx(analytic, abs=1e-6)
        assert not is_hidden(radio, model, (0.0, 0.0), (analytic - 1e-3, 0.0))
        assert is_hidden(radio, model, (0.0, 0.0), (analytic + 1e-3, 0.0))


class TestHiddenRange:
    def curve_agrees(self, radio, model, distances):
        """The threshold, where the model has one, and the run's predicate
        both answer as the curve does."""
        d_star = hidden_range_m(radio, model)
        hidden = hidden_predicate(radio, model)
        for d in distances:
            curve = rss_dbm(radio, model, d) < radio.cs_threshold_dbm
            if d_star is not None:
                assert (d >= d_star) == curve, (d, d_star)
            assert hidden(d) == curve, d

    def test_default_profile(self):
        assert hidden_range_m(RadioConfig(), default_three_log_distance()) \
            == 835.9002815595785

    @pytest.mark.parametrize("seed", [None, 1, 3, 5, 8, 11, "fowlerville"])
    def test_threshold_equals_curve_predicate(self, seed):
        if seed == "fowlerville":
            # shadowed: no threshold, the predicate must be the curve itself
            radio, model = RadioConfig(), default_fowlerville()
            rng = random.Random(0)
            distances = [d for q in range(2000) for d in ulp_neighbours(float(q), 2)]
            distances += [rng.uniform(0.0, 2000.0) for _ in range(20_000)]
            self.curve_agrees(radio, model, distances)
            return
        if seed is None:
            radio, model = RadioConfig(), default_three_log_distance()
        else:
            radio, model = random_shadow_free(seed)
        d_star = hidden_range_m(radio, model)
        assert 0.0 < d_star < math.inf
        rng = random.Random(seed or 0)
        distances = ulp_neighbours(d_star, 1 << 16)
        distances += [d for b in model.boundaries_m for d in ulp_neighbours(b, 8)]
        distances += [rng.uniform(0.0, 2.0 * d_star) for _ in range(100_000)]
        self.curve_agrees(radio, model, distances)

    def test_hidden_at_zero_distance(self):
        radio = RadioConfig(tx_power_dbm=-100.0)
        model = three_log()
        assert hidden_range_m(radio, model) == 0.0
        rng = random.Random(2)
        distances = [d for b in model.boundaries_m for d in ulp_neighbours(b, 8)]
        distances += ulp_neighbours(0.0, 8)
        distances += [rng.uniform(0.0, 1000.0) for _ in range(100_000)]
        self.curve_agrees(radio, model, distances)

    def test_flat_tail_never_hides(self):
        radio = RadioConfig()
        model = PathLossModel((1.0, 10.0), (2.0, 0.0), 40.0)
        assert hidden_range_m(radio, model) == math.inf
        rng = random.Random(3)
        distances = [d for b in model.boundaries_m for d in ulp_neighbours(b, 8)]
        distances += [rng.uniform(0.0, 1e6) for _ in range(100_000)]
        distances += [1e300, sys.float_info.max]
        self.curve_agrees(radio, model, distances)

    def test_shadowed_model_has_no_range(self):
        assert hidden_range_m(RadioConfig(), default_fowlerville()) is None


@st.composite
def curve_models(draw, shadowed=None):
    """Models of 1-5 regions, flat ones among them, with or without a fade."""
    bounds = [draw(st.floats(min_value=0.01, max_value=100.0))]
    for _ in range(draw(st.integers(0, 4))):
        bounds.append(bounds[-1] * draw(st.floats(min_value=1.01, max_value=50.0)))
    exponent = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=6.0))
    exponents = tuple(draw(exponent) for _ in bounds)
    if shadowed is None:
        shadowed = draw(st.booleans())
    sigma = draw(st.floats(min_value=0.1, max_value=8.0)) if shadowed else 0.0
    return PathLossModel(tuple(bounds), exponents,
                         draw(st.floats(min_value=0.0, max_value=100.0)),
                         sigma, draw(st.integers(0, 2**32)))


def probe_distances(model: PathLossModel, far: float, edge: int) -> list[float]:
    """0, below the reference distance, each boundary and shadow-quantum edge
    with its float neighbours, and one distance drawn up to 1e307."""
    centres = [*model.boundaries_m, float(edge), float(math.floor(far)), far]
    centres += [float(math.floor(b)) for b in model.boundaries_m]
    out = [0.0, model.boundaries_m[0] / 2.0]
    for c in centres:
        out += [math.nextafter(c, 0.0), c, math.nextafter(c, math.inf)]
    return out


class TestBoundCurve:
    """``PathLossModel.loss_curve`` against the region walk of its docstring
    (``sequential_path_loss``), which does not go through the closure."""

    @settings(max_examples=600, deadline=None, database=None)
    @given(model=curve_models(), tx=st.floats(min_value=-30.0, max_value=40.0),
           far=st.floats(min_value=0.0, max_value=1e307), edge=st.integers(0, 10**6))
    def test_curve_path_loss_and_rss_are_the_region_walk(self, model, tx, far, edge):
        radio = RadioConfig(tx_power_dbm=tx)
        for d in probe_distances(model, far, edge):
            walk = sequential_path_loss(model, d)
            assert repr(model.loss_curve(d)) == repr(walk), d
            assert repr(path_loss_db(model, d)) == repr(walk), d
            assert repr(rss_dbm(radio, model, d)) == repr(tx - walk), d

    @settings(max_examples=300, deadline=None, database=None)
    @given(model=curve_models(shadowed=True),
           cs=st.floats(min_value=-110.0, max_value=-60.0),
           far=st.floats(min_value=0.0, max_value=1e307), edge=st.integers(0, 10**4),
           crossing=st.integers(0, 3))
    def test_shadowed_hidden_predicate_is_is_hidden(self, model, cs, far, edge, crossing):
        distances = probe_distances(model, far, edge)
        # the carrier-sense threshold meets the signal at one of the probed centres
        d_cross = distances[min(crossing * 3 + 3, len(distances) - 1)]
        radio = RadioConfig(tx_power_dbm=cs + sequential_path_loss(model, d_cross),
                            cs_threshold_dbm=cs, rx_sensitivity_dbm=cs + 3.0)
        hidden = hidden_predicate(radio, model)
        for d in distances:
            assert hidden(d) == is_hidden(radio, model, (0.0, 0.0), (d, 0.0)), d


class TestCapture:
    def test_single_arrival_above_sensitivity_wins(self):
        radio = RadioConfig()
        assert resolve_capture(radio, [("p", -60.0)]) == "p"

    def test_single_arrival_below_sensitivity_loses(self):
        radio = RadioConfig()
        assert resolve_capture(radio, [("p", -92.0)]) is None

    def test_exact_tie_destroys_both(self):
        radio = RadioConfig(capture_margin_db=0.0)
        assert resolve_capture(radio, [("a", -60.0), ("b", -60.0)]) is None

    def test_margin_cleared(self):
        radio = RadioConfig(capture_margin_db=10.0)
        winner = resolve_capture(radio, [("a", -60.0), ("b", -75.0)])
        assert winner == "a"

    def test_margin_not_cleared(self):
        radio = RadioConfig(capture_margin_db=10.0)
        assert resolve_capture(radio, [("a", -60.0), ("b", -65.0)]) is None

    def test_empty_arrivals_rejected(self):
        with pytest.raises(ValidationError):
            resolve_capture(RadioConfig(), [])

    def test_winner_is_strict_argmax(self):
        radio = RadioConfig(capture_margin_db=0.0)
        rng = random.Random(3)
        for _ in range(200):
            arrivals = [(i, rng.uniform(-95, -40)) for i in range(rng.randint(1, 6))]
            winner = resolve_capture(radio, arrivals)
            if winner is not None:
                top = max(rss for _, rss in arrivals)
                assert sum(1 for _, rss in arrivals if rss == top) == 1
                assert arrivals[winner][1] == top

    @settings(max_examples=1000, deadline=None, database=None)
    @given(levels=st.lists(st.one_of(st.sampled_from([-60.0, -65.0, -91.0, -99.0]),
                                     st.floats(-120.0, -20.0)),
                           min_size=1, max_size=6),
           margin=st.one_of(st.just(0.0), st.floats(0.0, 20.0)))
    def test_running_tie_test_is_the_scan_over_the_others(self, levels, margin):
        radio = RadioConfig(capture_margin_db=margin)
        arrivals = [(object(), rss) for rss in levels]
        # the rule with the tie found by scanning every arrival but the first
        # strongest one
        s1 = max(levels)
        best = arrivals[levels.index(s1)][0]
        others = [rss for packet, rss in arrivals if packet is not best]
        if any(rss == s1 for rss in others):
            expected = None
        else:
            s2 = max(others) if others else radio.noise_floor_dbm
            clears = s1 >= radio.rx_sensitivity_dbm and s1 - s2 >= margin
            expected = best if clears else None
        assert resolve_capture(radio, arrivals) is expected

    def test_radio_validation(self):
        with pytest.raises(ValidationError):
            RadioConfig(cs_threshold_dbm=-80.0, rx_sensitivity_dbm=-91.0)
        with pytest.raises(ValidationError):
            RadioConfig(capture_margin_db=-1.0)
