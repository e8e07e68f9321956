"""Radio propagation and reception models.

Path loss is a piecewise log-distance curve: within each distance region the
loss grows as ``10 * n_k * log10(d / d_k)`` and the regions accumulate, so the
curve is continuous and (for zero shadowing) non-decreasing. Two named
configurations are provided: a classic three-region profile and a
field-calibrated-style profile with deterministic, distance-quantized
lognormal shadowing. Each model binds its curve once, as one function of
distance (``PathLossModel.loss_curve``) holding the region boundaries, the
losses summed at them, the exponents and any fade; ``path_loss_db`` checks
the sign and calls it, and capture resolution and the shadowed hidden test
call it directly.

On top of the loss curve sit the three questions the scheduler asks:

* can one transmitter sense another (hidden-node predicate),
* what signal strength does the host vehicle see,
* which of several overlapping packets, if any, captures the receiver.

Without shadowing the signal strength only falls with distance, so the
hidden-node predicate is a threshold on distance: ``is_hidden`` holds exactly
when the distance is at least ``hidden_range_m``, a float found once per run
by bisection over the curve. ``hidden_predicate`` is the one place that picks
between that threshold and the curve; the scheduler, the busy-percent metric
and the run invariants all ask it. ``is_hidden`` keeps evaluating the curve,
for the reference replay.
"""

from __future__ import annotations

import math
import struct
import sys
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ValidationError

# Shadowing draws are frozen per 1 m distance quantum so that a given
# transmitter-receiver distance always sees the same fade within a run.
SHADOWING_QUANTUM_M = 1.0


@dataclass(frozen=True)
class PathLossModel:
    """Piecewise log-distance attenuation curve.

    ``boundaries_m[0]`` is the reference distance where the loss equals
    ``ref_loss_db``; below it the loss is clamped to the reference value.
    ``exponents[k]`` applies between ``boundaries_m[k]`` and the next
    boundary (the last exponent extends to infinity).
    """

    boundaries_m: tuple[float, ...]
    exponents: tuple[float, ...]
    ref_loss_db: float
    shadowing_sigma_db: float = 0.0
    shadowing_seed: int = 0

    def __post_init__(self):
        if not self.boundaries_m:
            raise ValidationError("path loss model needs at least one region boundary")
        if len(self.boundaries_m) != len(self.exponents):
            raise ValidationError("one exponent is required per region boundary")
        if self.boundaries_m[0] <= 0:
            raise ValidationError("reference distance must be positive")
        for lo, hi in zip(self.boundaries_m, self.boundaries_m[1:]):
            if hi <= lo:
                raise ValidationError("region boundaries must be strictly increasing")
        if any(n < 0 for n in self.exponents):
            raise ValidationError("path loss exponents must be non-negative")
        if self.ref_loss_db < 0:
            raise ValidationError("reference loss must be non-negative")
        if self.shadowing_sigma_db < 0:
            raise ValidationError("shadowing sigma must be non-negative")

    @cached_property
    def loss_curve(self) -> Callable[[float], float]:
        """The curve as one function of a non-negative distance.

        The loss at the boundary of the region holding ``d`` plus
        ``10 * n_k * log10(d / d_k)`` within it and, when the model carries
        shadowing, ``sigma * Z(d)`` where Z is the frozen per-quantum normal
        draw. The boundary losses are summed left to right, the order in
        which a walk over the regions would accumulate them, so adding the
        partial region on top gives the same float as that walk. Built once
        per model; the hot paths call it directly.
        """
        bounds = self.boundaries_m
        d0 = bounds[0]
        ref = self.ref_loss_db
        base = [ref]
        for lo, hi, n in zip(bounds, bounds[1:], self.exponents):
            base.append(base[-1] + 10.0 * n * math.log10(hi / lo))
        slopes = tuple(10.0 * n for n in self.exponents)
        sigma, seed = self.shadowing_sigma_db, self.shadowing_seed
        shadowed = sigma > 0.0
        log10, draw, quantum = math.log10, _shadow_draw, SHADOWING_QUANTUM_M

        def loss(d: float) -> float:
            if d >= d0:
                k = bisect_right(bounds, d) - 1
                value = base[k] + slopes[k] * log10(d / bounds[k])
            else:
                value = ref
            if shadowed:
                value += sigma * draw(seed, int(d // quantum))
            return value

        return loss


def default_three_log_distance() -> PathLossModel:
    """Stock three-region profile (1 m / 200 m / 500 m breakpoints)."""
    return PathLossModel(boundaries_m=(1.0, 200.0, 500.0),
                         exponents=(1.9, 3.8, 3.8),
                         ref_loss_db=46.6777)


def default_fowlerville() -> PathLossModel:
    """Bundled field-style profile.

    The published material names this model but gives no constants, so these
    values are engineering defaults chosen to sit between free space and the
    three-region profile; override them in the config document as needed.
    """
    return PathLossModel(boundaries_m=(1.0, 50.0, 150.0, 400.0),
                         exponents=(2.0, 2.7, 3.0, 3.2),
                         ref_loss_db=47.86,
                         shadowing_sigma_db=3.0,
                         shadowing_seed=12345)


@dataclass(frozen=True)
class RadioConfig:
    """Transmit power and the receiver-side decision thresholds."""

    tx_power_dbm: float = 20.0
    cs_threshold_dbm: float = -94.0
    rx_sensitivity_dbm: float = -91.0
    capture_margin_db: float = 5.0
    noise_floor_dbm: float = -99.0

    def __post_init__(self):
        if self.rx_sensitivity_dbm < self.cs_threshold_dbm:
            raise ValidationError(
                "rx_sensitivity_dbm must be >= cs_threshold_dbm "
                "(a decodable signal is always sensable)")
        if self.capture_margin_db < 0:
            raise ValidationError("capture_margin_db must be non-negative")


@lru_cache(maxsize=1 << 16)
def _shadow_draw(seed: int, quantum: int) -> float:
    """Standard normal draw keyed by (seed, floor(d / 1 m)).

    numpy's seeded PCG64 stream is stable across releases, so a given
    (seed, quantum) pair always yields the same fade.
    """
    return float(np.random.default_rng((seed, quantum)).standard_normal())


def path_loss_db(model: PathLossModel, d_m: float) -> float:
    """Attenuation in dB at distance ``d_m`` (``PathLossModel.loss_curve``)."""
    if d_m < 0:
        raise ValidationError(f"distance must be non-negative, got {d_m}")
    return model.loss_curve(d_m)


def rss_dbm(radio: RadioConfig, model: PathLossModel, d_m: float) -> float:
    """Received signal strength at distance ``d_m``."""
    return radio.tx_power_dbm - path_loss_db(model, d_m)


def distance_m(pos_a: tuple[float, float], pos_b: tuple[float, float]) -> float:
    return math.hypot(pos_a[0] - pos_b[0], pos_a[1] - pos_b[1])


def is_hidden(radio: RadioConfig, model: PathLossModel,
              pos_a: tuple[float, float], pos_b: tuple[float, float]) -> bool:
    """True when a transmission from ``pos_a`` cannot be sensed at ``pos_b``.

    Symmetric by construction: the model depends only on the distance.
    """
    return rss_dbm(radio, model, distance_m(pos_a, pos_b)) < radio.cs_threshold_dbm


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def hidden_range_m(radio: RadioConfig, model: PathLossModel) -> Optional[float]:
    """Smallest float distance at which a shadow-free model hides a transmitter.

    ``is_hidden`` is then exactly ``distance_m >= hidden_range_m``. The
    bit patterns of non-negative doubles order like their values, so a
    bisection over them ends in at most 64 evaluations of the curve. Returns
    0.0 when even 0 m is hidden, ``math.inf`` when the loss never drops the
    signal below the carrier-sense threshold (a flat last region), and None
    for a shadowed model, whose predicate is not monotone in distance.
    """
    if model.shadowing_sigma_db > 0.0:
        return None

    def hidden(bits: int) -> bool:
        return rss_dbm(radio, model, _double(bits)) < radio.cs_threshold_dbm

    lo = 0
    hi = struct.unpack("<Q", struct.pack("<d", sys.float_info.max))[0]
    if hidden(lo):
        return 0.0
    if not hidden(hi):
        return math.inf
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if hidden(mid):
            hi = mid
        else:
            lo = mid
    return _double(hi)


def hidden_predicate(radio: RadioConfig, model: PathLossModel) -> Callable[[float], bool]:
    """``is_hidden`` on a distance: a threshold on ``hidden_range_m`` for a
    shadow-free model, the curve for a shadowed one. Built once per run."""
    d_star = hidden_range_m(radio, model)
    if d_star is None:
        p, cs, loss = radio.tx_power_dbm, radio.cs_threshold_dbm, model.loss_curve
        return lambda d: p - loss(d) < cs
    return lambda d: d >= d_star


def resolve_capture(radio: RadioConfig, arrivals: Sequence[tuple[object, float]]):
    """Pick the packet, if any, that captures the receiver.

    ``arrivals`` pairs each temporally overlapping packet with its RSS at the
    receiver. With s1 >= s2 the two strongest levels (s2 falling back to the
    noise floor for a lone arrival), the strongest packet wins iff
    s1 >= rx_sensitivity and s1 - s2 >= capture_margin. An exact tie in s1
    destroys all arrivals.
    """
    if not arrivals:
        raise ValidationError("resolve_capture requires at least one arrival")
    best = None
    s1 = -math.inf
    s2 = -math.inf
    for packet, rss in arrivals:
        if rss > s1:
            s2 = s1
            s1 = rss
            best = packet
        elif rss > s2:
            s2 = rss
    if len(arrivals) == 1:
        s2 = radio.noise_floor_dbm
    elif s2 == s1:
        # exact dB tie at the top: no receiver can lock on. The running s2
        # reaches s1 only from a second arrival holding the same level
        return None
    if s1 < radio.rx_sensitivity_dbm:
        return None
    if s1 - s2 < radio.capture_margin_db:
        return None
    return best
