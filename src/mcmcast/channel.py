"""Urban-macro link budget, per-sub-frame fading draws, and decodability.

Large-scale loss is the standard 128.1 + 37.6*log10(d_km) urban-macro
model with lognormal shadowing (10 dB sigma, one draw per (cell, UE) per
drop).  Fast fading is an optional per-(cell, PRB, UE, sub-frame)
Rayleigh-power perturbation in dB, which is what makes different PRBs of
the same cell look different to a user.  SNR maps to a decodable rate in
bits per PRB per sub-frame through a 15-step threshold table.  path_loss
and min_snr_db take arrays and give arrays, and every parameter is the
caller's ChannelParams: nothing here builds its own.

A link's SNR in dB is its link budget plus 10 * log10 of its fading
power, with powers below 1e-12 read as 1e-12.  Within a drop the link
budget is fixed, so whether a power reaches an SNR threshold is a cutoff
on the power itself, 10 ** ((threshold - budget) / 10): cutoffs builds
that table once per drop, and the engine compares the raw fading_block
draws with it, with no log per draw.

The carrier transmit power is split evenly over the carrier's PRBs (100
for a 20 MHz LTE carrier), independent of how many PRBs the allocator is
choosing among.
"""

from __future__ import annotations

import functools
import math
import numbers
import typing
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "ChannelParams", "ChannelModel", "path_loss", "snr", "min_snr_db",
    "DEFAULT_RATE_TABLE",
]

# (min_snr_db, bits per PRB per sub-frame) steps.  Thresholds are the
# usual 15 CQI switching points; rates are truncated Shannon with a 0.6
# bandwidth-efficiency factor at 180 kHz * 1 ms, rounded to 0.1 bit.
# Both columns increase strictly.  Frozen: golden outputs are pinned to it.
DEFAULT_RATE_TABLE: tuple[tuple[float, float], ...] = (
    (-6.7, 30.2),
    (-4.7, 45.5),
    (-2.3, 72.1),
    (0.2, 111.6),
    (2.4, 156.9),
    (4.3, 203.5),
    (5.9, 247.3),
    (8.1, 313.0),
    (10.3, 383.4),
    (11.7, 430.0),
    (14.1, 511.8),
    (16.3, 588.4),
    (18.7, 673.0),
    (21.0, 754.6),
    (22.7, 815.2),
)

_THRESHOLDS_DB = np.array([t for t, _ in DEFAULT_RATE_TABLE])
_RATES = np.array([r for _, r in DEFAULT_RATE_TABLE])

# Field type -> (the values check_fields accepts for it, their name); a
# bool is an int, but never a count or a real number
_KINDS = {
    bool: ((bool, np.bool_), "a boolean"),
    int: (numbers.Integral, "an integer"),
    float: (numbers.Real, "a real number"),
}


@functools.cache
def typed_fields(cls) -> dict[str, type]:
    """The int, float and bool fields of the dataclass cls -> their type."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls) if hints[f.name] in _KINDS}


def check_fields(config, bounds: dict[str, str]) -> None:
    """Store each int, float and bool field of the frozen dataclass config
    as the Python type its annotation names (a numpy scalar too), or raise
    ValueError, naming the field, for a value of another kind, a float
    that is not finite, or a value outside its bound (">= 1", "> 0")."""
    for name, typ in typed_fields(type(config)).items():
        value, rule = getattr(config, name), bounds.get(name, "")
        accepted, kind = _KINDS[typ]
        if not isinstance(value, accepted) or typ is not bool and isinstance(value, bool):
            raise ValueError(f"{name} must be {kind}, got {value!r}")
        try:
            value = typ(value)
        except OverflowError:  # an int or fraction past the largest float
            raise ValueError(f"{name} must be finite, got a value past the "
                             f"float range") from None
        op, _, bound = rule.partition(" ")
        ok = not rule or (value > float(bound) if op == ">" else value >= float(bound))
        if typ is float:
            ok = ok and math.isfinite(value)
            rule = f"finite and {rule}" if rule else "finite"
        if not ok:
            raise ValueError(f"{name} must be {rule}, got {value!r}")
        object.__setattr__(config, name, value)


# Lower bounds on ChannelParams fields, which check_fields applies.  With
# every float finite, every link budget is: a nan or infinite budget would
# serve nobody or everybody.
_CHANNEL_BOUNDS = {"shadowing_sigma_db": ">= 0", "prb_bandwidth_hz": "> 0",
                   "carrier_prbs": ">= 1", "min_distance_km": "> 0", "subframe_s": "> 0"}


@dataclass(frozen=True)
class ChannelParams:
    """Link-budget parameters (defaults: 20 MHz urban-macro downlink)."""

    tx_power_dbm: float = 46.0
    noise_density_dbm_hz: float = -174.0
    noise_figure_db: float = 5.0
    shadowing_sigma_db: float = 10.0
    bandwidth_hz: float = 20e6
    prb_bandwidth_hz: float = 180e3
    pathloss_intercept_db: float = 128.1
    pathloss_slope_db: float = 37.6
    carrier_prbs: int = 100        # PRBs sharing tx power on the carrier
    min_distance_km: float = 0.01  # clamp for the log-distance model
    fast_fading: bool = True
    subframe_s: float = 1e-3

    def __post_init__(self):
        check_fields(self, _CHANNEL_BOUNDS)

    @property
    def per_prb_tx_dbm(self) -> float:
        return self.tx_power_dbm - 10.0 * math.log10(self.carrier_prbs)

    @property
    def noise_floor_dbm(self) -> float:
        """Thermal noise plus receiver noise figure in one PRB."""
        return (
            self.noise_density_dbm_hz
            + 10.0 * math.log10(self.prb_bandwidth_hz)
            + self.noise_figure_db
        )


def path_loss(distance_km, params: ChannelParams) -> np.ndarray:
    """Log-distance path loss in dB of an array of distances; distances
    below the clamp are lifted to it (the model diverges at zero range)."""
    d = np.maximum(np.asarray(distance_km, dtype=float), params.min_distance_km)
    return params.pathloss_intercept_db + params.pathloss_slope_db * np.log10(d)


def snr(params: ChannelParams, path_loss_db, shadow_db):
    """Per-PRB SNR in dB without fast fading: transmit power minus path
    loss, shadowing and noise floor.  Positive shadow_db deepens the
    shadow (lowers SNR).  Accepts scalars or arrays."""
    return params.per_prb_tx_dbm - path_loss_db - shadow_db - params.noise_floor_dbm


def min_snr_db(required) -> np.ndarray:
    """Lowest SNR whose decodable rate meets each rate of the array
    `required`.

    An SNR decodes the rate of the highest step whose threshold it meets,
    and 0 below the first step.  Rates step up strictly, so that rate
    meets `required` exactly when the SNR is at least the threshold of the
    first step whose rate reaches `required`, which is returned: -inf when
    required <= 0 (outage still meets it), +inf when it is above the top
    step.
    """
    req = np.asarray(required, dtype=float)
    idx = np.searchsorted(_RATES, req, side="left")
    return np.where(req <= 0, -np.inf, np.append(_THRESHOLDS_DB, np.inf)[idx])


# Fading powers below this are read as this, so a zero draw stays finite
# in dB, and where this power meets a threshold every power does.
_MIN_POWER = 1e-12


class ChannelModel:
    """Samples per-sub-frame fading for a fixed scenario.

    Path losses are computed once, from the scenario's distances;
    shadowing is drawn per drop via draw_shadowing and held fixed while
    fading_block draws the raw fading powers of a block of sub-frames at a
    time, as many PRBs as its buffer holds, and cutoffs gives the powers
    that meet each SNR threshold.  All randomness comes from generators
    the caller passes in, so a fixed seed fixes the entire sequence.
    """

    def __init__(self, params: ChannelParams, scenario):
        self.params = params
        self._pl_db = path_loss(scenario.distance_m / 1000.0, params)

    def draw_shadowing(self, rng: np.random.Generator) -> np.ndarray:
        """One lognormal shadowing realization per (cell, UE), in dB."""
        return rng.normal(0.0, self.params.shadowing_sigma_db, size=self._pl_db.shape)

    def cutoffs(self, shadow_db: np.ndarray, thresholds) -> np.ndarray:
        """(L, C, M) cutoff powers of the L SNR thresholds in dB under this
        shadowing: a fading power p from fading_block reaches threshold l
        on link (c, m) when p >= cutoffs[l, c, m], the power
        10 ** ((threshold - budget) / 10) over the link budget.  -inf where
        that power is at or below the clamp 1e-12, so that every power
        decodes, and +inf where it overflows, so that none does."""
        budget = snr(self.params, self._pl_db, shadow_db)
        thr = np.asarray(thresholds, dtype=np.float64)[:, None, None]
        with np.errstate(over="ignore"):
            cut = 10.0 ** ((thr - budget) / 10.0)
        return np.where(cut <= _MIN_POWER, -np.inf, cut)

    def fading_block(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        """Fill out, a C-contiguous (B, C, N, M) float64 array, with the
        fading powers of B consecutive sub-frames and return it: a unit-mean
        exponential power per PRB from one standard_exponential call, the
        values, in the same order, that B successive per-sub-frame draws
        would take from rng.  Without fast fading every power is 1 (0 dB)
        and rng is not drawn from."""
        if not self.params.fast_fading:
            out.fill(1.0)
            return out
        return rng.standard_exponential(out=out)
