"""Urban-macro link budget, per-sub-frame fading draws, and decodability.

Large-scale loss is the standard 128.1 + 37.6*log10(d_km) urban-macro
model with lognormal shadowing (10 dB sigma, one draw per (cell, UE) per
drop).  Fast fading is an optional per-(cell, PRB, UE, sub-frame)
Rayleigh-power perturbation in dB, which is what makes different PRBs of
the same cell look different to a user.  SNR maps to a decodable rate in
bits per PRB per sub-frame through a 15-step threshold table.

A link's SNR in dB is its link budget plus 10 * log10 of its fading
power, the expression _fade_db evaluates.  Within a drop the link budget
is fixed, so whether a power reaches an SNR threshold is a cutoff on the
power itself: cutoffs builds, once per drop, the least float64 power at
which that dB expression meets each threshold, and the engine compares
the raw fading_block draws with it.  The comparison decides every draw
as the dB expression would, without a log per draw.

The carrier transmit power is split evenly over the carrier's PRBs (100
for a 20 MHz LTE carrier), independent of how many PRBs the allocator is
choosing among.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChannelParams",
    "ChannelModel",
    "path_loss",
    "snr",
    "min_snr_db",
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
        # Every link budget must come out finite: the cutoff search relies
        # on it, and a nan or infinite budget serves nobody or everybody.
        for name in ("tx_power_dbm", "noise_density_dbm_hz", "noise_figure_db",
                     "shadowing_sigma_db", "pathloss_intercept_db",
                     "pathloss_slope_db"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.shadowing_sigma_db < 0:
            raise ValueError("shadowing_sigma_db must be >= 0")
        for name in ("prb_bandwidth_hz", "min_distance_km", "subframe_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0")
        if not (math.isfinite(self.carrier_prbs) and self.carrier_prbs >= 1):
            raise ValueError("carrier_prbs must be finite and >= 1")

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


def path_loss(distance_km, params: ChannelParams | None = None):
    """Log-distance path loss in dB; distances below the clamp are lifted
    to it (the model diverges at zero range). Accepts scalars or arrays."""
    p = params or ChannelParams()
    d = np.maximum(np.asarray(distance_km, dtype=float), p.min_distance_km)
    pl = p.pathloss_intercept_db + p.pathloss_slope_db * np.log10(d)
    return float(pl) if np.isscalar(distance_km) else pl


def snr(params: ChannelParams, path_loss_db, shadow_db=0.0):
    """Per-PRB SNR in dB without fast fading: transmit power minus path
    loss, shadowing and noise floor.  Positive shadow_db deepens the
    shadow (lowers SNR).  Accepts scalars or arrays."""
    return params.per_prb_tx_dbm - path_loss_db - shadow_db - params.noise_floor_dbm


def min_snr_db(required):
    """Lowest SNR whose decodable rate meets `required`.  Vectorized.

    An SNR decodes the rate of the highest step whose threshold it meets,
    and 0 below the first step.  Rates step up strictly, so that rate
    meets `required` exactly when the SNR is at least the threshold of the
    first step whose rate reaches `required`, which is returned: -inf when
    required <= 0 (outage still meets it), +inf when it is above the top
    step.
    """
    req = np.asarray(required, dtype=float)
    idx = np.searchsorted(_RATES, req, side="left")
    out = np.where(req <= 0, -np.inf, np.append(_THRESHOLDS_DB, np.inf)[idx])
    return float(out) if np.isscalar(required) else out


# Fading powers below this are read as this, so a zero draw stays finite
# in dB.
_MIN_POWER = 1e-12
_MAX_POWER = np.finfo(np.float64).max
# Bit patterns of non-negative float64 values order like the values, so
# cutoffs are searched for as int64 patterns.
_MAX_BITS = np.float64(_MAX_POWER).view(np.int64)
# The cutoff search first bisects a window of 2**_WINDOW_BITS patterns
# centred on the closed-form power 10 ** ((threshold - base) / 10).  Over
# 4 M cutoffs of drops with 35, 70 and 280 users at radii from 100 m to
# 2.5 km, that power was the cutoff 14% of the time and missed it by -28
# to +29 ulps.
_WINDOW_BITS = 7


def _fade_db(power, base, out=None):
    """base + 10 * log10(max(power, 1e-12)), the SNR in dB of fading power
    over link budget base, into out (a new array by default).  The cutoff
    search evaluates every probe power here, so its cutoffs decide each
    power exactly as this expression does."""
    out = np.maximum(power, _MIN_POWER, out=out)
    np.log10(out, out=out)
    out *= 10.0
    out += base
    return out


def _lowest_meeting(top, bits, base, thr):
    """Lower each int64 power pattern in top, which meets thr over base,
    to the least pattern in (top - 2**bits, top] that does, one power of
    two at a time: the least there when the pattern 2**bits below top
    fails, and top - 2**bits + 1 otherwise."""
    top = top.copy()
    probe = np.empty_like(top)
    power = np.empty(top.shape)
    meets = np.empty_like(top)
    for step in range(bits - 1, -1, -1):
        np.subtract(top, 1 << step, out=probe)
        _fade_db(probe.view(np.float64), base, out=power)
        np.greater_equal(power, thr, out=meets)
        meets <<= step
        top -= meets
    return top


def _cutoffs(base, thresholds):
    """(L, C, M) least float64 power whose _fade_db over each link budget
    in the (C, M) base meets each of the L thresholds: -inf where every
    power does (the clamped one included), +inf where no finite power
    does.

    Each cutoff is bisected over the window of power patterns around the
    closed-form power.  One that lands on either end of its window may lie
    outside it, and is searched again over every pattern from the clamp
    to the largest float64.  base must be finite, and _fade_db must not
    decrease in the power.
    """
    thr = np.asarray(thresholds, dtype=np.float64)[:, None, None]
    guess = np.subtract(thr, base)
    guess /= 10.0
    with np.errstate(over="ignore"):
        np.power(10.0, guess, out=guess)
    top = np.clip(guess, _MIN_POWER, _MAX_POWER, out=guess).view(np.int64)
    top += 1 << (_WINDOW_BITS - 1)
    np.minimum(top, _MAX_BITS, out=top)
    cut = _lowest_meeting(top, _WINDOW_BITS, base, thr)
    top -= cut
    redo = np.nonzero((top == 0) | (top == (1 << _WINDOW_BITS) - 1))
    cut = cut.view(np.float64)
    if redo[0].size:
        base = np.broadcast_to(base, cut.shape)[redo]
        thr = np.broadcast_to(thr, cut.shape)[redo]
        ends = np.repeat([[_MIN_POWER], [_MAX_POWER]], base.size, axis=1)
        low, high = _fade_db(ends, base) >= thr
        fill = np.where(low, -np.inf, np.inf)
        held = np.flatnonzero(~low & high)
        if held.size:
            # Every pattern below the clamp's, negative ones included,
            # fails where the clamp fails, so a search down from the
            # largest float64 through 2**63 patterns is exact.
            top = np.full(held.size, _MAX_BITS)
            found = _lowest_meeting(top, 63, base[held], thr[held])
            fill[held] = found.view(np.float64)
        cut[redo] = fill
    return cut


class ChannelModel:
    """Samples per-sub-frame fading for a fixed scenario.

    Path losses are precomputed once; shadowing is drawn per drop via
    draw_shadowing and held fixed while fading_block draws the raw fading
    powers of a block of sub-frames at a time, as many PRBs as its buffer
    holds, and cutoffs gives the powers that meet each SNR threshold.  All
    randomness comes from generators the caller passes in, so a fixed
    seed fixes the entire sequence.
    """

    def __init__(self, params: ChannelParams, scenario):
        self.params = params
        # (C, M) distances in km, clamped once up front
        delta = scenario.cell_pos[:, None, :] - scenario.ue_pos[None, :, :]
        d_km = np.linalg.norm(delta, axis=2) / 1000.0
        self._pl_db = path_loss(d_km, params)

    def draw_shadowing(self, rng: np.random.Generator) -> np.ndarray:
        """One lognormal shadowing realization per (cell, UE), in dB."""
        return rng.normal(0.0, self.params.shadowing_sigma_db, size=self._pl_db.shape)

    def cutoffs(self, shadow_db: np.ndarray, thresholds) -> np.ndarray:
        """(L, C, M) cutoff powers of the L SNR thresholds in dB under this
        shadowing: a fading power p from fading_block reaches threshold l
        on link (c, m) exactly when p >= cutoffs[l, c, m], as its SNR in
        dB, _fade_db of p over the link budget, would.  -inf where every
        power does, +inf where none does."""
        return _cutoffs(snr(self.params, self._pl_db, shadow_db), thresholds)

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
