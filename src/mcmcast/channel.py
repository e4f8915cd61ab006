"""Urban-macro link budget and per-sub-frame SNR sampling.

Large-scale loss is the standard 128.1 + 37.6*log10(d_km) urban-macro
model with lognormal shadowing (10 dB sigma, one draw per (cell, UE) per
drop).  Fast fading is an optional per-(cell, PRB, UE, sub-frame)
Rayleigh-power perturbation in dB, which is what makes different PRBs of
the same cell look different to a user.  SNR maps to a decodable rate in
bits per PRB per sub-frame through a 15-step threshold table.

The carrier transmit power is split evenly over the carrier's PRBs (100
for a 20 MHz LTE carrier), independent of how many PRBs the allocator is
choosing among.
"""

from __future__ import annotations

import logging
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

log = logging.getLogger(__name__)

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
        if self.prb_bandwidth_hz <= 0:
            raise ValueError("prb_bandwidth_hz must be > 0")
        if self.shadowing_sigma_db < 0:
            raise ValueError("shadowing_sigma_db must be >= 0")
        for name in ("tx_power_dbm", "noise_density_dbm_hz", "noise_figure_db"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

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
    d = np.asarray(distance_km, dtype=float)
    if np.any(d < p.min_distance_km):
        log.debug(
            "clamping %d distance(s) below %.4f km", int(np.sum(d < p.min_distance_km)),
            p.min_distance_km,
        )
        d = np.maximum(d, p.min_distance_km)
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


class ChannelModel:
    """Samples per-sub-frame SNR matrices for a fixed scenario.

    Path losses are precomputed once; shadowing is drawn per drop via
    draw_shadowing and held fixed while snr_block draws a block of
    sub-frames at a time.  All randomness comes from generators the caller
    passes in, so a fixed seed fixes the entire sequence.
    """

    def __init__(self, params: ChannelParams, scenario, num_prbs: int):
        self.params = params
        self.num_prbs = num_prbs
        # (C, M) distances in km, clamped once up front
        delta = scenario.cell_pos[:, None, :] - scenario.ue_pos[None, :, :]
        d_km = np.linalg.norm(delta, axis=2) / 1000.0
        self._pl_db = path_loss(d_km, params)

    def draw_shadowing(self, rng: np.random.Generator) -> np.ndarray:
        """One lognormal shadowing realization per (cell, UE), in dB."""
        return rng.normal(0.0, self.params.shadowing_sigma_db, size=self._pl_db.shape)

    def snr_block(
        self, shadow_db: np.ndarray, rng: np.random.Generator, out: np.ndarray
    ) -> np.ndarray:
        """Fill out, a C-contiguous (B, C, N, M) float64 array, with the SNR
        draws of B consecutive sub-frames and return it: the link budget
        plus, with fast fading, 10 * log10 of a unit-mean exponential power
        per PRB.  One standard_exponential call fills the block with the
        values, in the same order, that B successive per-sub-frame draws
        would take from rng."""
        base = snr(self.params, self._pl_db, shadow_db)[:, None, :]
        if not self.params.fast_fading:
            out[...] = base
            return out
        # base + 10 * log10(max(power, 1e-12)), computed in place: the
        # same IEEE operations without three array-sized temporaries
        rng.standard_exponential(out=out)
        np.maximum(out, 1e-12, out=out)
        np.log10(out, out=out)
        out *= 10.0
        out += base
        return out
