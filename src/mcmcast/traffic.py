"""Video traffic models: trace-file parsing and per-sub-frame bit schedules.

Trace lines follow the common frame-size listing used by public video
trace archives: ``index frame_type time size_bytes`` with ``#`` comment
lines.  Only the first and last columns are consumed — sizes become bits
and the frame stream is spread over the sub-frames of each frame period.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "TraceParseError", "parse_trace", "schedule_from_trace",
    "schedule_constant", "write_synthetic_trace",
]


class TraceParseError(ValueError):
    """Raised when a trace file cannot be interpreted."""


def parse_trace(path: str) -> list[tuple[int, float]]:
    """Read (frame_index, size_bits) pairs from a trace file."""
    frames: list[tuple[int, float]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if len(tokens) < 2:
                raise TraceParseError(
                    f"{path}:{lineno}: expected 'index ... size_bytes', got {line!r}"
                )
            try:
                index = int(tokens[0])
                size_bytes = float(tokens[-1])
            except ValueError as exc:
                raise TraceParseError(f"{path}:{lineno}: {exc}") from exc
            bits = size_bytes * 8
            if not math.isfinite(bits):
                raise TraceParseError(
                    f"{path}:{lineno}: frame size {tokens[-1]!r} is not a "
                    f"finite number of bits"
                )
            if bits < 0:
                raise TraceParseError(f"{path}:{lineno}: negative frame size")
            frames.append((index, round(bits)))
    if not frames:
        raise TraceParseError(f"{path}: no frames found")
    return frames


def schedule_from_trace(
    frames: list[tuple[int, float]],
    fps: float,
    subframe_s: float = 1e-3,
    burst: bool = False,
) -> np.ndarray:
    """(T,) bits demanded in each sub-frame: each frame's bits spread over
    the sub-frames of its frame period.

    With ``burst`` the whole frame lands on the first sub-frame of the
    period; otherwise bits are split evenly with the remainder on the
    last sub-frame.  Total bits are conserved exactly either way.
    """
    if fps <= 0:
        raise ValueError("fps must be > 0")
    if subframe_s <= 0:
        raise ValueError("subframe_s must be > 0")
    n_sub = max(1, round(1.0 / (fps * subframe_s)))
    bits = np.array([float(b) for _, b in frames])
    # (frames, sub-frames per frame), read row by row
    rates = np.zeros((len(bits), n_sub))
    if burst:
        rates[:, 0] = bits
    else:
        share = bits / n_sub
        rates[:] = share[:, None]
        rates[:, -1] = bits - share * (n_sub - 1)
    return rates.ravel()


def schedule_constant(
    rate_bits: float, length: int, subframe_s: float = 1e-3
) -> np.ndarray:
    """(length,) bits demanded in each sub-frame, all equal to rate_bits.
    subframe_s is accepted for symmetry with schedule_from_trace; a
    constant demand does not depend on it."""
    if rate_bits < 0:
        raise ValueError("rate_bits must be >= 0")
    if length <= 0:
        raise ValueError("length must be > 0")
    return np.full(length, float(rate_bits))


def write_synthetic_trace(
    path: str,
    num_frames: int = 300,
    fps: float = 30.0,
    mean_frame_bytes: float = 1200.0,
    gop: int = 12,
    seed: int = 0,
) -> str:
    """Write a deterministic trace file shaped like a GOP-structured
    encode: every ``gop``-th frame is an I-frame roughly 3x the size of
    the surrounding P-frames."""
    rng = np.random.default_rng(seed)
    # Per-GOP budget: one I frame at 3x the P size keeps the overall mean.
    p_mean = mean_frame_bytes * gop / (gop + 2)
    lines = ["# synthetic video trace", "# index type time size_bytes"]
    for i in range(num_frames):
        is_i = i % gop == 0
        mean = 3.0 * p_mean if is_i else p_mean
        size = max(1, int(round(rng.gamma(8.0, mean / 8.0))))
        lines.append(f"{i} {'I' if is_i else 'P'} {i / fps:.4f} {size}")
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path
