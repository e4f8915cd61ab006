"""Video traffic models: trace-file parsing and per-sub-frame bit schedules.

Trace lines follow the common frame-size listing used by public video
trace archives: ``index frame_type time size_bytes`` with ``#`` comment
lines, and a UTF-8 byte-order mark is skipped.  Only the first and last
columns are consumed — sizes become bits and the frame stream is spread
over the sub-frames of each frame period.  The sub-frame length is the
caller's (ChannelParams.subframe_s): nothing here assumes one.
read_lines reads the package's text inputs, a trace and a --config file.
"""

from __future__ import annotations

import codecs
import io
import math

import numpy as np

__all__ = [
    "TraceParseError", "read_lines", "parse_trace", "frame_period",
    "schedule_from_trace", "schedule_constant", "write_synthetic_trace",
]


class TraceParseError(ValueError):
    """Raised when a trace file cannot be interpreted."""


def read_lines(path: str, error: type[ValueError]) -> list[str]:
    """The lines of a UTF-8 text file, with or without a byte-order mark,
    split with universal newlines.  A byte that does not decode raises
    `error`, naming the file, the byte's line and its offset in the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    body = data.removeprefix(codecs.BOM_UTF8)
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError as exc:
        start = len(data) - len(body) + exc.start  # the mark's bytes counted
        head = io.StringIO(data[:start].decode("utf-8"), newline=None)
        lineno = head.getvalue().count("\n") + 1
        raise error(f"{path}:{lineno}: not UTF-8 text: {exc.reason} "
                    f"at byte {start}") from exc
    return io.StringIO(text, newline=None).readlines()


def parse_trace(path: str) -> list[tuple[int, float]]:
    """Read (frame_index, size_bits) pairs from a trace file of UTF-8 text,
    with or without a byte-order mark."""
    frames: list[tuple[int, float]] = []
    for lineno, raw in enumerate(read_lines(path, TraceParseError), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise TraceParseError(
                f"{path}:{lineno}: expected 'index ... size_bytes', got {line!r}")
        try:
            index = int(tokens[0])
            size_bytes = float(tokens[-1])
        except ValueError as exc:
            raise TraceParseError(f"{path}:{lineno}: {exc}") from exc
        bits = size_bytes * 8
        if not math.isfinite(bits):
            raise TraceParseError(f"{path}:{lineno}: frame size {tokens[-1]!r} "
                                  "is not a finite number of bits")
        if bits < 0:
            raise TraceParseError(f"{path}:{lineno}: negative frame size")
        frames.append((index, round(bits)))
    if not frames:
        raise TraceParseError(f"{path}: no frames found")
    return frames


def frame_period(fps: float, subframe_s: float) -> int:
    """Sub-frames per video frame: 1 / (fps * subframe_s) rounded, and at
    least 1.  Raises ValueError unless fps is finite and > 0, subframe_s
    is > 0 and the period is below 2^63, so that it fits an int64."""
    if not (math.isfinite(fps) and fps > 0):
        raise ValueError("fps must be finite and > 0")
    if subframe_s <= 0:
        raise ValueError("subframe_s must be > 0")
    if not fps * subframe_s > 2.0 ** -63:  # then the period is <= 2^63 - 2^11
        raise ValueError(f"fps {fps!r} gives a frame period past 2^63 sub-frames")
    return max(1, round(1.0 / (fps * subframe_s)))


def schedule_from_trace(
    frames: list[tuple[int, float]],
    fps: float,
    subframe_s: float,
    burst: bool,
    length: int | None = None,
) -> np.ndarray:
    """(T,) bits demanded in each sub-frame: each frame's bits spread over
    the sub-frames of its frame period.

    With ``burst`` the whole frame lands on the first sub-frame of the
    period; otherwise bits are split evenly with the remainder on the
    last sub-frame.  Total bits are conserved exactly either way.  With
    ``length``, only the first ``length`` sub-frames of the schedule are
    built, or the whole schedule when it is shorter, so the memory is
    bounded by what the caller keeps.
    """
    n_sub = frame_period(fps, subframe_s)
    if length is not None and length <= 0:
        raise ValueError("length must be > 0")
    total = len(frames) * n_sub
    kept = total if length is None else min(length, total)
    # (frame, sub-frame within its period) of each sub-frame kept
    frame, phase = np.divmod(np.arange(kept), n_sub)
    bits = np.array([float(b) for _, b in frames])[frame]
    if burst:
        return np.where(phase == 0, bits, 0.0)
    share = bits / n_sub
    return np.where(phase == n_sub - 1, bits - share * (n_sub - 1), share)


def schedule_constant(rate_bits: float, length: int, subframe_s: float) -> np.ndarray:
    """(length,) bits demanded in each sub-frame, all equal to rate_bits.
    subframe_s is accepted for symmetry with schedule_from_trace; a
    constant demand does not depend on it."""
    if rate_bits < 0:
        raise ValueError("rate_bits must be >= 0")
    if length <= 0:
        raise ValueError("length must be > 0")
    return np.full(length, float(rate_bits))


# The synthetic trace's frames, frame rate, mean frame size in bytes and
# group of pictures (GOP), in frames
SYNTHETIC_FRAMES, SYNTHETIC_FPS, SYNTHETIC_FRAME_BYTES, SYNTHETIC_GOP = 300, 30.0, 1200.0, 12


def write_synthetic_trace(path: str, seed: int) -> str:
    """Write a deterministic trace file shaped like a GOP-structured
    encode, drawn from seed: every SYNTHETIC_GOP-th frame is an I-frame
    roughly 3x the size of the surrounding P-frames."""
    rng = np.random.default_rng(seed)
    # Per-GOP budget: one I frame at 3x the P size keeps the overall mean.
    p_mean = SYNTHETIC_FRAME_BYTES * SYNTHETIC_GOP / (SYNTHETIC_GOP + 2)
    lines = ["# synthetic video trace", "# index type time size_bytes"]
    for i in range(SYNTHETIC_FRAMES):
        is_i = i % SYNTHETIC_GOP == 0
        mean = 3.0 * p_mean if is_i else p_mean
        size = max(1, int(round(rng.gamma(8.0, mean / 8.0))))
        lines.append(f"{i} {'I' if is_i else 'P'} {i / SYNTHETIC_FPS:.4f} {size}")
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path
