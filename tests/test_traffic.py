"""Trace parsing and per-sub-frame bit schedules."""

import codecs
import re

import numpy as np
import pytest

from mcmcast.traffic import (
    SYNTHETIC_FRAME_BYTES,
    SYNTHETIC_FRAMES,
    SYNTHETIC_GOP,
    TraceParseError,
    parse_trace,
    schedule_constant,
    schedule_from_trace,
    write_synthetic_trace,
)

THREE_FRAMES = """\
# index type time size_bytes
0 I 0.0000 4500
1 P 0.0333 900
2 P 0.0667 1100
"""


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text(THREE_FRAMES)
    return str(path)


class TestParseTrace:
    def test_sizes_become_bits(self, trace_file):
        frames = parse_trace(trace_file)
        assert frames == [(0, 36000), (1, 7200), (2, 8800)]

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("# a comment\n\n0 I 0.0 125\n\n# tail\n")
        assert parse_trace(str(path)) == [(0, 1000)]

    def test_error_reports_line_number(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("0 I 0.0 100\n1 P nonsense\n")
        with pytest.raises(TraceParseError, match=r":2:"):
            parse_trace(str(path))

    def test_single_column_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("42\n")
        with pytest.raises(TraceParseError, match=r":1:"):
            parse_trace(str(path))

    def test_negative_size_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("0 I 0.0 -5\n")
        with pytest.raises(TraceParseError):
            parse_trace(str(path))

    @pytest.mark.parametrize("size", ["inf", "-inf", "nan", "1e308"])
    def test_non_finite_size_rejected_with_its_line(self, tmp_path, size):
        # 1e308 bytes is finite but overflows to inf once turned into bits.
        path = tmp_path / "t.txt"
        path.write_text(f"0 I 0.0 100\n1 P 0.03 {size}\n")
        with pytest.raises(TraceParseError, match="^" + re.escape(f"{path}:2: ")):
            parse_trace(str(path))

    @pytest.mark.parametrize("data, line", [
        (b"\xff\xfe0 I 0.0 100\n", 1),
        # The line is counted with universal newlines, as the frames are
        (b"0 I 0.0 100\r1 P 0.03 200\r\n2 P 0.07 \xe9300\n", 3),
        (b"0 I 0.0 100\n\x80", 2),
    ])
    def test_non_utf8_text_rejected_with_its_line(self, tmp_path, data, line):
        path = tmp_path / "t.txt"
        path.write_bytes(data)
        with pytest.raises(TraceParseError,
                           match="^" + re.escape(f"{path}:{line}: not UTF-8 text")):
            parse_trace(str(path))

    def test_byte_order_mark_is_skipped(self, tmp_path, trace_file):
        path = tmp_path / "bom.txt"
        path.write_bytes(codecs.BOM_UTF8 + b"# comment\n" + THREE_FRAMES.encode())
        assert parse_trace(str(path)) == parse_trace(trace_file)

    def test_bad_byte_after_byte_order_mark_names_its_line_and_byte(self, tmp_path):
        # The byte is counted in the file, the mark's three bytes included
        path = tmp_path / "t.txt"
        path.write_bytes(codecs.BOM_UTF8 + b"ab\ncd\xff")
        with pytest.raises(TraceParseError, match="^" + re.escape(
                f"{path}:2: not UTF-8 text: invalid start byte at byte 8")):
            parse_trace(str(path))

    def test_universal_newlines_split_lines(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"0 I 0.0 100\r1 P 0.03 200\r\n2 P 0.07 300")
        assert parse_trace(str(path)) == [(0, 800), (1, 1600), (2, 2400)]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("# nothing\n")
        with pytest.raises(TraceParseError, match="no frames"):
            parse_trace(str(path))


class TestScheduleFromTrace:
    def test_thirty_fps_spreads_over_33_subframes(self, trace_file):
        sched = schedule_from_trace(parse_trace(trace_file), fps=30.0,
                                    subframe_s=1e-3, burst=False)
        assert sched.shape == (3 * 33,) and sched.dtype == np.float64
        # Even share with the remainder on the last sub-frame of the frame.
        first = sched[:33]
        assert first[0] == pytest.approx(36000 / 33)
        assert sum(first) == pytest.approx(36000)

    def test_total_bits_conserved_exactly(self, trace_file):
        frames = parse_trace(trace_file)
        for fps in (24.0, 30.0, 60.0):
            sched = schedule_from_trace(frames, fps=fps, subframe_s=1e-3, burst=False)
            assert sched.sum() == pytest.approx(
                sum(bits for _, bits in frames), abs=1e-6)

    def test_burst_puts_whole_frame_first(self, trace_file):
        sched = schedule_from_trace(parse_trace(trace_file), fps=30.0,
                                    subframe_s=1e-3, burst=True)
        assert sched[0] == 36000
        assert all(r == 0.0 for r in sched[1:33])
        assert sched[33] == 7200

    def test_high_fps_gets_one_subframe_per_frame(self, trace_file):
        sched = schedule_from_trace(parse_trace(trace_file), fps=2000.0,
                                    subframe_s=1e-3, burst=False)
        assert sched.tolist() == [36000.0, 7200.0, 8800.0]

    def test_bad_fps_rejected(self, trace_file):
        with pytest.raises(ValueError):
            schedule_from_trace(parse_trace(trace_file), fps=0.0, subframe_s=1e-3,
                                burst=False)

    @pytest.mark.parametrize("fps", [1e-300, 1e-320])
    def test_frame_period_past_int64_rejected(self, trace_file, fps):
        with pytest.raises(ValueError, match="frame period"):
            schedule_from_trace(parse_trace(trace_file), fps, 1e-3, False, length=10)

    @pytest.mark.parametrize("subframe_s", [0.0, -1e-3])
    def test_bad_subframe_rejected(self, trace_file, subframe_s):
        with pytest.raises(ValueError, match="subframe_s must be > 0"):
            schedule_from_trace(parse_trace(trace_file), 30.0, subframe_s, False)

    @pytest.mark.parametrize("length", [0, -1])
    def test_bad_length_rejected(self, trace_file, length):
        with pytest.raises(ValueError, match="length must be > 0"):
            schedule_from_trace(parse_trace(trace_file), 30.0, 1e-3, False,
                                length=length)

    @staticmethod
    def per_frame_schedule(frames, fps, subframe_s, burst):
        """The schedule built one frame at a time, as a list of floats."""
        n_sub = max(1, round(1.0 / (fps * subframe_s)))
        rates = []
        for _, bits in frames:
            if burst:
                rates.append(float(bits))
                rates.extend([0.0] * (n_sub - 1))
            else:
                share = float(bits) / n_sub
                chunk = [share] * n_sub
                chunk[-1] = float(bits) - share * (n_sub - 1)
                rates.extend(chunk)
        return np.array(rates)

    @pytest.mark.parametrize("burst", [False, True])
    def test_matches_the_per_frame_loop_bit_for_bit(self, burst):
        rng = np.random.default_rng(13)
        # 1000 fps gives one sub-frame per frame; 7 and 3 frames per second
        # leave a remainder on the last sub-frame of each period.
        for fps in (1000.0, 3000.0, 30.0, 29.97, 7.0, 3.0, 1.3):
            for _ in range(4):
                sizes = rng.integers(0, 20_000, size=rng.integers(1, 40)) * 8
                sizes[rng.random(len(sizes)) < 0.2] = 0
                frames = [(i, int(b)) for i, b in enumerate(sizes)]
                got = schedule_from_trace(frames, fps, 1e-3, burst)
                want = self.per_frame_schedule(frames, fps, 1e-3, burst)
                assert got.dtype == want.dtype == np.float64
                assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("burst", [False, True])
    def test_length_builds_the_prefix_bit_for_bit(self, burst):
        # Cuts inside a period, on its last and first sub-frames, and at,
        # just below and past the end of the whole schedule.
        rng = np.random.default_rng(17)
        for fps in (1000.0, 30.0, 7.0):
            sizes = rng.integers(0, 20_000, size=9) * 8
            frames = [(i, int(b)) for i, b in enumerate(sizes)]
            want = self.per_frame_schedule(frames, fps, 1e-3, burst)
            n_sub = len(want) // len(frames)
            for length in {1, n_sub - 1 or 1, n_sub, n_sub + 1, len(want) - 1,
                           len(want), len(want) + 5}:
                got = schedule_from_trace(frames, fps, 1e-3, burst, length=length)
                assert np.array_equal(got.view(np.int64),
                                      want[:length].view(np.int64)), (fps, length)


class TestConstantSchedule:
    def test_constant(self):
        sched = schedule_constant(400.0, 5, 1e-3)
        assert sched.dtype == np.float64
        assert sched.tolist() == [400.0] * 5
        assert sched.sum() == 2000.0

    def test_validation(self):
        with pytest.raises(ValueError):
            schedule_constant(-1.0, 5, 1e-3)
        with pytest.raises(ValueError):
            schedule_constant(10.0, 0, 1e-3)


class TestSyntheticTrace:
    def test_parses_and_is_deterministic(self, tmp_path):
        a = write_synthetic_trace(str(tmp_path / "a.txt"), seed=3)
        b = write_synthetic_trace(str(tmp_path / "b.txt"), seed=3)
        assert (tmp_path / "a.txt").read_text() == \
            (tmp_path / "b.txt").read_text()
        frames = parse_trace(a)
        assert len(frames) == SYNTHETIC_FRAMES == 300
        assert all(bits > 0 for _, bits in frames)

    def test_i_frames_dominate_p_frames(self, tmp_path):
        path = write_synthetic_trace(str(tmp_path / "t.txt"), seed=1)
        frames = parse_trace(path)
        assert SYNTHETIC_GOP == 12
        i_bits = [bits for idx, bits in frames if idx % 12 == 0]
        p_bits = [bits for idx, bits in frames if idx % 12 != 0]
        assert np.mean(i_bits) > 2.0 * np.mean(p_bits)

    def test_mean_frame_size_close_to_target(self, tmp_path):
        path = write_synthetic_trace(str(tmp_path / "t.txt"), seed=2)
        frames = parse_trace(path)
        mean_bytes = np.mean([bits / 8 for _, bits in frames])
        assert mean_bytes == pytest.approx(SYNTHETIC_FRAME_BYTES, rel=0.15)
        assert SYNTHETIC_FRAME_BYTES == 1200.0
