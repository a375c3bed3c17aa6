import re

import numpy as np
import pytest

from podvs.config import (
    TAP_COUNT,
    EngineConfig,
    FixationRecord,
    FrameHistory,
    FrameRGB,
    Resolution,
    load_settings,
    validate_frame,
)
from podvs.errors import ConfigError, DimensionError, FormatError
from podvs.pipeline import build_channel_pyramid

from conftest import gray_frame


def built_depth(cfg):
    """Levels of the pyramid the engine builds for a channel map under cfg."""
    return len(build_channel_pyramid(np.zeros((cfg.height, cfg.width)), cfg).levels)


def config_from(tmp_path, text):
    """The config of a file holding text, read as ``podvs`` reads ``--config``."""
    path = tmp_path / "engine.cfg"
    path.write_text(text)
    return EngineConfig(**load_settings(path))


class TestResolutionModes:
    def test_mode_pins_kernel_and_depth(self):
        for mode, kernel, depth in [(Resolution.REFERENCE, 11, 10), (Resolution.HW_112, 5, 3),
                                    (Resolution.HW_80, 5, 3)]:
            assert (mode.kernel_size, built_depth(EngineConfig(resolution=mode))) == (kernel, depth)

    def test_from_string(self):
        assert Resolution.from_string("112x84") is Resolution.HW_112
        with pytest.raises(ConfigError):
            Resolution.from_string("100x100")

    def test_from_string_reads_every_mode_name(self):
        for mode in Resolution:
            assert Resolution.from_string(f" {str(mode).upper()} ") is mode

    def test_no_mixed_combinations(self):
        # kernel size / depth are derived, not settable
        cfg = EngineConfig(resolution=Resolution.HW_112)
        assert cfg.kernel_size == 5 and built_depth(cfg) == 3
        assert not hasattr(EngineConfig, "kernel_size_field")


class TestParseConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        cfg = config_from(tmp_path, "")
        assert cfg == EngineConfig()
        assert cfg.frame_rate == 24.0
        assert (cfg.width, cfg.height) == (640, 480)
        assert cfg.kernel_size == 11 and built_depth(cfg) == 10

    def test_hw_resolution_selects_rescaled_parameters(self, tmp_path):
        cfg = config_from(tmp_path, "resolution=112x84\n")
        assert cfg.kernel_size == 5
        assert built_depth(cfg) == 3

    def test_zero_frame_rate_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="frame_rate must be positive"):
            config_from(tmp_path, "frame_rate=0\n")

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            config_from(tmp_path, "framerate=24\n")
        with pytest.raises(ConfigError, match="unknown key"):
            config_from(tmp_path, "range_ceiling=1.0\n")

    def test_duplicate_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            config_from(tmp_path, "frame_rate=24\nframe_rate=30\n")

    def test_comments_and_blank_lines(self, tmp_path):
        cfg = config_from(tmp_path, "# comment\n\nresolution=80x60\n")
        assert cfg.resolution is Resolution.HW_80

    def test_params_validated(self, tmp_path):
        for text, message in [
            # the paper's fixed parameters are constants, not keys
            ("inhibition_weight=1.0", "unknown key 'inhibition_weight'"),
            ("maxima_radius=1", "unknown key 'maxima_radius'"),
            ("maxima_threshold=0.05", "unknown key 'maxima_threshold'"),
            ("frame_rate=nan", "frame_rate must be positive and finite, got nan"),
            ("frame_rate=inf", "frame_rate must be positive and finite, got inf"),
            ("word_bits=7", "word_bits must be >= fraction_bits"),
            ("word_bits=12\nfraction_bits=13", "word_bits must be >= fraction_bits"),
            ("resolution=80x60\nfraction_bits=-1", "fraction_bits must be >= 0, got -1"),
            ("resolution=80x60\nword_bits=60", "word_bits=60 overflows the 48-bit MAC accumulator"),
            ("resolution=80x60\nword_bits=27",
             r"word_bits=27 overflows the 48-bit MAC accumulator at 5x5 kernels \(49 bits\)"),
            ("word_bits=25", r"word_bits=25 overflows .* at 11x11 kernels \(49 bits\)"),
        ]:
            with pytest.raises(ConfigError, match=message):
                config_from(tmp_path, text + "\n")

    def test_int_key_rejects_a_fraction(self, tmp_path):
        with pytest.raises(ConfigError, match="bad value for 'word_bits'"):
            config_from(tmp_path, "word_bits=1.5\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            EngineConfig(**load_settings(tmp_path / "absent.cfg"))


class TestFrameValidation:
    def test_matching_dimensions_ok(self, hw112_cfg):
        validate_frame(gray_frame(112, 84, 7), hw112_cfg)

    def test_dimension_mismatch(self, hw112_cfg):
        with pytest.raises(DimensionError):
            validate_frame(gray_frame(640, 480, 7), hw112_cfg)

    def test_degenerate_frame_rejected(self):
        with pytest.raises(DimensionError):
            FrameRGB.from_gray(np.zeros((0, 4), dtype=np.uint8))

    def test_plane_shape_mismatch(self):
        with pytest.raises(DimensionError):
            FrameRGB(
                np.zeros((4, 4), dtype=np.uint8),
                np.zeros((4, 4), dtype=np.uint8),
                np.zeros((4, 5), dtype=np.uint8),
            )

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 3)], ids=["1-D", "3-D"])
    def test_planes_that_are_not_2_d_rejected(self, shape):
        with pytest.raises(DimensionError, match=re.escape(f"r plane has shape {shape},")):
            FrameRGB.from_gray(np.zeros(shape, dtype=np.uint8))

    def test_planes_read_only(self):
        frame = gray_frame(4, 4, 9)
        with pytest.raises(ValueError):
            frame.r[0, 0] = 1

    def test_reused_buffer_leaves_pushed_frames_alone(self):
        buf = np.full((3, 4, 5), 10, dtype=np.uint8)
        hist = FrameHistory()
        hist.push(FrameRGB.from_planes(buf[0], buf[1], buf[2]))
        buf[:] = 20
        hist.push(FrameRGB.from_planes(buf[0], buf[1], buf[2]))
        assert hist.frame_at(1).r[0, 0] == 10
        assert hist.frame_at(0).r[0, 0] == 20

    @pytest.mark.parametrize("make", [
        lambda a: FrameRGB.from_gray(a),
        lambda a: FrameRGB.from_planes(a, a, a),
        lambda a: FrameRGB(a, a.copy(), a.copy()),
    ], ids=["from_gray", "from_planes", "constructor"])
    def test_caller_arrays_stay_writable_and_unshared(self, make):
        gray = np.full((4, 5), 7, dtype=np.uint8)
        frame = make(gray)
        assert gray.flags.writeable
        gray[:] = 99
        for plane in (frame.r, frame.g, frame.b):
            assert not plane.flags.writeable
            assert not np.shares_memory(plane, gray)
            assert np.all(plane == 7)

    @pytest.mark.parametrize("plane, shown", [
        (np.array([[300, 2]], dtype=np.int16), "300"),
        (np.array([[2, -1]], dtype=np.int64), "-1"),
        (np.array([[0.0, 0.7]]), "0.7"),
        (np.array([[np.nan, 1.0]]), "nan"),
    ], ids=["above-255", "negative", "fraction", "nan"])
    def test_samples_that_are_not_8_bit_rejected(self, plane, shown):
        # uint8 would wrap 300 to 44 and -1 to 255, and truncate a [0, 1] frame to zeros
        with pytest.raises(FormatError, match=f"^r plane holds {shown}, not an 8-bit sample"):
            FrameRGB.from_gray(plane)
        with pytest.raises(FormatError, match=f"^b plane holds {shown},"):
            FrameRGB.from_planes(np.zeros(plane.shape), np.ones(plane.shape), plane)

    @pytest.mark.parametrize("plane, shown", [
        (np.array([[1 + 2j, 3]]), "complex128"),
        (np.array([["7", "8"]]), "<U1"),
        (np.array([[2 ** 70, 1]], dtype=object), "object"),
    ], ids=["complex", "string", "object"])
    def test_samples_that_are_not_real_numbers_rejected(self, plane, shown):
        # none of these is compared, truncated and shown as a number
        with pytest.raises(FormatError, match=f"^g plane holds {shown} samples, not 8-bit"):
            FrameRGB.from_planes(np.zeros(plane.shape), plane, plane)

    @pytest.mark.parametrize("dtype", [np.int16, np.int64, np.float32, np.float64])
    def test_in_range_integer_samples_of_any_type_accepted(self, dtype):
        values = np.array([[0, 1, 128], [254, 255, 7]])
        frame = FrameRGB.from_gray(values.astype(dtype))
        expected = FrameRGB.from_gray(values.astype(np.uint8))
        for name in "rgb":
            plane = getattr(frame, name)
            assert plane.dtype == np.uint8
            np.testing.assert_array_equal(plane, getattr(expected, name))


class TestFrameHistory:
    def test_warmup_pads_with_earliest(self):
        hist = FrameHistory()
        hist.push(gray_frame(4, 4, 10))
        stack = hist.plane_stack("r")
        assert stack.shape == (TAP_COUNT, 4, 4)
        assert np.all(stack == 10.0)
        hist.push(gray_frame(4, 4, 30))
        stack = hist.plane_stack("r")
        assert np.all(stack[0] == 30.0)
        assert np.all(stack[1:] == 10.0)

    def test_ring_keeps_newest(self):
        hist = FrameHistory()
        for v in range(1, TAP_COUNT + 2):
            hist.push(gray_frame(2, 2, v))
        stack = hist.plane_stack("r")
        assert [stack[t][0, 0] for t in range(TAP_COUNT)] == list(range(TAP_COUNT + 1, 1, -1))

    def test_fill_writes_the_plane_stack_into_the_given_array(self):
        hist = FrameHistory()
        rng = np.random.default_rng(12)
        for _ in range(3):
            hist.push(FrameRGB.from_planes(*rng.integers(0, 256, size=(3, 4, 5))))
        out = np.full((TAP_COUNT, 4, 5), np.nan)
        for name in "rgb":
            assert hist.fill_plane_stack(name, out) is out
            assert out.tobytes() == hist.plane_stack(name).tobytes()

    def test_plane_stack_holds_each_frame_as_float64(self):
        # uint8 -> float64 is exact: the stack is the frames' planes, joined
        hist = FrameHistory()
        rng = np.random.default_rng(13)
        for _ in range(3):
            hist.push(FrameRGB.from_planes(*rng.integers(0, 256, size=(3, 4, 5))))
        for name in "rgb":
            expected = np.stack([getattr(hist.frame_at(t), name).astype(np.float64)
                                 for t in range(TAP_COUNT)])
            stack = hist.plane_stack(name)
            assert stack.dtype == np.float64
            assert stack.tobytes() == expected.tobytes()

    def test_dimension_change_rejected(self):
        hist = FrameHistory()
        hist.push(gray_frame(4, 4, 1))
        with pytest.raises(DimensionError):
            hist.push(gray_frame(5, 4, 1))


class TestFixationRecord:
    def test_negative_coordinates_rejected(self):
        with pytest.raises(ConfigError):
            FixationRecord("v", 0, "s", -1, 0)

    def test_valid_record(self):
        rec = FixationRecord("v", 3, "s", 10, 20)
        assert (rec.x, rec.y) == (10, 20)
