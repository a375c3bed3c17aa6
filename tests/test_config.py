import numpy as np
import pytest

from podvs.config import (
    TAP_COUNT,
    EngineConfig,
    FixationRecord,
    FrameHistory,
    FrameRGB,
    Resolution,
    load_config,
    parse_config,
    validate_frame,
)
from podvs.errors import ConfigError, DimensionError

from conftest import gray_frame


class TestResolutionModes:
    def test_mode_pins_kernel_and_depth(self):
        assert (Resolution.REFERENCE.kernel_size, Resolution.REFERENCE.pyramid_depth) == (11, 10)
        assert (Resolution.HW_112.kernel_size, Resolution.HW_112.pyramid_depth) == (5, 3)
        assert (Resolution.HW_80.kernel_size, Resolution.HW_80.pyramid_depth) == (5, 3)

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
        assert cfg.kernel_size == 5 and cfg.pyramid_depth == 3
        assert not hasattr(EngineConfig, "kernel_size_field")


class TestParseConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        cfg = load_config(path)
        assert cfg == EngineConfig()
        assert cfg.frame_rate == 24.0
        assert (cfg.width, cfg.height) == (640, 480)
        assert cfg.kernel_size == 11 and cfg.pyramid_depth == 10

    def test_hw_resolution_selects_rescaled_parameters(self):
        cfg = parse_config("resolution=112x84\n")
        assert cfg.kernel_size == 5
        assert cfg.pyramid_depth == 3

    def test_zero_frame_rate_rejected(self):
        with pytest.raises(ConfigError, match="frame_rate must be positive"):
            parse_config("frame_rate=0\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("framerate=24\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("range_ceiling=1.0\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("frame_rate=24\nframe_rate=30\n")

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# comment\n\nresolution=80x60\n")
        assert cfg.resolution is Resolution.HW_80

    def test_params_validated(self):
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
                parse_config(text + "\n")

    def test_int_key_rejects_a_fraction(self):
        with pytest.raises(ConfigError, match="bad value for 'word_bits'"):
            parse_config("word_bits=1.5\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.cfg")


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

    def test_planes_read_only(self):
        frame = gray_frame(4, 4, 9)
        with pytest.raises(ValueError):
            frame.r[0, 0] = 1


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
