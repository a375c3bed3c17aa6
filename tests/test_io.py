"""Round trips and format errors of the map archive, frame and fixation readers."""
import json

import numpy as np
import pytest

from podvs.config import EngineConfig, Resolution
from podvs.errors import DimensionError, FormatError
from podvs.io import (
    ARCHIVE_METADATA,
    read_fixations,
    read_maps,
    read_pgm16,
    read_pnm,
    read_raw_map,
    require_empty_archive,
    write_maps,
    write_pgm16,
    write_raw_map,
)


def _random_maps(seed, count=40):
    """Maps of random shape up to 9x9, with values in [-0.5, 1.5] so the
    clip is exercised; exact 0, 1 and 16-bit half steps are mixed in."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        shape = tuple(rng.integers(1, 10, size=2))
        map_ = rng.uniform(-0.5, 1.5, size=shape)
        map_.flat[::3] = rng.choice([0.0, 1.0, 0.5 / 65535, 1.5 / 65535], size=map_.flat[::3].shape)
        yield map_


def test_pgm16_round_trip_is_16_bit_rounding(tmp_path):
    path = tmp_path / "m.pgm"
    for map_ in _random_maps(11):
        write_pgm16(map_, path)
        got = read_pgm16(path)
        np.testing.assert_array_equal(got, np.rint(np.clip(map_, 0.0, 1.0) * 65535) / 65535)


def test_psal_round_trip_is_float32(tmp_path):
    path = tmp_path / "m.psal"
    indices = np.random.default_rng(12).integers(0, 2**32, size=40)
    indices[:2] = [0, 2**32 - 1]
    for map_, frame_index in zip(_random_maps(13), indices):
        write_raw_map(map_, int(frame_index), path)
        got, index = read_raw_map(path)
        np.testing.assert_array_equal(got, map_.astype(np.float32))
        assert index == frame_index


class TestReadPnm:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
        with pytest.raises(FormatError, match="magic"):
            read_pnm(path)

    def test_bad_maxval(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P5\n2 2\n1023\n" + bytes(8))
        with pytest.raises(FormatError, match="maxval 1023"):
            read_pnm(path)

    @pytest.mark.parametrize("magic, shape", [(b"P5", (2, 3)), (b"P6", (2, 3, 3))])
    def test_comment_lines_between_header_tokens(self, tmp_path, magic, shape):
        payload = bytes(range(np.prod(shape)))
        path = tmp_path / "a.pnm"
        path.write_bytes(magic + b"\n# made by hand\n3 # width\n#\n2\n# maxval next\n255\n"
                         + payload)
        expected = np.frombuffer(payload, dtype=np.uint8).reshape(shape)
        np.testing.assert_array_equal(read_pnm(path), expected)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "a.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(11))
        with pytest.raises(FormatError, match="expected 12 payload bytes, got 11"):
            read_pnm(path)


class TestArchiveDirectory:
    def test_write_maps_refuses_a_non_empty_directory(self, tmp_path):
        (tmp_path / "000000.pgm").write_bytes(b"")
        with pytest.raises(FormatError, match="not empty"):
            write_maps([np.zeros((60, 80))], tmp_path, EngineConfig())

    def test_empty_and_new_directories_are_accepted(self, tmp_path):
        require_empty_archive(tmp_path)
        require_empty_archive(tmp_path / "new")
        write_maps([np.full((60, 80), 0.25)], tmp_path, EngineConfig(resolution=Resolution.HW_80))
        np.testing.assert_array_equal(read_maps(tmp_path)[0], np.full((60, 80), 16384 / 65535))

    def test_metadata_records_the_config_mode(self, tmp_path):
        cfg = EngineConfig(resolution=Resolution.HW_112)
        write_maps([np.zeros((84, 112))] * 2, tmp_path, cfg)
        meta = json.loads((tmp_path / ARCHIVE_METADATA).read_text())
        assert meta["mode"] == "hw112"
        assert (meta["width"], meta["height"], meta["frames"]) == (112, 84, 2)

    def test_a_map_of_another_shape_writes_nothing(self, tmp_path):
        cfg = EngineConfig(resolution=Resolution.HW_80)
        for out in (tmp_path, tmp_path / "new"):
            with pytest.raises(DimensionError, match=r"\[\(3, 4\)\] in a hw80 archive"):
                write_maps([np.zeros((60, 80)), np.zeros((3, 4))], out, cfg)
        assert list(tmp_path.iterdir()) == []


class TestReadFixations:
    @pytest.mark.parametrize("row, message", [
        ("a,-1,s1,3,4", "negative frame index -1"),
        ("a,2,s1,-1,4", r"negative fixation coordinate \(-1, 4\)"),
    ], ids=["frame", "coordinate"])
    def test_negative_value_names_file_and_line(self, tmp_path, row, message):
        path = tmp_path / "fix.csv"
        path.write_text(f"video,frame,subject,x,y\na,0,s1,1,2\n{row}\n")
        with pytest.raises(FormatError, match=f"fix.csv:3: {message}"):
            read_fixations(path)
