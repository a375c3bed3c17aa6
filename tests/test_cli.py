"""Exit codes and outputs of the command-line surface."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import podvs
from podvs.cli import cli
from podvs.config import EngineConfig, FrameRGB, Resolution
from podvs.io import ARCHIVE_METADATA, read_frames, read_maps, write_maps, write_ppm
from podvs.synth import MIN_SIDE, all_videos, color_popout_video

STAGES = ("P1", "P2", "P3", "P4", "P5", "P6", "P7")


def write_frames(directory, count=3):
    """count 80x60 color frames as numbered PPM files."""
    directory.mkdir()
    frames, _ = color_popout_video(80, 60, frames=count)
    for i, frame in enumerate(frames):
        write_ppm(frame, directory / f"{i:06d}.ppm")
    return directory


def run_hw80(frames_dir, out_dir, *extra):
    return cli(["run", "--mode", "hw80", "--in", str(frames_dir), "--out", str(out_dir), *extra])


class TestRun:
    def test_fixed_point_writes_archive_and_profile(self, tmp_path, capsys):
        out = tmp_path / "hw"
        assert run_hw80(write_frames(tmp_path / "frames"), out) == 0
        text = capsys.readouterr().out
        assert len(list(out.glob("*.pgm"))) == 3
        assert json.loads((out / "profile.json").read_text())["frames"] == 3
        assert "mean rate:" in text
        assert "hardware profile, 80x60" in text

    def test_real_writes_archive_without_profile(self, tmp_path, capsys):
        out = tmp_path / "real"
        assert run_hw80(write_frames(tmp_path / "frames"), out, "--real") == 0
        text = capsys.readouterr().out
        assert len(list(out.glob("*.pgm"))) == 3
        assert not (out / "profile.json").exists()
        assert "mean rate:" in text
        assert "hardware profile" not in text

    def test_refuses_a_non_empty_out_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_hw80(write_frames(tmp_path / "three"), out) == 0
        first = read_maps(out)
        assert run_hw80(write_frames(tmp_path / "two", count=2), out, "--real") == 1
        assert "not empty" in capsys.readouterr().err
        meta = json.loads((out / ARCHIVE_METADATA).read_text())
        maps = read_maps(out)
        assert meta["frames"] == len(maps) == 3
        assert meta["mode"] == "hw80"
        for before, after in zip(first, maps):
            assert after.shape == (meta["height"], meta["width"])
            np.testing.assert_array_equal(after, before)

    def test_empty_frame_directory_is_a_data_error(self, tmp_path, capsys):
        (tmp_path / "frames").mkdir()
        assert run_hw80(tmp_path / "frames", tmp_path / "out") == 1
        assert "no frames found" in capsys.readouterr().err

    def test_config_resolution_selects_the_mode(self, tmp_path, capsys):
        config = tmp_path / "c.txt"
        config.write_text("resolution=80x60\n")
        out = tmp_path / "hw"
        args = ["run", "--in", str(write_frames(tmp_path / "frames")), "--out", str(out),
                "--config", str(config)]
        assert cli(args) == 0
        assert "hardware profile, 80x60" in capsys.readouterr().out
        assert json.loads((out / ARCHIVE_METADATA).read_text())["mode"] == "hw80"

    def test_config_is_validated_under_the_mode_flag(self, tmp_path, capsys):
        # word_bits=26 overflows the accumulator at 11x11 kernels, not at 5x5
        config = tmp_path / "c.txt"
        config.write_text("word_bits=26\n")
        assert run_hw80(write_frames(tmp_path / "frames", count=1), tmp_path / "hw",
                        "--config", str(config)) == 0
        assert "hardware profile, 80x60" in capsys.readouterr().out

    def test_missing_in_is_a_usage_error(self, tmp_path, capsys):
        assert cli(["run", "--mode", "hw80", "--out", str(tmp_path / "out")]) == 2
        assert "--in" in capsys.readouterr().err


def write_eval_inputs(root, outside=False):
    """Archives of three random 80x60 maps for videos v1 and v2, and a
    fixation CSV with four fixations on every frame; the eval args."""
    rng = np.random.default_rng(3)
    cfg = EngineConfig(resolution=Resolution.HW_80)
    rows = ["video,frame,subject,x,y"]
    for video in ("v1", "v2"):
        write_maps(list(rng.random((3, 60, 80))), root / "maps" / video, cfg, raw=False)
        rows += [f"{video},{frame},s{n},{rng.integers(0, 80)},{rng.integers(0, 60)}"
                 for frame in range(3) for n in range(4)]
    if outside:
        rows.append("v2,0,s9,80,0")
    (root / "fix.csv").write_text("\n".join(rows) + "\n")
    return ["eval", "--maps", str(root / "maps"), "--fixations", str(root / "fix.csv")]


class TestEval:
    def test_one_line_per_video_and_the_mean_repeatable_by_seed(self, tmp_path, capsys):
        args = write_eval_inputs(tmp_path) + ["--seed", "4"]
        assert cli(args) == 0
        first = capsys.readouterr().out
        lines = first.splitlines()
        assert [line.split(":")[0] for line in lines] == ["v1", "v2", "mean"]
        assert all(line.endswith("(3 frames, 0 skipped)") for line in lines[:2])
        assert cli(args) == 0
        assert capsys.readouterr().out == first

    def test_a_video_without_an_archive_is_a_data_error_naming_every_one(self, tmp_path, capsys):
        # archives for v1 and v2; the CSV also names v3 and v4
        argv = write_eval_inputs(tmp_path)
        with (tmp_path / "fix.csv").open("a") as csv:
            csv.write("v3,0,s0,1,1\nv4,0,s0,2,2\n")
        assert cli(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: no map archive under ")
        assert err.rstrip().endswith("for the CSV's video(s) 'v3', 'v4'")

    def test_fixation_outside_the_maps_is_a_data_error(self, tmp_path, capsys):
        assert cli(write_eval_inputs(tmp_path, outside=True)) == 1
        assert "outside" in capsys.readouterr().err

    def test_fixation_beyond_the_archive_is_a_data_error(self, tmp_path, capsys):
        # two maps of v1 and fixations on its frames 0, 1, 7 and 9
        rng = np.random.default_rng(6)
        cfg = EngineConfig(resolution=Resolution.HW_80)
        rows = ["video,frame,subject,x,y"]
        for video in ("v1", "v2"):
            write_maps(list(rng.random((2, 60, 80))), tmp_path / "maps" / video, cfg, raw=False)
            rows += [f"{video},{frame},s0,{rng.integers(0, 80)},{rng.integers(0, 60)}"
                     for frame in ((0, 1, 7, 9) if video == "v1" else (0, 1))]
        (tmp_path / "fix.csv").write_text("\n".join(rows) + "\n")
        argv = ["eval", "--maps", str(tmp_path / "maps"), "--fixations", str(tmp_path / "fix.csv")]
        assert cli(argv) == 1
        assert capsys.readouterr().err.startswith(
            "error: video 'v1' has a fixation on frame 7, beyond its 2 maps")


class TestCompare:
    def test_fixed_point_against_float_archive(self, tmp_path, capsys):
        frames = write_frames(tmp_path / "frames", count=2)
        assert run_hw80(frames, tmp_path / "hw") == 0
        assert run_hw80(frames, tmp_path / "real", "--real") == 0
        capsys.readouterr()
        assert cli(["compare", str(tmp_path / "hw"), str(tmp_path / "real")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[-1].startswith("average: PCC")

    def test_an_archive_against_itself_correlates_perfectly(self, tmp_path, capsys):
        write_eval_inputs(tmp_path)
        archive = str(tmp_path / "maps" / "v1")
        assert cli(["compare", archive, archive]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("average: PCC 1.0000")

    def test_a_black_frame_prints_n_a_and_is_left_out_of_the_averages(self, tmp_path, capsys):
        # both engines map a black frame to zeros: PCC and NSS are undefined
        maps = [np.zeros((60, 80))] + list(np.random.default_rng(7).random((2, 60, 80)))
        write_maps(maps, tmp_path / "a", EngineConfig(resolution=Resolution.HW_80), raw=False)
        assert cli(["compare", str(tmp_path / "a"), str(tmp_path / "a")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "frame    0: PCC n/a  NSS n/a"
        assert lines[1].startswith("frame    1: PCC 1.0000  NSS ")
        assert lines[-1].startswith("average: PCC 1.0000 (1 of 3 frames n/a)  NSS ")
        assert lines[-1].endswith(" (1 of 3 frames n/a)")

    def test_no_frame_with_a_pcc_is_a_data_error(self, tmp_path, capsys):
        cfg = EngineConfig(resolution=Resolution.HW_80)
        write_maps([np.zeros((60, 80))] * 2, tmp_path / "black", cfg, raw=False)
        assert cli(["compare", str(tmp_path / "black"), str(tmp_path / "black")]) == 1
        out, err = capsys.readouterr()
        assert out.splitlines()[-1] == ("average: PCC n/a (2 of 2 frames n/a)"
                                        "  NSS n/a (2 of 2 frames n/a)")
        assert err.startswith("error: no frame defines a PCC")

    def test_archives_of_different_map_shapes_are_a_data_error(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        write_maps([rng.random((60, 80))], tmp_path / "hw80",
                   EngineConfig(resolution=Resolution.HW_80), raw=False)
        write_maps([rng.random((84, 112))], tmp_path / "hw112",
                   EngineConfig(resolution=Resolution.HW_112), raw=False)
        assert cli(["compare", str(tmp_path / "hw80"), str(tmp_path / "hw112")]) == 1
        assert capsys.readouterr().err.startswith("error: shape mismatch (60, 80) vs (84, 112)")

    def test_archives_of_different_lengths_are_a_data_error(self, tmp_path, capsys):
        cfg = EngineConfig(resolution=Resolution.HW_80)
        maps = list(np.random.default_rng(5).random((3, 60, 80)))
        write_maps(maps, tmp_path / "three", cfg, raw=False)
        write_maps(maps[:2], tmp_path / "two", cfg, raw=False)
        assert cli(["compare", str(tmp_path / "three"), str(tmp_path / "two")]) == 1
        assert "error: archives differ in length: 3 vs 2" in capsys.readouterr().err


class TestFileErrors:
    """A file that cannot be read or written exits 1 with ``error:`` and its path."""

    @staticmethod
    def assert_names(capsys, argv, path):
        assert cli(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(path) in err

    def test_list_file_naming_a_missing_frame(self, tmp_path, capsys):
        (tmp_path / "list.txt").write_text("missing.ppm\n")
        self.assert_names(capsys, ["run", "--mode", "hw80", "--in", str(tmp_path / "list.txt"),
                                   "--out", str(tmp_path / "out")], tmp_path / "missing.ppm")

    def test_directory_named_like_a_frame(self, tmp_path, capsys):
        (tmp_path / "frames" / "000001.ppm").mkdir(parents=True)
        self.assert_names(capsys, ["run", "--mode", "hw80", "--in", str(tmp_path / "frames"),
                                   "--out", str(tmp_path / "out")],
                          tmp_path / "frames" / "000001.ppm")

    def test_binary_file_as_the_list_file(self, tmp_path, capsys):
        frame = FrameRGB.from_gray(np.full((60, 80), 200, dtype=np.uint8))
        write_ppm(frame, tmp_path / "frame.ppm")
        self.assert_names(capsys, ["run", "--mode", "hw80", "--in", str(tmp_path / "frame.ppm"),
                                   "--out", str(tmp_path / "out")], tmp_path / "frame.ppm")

    def test_missing_fixation_csv(self, tmp_path, capsys):
        self.assert_names(capsys, ["eval", "--maps", str(tmp_path), "--fixations",
                                   str(tmp_path / "missing.csv")], tmp_path / "missing.csv")

    def test_fixation_csv_that_is_not_utf_8(self, tmp_path, capsys):
        (tmp_path / "fix.csv").write_bytes(b"video,frame,subject,x,y\nv\xff,0,s1,1,2\n")
        self.assert_names(capsys, ["eval", "--maps", str(tmp_path), "--fixations",
                                   str(tmp_path / "fix.csv")], tmp_path / "fix.csv")

    def test_config_that_is_not_utf_8(self, tmp_path, capsys):
        (tmp_path / "c.txt").write_bytes(b"# \xff\nresolution=80x60\n")
        self.assert_names(capsys, ["profile", "--config", str(tmp_path / "c.txt")],
                          tmp_path / "c.txt")

    def test_profile_json_in_a_missing_directory(self, tmp_path, capsys):
        path = tmp_path / "missing" / "p.json"
        self.assert_names(capsys, ["profile", "--mode", "hw80", "--json", str(path)], path)

    def test_synth_out_an_existing_file(self, tmp_path, capsys):
        (tmp_path / "taken").write_text("")
        self.assert_names(capsys, ["synth", "--out", str(tmp_path / "taken"), "--width", "80",
                                   "--height", "60"], tmp_path / "taken")


class TestProfile:
    def test_default_parallelism_succeeds(self, capsys):
        assert cli(["profile", "--mode", "hw80"]) == 0
        assert "derived frame rate" in capsys.readouterr().out

    @pytest.mark.parametrize("module", ["podvs", "podvs.cli"])
    def test_runs_as_a_module(self, module):
        env = {**os.environ, "PYTHONPATH": str(Path(podvs.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-m", module, "profile", "--mode", "hw80"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "hardware profile, 80x60" in proc.stdout

    def test_config_resolution_selects_the_mode(self, tmp_path, capsys):
        config = tmp_path / "c.txt"
        config.write_text("resolution=80x60\n")
        assert cli(["profile", "--config", str(config)]) == 0
        assert capsys.readouterr().out.startswith("hardware profile, 80x60,")

    def test_explicit_mode_overrides_the_config_resolution(self, tmp_path, capsys):
        config = tmp_path / "c.txt"
        config.write_text("resolution=80x60\n")
        assert cli(["profile", "--mode", "hw112", "--config", str(config)]) == 0
        assert capsys.readouterr().out.startswith("hardware profile, 112x84,")

    @pytest.mark.parametrize("text", ["word_bits=25\n", "word_bits=26\n",
                                      "resolution=640x480\nword_bits=25\n"],
                             ids=["25", "26", "file-says-640x480"])
    def test_config_is_validated_under_the_mode_flag(self, tmp_path, capsys, text):
        # 25 and 26 overflow the accumulator at 11x11 kernels, not at 5x5
        config = tmp_path / "c.txt"
        config.write_text(text)
        assert cli(["profile", "--mode", "hw80", "--config", str(config)]) == 0
        assert capsys.readouterr().out.startswith("hardware profile, 80x60,")

    def test_word_bits_too_wide_for_the_mode_flag_is_a_data_error(self, tmp_path, capsys):
        config = tmp_path / "c.txt"
        config.write_text("word_bits=27\n")
        assert cli(["profile", "--mode", "hw80", "--config", str(config)]) == 1
        assert "word_bits=27 overflows the 48-bit MAC accumulator at 5x5 kernels" in (
            capsys.readouterr().err)

    def test_config_without_resolution_is_validated_at_640x480(self, tmp_path, capsys):
        config = tmp_path / "c.txt"
        config.write_text("word_bits=25\n")
        assert cli(["profile", "--config", str(config)]) == 1
        assert "word_bits=25 overflows the 48-bit MAC accumulator at 11x11 kernels" in (
            capsys.readouterr().err)

    def test_config_without_resolution_reads_the_reference_mode(self, tmp_path, capsys):
        config = tmp_path / "c.txt"
        config.write_text("frame_rate=30\n")
        assert cli(["profile", "--config", str(config)]) == 1
        assert "requires a reduced-resolution mode" in capsys.readouterr().err

    def test_nine_channels_give_the_abstracts_rate(self, capsys):
        assert cli(["profile", "--mode", "hw80", "--channels", "9"]) == 0
        assert "  derived frame rate: 23.355 Hz" in capsys.readouterr().out.splitlines()

    def test_zero_channels_is_a_data_error(self, capsys):
        assert cli(["profile", "--channels", "0"]) == 1
        assert "channels_parallel must be >= 1" in capsys.readouterr().err

    def test_more_channels_than_a_frame_has_is_a_data_error(self, capsys):
        assert cli(["profile", "--mode", "hw80", "--channels", "18"]) == 1
        captured = capsys.readouterr()
        assert "and <= 9, the channels of a frame; got 18" in captured.err
        assert "derived frame rate" not in captured.out

    def test_each_stage_listed_once_with_memory_totals(self, capsys):
        assert cli(["profile", "--mode", "hw80"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for stage in STAGES:
            assert sum(line.startswith(f"  {stage}:") for line in lines) == 1
        assert "  single channel total: 2369920 bits" in lines
        assert "  configured (2 ch): 4739840 bits" in lines
        assert "  9-channel extrapolation (x4.5 of configured): 21329280 bits" in lines


class TestSynth:
    @pytest.mark.parametrize("width,height", [(4, 4), (0, 84), (112, MIN_SIDE - 1)])
    def test_too_small_a_size_is_a_data_error(self, tmp_path, capsys, width, height):
        out = tmp_path / "videos"
        args = ["synth", "--out", str(out), "--width", str(width), "--height", str(height)]
        assert cli(args) == 1
        assert f"at least {MIN_SIDE}x{MIN_SIDE} px" in capsys.readouterr().err
        assert not out.exists()

    def test_smallest_size_writes_every_video(self, tmp_path, capsys):
        out = tmp_path / "videos"
        args = ["synth", "--out", str(out), "--width", str(MIN_SIDE), "--height", str(MIN_SIDE)]
        assert cli(args) == 0
        videos = all_videos(MIN_SIDE, MIN_SIDE)
        assert sorted(p.name for p in out.iterdir()) == sorted(videos)
        for name, frames in videos.items():
            files = sorted((out / name).glob("*.ppm"))
            assert len(files) == len(frames)
            assert files[0].read_bytes().startswith(f"P6\n{MIN_SIDE} {MIN_SIDE}\n".encode())

    @pytest.mark.parametrize("width,height", [(MIN_SIDE, MIN_SIDE), (80, 60)])
    def test_frames_read_back_equal_the_generated_ones(self, tmp_path, capsys, width, height):
        out = tmp_path / "videos"
        assert cli(["synth", "--out", str(out), "--width", str(width), "--height", str(height)]) == 0
        for name, frames in all_videos(width, height).items():
            read = read_frames(out / name)
            assert len(read) == len(frames)
            for got, made in zip(read, frames):
                for plane in "rgb":
                    np.testing.assert_array_equal(getattr(got, plane), getattr(made, plane))
