"""Digests of the engine's maps on every synthetic clip.

    python3 tools/synth_digests.py

Runs each clip of ``synth.all_videos`` at 80x60 and 112x84 through
``Pipeline`` (float) and ``HwPipeline`` (fixed point) and prints, per
resolution, the first 8 hex digits of the SHA-256 of each clip's float64
maps as ``float/fixed``, then the saturated-word count of each fixed-point
run.  It then prints the digest of the first two 640x480 frames of
``drifting_bar`` and of ``color_popout`` through ``Pipeline``, which run
the reference chain (11x11 kernels, FFT correlation) and its zero-map
skip; these take about 1.2 s a frame.  Its last line is the digest of the
first two frames of ``six_map_clip``, ``color_popout`` with seeded noise
on each plane, whose six distinct channel maps are all non-zero; these
take about 2 s a frame.  Two checkouts give the same maps
iff they print the same lines, so a claim of bit identity takes one run
on each side.  The float bits rest on the numpy and scipy builds
(versions, BLAS, SIMD targets), so compare runs made on one machine.
The program runs from this checkout's src/.
"""
from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from podvs import EngineConfig, FrameRGB, HwPipeline, Pipeline, Resolution, synth  # noqa: E402
from podvs.pipeline import run_sequence  # noqa: E402


def digest(maps) -> str:
    """First 8 hex digits of the SHA-256 of the maps' float64 bytes, in order."""
    return hashlib.sha256(np.stack(maps).astype(np.float64).tobytes()).hexdigest()[:8]


#: 640x480 frames of each reference-mode clip.
REFERENCE_FRAMES = 2
#: Largest absolute gray-level change of ``six_map_clip``'s noise.
SIX_MAP_NOISE = 3


def six_map_clip(width: int, height: int, frames: int) -> list:
    """``color_popout`` with independent seeded noise of up to
    ``SIX_MAP_NOISE`` gray levels on each plane, so that a frame's six
    distinct channel maps are all non-zero and none is skipped."""
    rng = np.random.default_rng(0)
    out = []
    for frame in synth.color_popout_video(width, height, frames)[0]:
        planes = [np.clip(plane + rng.integers(-SIX_MAP_NOISE, SIX_MAP_NOISE + 1, plane.shape),
                          0, 255).astype(np.uint8) for plane in (frame.r, frame.g, frame.b)]
        out.append(FrameRGB.from_planes(*planes))
    return out


def main() -> None:
    for resolution in (Resolution.HW_80, Resolution.HW_112):
        cfg = EngineConfig(resolution=resolution)
        videos = synth.all_videos(resolution.width, resolution.height)
        digests, saturations = [], []
        for name in sorted(videos):
            float_maps, _ = run_sequence(videos[name], Pipeline(cfg))
            hw = HwPipeline(cfg)
            fixed_maps, _ = run_sequence(videos[name], hw)
            digests.append(f"`{name}` {digest(float_maps)}/{digest(fixed_maps)}")
            saturations.append(f"`{name}` {hw.profile.saturations}")
        print(f"{resolution}: {', '.join(digests)}")
        print(f"{resolution} saturated words: {', '.join(saturations)}")
    cfg = EngineConfig(resolution=Resolution.REFERENCE)
    clips = {"color_popout": synth.color_popout_video(cfg.width, cfg.height, REFERENCE_FRAMES)[0],
             "drifting_bar": synth.drifting_bar_video(cfg.width, cfg.height, REFERENCE_FRAMES)}
    digests = [f"`{name}` {digest(run_sequence(frames, Pipeline(cfg))[0])}"
               for name, frames in clips.items()]
    print(f"{cfg.resolution} float, {REFERENCE_FRAMES} frames: {', '.join(digests)}")
    maps, _ = run_sequence(six_map_clip(cfg.width, cfg.height, REFERENCE_FRAMES), Pipeline(cfg))
    print(f"{cfg.resolution} float, {REFERENCE_FRAMES} frames, six maps: "
          f"`six_map_clip` {digest(maps)}")


if __name__ == "__main__":
    main()
