"""Digests of the engine's maps on every synthetic clip.

    python3 tools/synth_digests.py

Runs each clip of ``synth.all_videos`` at 80x60 and 112x84 through
``Pipeline`` (float) and ``HwPipeline`` (fixed point) and prints, per
resolution, the first 8 hex digits of the SHA-256 of each clip's float64
maps as ``float/fixed``, then the saturated-word count of each fixed-point
run.  Two checkouts give the same maps iff they print the same lines, so
a claim of bit identity takes one run on each side.  The float bits rest
on the numpy and scipy builds (versions, BLAS, SIMD targets), so compare
runs made on one machine.  The program runs from this checkout's src/.
"""
from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from podvs import EngineConfig, HwPipeline, Pipeline, Resolution, synth  # noqa: E402
from podvs.pipeline import run_sequence  # noqa: E402


def digest(maps) -> str:
    """First 8 hex digits of the SHA-256 of the maps' float64 bytes, in order."""
    return hashlib.sha256(np.stack(maps).astype(np.float64).tobytes()).hexdigest()[:8]


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


if __name__ == "__main__":
    main()
