"""Synthetic stimuli: what each clip draws at every accepted size."""
import numpy as np
import pytest

from podvs.errors import DimensionError
from podvs.synth import (
    MIN_SIDE,
    color_popout_video,
    drifting_bar_video,
    fidelity_suite,
    onset_square_video,
    static_square_video,
    suite,
)

GENERATORS = {gen.__name__: gen for gen in (onset_square_video, static_square_video,
                                            drifting_bar_video, color_popout_video)}
#: The clip length ``suite`` gives each generator's clip.
SUITE_FRAMES = {"onset_square_video": 24, "static_square_video": 12,
                "drifting_bar_video": 24, "color_popout_video": 12}
#: The engine's three resolutions.
SIZES = [(80, 60), (112, 84), (640, 480)]


@pytest.mark.parametrize("height", [8, 9, 10, 11, 12, 60, 84])
def test_two_dots_draws_both_dots(height):
    # two 2x2 dots (255 and 230) on a texture of 40..79
    frame = fidelity_suite(16, height)["two_dots"][0]
    assert np.count_nonzero(frame.r >= 230) == 8


@pytest.mark.parametrize("name", sorted(GENERATORS))
@pytest.mark.parametrize("width, height", [(4, 4), (MIN_SIDE - 1, 60), (80, MIN_SIDE - 1)])
def test_generator_rejects_a_small_frame(name, width, height):
    with pytest.raises(DimensionError, match=f"at least {MIN_SIDE}x{MIN_SIDE}"):
        GENERATORS[name](width, height, SUITE_FRAMES[name])


def _box_of(mask):
    """(x0, y0, x1, y1) bounding box of a non-empty boolean mask, ends exclusive."""
    ys, xs = np.nonzero(mask)
    return xs.min(), ys.min(), xs.max() + 1, ys.max() + 1


@pytest.mark.parametrize("name", sorted(GENERATORS))
@pytest.mark.parametrize("width, height", SIZES, ids=[f"{w}x{h}" for w, h in SIZES])
def test_generator_draws_its_default_clip_at_the_requested_size(name, width, height):
    made = GENERATORS[name](width, height, SUITE_FRAMES[name])
    frames, box = (made, None) if name == "drifting_bar_video" else made
    assert {clip: len(video) for clip, video in suite(width, height).items()} == {
        gen.removesuffix("_video"): n for gen, n in SUITE_FRAMES.items()}
    assert len(frames) == SUITE_FRAMES[name]
    assert all((f.width, f.height) == (width, height) for f in frames)
    if box is not None:
        assert 0 <= box.x0 < box.x1 <= width and 0 <= box.y0 < box.y1 <= height
    else:
        # the bar (240, above the 64..127 texture) is drawn whole in every frame
        for frame in frames:
            bar = frame.r == 240
            x0, y0, x1, y1 = _box_of(bar)
            assert np.count_nonzero(bar) == (x1 - x0) * (y1 - y0)
            assert 0 < y0 and y1 < height and x1 <= width


#: Each target clip's painted target, as a mask of one frame.
PAINTED = {
    "onset_square_video": lambda f: f.r == 255,
    "static_square_video": lambda f: f.r == 220,
    "color_popout_video": lambda f: (f.r == 220) & (f.g == 40),
}
BOX_SIZES = [(8, 8), (16, 12), (40, 30), (80, 60), (112, 84)]


@pytest.mark.parametrize("name", sorted(PAINTED))
@pytest.mark.parametrize("width, height", BOX_SIZES, ids=[f"{w}x{h}" for w, h in BOX_SIZES])
def test_target_box_is_the_painted_region(name, width, height):
    frames, box = GENERATORS[name](width, height, SUITE_FRAMES[name])
    assert 0 <= box.x0 < box.x1 <= width and 0 <= box.y0 < box.y1 <= height
    inside = np.zeros((height, width), dtype=bool)
    inside[box.y0 : box.y1, box.x0 : box.x1] = True
    np.testing.assert_array_equal(PAINTED[name](frames[-1]), inside)
