"""Synthetic stimuli: what each clip draws at every accepted size."""
import numpy as np
import pytest

from podvs.synth import fidelity_suite


@pytest.mark.parametrize("height", [8, 9, 10, 11, 12, 60, 84])
def test_two_dots_draws_both_dots(height):
    # two 2x2 dots (255 and 230) on a texture of 40..79
    frame = fidelity_suite(16, height)["two_dots"][0]
    assert np.count_nonzero(frame.r >= 230) == 8
