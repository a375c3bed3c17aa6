"""Invariants of the map-similarity and fixation metrics."""
import numpy as np
import pytest

from podvs.config import FixationRecord
from podvs.errors import MetricError
from podvs.metrics import FixationSet, MetricConfig, auc_roc, nss, pcc

H, W = 6, 8


def _unit_map_pairs(seed, count=60):
    """Pairs of random maps in [0, 1], some of them coarsely quantized so
    that ties occur."""
    rng = np.random.default_rng(seed)
    for n in range(count):
        a, b = rng.random((2, H, W))
        if n % 3 == 0:
            a, b = np.round(a * 4) / 4, np.round(b * 4) / 4
        if np.ptp(a) > 0 and np.ptp(b) > 0:
            yield a, b


class TestPcc:
    def test_symmetric(self):
        for a, b in _unit_map_pairs(21):
            assert pcc(a, b) == pcc(b, a)

    def test_self_correlation_is_one(self):
        for a, _ in _unit_map_pairs(22):
            assert pcc(a, a) == 1.0

    def test_unchanged_by_positive_affine_map(self):
        rng = np.random.default_rng(23)
        for a, b in _unit_map_pairs(24):
            scale, offset = 10.0 ** rng.uniform(-2, 2), rng.uniform(-10, 10)
            assert pcc(a, scale * b + offset) == pytest.approx(pcc(a, b), abs=1e-9)


def _fixations():
    """Three frames of fixations on video 'a' and a pool on video 'b'."""
    rng = np.random.default_rng(5)
    records = [
        FixationRecord(video, frame, f"s{n}", int(rng.integers(0, W)), int(rng.integers(0, H)))
        for video in ("a", "b") for frame in range(3) for n in range(5)
    ]
    return FixationSet(records)


class TestAucRoc:
    @pytest.mark.parametrize("seed", range(10))
    def test_unchanged_by_strictly_monotone_transform(self, seed):
        # values on a 1/255 grid stay distinct under the transform, so
        # every comparison and tie of the Mann-Whitney count is kept
        levels = np.random.default_rng(seed).integers(0, 256, size=(3, H, W))
        maps = list(levels / 255.0)
        warped = [np.exp(3.0 * m) - m ** 2 for m in maps]
        fixations = _fixations()
        pool = fixations.pool_excluding("a")
        cfg = MetricConfig(shuffle_repeats=5)
        assert (auc_roc(warped, fixations, pool, "a", cfg).score
                == auc_roc(maps, fixations, pool, "a", cfg).score)


class TestNss:
    def test_mean_of_test_map_over_reference_mask(self):
        reference = np.array([[0.9, 0.1], [0.7, 0.2]])
        test = np.array([[0.5, 1.0], [0.3, 1.0]])
        assert nss(reference, test) == pytest.approx(0.4)

    def test_no_pixel_reaches_threshold(self):
        reference = np.full((H, W), 0.69)
        with pytest.raises(MetricError, match="threshold"):
            nss(reference, reference)
