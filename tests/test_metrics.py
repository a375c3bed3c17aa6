"""Invariants of the map-similarity and fixation metrics."""
import math

import numpy as np
import pytest

from podvs.config import FixationRecord
from podvs.errors import DimensionError, MetricError
from podvs.metrics import KLD_EPSILON, FixationSet, auc_roc, kld, nss, pcc

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

    def test_zero_variance_is_undefined(self):
        a, b = next(_unit_map_pairs(25))
        for flat in (np.zeros((H, W)), np.full((H, W), 0.5)):
            with pytest.raises(MetricError, match="zero variance"):
                pcc(flat, b)
            with pytest.raises(MetricError, match="zero variance"):
                pcc(a, flat)

    def test_maps_of_different_shapes_are_a_dimension_error(self):
        # not MetricError: ``podvs compare`` prints n/a for that, not for this
        for metric in (pcc, lambda a, b: nss(a, b, 0.7)):
            with pytest.raises(DimensionError, match="shape mismatch"):
                metric(np.eye(H, W), np.eye(W, H))


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
        assert (auc_roc(warped, fixations, pool, "a", 0).score
                == auc_roc(maps, fixations, pool, "a", 0).score)


def _one_negative(positives, negative):
    """Fixations at the given (y, x) points of frames 0 and 1 of video
    'a', and a one-record pool on video 'b' at ``negative``, so every
    shuffled negative reads the same pixel."""
    records = [FixationRecord("a", frame, "s", x, y)
               for frame in (0, 1) for y, x in positives]
    y, x = negative
    return FixationSet(records), FixationSet([FixationRecord("b", 0, "s", x, y)])


class TestShuffledScoresByHand:
    # a 2x2 map per frame; frame 2 has no fixations and is skipped
    MAP = np.array([[0.9, 0.5], [0.12, 0.13]])

    def test_auc_counts_ties_one_half(self):
        # positives 0.9 and 0.5 against negatives 0.5 and 0.5: two wins
        # and two ties of four pairs
        fixations, pool = _one_negative([(0, 0), (0, 1)], (0, 1))
        out = auc_roc([self.MAP] * 3, fixations, pool, "a", 0)
        assert out.score == 0.75
        assert (out.frames_scored, out.frames_skipped) == (2, 1)

    def test_auc_of_a_map_below_every_negative_is_zero(self):
        fixations, pool = _one_negative([(1, 0), (1, 1)], (0, 1))
        assert auc_roc([self.MAP] * 2, fixations, pool, "a", 0).score == 0.0

    def test_kld_of_disjoint_bins(self):
        # positives fill bin 2 of 20 twice, negatives bin 18; with
        # smoothing eps and Z = 2 + 20 eps the divergence is
        # (2 + eps)/Z log((2 + eps)/eps) + eps/Z log(eps/(2 + eps))
        eps = KLD_EPSILON
        fixations, pool = _one_negative([(1, 0), (1, 1)], (0, 0))
        out = kld([self.MAP] * 3, fixations, pool, "a", 0)
        assert out.score == pytest.approx(2 / (2 + 20 * eps) * math.log((2 + eps) / eps),
                                          rel=1e-12)
        assert (out.frames_scored, out.frames_skipped) == (2, 1)

    def test_kld_of_the_same_bin_is_zero(self):
        # 0.12 and 0.13 share bin 2 with the negative at 0.13
        fixations, pool = _one_negative([(1, 0), (1, 1)], (1, 1))
        assert kld([self.MAP] * 2, fixations, pool, "a", 0).score == 0.0


class TestKldRange:
    # unchecked, the histograms drop every value above 1: a 6x8 map with
    # 1.0 at both fixations scored 14.51 and the same map times 2 10.79
    @pytest.mark.parametrize("bad", [2.0, -0.25, np.nan, np.inf])
    def test_value_outside_unit_range_raises(self, bad):
        fixations, pool = _one_negative([(1, 0), (1, 1)], (0, 0))
        good = TestShuffledScoresByHand.MAP
        broken = good.copy()
        broken[0, 1] = bad
        with pytest.raises(MetricError, match=r"'a' frame 1 has value .*, not in \[0, 1\]"):
            kld([good, broken, good], fixations, pool, "a", 0)

    def test_map_on_the_range_ends_scores(self):
        fixations, pool = _one_negative([(1, 0), (1, 1)], (0, 0))
        ends = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert kld([ends] * 2, fixations, pool, "a", 0).score > 0


class TestOffMapFixation:
    @pytest.mark.parametrize("seed", range(10))
    def test_pool_fixation_outside_the_map_raises_for_every_seed(self, seed):
        # 100 resamples of one negative each reach the one off-map record
        # of this 201-record pool for only some seeds; the whole pool is
        # checked, so the outcome does not depend on the draws
        rng = np.random.default_rng(31)
        pool = FixationSet(
            [FixationRecord("b", 0, f"s{n}", int(rng.integers(0, W)), int(rng.integers(0, H)))
             for n in range(200)] + [FixationRecord("b", 0, "off", W, 0)])
        fixations = FixationSet([FixationRecord("a", 0, "s", 1, 1)])
        for metric in (auc_roc, kld):
            with pytest.raises(MetricError, match=f"fixation \\({W}, 0\\) outside"):
                metric([np.ones((H, W))], fixations, pool, "a", seed)


class TestFixationBeyondTheMaps:
    def test_raises_naming_the_video_the_first_frame_and_the_map_count(self):
        # unchecked, the frame 7 and 9 fixations are dropped and the two maps scored
        fixations, pool = _one_negative([(0, 0), (0, 1)], (0, 1))
        late = FixationSet(fixations.records + (FixationRecord("a", 9, "s", 0, 0),
                                                FixationRecord("a", 7, "s", 1, 1)))
        for metric in (auc_roc, kld):
            with pytest.raises(MetricError, match="video 'a' has a fixation on frame 7, "
                                                  "beyond its 2 maps"):
                metric([TestShuffledScoresByHand.MAP] * 2, late, pool, "a", 0)

    def test_fixations_of_other_videos_may_lie_beyond(self):
        fixations, pool = _one_negative([(0, 0), (0, 1)], (0, 1))
        other = FixationSet(fixations.records + (FixationRecord("b", 9, "s", 0, 0),))
        for metric in (auc_roc, kld):
            scores = metric([TestShuffledScoresByHand.MAP] * 2, other, pool, "a", 0)
            assert scores.frames_scored == 2


class TestNss:
    def test_mean_of_test_map_over_reference_mask(self):
        reference = np.array([[0.9, 0.1], [0.7, 0.2]])
        test = np.array([[0.5, 1.0], [0.3, 1.0]])
        assert nss(reference, test, 0.7) == pytest.approx(0.4)

    def test_no_pixel_reaches_threshold(self):
        reference = np.full((H, W), 0.69)
        with pytest.raises(MetricError, match="threshold"):
            nss(reference, reference, 0.7)
