"""Fixation-prediction and map-similarity metrics.

The shuffled AUC-ROC and shuffled KLD score saliency maps against human
fixations, drawing negatives from other videos' fixation pools so that
center bias cancels.  PCC and the masked-mean NSS variant compare two
saliency maps directly (here: hardware model versus reference).

Note on NSS: this is not the z-scored scanpath statistic.  The
reference map is thresholded (``podvs compare --threshold``, 0.7 by
default) into a binary fixation mask and the score is the plain mean of
the test map over that mask, so 1.0 is a perfect score.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, MetricError


#: Negative resamples averaged per frame by the shuffled metrics.
SHUFFLE_REPEATS = 100
#: Histogram bins over [0, 1] and the count added to each bin by kld.
KLD_BINS = 20
KLD_EPSILON = 1e-6


class FixationSet:
    """Fixation records grouped by (video, frame)."""

    def __init__(self, records):
        self.records = tuple(records)
        self._by_video_frame: dict = {}
        for rec in self.records:
            self._by_video_frame.setdefault((rec.video, rec.frame), []).append(rec)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def videos(self):
        return sorted({rec.video for rec in self.records})

    def at(self, video: str, frame: int):
        return self._by_video_frame.get((video, frame), [])

    def pool_excluding(self, video: str) -> "FixationSet":
        """All records from other videos (the shuffled-negatives pool)."""
        return FixationSet([r for r in self.records if r.video != video])


@dataclass(frozen=True)
class FrameScores:
    """Per-frame evaluation outcome plus coverage bookkeeping."""

    score: float
    frames_scored: int
    frames_skipped: int


def _frame_rng(seed: int, video: str, frame: int) -> np.random.Generator:
    """Deterministic per-frame generator; safe to evaluate frames in parallel."""
    return np.random.default_rng(
        np.random.SeedSequence([seed, zlib.crc32(video.encode("utf-8")), frame])
    )


def _values_at(map_: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Map values at the fixations (xs, ys); every one must lie on the map."""
    h, w = map_.shape
    outside = (xs < 0) | (xs >= w) | (ys < 0) | (ys >= h)
    if outside.any():
        i = int(np.argmax(outside))
        raise MetricError(f"fixation ({xs[i]}, {ys[i]}) outside {w}x{h} map")
    return map_[ys, xs].astype(np.float64)


def _coords(records):
    return (np.array([rec.x for rec in records], dtype=np.intp),
            np.array([rec.y for rec in records], dtype=np.intp))


def _shuffled(score, maps, fixations: FixationSet, negatives_pool: FixationSet,
              video: str, seed: int) -> FrameScores:
    """score(positives, negatives) averaged over resamples, then frames.

    Per frame the map is read at the true fixations (positives) and at
    the whole pool; each of SHUFFLE_REPEATS resamples draws as many
    pool values as there are positives, with replacement.  Frames
    without fixations are skipped and counted.
    """
    if len(negatives_pool) == 0:
        raise MetricError("no fixations in the negatives pool")
    pool_xs, pool_ys = _coords(negatives_pool.records)
    frame_scores = []
    skipped = 0
    for frame_idx, map_ in enumerate(maps):
        records = fixations.at(video, frame_idx)
        if not records:
            skipped += 1
            continue
        pos = _values_at(map_, *_coords(records))
        pool = _values_at(map_, pool_xs, pool_ys)
        rng = _frame_rng(seed, video, frame_idx)
        repeats = [score(pos, pool[rng.integers(0, len(pool), size=len(pos))])
                   for _ in range(SHUFFLE_REPEATS)]
        frame_scores.append(float(np.mean(repeats)))
    n_maps = len(frame_scores) + skipped
    beyond = [rec.frame for rec in fixations.records if rec.video == video and rec.frame >= n_maps]
    if beyond:
        raise MetricError(f"video {video!r} has a fixation on frame {min(beyond)}, "
                          f"beyond its {n_maps} maps")
    if not frame_scores:
        raise MetricError("no frames with fixations")
    return FrameScores(float(np.mean(frame_scores)), len(frame_scores), skipped)


def _auc_ties_half(pos: np.ndarray, neg: np.ndarray) -> float:
    """Threshold-sweep AUC with ties counted one half (Mann-Whitney)."""
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def auc_roc(maps, fixations: FixationSet, negatives_pool: FixationSet,
            video: str, seed: int) -> FrameScores:
    """Shuffled AUC-ROC of one video's map sequence.

    Negatives are sampled from the other-video pool, as many per
    resample as the frame has fixations, by a generator that ``seed``,
    the video and the frame seed (``podvs eval --seed``, 0 by default).
    Frames without fixations are skipped and counted; a fixation off the
    map, or on a frame beyond the maps, raises ``MetricError``.
    """
    return _shuffled(_auc_ties_half, maps, fixations, negatives_pool, video, seed)


def _histogram(values: np.ndarray) -> np.ndarray:
    hist, _ = np.histogram(values, bins=KLD_BINS, range=(0.0, 1.0))
    smoothed = hist.astype(np.float64) + KLD_EPSILON
    return smoothed / smoothed.sum()


def _kl_divergence(pos: np.ndarray, neg: np.ndarray) -> float:
    pos_hist = _histogram(pos)
    return float(np.sum(pos_hist * np.log(pos_hist / _histogram(neg))))


def _in_unit_range(maps, video: str):
    """The maps, each checked to lie in [0, 1]: the histograms of kld
    would drop a value outside that range without a word."""
    for frame_idx, map_ in enumerate(maps):
        map_ = np.asarray(map_, dtype=np.float64)
        bad = ~((map_ >= 0.0) & (map_ <= 1.0))  # NaN compares false
        if bad.any():
            raise MetricError(f"kld: video {video!r} frame {frame_idx} has value "
                              f"{float(map_[bad][0])}, not in [0, 1]")
        yield map_


def kld(maps, fixations: FixationSet, negatives_pool: FixationSet,
        video: str, seed: int) -> FrameScores:
    """Shuffled Kullback-Leibler divergence; higher means better.

    KL(true-fixation histogram || shuffled histogram) per frame, with
    epsilon-smoothed histograms over [0, 1]; same sampling, seeding,
    averaging and coverage rules as auc_roc, fixations beyond the maps
    included.  A map with a value outside [0, 1] or not finite raises
    ``MetricError``.
    """
    return _shuffled(_kl_divergence, _in_unit_range(maps, video), fixations,
                     negatives_pool, video, seed)


def pcc(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation over all pixels.  Zero variance leaves it
    undefined (``MetricError``); maps of different shapes raise
    ``DimensionError``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch {a.shape} vs {b.shape}")
    da = a - a.mean()
    db = b - b.mean()
    var_a = float(np.sum(da * da))
    var_b = float(np.sum(db * db))
    if var_a == 0.0 or var_b == 0.0:
        raise MetricError("undefined correlation: a map has zero variance")
    return float(np.sum(da * db) / np.sqrt(var_a * var_b))


def nss(reference: np.ndarray, test: np.ndarray, threshold: float) -> float:
    """Masked-mean NSS: mean of `test` where `reference` >= threshold
    (``podvs compare --threshold``, 0.7 by default).

    Both maps are expected in [0, 1]; 1.0 is a perfect score.  A
    reference with no pixel at the threshold leaves it undefined
    (``MetricError``); maps of different shapes raise ``DimensionError``.
    """
    reference = np.asarray(reference, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if reference.shape != test.shape:
        raise DimensionError(f"shape mismatch {reference.shape} vs {test.shape}")
    mask = reference >= threshold
    if not mask.any():
        raise MetricError(f"no reference pixel reaches threshold {threshold}")
    return float(test[mask].mean())
