"""Fixation-prediction and map-similarity metrics.

The shuffled AUC-ROC and shuffled KLD score saliency maps against human
fixations, drawing negatives from other videos' fixation pools so that
center bias cancels.  PCC and the masked-mean NSS variant compare two
saliency maps directly (here: hardware model versus reference).

Note on NSS: this is not the z-scored scanpath statistic.  The
reference map is thresholded at 0.7 into a binary fixation mask and the
score is the plain mean of the test map over that mask, so 1.0 is a
perfect score.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MetricError


@dataclass(frozen=True)
class MetricConfig:
    shuffle_repeats: int = 100
    kld_bins: int = 20
    kld_epsilon: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.shuffle_repeats < 1:
            raise ConfigError("shuffle_repeats must be >= 1")
        if self.kld_bins < 2:
            raise ConfigError("kld_bins must be >= 2")
        if self.kld_epsilon <= 0:
            raise ConfigError("kld_epsilon must be positive")


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

    def frames(self, video: str):
        return sorted({rec.frame for rec in self.records if rec.video == video})

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


def _frame_rng(cfg: MetricConfig, video: str, frame: int) -> np.random.Generator:
    """Deterministic per-frame generator; safe to evaluate frames in parallel."""
    return np.random.default_rng(
        np.random.SeedSequence([cfg.seed, zlib.crc32(video.encode("utf-8")), frame])
    )


def _sample_values(map_: np.ndarray, records, rng: np.random.Generator, count: int):
    """Map values at `count` fixations sampled with replacement."""
    idx = rng.integers(0, len(records), size=count)
    h, w = map_.shape
    out = np.empty(count, dtype=np.float64)
    for i, j in enumerate(idx):
        rec = records[j]
        if not (0 <= rec.x < w and 0 <= rec.y < h):
            raise MetricError(
                f"fixation ({rec.x}, {rec.y}) outside {w}x{h} map"
            )
        out[i] = map_[rec.y, rec.x]
    return out


def _true_values(map_: np.ndarray, records):
    h, w = map_.shape
    for rec in records:
        if not (0 <= rec.x < w and 0 <= rec.y < h):
            raise MetricError(f"fixation ({rec.x}, {rec.y}) outside {w}x{h} map")
    return np.array([map_[rec.y, rec.x] for rec in records], dtype=np.float64)


def _auc_ties_half(pos: np.ndarray, neg: np.ndarray) -> float:
    """Threshold-sweep AUC with ties counted one half (Mann-Whitney)."""
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def auc_roc(maps, fixations: FixationSet, negatives_pool: FixationSet,
            video: str, cfg: MetricConfig = MetricConfig()) -> FrameScores:
    """Shuffled AUC-ROC of one video's map sequence.

    Per frame the map is read at the true fixations (positives) and at
    an equal number of fixations sampled from the other-video pool
    (negatives); the AUC is averaged over `shuffle_repeats` resamples
    and then over frames.  Frames without fixations are skipped and
    counted.
    """
    if len(negatives_pool) == 0:
        raise MetricError("no fixations in the negatives pool")
    frame_scores = []
    skipped = 0
    for frame_idx, map_ in enumerate(maps):
        records = fixations.at(video, frame_idx)
        if not records:
            skipped += 1
            continue
        pos = _true_values(map_, records)
        rng = _frame_rng(cfg, video, frame_idx)
        repeats = [
            _auc_ties_half(
                pos, _sample_values(map_, negatives_pool.records, rng, len(pos))
            )
            for _ in range(cfg.shuffle_repeats)
        ]
        frame_scores.append(float(np.mean(repeats)))
    if not frame_scores:
        raise MetricError("no frames with fixations")
    return FrameScores(float(np.mean(frame_scores)), len(frame_scores), skipped)


def _histogram(values: np.ndarray, cfg: MetricConfig) -> np.ndarray:
    hist, _ = np.histogram(values, bins=cfg.kld_bins, range=(0.0, 1.0))
    smoothed = hist.astype(np.float64) + cfg.kld_epsilon
    return smoothed / smoothed.sum()


def kld(maps, fixations: FixationSet, negatives_pool: FixationSet,
        video: str, cfg: MetricConfig = MetricConfig()) -> FrameScores:
    """Shuffled Kullback-Leibler divergence; higher means better.

    KL(true-fixation histogram || shuffled histogram) per frame, with
    epsilon-smoothed histograms over [0, 1]; same averaging and
    coverage rules as auc_roc.
    """
    if len(negatives_pool) == 0:
        raise MetricError("no fixations in the negatives pool")
    frame_scores = []
    skipped = 0
    for frame_idx, map_ in enumerate(maps):
        records = fixations.at(video, frame_idx)
        if not records:
            skipped += 1
            continue
        pos_hist = _histogram(_true_values(map_, records), cfg)
        rng = _frame_rng(cfg, video, frame_idx)
        repeats = []
        for _ in range(cfg.shuffle_repeats):
            neg = _sample_values(map_, negatives_pool.records, rng, len(records))
            neg_hist = _histogram(neg, cfg)
            repeats.append(float(np.sum(pos_hist * np.log(pos_hist / neg_hist))))
        frame_scores.append(float(np.mean(repeats)))
    if not frame_scores:
        raise MetricError("no frames with fixations")
    return FrameScores(float(np.mean(frame_scores)), len(frame_scores), skipped)


def pcc(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation over all pixels; errors on zero variance."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise MetricError(f"shape mismatch {a.shape} vs {b.shape}")
    da = a - a.mean()
    db = b - b.mean()
    var_a = float(np.sum(da * da))
    var_b = float(np.sum(db * db))
    if var_a == 0.0 or var_b == 0.0:
        raise MetricError("undefined correlation: a map has zero variance")
    return float(np.sum(da * db) / np.sqrt(var_a * var_b))


def nss(reference: np.ndarray, test: np.ndarray, threshold: float = 0.7) -> float:
    """Masked-mean NSS: mean of `test` where `reference` >= threshold.

    Both maps are expected in [0, 1]; 1.0 is a perfect score.
    """
    reference = np.asarray(reference, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if reference.shape != test.shape:
        raise MetricError(f"shape mismatch {reference.shape} vs {test.shape}")
    mask = reference >= threshold
    if not mask.any():
        raise MetricError(f"no reference pixel reaches threshold {threshold}")
    return float(test[mask].mean())
