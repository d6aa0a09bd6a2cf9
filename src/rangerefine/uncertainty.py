"""Uncertain-point localization and per-point feature assembly.

Two selection strategies feed one pool:

* boundary: points of the pixels with the lowest top-2 probability margins,
  up to a fixed budget. Pixels are consumed in ascending margin order; only
  inside the margin stratum that crosses the budget is the choice made by
  seeded uniform sampling.
* background: points hidden behind their pixel's foreground point and far
  from it (range gap >= c_u). Near background points are trusted to share
  the foreground label and stay out of the pool.

Each pool entry carries a feature vector of length 5 + C: the point's own
(x, y, z, range, remission) concatenated with the mean class-probability
vector of its ``AGG_K`` range-nearest neighbors in the ``AGG_WINDOW`` square
window around its pixel (own pixel included).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rand import generator
from .coarse import CoarseSegmentation, top2_margin
from .errors import DataFormatError, check_field_types
from .kitti_io import PointCloud
from .projection import RangeImage, background_distances, window_neighbors

REASON_BOUNDARY = 1
REASON_BACKGROUND = 2
REASON_BOTH = 3
REASON_NAMES = {REASON_BOUNDARY: "boundary", REASON_BACKGROUND: "background", REASON_BOTH: "both"}

GEOMETRY_FEATURES = 5
AGG_K = 5  # window candidates averaged into a pool entry's class slice
AGG_WINDOW = 5  # side of the range-image window they are drawn from


@dataclass
class SelectionConfig:
    boundary_budget: int = 8192
    c_u: float = 1.0
    n_u: int = 4096
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.boundary_budget < 0:
            raise DataFormatError("boundary_budget must be >= 0")
        if self.c_u <= 0:
            raise DataFormatError("c_u must be > 0")
        if self.n_u < 1:
            raise DataFormatError("n_u must be >= 1")


@dataclass
class UncertainPointSet:
    """Selected points with provenance, features and their current labels."""

    indices: np.ndarray       # (M,) int64, unique, ascending
    reason: np.ndarray        # (M,) uint8, REASON_* codes
    features: np.ndarray      # (M, 5 + C) float64
    coarse_label: np.ndarray  # (M,) int32

    def __len__(self) -> int:
        return len(self.indices)


def aggregate_features(
    cloud: PointCloud,
    img: RangeImage,
    seg: CoarseSegmentation,
    indices: np.ndarray,
) -> np.ndarray:
    """Assemble (M, 5 + C) feature vectors for the points ``indices``.

    The class slice is the renormalized mean of the probability vectors of
    the AGG_K window candidates nearest in |delta range| (the point's own
    pixel always being one of them).
    """
    if seg.probs.shape[:2] != (img.height, img.width):
        raise DataFormatError("segmentation shape does not match range image")
    indices = np.asarray(indices, dtype=np.int64)

    num_classes = seg.num_classes
    out = np.empty((len(indices), GEOMETRY_FEATURES + num_classes), dtype=np.float64)
    xyz = cloud.points[:, :3].astype(np.float64)
    out[:, 0:3] = xyz[indices]
    out[:, 3] = img.point_range[indices]
    out[:, 4] = cloud.points[indices, 3].astype(np.float64)

    pixel, delta = window_neighbors(img, AGG_WINDOW, AGG_K, indices)
    # an invalid candidate (pixel -1) has weight 0, so the vector it gathered never counts
    weights = np.isfinite(delta).astype(np.float64)
    vectors = seg.probs.reshape(-1, num_classes)[pixel]  # (M, k, C)
    summed = (vectors * weights[:, :, None]).sum(axis=1)
    counts = weights.sum(axis=1)  # >= 1: own pixel is always valid
    mean = summed / counts[:, None]
    mean /= mean.sum(axis=1)[:, None]
    out[:, GEOMETRY_FEATURES:] = mean
    return out


def select_boundary(
    img: RangeImage, seg: CoarseSegmentation, cfg: SelectionConfig
) -> np.ndarray:
    """Point indices of the lowest-margin pixels, capped at the budget.

    Returns min(budget, N) indices ordered by (margin, point index); the
    stratum of equal margins crossing the budget is sampled with the
    configured seed.
    """
    n = img.num_points
    budget = min(cfg.boundary_budget, n)
    if budget == 0:
        return np.empty(0, dtype=np.int64)

    margin = top2_margin(seg)[img.point_v, img.point_u]
    order = np.lexsort((np.arange(n), margin))

    cut_value = margin[order[budget - 1]]
    below = order[margin[order] < cut_value]
    stratum = np.sort(order[margin[order] == cut_value])
    need = budget - len(below)
    if need == len(stratum):
        chosen = stratum
    else:
        rng = generator("boundary-stratum", cfg.seed)
        chosen = np.sort(rng.choice(stratum, size=need, replace=False))
    return np.concatenate([below, chosen])


def select_background(img: RangeImage, cfg: SelectionConfig) -> np.ndarray:
    """Ascending indices of the background points whose range gap behind
    their pixel's foreground point is at least c_u."""
    far = ~img.is_foreground & (background_distances(img) >= cfg.c_u)
    return np.flatnonzero(far).astype(np.int64)


def build_pool(
    cloud: PointCloud,
    img: RangeImage,
    seg: CoarseSegmentation,
    cfg: SelectionConfig,
    point_labels: np.ndarray,
) -> UncertainPointSet:
    """Union both strategies, tag provenance and fill features and labels.

    ``point_labels`` are the current per-point labels (KNN-refined when that
    stage ran, plain back-projected otherwise).
    """
    point_labels = np.asarray(point_labels)
    if point_labels.shape != (img.num_points,):
        raise DataFormatError("point_labels must cover every point")

    boundary = select_boundary(img, seg, cfg)
    background = select_background(img, cfg)
    indices = np.union1d(boundary, background).astype(np.int64)

    reason = np.zeros(len(indices), dtype=np.uint8)
    reason[np.isin(indices, boundary)] |= REASON_BOUNDARY
    reason[np.isin(indices, background)] |= REASON_BACKGROUND

    features = aggregate_features(cloud, img, seg, indices)
    return UncertainPointSet(
        indices=indices,
        reason=reason,
        features=features,
        coarse_label=point_labels[indices].astype(np.int32),
    )


def sample_positions(pool_size: int, n_u: int, seed: int) -> np.ndarray:
    """Ascending positions of a uniform no-replacement sample of the pool."""
    if pool_size == 0:
        raise DataFormatError("cannot sample from an empty pool")
    if pool_size <= n_u:
        return np.arange(pool_size)
    rng = generator("pool-sample", seed)
    return np.sort(rng.choice(pool_size, size=n_u, replace=False))
