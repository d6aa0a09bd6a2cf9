"""Windowed KNN vote over range-image neighbors, RangeNet++ style.

For every point the candidates are the foreground points of valid pixels in
the window around its own pixel. The k candidates nearest in |delta range|
(ties by row-major window order) vote for their pixel's label, weighted by a
Gaussian of the range difference; candidates farther than the range cutoff
are dropped. A point with no surviving candidate keeps its back-projected
label. Vote ties resolve to the smaller class id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, check_field_types
from .projection import RangeImage, back_project_labels, window_neighbors

SIGMA = 1.0  # m, width of the Gaussian vote weight
RANGE_CUTOFF = 1.0  # m, candidates farther in range do not vote


@dataclass
class KnnConfig:
    k: int = 5
    window: int = 5

    def __post_init__(self):
        check_field_types(self)
        if self.k < 1:
            raise DataFormatError("k must be >= 1")
        if self.window < 1 or self.window % 2 == 0:
            raise DataFormatError("window must be odd and >= 1")


def knn_refine(
    img: RangeImage, pixel_labels: np.ndarray, cfg: KnnConfig
) -> np.ndarray:
    """Refine per-point labels from per-pixel labels; returns (N,) class ids."""
    base = back_project_labels(img, pixel_labels)
    num_classes = int(pixel_labels.max()) + 1

    pixel, delta = window_neighbors(img, cfg.window, cfg.k)
    cand_labels = pixel_labels.ravel()[pixel]

    # an invalid candidate (pixel -1, delta +inf) fails the cutoff and so
    # carries weight 0: whatever label it gathered never counts
    keep = delta <= RANGE_CUTOFF
    weights = np.exp(-(delta * delta) / (2.0 * SIGMA * SIGMA))
    weights = np.where(keep, weights, 0.0)

    # bincount adds each row's weights in rank order, nearest candidate first
    n, k = delta.shape
    rows = np.repeat(np.arange(n) * num_classes, k)
    votes = np.bincount(rows + cand_labels.ravel(), weights.ravel(), minlength=n * num_classes)

    refined = np.argmax(votes.reshape(n, num_classes), axis=1).astype(base.dtype)
    return np.where(keep.any(axis=1), refined, base)
