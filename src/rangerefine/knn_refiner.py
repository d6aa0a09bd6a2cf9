"""Windowed KNN vote over range-image neighbors, RangeNet++ style.

For every point the candidates are the foreground points of valid pixels in
the window around its own pixel. The K candidates nearest in |delta range|
(ties by row-major window order) vote for their pixel's label, weighted by a
Gaussian of the range difference; candidates farther than the range cutoff
are dropped. A point with no surviving candidate keeps its back-projected
label. Vote ties resolve to the smaller class id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, check_field_types
from .projection import RangeImage, back_project_labels, row_blocks, window_neighbors

SIGMA = 1.0  # m, width of the Gaussian vote weight
RANGE_CUTOFF = 1.0  # m, candidates farther in range do not vote
K = 5  # nearest candidates that vote


@dataclass
class KnnConfig:
    window: int = 5

    def __post_init__(self):
        check_field_types(self)
        if self.window < 1 or self.window % 2 == 0:
            raise DataFormatError("window must be odd and >= 1")


def knn_refine(
    img: RangeImage, pixel_labels: np.ndarray, cfg: KnnConfig
) -> np.ndarray:
    """Refine per-point labels from per-pixel labels; returns (N,) class ids."""
    labels = back_project_labels(img, pixel_labels)
    num_classes = int(pixel_labels.max()) + 1
    flat_labels = pixel_labels.ravel()

    pixel, delta = window_neighbors(img, cfg.window, K)
    for rows in row_blocks(len(labels)):
        gap = delta[rows]
        # an invalid candidate (pixel -1, delta +inf) fails the cutoff and so
        # carries weight 0: whatever label it gathered never counts
        keep = gap <= RANGE_CUTOFF
        weights = np.where(keep, np.exp(-(gap * gap) / (2.0 * SIGMA * SIGMA)), 0.0)

        # bincount adds each row's weights in rank order, nearest candidate first
        n = len(gap)
        bins = np.arange(n)[:, None] * num_classes + flat_labels[pixel[rows]]
        votes = np.bincount(bins.ravel(), weights.ravel(), minlength=n * num_classes)
        refined = np.argmax(votes.reshape(n, num_classes), axis=1)
        labels[rows] = np.where(keep.any(axis=1), refined, labels[rows])
    return labels
