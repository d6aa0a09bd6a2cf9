"""Confusion-matrix accumulation, per-class IoU, mIoU and overall accuracy.

Rows are ground truth, columns are predictions. Points whose ground truth is
the ignore class are never accumulated. Classes with an empty IoU
denominator are excluded from the mean rather than counted as zero.
"""

from __future__ import annotations

import numpy as np

from .errors import DataFormatError


class ConfusionMatrix:
    def __init__(self, num_classes: int, ignore_class: int):
        self.num_classes = num_classes
        self.ignore_class = ignore_class
        self.counts = np.zeros((num_classes, num_classes), dtype=np.int64)

    def accumulate(self, gt: np.ndarray, pred: np.ndarray) -> "ConfusionMatrix":
        keep = gt != self.ignore_class
        gt, pred = gt[keep], pred[keep]
        flat = gt.astype(np.int64) * self.num_classes + pred
        self.counts += np.bincount(flat, minlength=self.num_classes**2).reshape(
            self.num_classes, self.num_classes
        )
        return self

    def per_class_iou(self) -> np.ndarray:
        """(C,) IoU values; NaN for excluded classes (ignore or empty)."""
        tp = np.diag(self.counts).astype(np.float64)
        fp = self.counts.sum(axis=0) - tp
        fn = self.counts.sum(axis=1) - tp
        denom = tp + fp + fn
        iou = np.full(self.num_classes, np.nan)
        present = denom > 0
        present[self.ignore_class] = False
        iou[present] = tp[present] / denom[present]
        return iou

    def miou(self) -> float:
        iou = self.per_class_iou()
        included = ~np.isnan(iou)
        if not included.any():
            raise DataFormatError("mIoU undefined: no class has any accumulated point")
        return float(iou[included].mean())

    def oacc(self) -> float:
        return float(np.trace(self.counts) / self.counts.sum())
