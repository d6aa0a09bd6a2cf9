"""Per-pixel class probabilities: loaded from a backbone export or synthesized.

The oracle path box-blurs the one-hot foreground ground truth over valid
pixels from exact integer class counts per window, then, on valid pixels
only, swaps the top-2 classes of a seeded fraction and applies a temperature
power transform. It reproduces the two error modes the refiner targets
(blurred boundaries, confident mistakes) with controllable strength.

File format for loaded probabilities: raw little-endian float32, row-major
(row, col, class), no header.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._rand import uniform01
from .errors import DataFormatError, check_field_types
from .projection import RangeImage

SUM_TOLERANCE = 1e-3


@dataclass
class CoarseSegmentation:
    probs: np.ndarray  # (H, W, C) float64, rows sum to 1; only point pixels are read

    @property
    def num_classes(self) -> int:
        return self.probs.shape[2]


@dataclass
class OracleNoiseSpec:
    blur_radius: int = 2
    flip_rate: float = 0.05
    temperature: float = 1.0
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.blur_radius < 0:
            raise DataFormatError("blur_radius must be >= 0")
        if not 0.0 <= self.flip_rate < 1.0:
            raise DataFormatError("flip_rate must be in [0, 1)")
        if self.temperature <= 0:
            raise DataFormatError("temperature must be > 0")


def load_coarse(path, height: int, width: int, num_classes: int) -> CoarseSegmentation:
    """Load an H*W*C float32 probability dump; renormalizes near-1 sums."""
    path = Path(path)
    data = path.read_bytes()
    expected = height * width * num_classes * 4
    if len(data) != expected:
        raise DataFormatError(
            f"{path}: expected {expected} bytes for {height}x{width}x{num_classes}, got {len(data)}"
        )
    probs = np.frombuffer(data, dtype="<f4").astype(np.float64)
    probs = probs.reshape(height, width, num_classes)
    if not np.isfinite(probs).all():
        raise DataFormatError(f"{path}: non-finite probability values")
    if (probs < 0).any():
        raise DataFormatError(f"{path}: negative probability values")
    sums = probs.sum(axis=2)
    off = np.abs(sums - 1.0) > SUM_TOLERANCE
    if off.any():
        v, u = np.argwhere(off)[0]
        raise DataFormatError(
            f"{path}: pixel ({v}, {u}) sums to {sums[v, u]:.6f}, outside 1 +- {SUM_TOLERANCE}"
        )
    probs /= sums[:, :, None]
    return CoarseSegmentation(probs=probs)


def oracle_coarse(
    img: RangeImage,
    gt_labels: np.ndarray,
    spec: OracleNoiseSpec,
    num_classes: int,
) -> CoarseSegmentation:
    """Synthesize backbone-like probabilities from ground truth plus noise."""
    gt_labels = np.asarray(gt_labels)
    if gt_labels.shape != (img.num_points,):
        raise DataFormatError(
            f"ground truth length {gt_labels.shape} does not match {img.num_points} points"
        )
    if gt_labels.min() < 0 or gt_labels.max() >= num_classes:
        raise DataFormatError("ground-truth labels outside 0..C-1")

    h, w = img.height, img.width
    # radii beyond h - 1 (rows) or w - 1 (columns) add no pixel to any window
    rv, ru = min(spec.blur_radius, h - 1), min(spec.blur_radius, w - 1)
    fv, fu = np.nonzero(img.valid_mask)
    # per-class counts over the clipped window in exact small integers, plus a
    # last channel counting the window's valid pixels; the zero padding clips
    # the window at the image edges
    dtype = np.min_scalar_type((2 * rv + 1) * (2 * ru + 1))
    pad = np.zeros((h + 2 * rv, w + 2 * ru, num_classes + 1), dtype=dtype)
    pad[fv + rv, fu + ru, gt_labels[img.fg_point_index[fv, fu]]] = 1
    pad[fv + rv, fu + ru, num_classes] = 1
    vsum = sum(pad[d : d + h] for d in range(2 * rv + 1))
    counts = sum(vsum[:, d : d + w] for d in range(2 * ru + 1))

    # noise runs on the (M, C) rows of the valid pixels only
    counts = counts[fv, fu]
    probs = counts[:, :num_classes] / counts[:, num_classes:]
    probs /= probs.sum(axis=1)[:, None]

    # counter-based draws: a pixel's draw does not depend on which others are drawn
    flip = np.flatnonzero(uniform01(spec.seed, "flip", fv, fu) < spec.flip_rate)
    masked = probs[flip]
    top = np.argmax(masked, axis=1)
    masked[np.arange(len(flip)), top] = -np.inf
    runner = np.argmax(masked, axis=1)  # ties to the smallest class id
    probs[flip, top], probs[flip, runner] = probs[flip, runner], probs[flip, top]

    if spec.temperature != 1.0:
        sharp = probs ** (1.0 / spec.temperature)
        probs = sharp / sharp.sum(axis=1)[:, None]

    out = np.full((h, w, num_classes), 1.0 / num_classes)
    out[fv, fu] = probs
    return CoarseSegmentation(probs=out)


def top2_margin(seg: CoarseSegmentation) -> np.ndarray:
    """Largest minus second-largest probability per pixel. A margin at a pixel
    that no point projects to means nothing; callers read point pixels only."""
    if seg.num_classes < 2:
        raise DataFormatError("top-2 margin needs at least 2 classes")
    part = np.partition(seg.probs, seg.num_classes - 2, axis=2)
    return part[:, :, -1] - part[:, :, -2]
