"""Per-pixel class probabilities: loaded from a backbone export or synthesized.

The oracle path box-blurs the one-hot foreground ground truth over valid
pixels: each window's exact integer class counts over its valid-pixel count,
one division per entry. Then, on valid pixels only, it swaps the top-2
classes of a seeded fraction and applies a temperature power transform. It
reproduces the two error modes the refiner targets (blurred boundaries,
confident mistakes) with controllable strength.

File format of a corpus's ``coarse/<scan>.probs`` export: raw little-endian
float32, row-major (row, col, class), no header.
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
    # (H, W, C) float64, rows sum to 1 within rounding; only point pixels are read
    probs: np.ndarray

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
    for what, bad in (("non-finite", ~np.isfinite(probs)), ("negative", probs < 0)):
        if bad.any():
            v, u, c = np.argwhere(bad)[0]
            raise DataFormatError(
                f"{path}: {what} probability values, first at (row, col, class) ({v}, {u}, {c})"
            )
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
    h, w = img.height, img.width
    valid = img.valid_mask
    # radii beyond h - 1 (rows) or w - 1 (columns) add no pixel to any window
    rv, ru = min(spec.blur_radius, h - 1), min(spec.blur_radius, w - 1)
    fv, fu = np.nonzero(valid)
    # per-class counts and valid-pixel totals over the clipped window in exact
    # small integers; the zero padding clips the window at the image edges, and
    # the window area bounds every count, so all fit one dtype
    dtype = np.min_scalar_type((2 * rv + 1) * (2 * ru + 1))
    pad = np.zeros((h + 2 * rv, w + 2 * ru, num_classes), dtype=dtype)
    pad[fv + rv, fu + ru, gt_labels[img.fg_point_index[fv, fu]]] = 1
    counts = _window_sum(pad, h, w, rv, ru)
    del pad
    totals = _window_sum(np.pad(valid.astype(dtype), ((rv, rv), (ru, ru))), h, w, rv, ru)
    # one correctly rounded division per entry: valid rows hold count / total
    # and sum to 1 within rounding; a pixel with no valid pixel in its window
    # holds zeros until the 1/C fill below
    probs = counts.astype(np.float64)
    del counts
    probs /= np.maximum(totals, 1).astype(np.float64)[..., None]
    del totals

    # noise on valid pixels only: swap the top-2 classes of the drawn pixels,
    # temper, then give every invalid pixel the uniform 1/C
    flip = uniform01(spec.seed, "flip", fv, fu) < spec.flip_rate
    flv, flu = fv[flip], fu[flip]
    masked = probs[flv, flu]
    top = np.argmax(masked, axis=1)
    masked[np.arange(len(flv)), top] = -np.inf
    runner = np.argmax(masked, axis=1)  # ties to the smallest class id
    probs[flv, flu, top], probs[flv, flu, runner] = probs[flv, flu, runner], probs[flv, flu, top]

    if spec.temperature != 1.0:
        probs **= 1.0 / spec.temperature
        np.divide(probs, probs.sum(axis=2, keepdims=True), out=probs, where=valid[..., None])
    probs[~valid] = 1.0 / num_classes
    return CoarseSegmentation(probs=probs)


def _window_sum(pad: np.ndarray, h: int, w: int, rv: int, ru: int) -> np.ndarray:
    """Sum over each (2rv+1, 2ru+1) window of an array padded by (rv, ru) on its
    first two axes, from shifted slices, in the array's dtype."""
    rows = sum(pad[d : d + h] for d in range(2 * rv + 1))
    return sum(rows[:, d : d + w] for d in range(2 * ru + 1))


def top2_margin(seg: CoarseSegmentation) -> np.ndarray:
    """Largest minus second-largest probability per pixel. A margin at a pixel
    that no point projects to means nothing; callers read point pixels only."""
    if seg.num_classes < 2:
        raise DataFormatError("top-2 margin needs at least 2 classes")
    part = np.partition(seg.probs, seg.num_classes - 2, axis=2)
    return part[:, :, -1] - part[:, :, -2]
