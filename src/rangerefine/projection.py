"""Spherical projection of a point cloud onto a range image.

Each pixel keeps only the range of its foreground point, i.e. the projected
point with the smallest range (ties broken by lowest point index): no stage
reads the backbone's other input channels. Full point<->pixel bookkeeping is
kept so labels can be projected back and background structure inspected later.

Column/row mapping for a point with azimuth ``atan2(y, x)`` and elevation
``arcsin(z / range)``::

    u = floor(0.5 * (1 - azimuth / pi) * W)          clamped to [0, W-1]
    v = floor((1 - (elev - fov_down) / fov_span) * H) clamped to [0, H-1]

Azimuth is clamped, not wrapped, at the image edges; the same convention is
used by the pixel-window consumers downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, check_field_types
from .kitti_io import PointCloud, atomic_write_bytes

MIN_RANGE = 1e-6
# the sensor's vertical field of view, shared with the synthetic scanner
FOV_UP_DEG = 3.0
FOV_DOWN_DEG = -25.0


@dataclass
class ProjectionConfig:
    width: int = 2048
    height: int = 64

    def __post_init__(self):
        check_field_types(self)
        if self.width < 1 or self.height < 1:
            raise DataFormatError("projection width and height must be >= 1")


@dataclass
class RangeImage:
    """Projection result; immutable by convention once constructed."""

    range_channel: np.ndarray   # (H, W) float64 foreground range, 0 where no point projects
    valid_mask: np.ndarray      # (H, W) bool
    fg_point_index: np.ndarray  # (H, W) int64, -1 where no point projects
    point_u: np.ndarray         # (N,) int32 column per point
    point_v: np.ndarray         # (N,) int32 row per point
    point_range: np.ndarray     # (N,) float64
    is_foreground: np.ndarray   # (N,) bool

    @property
    def height(self) -> int:
        return self.range_channel.shape[0]

    @property
    def width(self) -> int:
        return self.range_channel.shape[1]

    @property
    def num_points(self) -> int:
        return len(self.point_u)


def project(cloud: PointCloud, cfg: ProjectionConfig) -> RangeImage:
    """Project a cloud; deterministic, with min-range foreground per pixel."""
    n = len(cloud)
    if n == 0:
        raise DataFormatError("cannot project an empty cloud")

    xyz = cloud.points[:, :3].astype(np.float64)
    rng = np.sqrt((xyz * xyz).sum(axis=1))
    if (rng <= MIN_RANGE).any():
        bad = int(np.flatnonzero(rng <= MIN_RANGE)[0])
        raise DataFormatError(f"point {bad} is at the scanner origin (range <= {MIN_RANGE} m)")

    fov_down = math.radians(FOV_DOWN_DEG)
    fov_span = math.radians(FOV_UP_DEG) - fov_down

    azimuth = np.arctan2(xyz[:, 1], xyz[:, 0])
    elevation = np.arcsin(np.clip(xyz[:, 2] / rng, -1.0, 1.0))

    u = np.floor(0.5 * (1.0 - azimuth / math.pi) * cfg.width).astype(np.int64)
    v = np.floor((1.0 - (elevation - fov_down) / fov_span) * cfg.height).astype(np.int64)
    np.clip(u, 0, cfg.width - 1, out=u)
    np.clip(v, 0, cfg.height - 1, out=v)

    # per-pixel foreground: sort by (pixel, range), stably so ties keep index
    # order, and keep the first of each pixel
    flat = v * cfg.width + u
    order = np.lexsort((rng, flat))
    sorted_flat = flat[order]
    first = np.ones(n, dtype=bool)
    first[1:] = sorted_flat[1:] != sorted_flat[:-1]
    fg_points = order[first]

    range_channel = np.zeros((cfg.height, cfg.width), dtype=np.float64)
    valid_mask = np.zeros((cfg.height, cfg.width), dtype=bool)
    fg_index = np.full((cfg.height, cfg.width), -1, dtype=np.int64)
    is_foreground = np.zeros(n, dtype=bool)

    fv, fu = v[fg_points], u[fg_points]
    range_channel[fv, fu] = rng[fg_points]
    valid_mask[fv, fu] = True
    fg_index[fv, fu] = fg_points
    is_foreground[fg_points] = True

    return RangeImage(
        range_channel=range_channel,
        valid_mask=valid_mask,
        fg_point_index=fg_index,
        point_u=u.astype(np.int32),
        point_v=v.astype(np.int32),
        point_range=rng,
        is_foreground=is_foreground,
    )


def background_distances(img: RangeImage) -> np.ndarray:
    """Per-point |range - pixel foreground range|; zero for foreground points."""
    fg_range = img.range_channel[img.point_v, img.point_u]
    return np.abs(img.point_range - fg_range)


def back_project_labels(img: RangeImage, pixel_labels: np.ndarray) -> np.ndarray:
    """Every point inherits its pixel's label (the projection quantization)."""
    pixel_labels = np.asarray(pixel_labels)
    if pixel_labels.shape != (img.height, img.width):
        raise DataFormatError(
            f"pixel labels shape {pixel_labels.shape} does not match "
            f"image ({img.height}, {img.width})"
        )
    return pixel_labels[img.point_v, img.point_u]


def window_neighbors(
    img: RangeImage, window: int, k: int, indices: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The k window candidates nearest in |delta range|, nearest first.

    Candidates are the valid pixels inside the ``window`` x ``window`` block
    centered on each query point's pixel (no horizontal wrap-around); ties on
    delta resolve by row-major window order. Returns ``pixel`` (M, k'), the
    flat ``v * W + u`` index of each candidate or -1 where it is invalid, and
    ``delta`` (M, k'), |candidate range - query range| or +inf where invalid,
    with k' = min(k, window**2).
    """
    if window < 1 or window % 2 == 0:
        raise DataFormatError(f"window must be odd and >= 1, got {window}")
    if indices is None:
        pu, pv, pr = img.point_u, img.point_v, img.point_range
    else:
        pu, pv, pr = img.point_u[indices], img.point_v[indices], img.point_range[indices]

    # pad by half a window so every window lies inside the padded image
    half = window // 2
    h, w = img.height, img.width
    padded_w = w + 2 * half
    padded_range = np.full((h + 2 * half, padded_w), np.inf)
    padded_range[half : half + h, half : half + w] = np.where(
        img.valid_mask, img.range_channel, np.inf
    )
    padded_pixel = np.full(padded_range.shape, -1, dtype=np.int64)
    padded_pixel[half : half + h, half : half + w] = np.where(
        img.valid_mask, np.arange(h * w).reshape(h, w), -1
    )

    # in padded coordinates a point's window has its top-left corner at (v, u)
    dv, du = np.meshgrid(np.arange(window), np.arange(window), indexing="ij")
    offsets = (dv * padded_w + du).ravel()
    base = pv.astype(np.int64) * padded_w + pu
    delta = padded_range.ravel()[base[:, None] + offsets]
    delta -= pr[:, None]
    np.abs(delta, out=delta)

    order = np.argsort(delta, axis=1, kind="stable")[:, :k]
    pixel = padded_pixel.ravel()[base[:, None] + offsets[order]]
    # the ranked deltas as flat positions into (M, window**2): cheaper than take_along_axis
    ranked = order + np.arange(0, delta.size, len(offsets))[:, None]
    return pixel, delta.ravel()[ranked]


def write_range_pgm(img: RangeImage, path) -> None:
    """Debug dump of the range channel as a 16-bit PGM (millimeter steps)."""
    mm = np.clip(np.round(img.range_channel * 1000.0), 0, 65535).astype(">u2")
    header = f"P5\n{img.width} {img.height}\n65535\n".encode("ascii")
    atomic_write_bytes(path, header + mm.tobytes())
