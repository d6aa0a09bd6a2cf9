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
from .kitti_io import PointCloud

MIN_RANGE = 1e-6
# the sensor's vertical field of view, shared with the synthetic scanner
FOV_UP_DEG = 3.0
FOV_DOWN_DEG = -25.0
# rows per block of the per-point kernels: their temporaries stay this many
# rows tall whatever the number of points
ROW_BLOCK = 4096


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
    bad = np.flatnonzero(rng <= MIN_RANGE)
    if len(bad):
        raise DataFormatError(f"point {bad[0]} is at the scanner origin (range <= {MIN_RANGE} m)")

    fov_down = math.radians(FOV_DOWN_DEG)
    fov_span = math.radians(FOV_UP_DEG) - fov_down

    azimuth = np.arctan2(xyz[:, 1], xyz[:, 0])
    elevation = np.arcsin(np.clip(xyz[:, 2] / rng, -1.0, 1.0))

    u = np.floor(0.5 * (1.0 - azimuth / math.pi) * cfg.width).astype(np.int64)
    v = np.floor((1.0 - (elevation - fov_down) / fov_span) * cfg.height).astype(np.int64)
    np.clip(u, 0, cfg.width - 1, out=u)
    np.clip(v, 0, cfg.height - 1, out=v)

    # per-pixel foreground: the smallest range, then the lowest index among
    # the points at exactly that range
    flat = v * cfg.width + u
    best = np.full(cfg.height * cfg.width, np.inf)
    np.minimum.at(best, flat, rng)
    nearest = np.flatnonzero(rng == best[flat])
    first = np.full(cfg.height * cfg.width, n, dtype=np.int64)
    np.minimum.at(first, flat[nearest], nearest)

    # the two buffers are the image: a pixel is valid where a point reached it
    valid = first < n
    is_foreground = np.zeros(n, dtype=bool)
    is_foreground[first[valid]] = True

    return RangeImage(
        range_channel=np.where(valid, best, 0.0).reshape(cfg.height, cfg.width),
        valid_mask=valid.reshape(cfg.height, cfg.width),
        fg_point_index=np.where(valid, first, -1).reshape(cfg.height, cfg.width),
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
    return pixel_labels[img.point_v, img.point_u]


def row_blocks(n: int, size: int | None = None):
    """Slices that cover ``range(n)`` in consecutive blocks of ``size`` rows,
    ROW_BLOCK by default."""
    size = size or ROW_BLOCK
    for start in range(0, n, size):
        yield slice(start, start + size)


def window_neighbors(
    img: RangeImage, window: int, k: int, indices=slice(None)
) -> tuple[np.ndarray, np.ndarray]:
    """The k window candidates nearest in |delta range|, nearest first.

    Candidates are the valid pixels inside the ``window`` x ``window`` block
    centered on each query point's pixel (no horizontal wrap-around); ties on
    delta resolve by row-major window order. Returns ``pixel`` (M, k'), the
    flat ``v * W + u`` index of each candidate or -1 where it is invalid, and
    ``delta`` (M, k'), |candidate range - query range| or +inf where invalid,
    with k' = min(k, window**2), for the points ``indices`` (all by default).
    """
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

    # in padded coordinates a point's window has its top-left corner at (v, u);
    # its candidates sit at these flat offsets from that corner
    flat_range, flat_pixel = padded_range.ravel(), padded_pixel.ravel()
    dv, du = np.meshgrid(np.arange(window), np.arange(window), indexing="ij")
    offsets = (dv * padded_w + du).ravel()

    area = window * window
    k = min(k, area)
    keep = min(k + 1, area)
    # Each candidate is ranked by one int64 key: the bit pattern of its
    # |delta| with the low b = bit_length(area - 1) mantissa bits replaced by
    # its row-major window position. Clearing the sign bit takes the abs, and
    # a non-negative float64's bits sort as its value does.
    bits = (area - 1).bit_length()
    position = (1 << bits) - 1
    truncate = 0x7FFF_FFFF_FFFF_FFFF & ~position
    inf = np.float64(np.inf).view(np.int64) >> bits
    pixel = np.empty((len(pv), k), dtype=np.int64)
    delta = np.empty((len(pv), k))
    # a block ranks as many candidates as ROW_BLOCK rows of a 5 x 5 window,
    # so memory does not grow with the window
    for rows in row_blocks(len(pv), max(1, ROW_BLOCK * 25 // area)):
        corner = pv[rows].astype(np.int64) * padded_w + pu[rows]
        query = pr[rows, None]
        keys = flat_range[corner[:, None] + offsets]
        keys -= query
        keys = keys.view(np.int64)
        keys &= truncate
        keys |= np.arange(area)
        keys.sort(axis=1)

        # The sort orders by truncated |delta|, then by window position.
        # Where a row's first k' + 1 truncations strictly increase, its first
        # k' candidates are the k' smallest deltas in increasing order: the
        # ranks are exact. Equal truncations at +inf are invalid candidates
        # (all pixel -1, delta +inf), whose order does not show, and no finite
        # delta truncates to +inf. Rows with any other equal pair (an exact
        # tie, or deltas within 2^b ulps) are re-ranked with a stable argsort.
        head = keys[:, :keep]
        order = head & position
        trunc = head >> bits
        tied = trunc[:, 1:] == trunc[:, :-1]
        tied &= trunc[:, 1:] != inf
        unsure = np.flatnonzero(tied.any(axis=1))
        gap = np.abs(flat_range[corner[unsure, None] + offsets] - query[unsure])
        order[unsure] = np.argsort(gap, axis=1, kind="stable")[:, :keep]

        cells = corner[:, None] + offsets[order[:, :k]]
        pixel[rows] = flat_pixel[cells]
        delta[rows] = np.abs(flat_range[cells] - query)
    return pixel, delta

