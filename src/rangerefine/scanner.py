"""Synthetic labeled scenes from one fixed rotating scanner.

The scanner stands in for the Velodyne HDL-64E that recorded Semantic-KITTI:
``RINGS`` lasers evenly spaced over the projection's field of view (from
``FOV_UP_DEG`` to ``FOV_DOWN_DEG``), mounted ``SENSOR_HEIGHT`` above a ground
disc of radius ``GROUND_EXTENT``, with Gaussian range noise of ``NOISE_SIGMA``
truncated at 3 sigma. A scene adds boxes, thin vertical cylinders and wall segments, and
every point is labeled with ``SHAPE_CLASS`` of the shape that produced it.
Only the scene (seed, object counts) and the azimuth resolution are set per
scan. The generator exists so the whole pipeline can be exercised and
trained at desk scale without the real dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rand import generator
from .errors import DataFormatError, check_field_types
from .kitti_io import PointCloud
from .projection import FOV_DOWN_DEG, FOV_UP_DEG

RINGS = 64
SENSOR_HEIGHT = 1.7  # m above the ground plane
GROUND_EXTENT = 40.0  # m, horizontal radius of the ground disc
NOISE_SIGMA = 0.02  # m, range noise before truncation at 3 sigma
SHAPE_CLASS = {"ground": 9, "box": 1, "cylinder": 16, "plane": 13}  # train ids


@dataclass(frozen=True)
class SceneObject:
    """A placed primitive: box (lx,ly,lz), vertical cylinder (r,h) or wall (w,h)."""

    kind: str
    center: tuple[float, float, float]
    size: tuple[float, float, float]
    yaw: float


@dataclass
class SyntheticSceneSpec:
    """Deterministic scene description; identical specs generate identical clouds."""

    seed: int = 0
    boxes: int = 6
    cylinders: int = 8
    planes: int = 2
    azimuth_steps: int = 2048

    def __post_init__(self):
        check_field_types(self)
        if min(self.boxes, self.cylinders, self.planes) < 0:
            raise DataFormatError("object counts must be >= 0")
        if self.azimuth_steps < 1:
            raise DataFormatError("scanner needs at least one azimuth step")


def place_objects(spec: SyntheticSceneSpec) -> list[SceneObject]:
    """Sample deterministic object poses for a scene spec."""
    rng = generator("scene-objects", spec.seed)
    ground_z = -SENSOR_HEIGHT
    objects: list[SceneObject] = []

    def sample_xy(min_radius: float) -> tuple[float, float]:
        radius = rng.uniform(min_radius, 0.85 * GROUND_EXTENT)
        angle = rng.uniform(-math.pi, math.pi)
        return radius * math.cos(angle), radius * math.sin(angle)

    for _ in range(spec.boxes):
        x, y = sample_xy(4.0)
        lx, ly = rng.uniform(1.6, 4.5, size=2)
        lz = rng.uniform(1.2, 2.6)
        yaw = rng.uniform(-math.pi, math.pi)
        objects.append(SceneObject("box", (x, y, ground_z + lz / 2), (lx, ly, lz), yaw))
    for _ in range(spec.cylinders):
        x, y = sample_xy(3.0)
        radius = rng.uniform(0.08, 0.35)
        height = rng.uniform(2.5, 6.0)
        center = (x, y, ground_z + height / 2)
        objects.append(SceneObject("cylinder", center, (radius, height, 0.0), 0.0))
    for _ in range(spec.planes):
        x, y = sample_xy(6.0)
        width = rng.uniform(4.0, 12.0)
        height = rng.uniform(2.0, 4.0)
        yaw = rng.uniform(-math.pi, math.pi)
        objects.append(SceneObject("plane", (x, y, ground_z + height / 2), (width, height, 0.0), yaw))
    return objects


def _column_azimuths(azimuth_steps: int) -> np.ndarray:
    azim = (np.arange(azimuth_steps, dtype=np.float64) + 0.5) / azimuth_steps
    return (1.0 - 2.0 * azim) * math.pi  # matches the projection's column ordering


def _ray_directions(azimuth_steps: int) -> np.ndarray:
    """Unit rays, ring-major: ray ``i`` is ring ``i // azimuth_steps`` and
    column ``i % azimuth_steps``, and every ring shares the column azimuths."""
    elev = np.deg2rad(np.linspace(FOV_UP_DEG, FOV_DOWN_DEG, RINGS, dtype=np.float64))
    azim = _column_azimuths(azimuth_steps)
    ce, se = np.cos(elev), np.sin(elev)
    ca, sa = np.cos(azim), np.sin(azim)
    dirs = np.empty((RINGS * azimuth_steps, 3))
    dirs[:, 0] = np.outer(ce, ca).ravel()
    dirs[:, 1] = np.outer(ce, sa).ravel()
    dirs[:, 2] = np.repeat(se, azimuth_steps)
    return dirs


def _intersect_box(dirs: np.ndarray, obj: SceneObject) -> np.ndarray:
    c, s = math.cos(obj.yaw), math.sin(obj.yaw)
    rot = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    origin = rot @ (-np.asarray(obj.center))
    d = dirs @ rot.T
    half = np.asarray(obj.size) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (-half - origin) / d
        t2 = (half - origin) / d
        t_near = np.nanmax(np.minimum(t1, t2), axis=1)
        t_far = np.nanmin(np.maximum(t1, t2), axis=1)
    t = np.where((t_near <= t_far) & (t_near > 1e-6), t_near, np.inf)
    return t


def _intersect_cylinder(dirs: np.ndarray, obj: SceneObject) -> np.ndarray:
    cx, cy, cz = obj.center
    radius, height = obj.size[0], obj.size[1]
    a = dirs[:, 0] ** 2 + dirs[:, 1] ** 2
    b = -2.0 * (dirs[:, 0] * cx + dirs[:, 1] * cy)
    c0 = cx * cx + cy * cy - radius * radius
    disc = b * b - 4.0 * a * c0
    with np.errstate(invalid="ignore", divide="ignore"):
        sq = np.sqrt(np.maximum(disc, 0.0))
        tc1 = (-b - sq) / (2.0 * a)
        tc2 = (-b + sq) / (2.0 * a)
        z1 = (cz - height / 2) / dirs[:, 2]
        z2 = (cz + height / 2) / dirs[:, 2]
        tz1 = np.minimum(z1, z2)
        tz2 = np.maximum(z1, z2)
    t_near = np.maximum(tc1, tz1)
    t_far = np.minimum(tc2, tz2)
    hit = (disc > 0) & (t_near <= t_far) & (t_near > 1e-6)
    return np.where(hit, t_near, np.inf)


def _intersect_plane(dirs: np.ndarray, obj: SceneObject) -> np.ndarray:
    cx, cy, cz = obj.center
    width, height = obj.size[0], obj.size[1]
    ux, uy = math.cos(obj.yaw), math.sin(obj.yaw)
    nx, ny = -uy, ux
    denom = dirs[:, 0] * nx + dirs[:, 1] * ny
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (cx * nx + cy * ny) / denom
    px = t * dirs[:, 0] - cx
    py = t * dirs[:, 1] - cy
    pz = t * dirs[:, 2]
    hit = (
        (np.abs(denom) > 1e-12)
        & (t > 1e-6)
        & (np.abs(px * ux + py * uy) <= width / 2)
        & (np.abs(pz - cz) <= height / 2)
    )
    return np.where(hit, t, np.inf)


_INTERSECT = {"box": _intersect_box, "cylinder": _intersect_cylinder, "plane": _intersect_plane}

# Metres added to an object's bounding radius before its wedge is taken. It
# dwarfs the rounding of hit coordinates and azimuths at scene scale (about
# 1e-14 m and 1e-15 rad), so culling never drops a ray that would hit.
_CULL_PAD = 1e-6


def _wedge(obj: SceneObject) -> tuple[float, float]:
    """Centre azimuth and half-angle of the rays that can reach the object.

    The object's xy footprint lies in a circle of radius r about its centre.
    A ray from the sensor meets that circle, padded by ``_CULL_PAD``, only
    within ``asin(r / rho)`` of its centre; a sensor inside the circle can
    reach it in every direction (half-angle pi).
    """
    size = obj.size
    radius = {
        "box": math.hypot(size[0], size[1]) / 2.0,  # half-diagonal of (lx, ly)
        "cylinder": size[0],
        "plane": size[0] / 2.0,  # a wall is a segment of width w
    }[obj.kind]
    cx, cy = obj.center[0], obj.center[1]
    rho = math.hypot(cx, cy)
    reach = radius + _CULL_PAD
    half = math.asin(reach / rho) if rho > reach else math.pi
    return math.atan2(cy, cx), half


def generate_scene(spec: SyntheticSceneSpec) -> PointCloud:
    """Ray-cast the scene with the scanner and label points by shape.

    Range noise is truncated at +-3 sigma so labeled points stay inside the
    generating shape's bounds inflated by 3 sigma. The lowest ring hits the
    ground well inside ``GROUND_EXTENT``, so every scene has points.

    Each object is intersected only with the rays in its azimuth wedge
    (``_wedge``): the columns within the half-angle of its centre, measured
    across the +-pi seam, taken on every ring.
    """
    dirs = _ray_directions(spec.azimuth_steps)
    n_rays = len(dirs)
    azim = _column_azimuths(spec.azimuth_steps)
    ring_start = np.arange(RINGS)[:, None] * spec.azimuth_steps

    dz = dirs[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_best = np.where(dz < 0, -SENSOR_HEIGHT / dz, np.inf)
    horiz = t_best * np.hypot(dirs[:, 0], dirs[:, 1])
    t_best = np.where(horiz <= GROUND_EXTENT, t_best, np.inf)
    label = np.where(np.isfinite(t_best), SHAPE_CLASS["ground"], -1).astype(np.int32)

    for obj in place_objects(spec):
        centre, half = _wedge(obj)
        offset = np.abs(np.remainder(azim - centre + math.pi, 2.0 * math.pi) - math.pi)
        cand = (ring_start + np.flatnonzero(offset <= half)).ravel()
        t_obj = _INTERSECT[obj.kind](dirs[cand], obj)
        closer = t_obj < t_best[cand]
        t_best[cand[closer]] = t_obj[closer]
        label[cand[closer]] = SHAPE_CLASS[obj.kind]

    hit = np.isfinite(t_best)
    rng = generator("scene-noise", spec.seed)
    noise = rng.normal(0.0, NOISE_SIGMA, size=n_rays)
    noise = np.clip(noise, -3.0 * NOISE_SIGMA, 3.0 * NOISE_SIGMA)
    rem_jitter = rng.uniform(-0.05, 0.05, size=n_rays)

    t_hit = t_best[hit] + noise[hit]
    xyz = dirs[hit] * t_hit[:, None]
    labels = label[hit]
    remission = np.clip(
        0.15 + 0.8 * ((labels * 37) % 97) / 97.0 + rem_jitter[hit], 0.0, 1.0
    )

    points = np.empty((hit.sum(), 4), dtype=np.float32)
    points[:, :3] = xyz.astype(np.float32)
    points[:, 3] = remission.astype(np.float32)
    return PointCloud(points, labels=labels, scan_id=f"synthetic-{spec.seed}")
