"""Semantic-KITTI style scan/label IO and a synthetic labeled scene source.

On-disk conventions:

* scan file (``.bin``): little-endian float32 records ``(x, y, z, remission)``,
  16 bytes per point, no header;
* label file (``.label``): little-endian uint32 per point, lower 16 bits the
  raw semantic id, upper 16 bits the instance id (written as zero);
* class map: a YAML file with the raw->train mapping, names and palette
  (a default Semantic-KITTI map ships with the package).

The synthetic generator simulates a rotating scanner (rings x azimuth steps)
over a ground plane plus boxes, thin cylinders and wall segments, and labels
every point by the shape that produced it. It exists so the whole pipeline
can be exercised and trained at desk scale without the real dataset.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from ._rand import generator
from .errors import DataFormatError, check_field_types

POINT_RECORD_BYTES = 16
LABEL_RECORD_BYTES = 4

DEFAULT_CLASS_ASSIGNMENT = {"ground": 9, "box": 1, "cylinder": 16, "plane": 13}


@dataclass
class PointCloud:
    """One scan: (N, 4) float32 points ``x, y, z, remission`` plus optional labels."""

    points: np.ndarray
    labels: np.ndarray | None = None
    scan_id: str = ""

    def __post_init__(self):
        self.points = np.ascontiguousarray(self.points, dtype=np.float32)
        if self.points.ndim != 2 or self.points.shape[1] != 4:
            raise DataFormatError(f"points must be (N, 4), got {self.points.shape}")
        if self.labels is not None:
            self.labels = np.ascontiguousarray(self.labels, dtype=np.int32)
            if self.labels.shape != (len(self.points),):
                raise DataFormatError(
                    f"labels length {self.labels.shape} does not match "
                    f"{len(self.points)} points"
                )

    def __len__(self) -> int:
        return len(self.points)


class ClassMap:
    """Raw 16-bit semantic ids <-> contiguous train ids ``0..C-1``.

    Unknown raw ids map to ``ignore_class``; the inverse map picks one
    canonical raw id per train id so write->read round-trips.
    """

    def __init__(
        self,
        raw_to_train: dict[int, int],
        train_to_name: dict[int, str],
        num_classes: int,
        ignore_class: int = 0,
        train_to_raw: dict[int, int] | None = None,
        palette: dict[int, tuple[int, int, int]] | None = None,
    ):
        self.raw_to_train = dict(raw_to_train)
        self.train_to_name = dict(train_to_name)
        self.num_classes = int(num_classes)
        self.ignore_class = int(ignore_class)
        self.palette = {k: tuple(v) for k, v in (palette or {}).items()}

        bad = [t for t in self.raw_to_train.values() if not 0 <= t < num_classes]
        if bad:
            raise DataFormatError(f"train ids out of range 0..{num_classes - 1}: {sorted(set(bad))}")
        if not 0 <= self.ignore_class < num_classes:
            raise DataFormatError(f"ignore_class {ignore_class} out of range")

        if train_to_raw is None:
            train_to_raw = {}
            for raw, train in sorted(self.raw_to_train.items()):
                train_to_raw.setdefault(train, raw)
        self.train_to_raw = dict(train_to_raw)
        missing = [t for t in range(num_classes) if t not in self.train_to_raw]
        if missing:
            raise DataFormatError(f"no raw id for train ids {missing}")

        # raw ids fit 16 bits; build dense LUTs once
        self._lut = np.full(1 << 16, self.ignore_class, dtype=np.int32)
        for raw, train in self.raw_to_train.items():
            if not 0 <= raw < (1 << 16):
                raise DataFormatError(f"raw id {raw} does not fit 16 bits")
            self._lut[raw] = train
        self._inv_lut = np.zeros(num_classes, dtype=np.uint32)
        for train, raw in self.train_to_raw.items():
            self._inv_lut[train] = raw

    def to_train(self, raw_ids: np.ndarray) -> np.ndarray:
        return self._lut[raw_ids]

    def to_raw(self, train_ids: np.ndarray) -> np.ndarray:
        return self._inv_lut[train_ids]

    def name(self, train_id: int) -> str:
        return self.train_to_name.get(train_id, f"class_{train_id}")

    @classmethod
    def from_yaml(cls, path) -> "ClassMap":
        doc = read_yaml(path, "class map")
        if not isinstance(doc, dict):
            raise DataFormatError(f"class map {path} must be a mapping, got {doc!r}")
        for key in ("raw_to_train", "names", "train_to_raw", "palette"):
            if not isinstance(doc.get(key, {}), dict):
                raise DataFormatError(f"class map {path}: {key} must be a mapping, got {doc[key]!r}")
        try:
            return cls(
                raw_to_train={int(k): int(v) for k, v in doc["raw_to_train"].items()},
                train_to_name={int(k): str(v) for k, v in doc.get("names", {}).items()},
                num_classes=int(doc["num_classes"]),
                ignore_class=int(doc.get("ignore_class", 0)),
                train_to_raw=(
                    {int(k): int(v) for k, v in doc["train_to_raw"].items()}
                    if "train_to_raw" in doc
                    else None
                ),
                palette={int(k): tuple(int(c) for c in v) for k, v in doc.get("palette", {}).items()},
            )
        except KeyError as exc:
            raise DataFormatError(f"class map {path} is missing key {exc}") from exc
        except (TypeError, ValueError) as exc:  # a non-integer id, or a map __init__ rejects
            raise DataFormatError(f"class map {path}: {exc}") from exc

    @classmethod
    def semantic_kitti(cls) -> "ClassMap":
        """The default 20-class Semantic-KITTI mapping shipped with the package."""
        ref = resources.files("rangerefine").joinpath("data/semantic_kitti.yaml")
        with resources.as_file(ref) as path:
            return cls.from_yaml(path)


def read_yaml(path, kind: str):
    """Parse a YAML file; a syntax error is a DataFormatError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise DataFormatError(f"{kind} {path} is not valid YAML: {exc}") from exc


def atomic_write_bytes(path, payload: bytes) -> None:
    """Write via a temp file in the target directory, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_point_cloud(path) -> PointCloud:
    """Decode a scan file; rejects truncated files and non-finite coordinates."""
    path = Path(path)
    data = path.read_bytes()
    if len(data) % POINT_RECORD_BYTES != 0:
        raise DataFormatError(
            f"truncated point file {path}: {len(data)} bytes is not a multiple of {POINT_RECORD_BYTES}"
        )
    points = np.frombuffer(data, dtype="<f4").reshape(-1, 4).copy()
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise DataFormatError(f"non-finite values in {path} at point {bad}")
    return PointCloud(points, scan_id=path.stem)


def write_point_cloud(cloud: PointCloud, path) -> None:
    atomic_write_bytes(path, np.ascontiguousarray(cloud.points, dtype="<f4").tobytes())


def read_labels(path, class_map: ClassMap) -> np.ndarray:
    """Decode a label file to train ids; the upper-16-bit instance id is dropped."""
    path = Path(path)
    data = path.read_bytes()
    if len(data) % LABEL_RECORD_BYTES != 0:
        raise DataFormatError(
            f"truncated label file {path}: {len(data)} bytes is not a multiple of {LABEL_RECORD_BYTES}"
        )
    words = np.frombuffer(data, dtype="<u4")
    raw = (words & np.uint32(0xFFFF)).astype(np.int64)
    return class_map.to_train(raw).astype(np.int32)


def write_labels(labels: np.ndarray, class_map: ClassMap, path) -> None:
    """Inverse-map train ids to raw ids and write 32-bit words (instance id 0)."""
    labels = np.asarray(labels)
    if len(labels) and (labels.min() < 0 or labels.max() >= class_map.num_classes):
        bad = int(
            np.flatnonzero((labels < 0) | (labels >= class_map.num_classes))[0]
        )
        raise DataFormatError(
            f"label {int(labels[bad])} at index {bad} is not a train id < {class_map.num_classes}"
        )
    words = class_map.to_raw(labels.astype(np.int64)).astype("<u4")
    atomic_write_bytes(path, words.tobytes())


# ---------------------------------------------------------------------------
# synthetic scenes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SceneObject:
    """A placed primitive: box (lx,ly,lz), vertical cylinder (r,h) or wall (w,h)."""

    kind: str
    center: tuple[float, float, float]
    size: tuple[float, float, float]
    yaw: float
    train_id: int


@dataclass
class SyntheticSceneSpec:
    """Deterministic scene description; identical specs generate identical clouds."""

    seed: int = 0
    ground_extent: float = 40.0
    boxes: int = 6
    cylinders: int = 8
    planes: int = 2
    noise_sigma: float = 0.02
    class_assignment: dict[str, int] = field(
        default_factory=lambda: dict(DEFAULT_CLASS_ASSIGNMENT)
    )
    rings: int = 64
    azimuth_steps: int = 2048
    fov_up_deg: float = 3.0
    fov_down_deg: float = -25.0
    sensor_height: float = 1.7

    def __post_init__(self):
        check_field_types(self)
        kinds, assignment = sorted(DEFAULT_CLASS_ASSIGNMENT), self.class_assignment
        if not isinstance(assignment, dict) or any(type(assignment.get(k)) is not int for k in kinds):
            raise DataFormatError(
                f"class_assignment must map each of {kinds} to an integer class id, "
                f"got {assignment!r}"
            )
        if min(self.boxes, self.cylinders, self.planes) < 0:
            raise DataFormatError("object counts must be >= 0")
        if self.ground_extent < 0:
            raise DataFormatError("ground_extent must be >= 0")
        if self.ground_extent == 0 and self.boxes + self.cylinders + self.planes == 0:
            raise DataFormatError("empty scene: no ground and no objects")
        if self.noise_sigma < 0:
            raise DataFormatError("noise_sigma must be >= 0")
        if self.rings < 1 or self.azimuth_steps < 1:
            raise DataFormatError("scanner needs at least one ring and azimuth step")


def place_objects(spec: SyntheticSceneSpec) -> list[SceneObject]:
    """Sample deterministic object poses for a scene spec."""
    rng = generator("scene-objects", spec.seed)
    ground_z = -spec.sensor_height
    reach = max(spec.ground_extent, 12.0)
    objects: list[SceneObject] = []

    def sample_xy(min_radius: float) -> tuple[float, float]:
        radius = rng.uniform(min_radius, 0.85 * reach)
        angle = rng.uniform(-math.pi, math.pi)
        return radius * math.cos(angle), radius * math.sin(angle)

    for _ in range(spec.boxes):
        x, y = sample_xy(4.0)
        lx, ly = rng.uniform(1.6, 4.5, size=2)
        lz = rng.uniform(1.2, 2.6)
        objects.append(
            SceneObject(
                "box",
                (x, y, ground_z + lz / 2),
                (lx, ly, lz),
                rng.uniform(-math.pi, math.pi),
                spec.class_assignment["box"],
            )
        )
    for _ in range(spec.cylinders):
        x, y = sample_xy(3.0)
        radius = rng.uniform(0.08, 0.35)
        height = rng.uniform(2.5, 6.0)
        objects.append(
            SceneObject(
                "cylinder",
                (x, y, ground_z + height / 2),
                (radius, height, 0.0),
                0.0,
                spec.class_assignment["cylinder"],
            )
        )
    for _ in range(spec.planes):
        x, y = sample_xy(6.0)
        width = rng.uniform(4.0, 12.0)
        height = rng.uniform(2.0, 4.0)
        objects.append(
            SceneObject(
                "plane",
                (x, y, ground_z + height / 2),
                (width, height, 0.0),
                rng.uniform(-math.pi, math.pi),
                spec.class_assignment["plane"],
            )
        )
    return objects


def _ray_directions(spec: SyntheticSceneSpec) -> np.ndarray:
    elev = np.deg2rad(
        np.linspace(spec.fov_up_deg, spec.fov_down_deg, spec.rings, dtype=np.float64)
    )
    azim = (np.arange(spec.azimuth_steps, dtype=np.float64) + 0.5) / spec.azimuth_steps
    azim = (1.0 - 2.0 * azim) * math.pi  # matches the projection's column ordering
    ce, se = np.cos(elev), np.sin(elev)
    ca, sa = np.cos(azim), np.sin(azim)
    dirs = np.empty((spec.rings * spec.azimuth_steps, 3))
    dirs[:, 0] = np.outer(ce, ca).ravel()
    dirs[:, 1] = np.outer(ce, sa).ravel()
    dirs[:, 2] = np.repeat(se, spec.azimuth_steps)
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


def generate_scene(spec: SyntheticSceneSpec) -> PointCloud:
    """Ray-cast the scene with a rotating scanner and label points by shape.

    Range noise is truncated at +-3 sigma so labeled points stay inside the
    generating shape's bounds inflated by 3 sigma.
    """
    objects = place_objects(spec)
    dirs = _ray_directions(spec)
    n_rays = len(dirs)

    t_best = np.full(n_rays, np.inf)
    label = np.full(n_rays, -1, dtype=np.int32)

    if spec.ground_extent > 0:
        dz = dirs[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            t_ground = np.where(dz < 0, -spec.sensor_height / dz, np.inf)
        horiz = t_ground * np.hypot(dirs[:, 0], dirs[:, 1])
        t_ground = np.where(horiz <= spec.ground_extent, t_ground, np.inf)
        t_best = t_ground
        label[np.isfinite(t_ground)] = spec.class_assignment["ground"]

    for obj in objects:
        t_obj = _INTERSECT[obj.kind](dirs, obj)
        closer = t_obj < t_best
        t_best = np.where(closer, t_obj, t_best)
        label[closer] = obj.train_id

    hit = np.isfinite(t_best)
    if not hit.any():
        raise DataFormatError("scene produced no points; check extent and object counts")

    rng = generator("scene-noise", spec.seed)
    noise = rng.normal(0.0, spec.noise_sigma, size=n_rays)
    noise = np.clip(noise, -3.0 * spec.noise_sigma, 3.0 * spec.noise_sigma)
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
