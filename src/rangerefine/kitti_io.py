"""Semantic-KITTI style scan/label IO.

On-disk conventions:

* scan file (``.bin``): little-endian float32 records ``(x, y, z, remission)``,
  16 bytes per point, no header;
* label file (``.label``): little-endian uint32 per point, lower 16 bits the
  raw semantic id, upper 16 bits the instance id (written as zero);
* class map: a YAML file with the raw->train mapping and class names (a
  default Semantic-KITTI map ships with the package).

Writes go through a temp file and a rename, so a reader never sees a
partial file. The synthetic scene source lives in ``scanner``.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .errors import DataFormatError, is_integer

POINT_RECORD_BYTES = 16
LABEL_RECORD_BYTES = 4

# libyaml's parser where PyYAML was built with it (about 7x faster on the
# packaged class map); the pure-Python one only where it was not.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


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

    Unknown raw ids map to ``ignore_class``. The inverse map gives each train id
    one raw id that reads back as it (the smallest, unless ``train_to_raw`` is
    given), so write->read round-trips. Class names, ``class_<id>`` where none
    is given, are distinct.
    """

    def __init__(
        self,
        raw_to_train: dict[int, int],
        train_to_name: dict[int, str],
        num_classes: int,
        ignore_class: int,
        train_to_raw: dict[int, int] | None,
    ):
        self.train_to_name = dict(train_to_name)
        self.num_classes = int(num_classes)
        self.ignore_class = int(ignore_class)

        # a map that round-trips has at most one class per 16-bit raw id
        if self.num_classes > 1 << 16:
            raise DataFormatError(f"num_classes {num_classes} exceeds the {1 << 16} raw ids")
        bad = [t for t in raw_to_train.values() if not 0 <= t < num_classes]
        if bad:
            raise DataFormatError(f"train ids out of range 0..{num_classes - 1}: {sorted(set(bad))}")
        if not 0 <= self.ignore_class < num_classes:
            raise DataFormatError(f"ignore_class {ignore_class} out of range")
        bad = [t for t in self.train_to_name if not 0 <= t < num_classes]
        if bad:
            raise DataFormatError(f"names keys out of range 0..{num_classes - 1}: {sorted(bad)}")
        # a report keys each class's IoU by its name
        named = {}
        for train in range(self.num_classes):
            first = named.setdefault(self.name(train), train)
            if first != train:
                raise DataFormatError(f"classes {first} and {train} are both named {self.name(train)!r}")

        # dense lookup tables, built once
        self._lut = np.full(1 << 16, self.ignore_class, dtype=np.int32)
        for raw, train in raw_to_train.items():
            if not 0 <= raw < (1 << 16):
                raise DataFormatError(f"raw id {raw} does not fit 16 bits")
            self._lut[raw] = train
        if train_to_raw is None:
            train_to_raw = {}
            for raw, train in sorted(raw_to_train.items()):
                train_to_raw.setdefault(train, raw)
        missing = [t for t in range(num_classes) if t not in train_to_raw]
        if missing:
            raise DataFormatError(
                f"no raw id for {len(missing)} train ids, the first {missing[:5]}"
            )
        # the label file's word: little-endian whatever the host's byte order
        self._inv_lut = np.zeros(num_classes, dtype="<u4")
        for train, raw in train_to_raw.items():
            if not 0 <= train < num_classes:
                raise DataFormatError(f"train_to_raw key {train} out of range 0..{num_classes - 1}")
            if not (0 <= raw < (1 << 16) and self._lut[raw] == train):
                raise DataFormatError(
                    f"train_to_raw maps {train} to raw id {raw}, which does not read back as {train}"
                )
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
        for key in ("raw_to_train", "names", "train_to_raw"):
            if not isinstance(doc.get(key, {}), dict):
                raise DataFormatError(f"class map {path}: {key} must be a mapping, got {doc[key]!r}")

        def integer(value, what):
            if not is_integer(value):
                raise DataFormatError(f"{what} must be an integer, got {value!r}")
            return value

        def table(key):
            return {integer(k, f"{key} key"): integer(v, f"{key} value") for k, v in doc[key].items()}

        def name(value):
            # a report line is "iou.<name> <value>", written as ASCII
            if not (isinstance(value, str) and value.isascii() and value.split() == [value]):
                raise DataFormatError(
                    f"class names must be non-empty ASCII strings without whitespace, got {value!r}"
                )
            return value

        try:
            return cls(
                raw_to_train=table("raw_to_train"),
                train_to_name={integer(k, "names key"): name(v) for k, v in doc.get("names", {}).items()},
                num_classes=integer(doc["num_classes"], "num_classes"),
                ignore_class=integer(doc.get("ignore_class", 0), "ignore_class"),
                train_to_raw=table("train_to_raw") if "train_to_raw" in doc else None,
            )
        except KeyError as exc:
            raise DataFormatError(f"class map {path} is missing key {exc}") from exc
        except DataFormatError as exc:  # a non-integer id, or a map __init__ rejects
            raise DataFormatError(f"class map {path}: {exc}") from exc

    @classmethod
    def semantic_kitti(cls) -> "ClassMap":
        """The default 20-class Semantic-KITTI mapping shipped with the package."""
        ref = resources.files("rangerefine").joinpath("data/semantic_kitti.yaml")
        with resources.as_file(ref) as path:
            return cls.from_yaml(path)


def _repeated_key(loader, root):
    """A scalar key equal to an earlier key of its mapping once constructed
    (``1``, ``0x1`` and ``true`` are one dict key), or None: PyYAML would keep
    the last value without a word."""
    stack, seen = [root], set()
    while stack:
        node = stack.pop()
        if not isinstance(node, yaml.CollectionNode) or id(node) in seen:  # an alias can recur
            continue
        seen.add(id(node))
        if isinstance(node, yaml.SequenceNode):
            stack += node.value
            continue
        keys = set()
        for key, value in node.value:
            # a merge key ("<<") is not a dict key; every one of them merges
            if isinstance(key, yaml.ScalarNode) and key.tag != "tag:yaml.org,2002:merge":
                constructed = loader.construct_object(key)
                if constructed in keys:
                    return key
                keys.add(constructed)
            stack += [key, value]
    return None


def read_yaml(path, kind: str):
    """Parse a UTF-8 YAML file; bad text or syntax, or a key repeated in one
    mapping, is a DataFormatError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            loader = _YAML_LOADER(fh)
            node = loader.get_single_node()
            key = _repeated_key(loader, node)
            if key is not None:
                line = key.start_mark.line + 1
                raise DataFormatError(f"{kind} {path} repeats key {key.value!r} at line {line}")
            return None if node is None else loader.construct_document(node)
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{kind} {path} is not UTF-8 text: {exc}") from exc
        except yaml.YAMLError as exc:
            raise DataFormatError(f"{kind} {path} is not valid YAML: {exc}") from exc


def atomic_write_bytes(path, payload: bytes) -> None:
    """Write via a temp file in the target directory, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            # mkstemp creates the file 0600; give it the mode open() would
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
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
    return class_map.to_train(words & np.uint32(0xFFFF))


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
    atomic_write_bytes(path, class_map.to_raw(labels).tobytes())
