"""Semantic-KITTI style scan/label IO.

On-disk conventions:

* scan file (``.bin``): little-endian float32 records ``(x, y, z, remission)``,
  16 bytes per point, no header;
* label file (``.label``): little-endian uint32 per point, lower 16 bits the
  raw semantic id, upper 16 bits the instance id (written as zero);
* class map: the dataset API's ``semantic-kitti.yaml``, of which the four
  tables ``labels``, ``learning_map``, ``learning_map_inv`` and
  ``learning_ignore`` are read (the package ships them for the 20 classes).

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

from .errors import DataFormatError, is_integer, located

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

    def __len__(self) -> int:
        return len(self.points)


class ClassMap:
    """Raw 16-bit semantic ids <-> contiguous train ids ``0..C-1``, from the
    four tables of Semantic-KITTI's ``semantic-kitti.yaml``.

    ``learning_map`` maps raw -> train; unknown raw ids map to the ignore
    class, the one class that ``learning_ignore`` marks. ``learning_map_inv``
    maps each train id ``0..C-1`` to a raw id that reads back as it, so
    write->read round-trips. Train class ``c`` is named
    ``labels[learning_map_inv[c]]``, and the names are distinct.
    """

    def __init__(
        self,
        labels: dict[int, str],
        learning_map: dict[int, int],
        learning_map_inv: dict[int, int],
        learning_ignore: dict[int, bool],
    ):
        self.num_classes = num = len(learning_map_inv)
        missing = [t for t in range(num) if t not in learning_map_inv]
        if missing:
            raise DataFormatError(
                f"learning_map_inv keys must be the train ids 0..{num - 1}; "
                f"{len(missing)} missing, the first {missing[:5]}"
            )
        bad = sorted({t for t in learning_map.values() if not 0 <= t < num})
        if bad:
            raise DataFormatError(f"learning_map values are not train ids 0..{num - 1}: {bad}")
        if learning_ignore.keys() != learning_map_inv.keys():
            raise DataFormatError(f"learning_ignore keys must be the train ids 0..{num - 1}")
        ignored = [t for t in range(num) if learning_ignore[t]]
        if len(ignored) != 1:
            raise DataFormatError(f"learning_ignore must mark exactly one train id, not {ignored}")
        self.ignore_class = ignored[0]

        # dense lookup tables, built once
        self._lut = np.full(1 << 16, self.ignore_class, dtype=np.int32)
        for raw, train in learning_map.items():
            if not 0 <= raw < (1 << 16):
                raise DataFormatError(f"raw id {raw} does not fit 16 bits")
            self._lut[raw] = train
        # a report keys each class's IoU by its name
        self.names = []
        for train in range(num):
            raw = learning_map_inv[train]
            if not (0 <= raw < (1 << 16) and self._lut[raw] == train):
                raise DataFormatError(
                    f"learning_map_inv maps {train} to raw id {raw}, which does not read back as {train}"
                )
            if raw not in labels:
                raise DataFormatError(f"labels has no name for raw id {raw}, train id {train}")
            name = labels[raw]
            # a report line is "iou.<name> <value>", written as ASCII
            if not (isinstance(name, str) and name.isascii() and name.split() == [name]):
                raise DataFormatError(
                    f"class names must be non-empty ASCII strings without whitespace, got {name!r}"
                )
            if name in self.names:
                raise DataFormatError(f"classes {self.names.index(name)} and {train} are both named {name!r}")
            self.names.append(name)
        # the label file's word: little-endian whatever the host's byte order
        self._inv_lut = np.array([learning_map_inv[t] for t in range(num)], dtype="<u4")

    def to_train(self, raw_ids: np.ndarray) -> np.ndarray:
        return self._lut[raw_ids]

    def to_raw(self, train_ids: np.ndarray) -> np.ndarray:
        return self._inv_lut[train_ids]

    @classmethod
    def from_yaml(cls, path) -> "ClassMap":
        """Read the four tables of a ``semantic-kitti.yaml``; other keys are ignored."""
        doc = read_yaml(path, "class map")

        def table(key, accepts=is_integer, kind="an integer"):
            if key not in doc:
                raise DataFormatError(f"missing key {key!r}")
            if not isinstance(doc[key], dict):
                raise DataFormatError(f"{key} must be a mapping, got {doc[key]!r}")
            for k, v in doc[key].items():
                if not is_integer(k):
                    raise DataFormatError(f"{key} key must be an integer, got {k!r}")
                if not accepts(v):
                    raise DataFormatError(f"{key} value must be {kind}, got {v!r}")
            return doc[key]

        with located(f"class map {path}"):
            if not isinstance(doc, dict):
                raise DataFormatError(f"must be a mapping, got {doc!r}")
            # keyword arguments are evaluated in order: an old-format map names learning_map
            return cls(
                learning_map=table("learning_map"),
                learning_map_inv=table("learning_map_inv"),
                learning_ignore=table("learning_ignore", lambda v: isinstance(v, bool), "true or false"),
                # a name is checked where a train class takes it
                labels=table("labels", accepts=lambda name: True),
            )

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
    atomic_write_bytes(path, class_map.to_raw(labels).tobytes())
