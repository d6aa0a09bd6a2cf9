"""End-to-end pipeline: project, coarse labels, KNN refine, pool, refine.

A corpus directory holds ``scans/*.bin`` plus optional ``labels/*.label``
and ``coarse/*.probs`` (a backbone's export, raw float32 H*W*C, read in
place of the oracle's). Every run echoes its effective configuration into the
output directory so results are reproducible from the artifacts alone.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import kitti_io
from ._rand import derive_seed
from .coarse import CoarseSegmentation, OracleNoiseSpec, load_coarse, oracle_coarse
from .errors import DataFormatError, check_field_types, located
from .kitti_io import ClassMap, PointCloud, atomic_write_bytes
from .knn_refiner import KnnConfig, knn_refine
from .metrics import ConfusionMatrix
from .projection import ProjectionConfig, RangeImage, back_project_labels, project
from .refiner import (
    ModelDims,
    RefinerModel,
    refine,
    save_checkpoint,
    train,
    TrainConfig,
)
from .scanner import SHAPE_CLASS, SyntheticSceneSpec, generate_scene
from .uncertainty import GEOMETRY_FEATURES, SelectionConfig, UncertainPointSet, build_pool

COARSE_SUFFIX = ".probs"


@dataclass
class PipelineConfig:
    projection: ProjectionConfig = field(default_factory=ProjectionConfig)
    knn: KnnConfig = field(default_factory=KnnConfig)
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    oracle: OracleNoiseSpec = field(default_factory=OracleNoiseSpec)
    scene: SyntheticSceneSpec = field(default_factory=SyntheticSceneSpec)
    class_map: str | None = None    # YAML path; None = packaged Semantic-KITTI map
    use_refiner: bool = True

    def __post_init__(self):
        check_field_types(self)

    def load_class_map(self) -> ClassMap:
        if self.class_map is None:
            return ClassMap.semantic_kitti()
        return ClassMap.from_yaml(self.class_map)

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        if doc is not None and not isinstance(doc, dict):
            raise DataFormatError(f"config must be a mapping of sections, got {doc!r}")
        doc = dict(doc or {})
        kwargs = {}
        for f in dataclasses.fields(cls):
            if f.name not in doc:
                continue
            value = doc.pop(f.name)
            section = f.default_factory  # a config section is a dataclass-valued field
            if dataclasses.is_dataclass(section):
                if not isinstance(value, dict):
                    raise DataFormatError(f"config section {f.name} must be a mapping, got {value!r}")
                # sorted by their text: YAML keys may be integers or null
                unknown = sorted(set(value) - {sf.name for sf in dataclasses.fields(section)}, key=str)
                if unknown:
                    raise DataFormatError(f"unknown keys in config section {f.name}: {unknown}")
                value = section(**value)
            kwargs[f.name] = value
        if doc:
            raise DataFormatError(f"unknown keys in config: {sorted(doc, key=str)}")
        return cls(**kwargs)

    @classmethod
    def from_yaml(cls, path) -> "PipelineConfig":
        return cls.from_dict(kitti_io.read_yaml(path, "config"))

    def save_yaml(self, path) -> None:
        payload = yaml.safe_dump(dataclasses.asdict(self), sort_keys=True, default_flow_style=False)
        atomic_write_bytes(path, payload.encode("utf-8"))


def list_scan_paths(data_dir) -> list[Path]:
    scan_dir = Path(data_dir) / "scans"
    if not scan_dir.is_dir():
        raise DataFormatError(f"no scans directory under {data_dir}")
    paths = sorted(scan_dir.glob("*.bin"))
    if not paths:
        raise DataFormatError(f"no .bin scans in {scan_dir}")
    return paths


def _refuse_nonempty(directory: Path, what: str) -> None:
    if directory.is_dir() and any(directory.iterdir()):
        raise DataFormatError(f"{what} directory {directory} is not empty")


def _label_path(data_dir, scan_path: Path) -> Path | None:
    candidate = Path(data_dir) / "labels" / (scan_path.stem + ".label")
    return candidate if candidate.exists() else None


def read_scan(scan_path, label_path, class_map: ClassMap) -> PointCloud:
    """A scan plus, when ``label_path`` is given, its labels, one per point."""
    cloud = kitti_io.read_point_cloud(scan_path)
    if label_path is not None:
        labels = kitti_io.read_labels(label_path, class_map)
        if len(labels) != len(cloud):
            raise DataFormatError(f"{label_path}: {len(labels)} labels for {len(cloud)} points")
        cloud.labels = labels
    return cloud


def _stage(stage: str, scan_id: str, fn, *args, **kwargs):
    with located(f"stage '{stage}' failed on scan {scan_id}"):
        return fn(*args, **kwargs)


def coarse_for_scan(
    cloud: PointCloud,
    img: RangeImage,
    cfg: PipelineConfig,
    class_map: ClassMap,
    data_dir,
) -> CoarseSegmentation:
    """The backbone stand-in: the corpus's exported probabilities when it has
    a ``coarse/`` directory, the oracle's from the scan's labels otherwise."""
    coarse_dir = Path(data_dir) / "coarse"
    if coarse_dir.is_dir():
        path = coarse_dir / (cloud.scan_id + COARSE_SUFFIX)
        if not path.exists():
            raise DataFormatError(f"missing coarse probabilities {path}")
        return load_coarse(path, img.height, img.width, class_map.num_classes)
    if cloud.labels is None:
        raise DataFormatError(f"no coarse/ under {data_dir} and no labels to synthesize probabilities from")
    return oracle_coarse(img, cloud.labels, cfg.oracle, class_map.num_classes)


def _scan_front(cloud: PointCloud, cfg: PipelineConfig, class_map: ClassMap, data_dir):
    """Shared front half: projection, coarse segmentation and its per-pixel labels."""
    sid = cloud.scan_id
    img = _stage("project", sid, project, cloud, cfg.projection)
    seg = _stage("coarse", sid, coarse_for_scan, cloud, img, cfg, class_map, data_dir)
    pixel_labels = np.argmax(seg.probs, axis=2).astype(np.int32)
    return sid, img, seg, pixel_labels


def refine_scan(
    cloud: PointCloud,
    cfg: PipelineConfig,
    class_map: ClassMap,
    model: RefinerModel | None,
    data_dir,
) -> np.ndarray:
    """Per-point labels of one scan; the refiner stage needs a trained model."""
    sid, img, seg, pixel_labels = _scan_front(cloud, cfg, class_map, data_dir)
    labels = _stage("knn", sid, knn_refine, img, pixel_labels, cfg.knn)
    if cfg.use_refiner and model is not None:
        pool = _stage("pool", sid, build_pool, cloud, img, seg, cfg.selection, labels)
        if len(pool):
            labels[pool.indices] = _stage("refine", sid, refine, model, pool)
    return labels


def build_pool_for_scan(
    cloud: PointCloud, cfg: PipelineConfig, class_map: ClassMap, data_dir
) -> tuple[UncertainPointSet, np.ndarray]:
    """Pool plus per-entry ground truth of a labeled scan, as consumed by training.

    Training reads only the pool's indices and features, so the pool's
    labels are the plain back-projected ones, and the KNN vote is skipped.
    """
    sid, img, seg, pixel_labels = _scan_front(cloud, cfg, class_map, data_dir)
    labels = _stage("back-project", sid, back_project_labels, img, pixel_labels)
    pool = _stage("pool", sid, build_pool, cloud, img, seg, cfg.selection, labels)
    return pool, cloud.labels[pool.indices]


def run_train(data_dir, out_dir, cfg: PipelineConfig) -> tuple[RefinerModel, Path]:
    """Train the refiner on the pool of every labeled scan, save artifacts.

    ``train`` is handed the pools one at a time, as they are built, and
    keeps them in its own spill file, so one pool is in memory at a time.
    """
    data_dir = Path(data_dir)
    out_dir = Path(out_dir)
    class_map = cfg.load_class_map()
    labeled = [(path, label) for path in list_scan_paths(data_dir)
               if (label := _label_path(data_dir, path)) is not None]
    if not labeled:
        raise DataFormatError(f"no labeled scans under {data_dir}")

    def pools():
        for path, label in labeled:
            pool, gt = build_pool_for_scan(read_scan(path, label, class_map), cfg, class_map, data_dir)
            yield path.stem, pool.features, gt
            del pool, gt  # not kept while the next pool is built

    num_classes = class_map.num_classes
    dims = ModelDims(in_dim=GEOMETRY_FEATURES + num_classes, num_classes=num_classes)
    model = RefinerModel(dims, seed=cfg.train.seed)
    log = train(model, pools(), cfg.train, n_u=cfg.selection.n_u, ignore_class=class_map.ignore_class)

    ckpt_path = out_dir / "model.ckpt"
    save_checkpoint(model, ckpt_path)
    lines = [f"{rec.epoch} {rec.loss:.9f} {rec.wce:.9f} {rec.lovasz:.9f}" for rec in log]
    atomic_write_bytes(out_dir / "train_log.txt", ("\n".join(lines) + "\n").encode("ascii"))
    cfg.save_yaml(out_dir / "config.yaml")
    return model, ckpt_path


def run_refine(data_dir, out_dir, cfg: PipelineConfig, model: RefinerModel | None) -> dict:
    """Refine every scan in the corpus; writes labels and, when ground truth
    is present, a metrics report. Returns the report as a dict."""
    data_dir = Path(data_dir)
    out_dir = Path(out_dir)
    pred_dir = out_dir / "predictions"
    _refuse_nonempty(pred_dir, "predictions")
    class_map = cfg.load_class_map()
    want = (class_map.num_classes, GEOMETRY_FEATURES + class_map.num_classes)
    if model is not None and (model.dims.num_classes, model.dims.in_dim) != want:
        raise DataFormatError(
            f"model has {model.dims.num_classes} classes and input width {model.dims.in_dim}; "
            f"the class map needs {want[0]} classes and input width {want[1]}"
        )
    scan_paths = list_scan_paths(data_dir)

    cm = ConfusionMatrix(class_map.num_classes, class_map.ignore_class)
    have_gt = False
    for scan_path in scan_paths:
        cloud = read_scan(scan_path, _label_path(data_dir, scan_path), class_map)
        labels = refine_scan(cloud, cfg, class_map, model, data_dir)
        kitti_io.write_labels(labels, class_map, pred_dir / (scan_path.stem + ".label"))
        if cloud.labels is not None:
            have_gt = True
            cm.accumulate(cloud.labels, labels)

    report = {"num_scans": len(scan_paths)}
    if have_gt:
        summary = summarize(cm, class_map)
        report.update(summary)
        write_report(summary, out_dir)
    cfg.save_yaml(out_dir / "config.yaml")
    return report


def run_eval(pred_dir, gt_dir, class_map: ClassMap, out_dir=None) -> dict:
    """Compare prediction and ground-truth label directories scan by scan."""
    pred_dir, gt_dir = Path(pred_dir), Path(gt_dir)
    pred = {p.stem: p for p in sorted(pred_dir.glob("*.label"))}
    gt = {p.stem: p for p in sorted(gt_dir.glob("*.label"))}
    if not gt:
        raise DataFormatError(f"no .label files in {gt_dir}")
    missing_pred = sorted(set(gt) - set(pred))
    missing_gt = sorted(set(pred) - set(gt))
    if missing_pred or missing_gt:
        raise DataFormatError(
            f"scan sets differ: missing predictions {missing_pred}, missing ground truth {missing_gt}"
        )

    cm = ConfusionMatrix(class_map.num_classes, class_map.ignore_class)
    for stem, gt_path in sorted(gt.items()):
        gt_labels = kitti_io.read_labels(gt_path, class_map)
        pred_labels = kitti_io.read_labels(pred[stem], class_map)
        if len(gt_labels) != len(pred_labels):
            raise DataFormatError(
                f"scan {stem}: {len(pred_labels)} predictions vs {len(gt_labels)} ground-truth points"
            )
        cm.accumulate(gt_labels, pred_labels)

    summary = summarize(cm, class_map)
    if out_dir is not None:
        write_report(summary, out_dir)
    return summary


def summarize(cm: ConfusionMatrix, class_map: ClassMap) -> dict:
    iou = cm.per_class_iou()
    return {
        "miou": cm.miou(),
        "oacc": cm.oacc(),
        "iou": {
            class_map.names[c]: float(iou[c])
            for c in range(cm.num_classes)
            if not np.isnan(iou[c])
        },
    }


def write_report(summary: dict, out_dir) -> None:
    kv = [f"miou {summary['miou']:.9f}", f"oacc {summary['oacc']:.9f}"]
    kv += [f"iou.{name} {value:.9f}" for name, value in summary["iou"].items()]
    atomic_write_bytes(Path(out_dir) / "report.kv", ("\n".join(kv) + "\n").encode("ascii"))


def generate_corpus(out_dir, cfg: PipelineConfig, num_scans: int) -> list[str]:
    """Write ``num_scans`` synthetic scans + labels in corpus layout; any
    ``coarse/`` is refused too, since refine would read it for the new scans,
    and so is a class map without the scanner's train ids."""
    if num_scans < 1:
        raise DataFormatError("num_scans must be >= 1")
    out_dir = Path(out_dir)
    for sub in ("scans", "labels"):
        _refuse_nonempty(out_dir / sub, sub)
    coarse_dir = out_dir / "coarse"
    if coarse_dir.is_dir():
        raise DataFormatError(f"coarse directory {coarse_dir} exists; refine would read it for the new scans")
    class_map = cfg.load_class_map()
    missing = sorted(t for t in SHAPE_CLASS.values() if t >= class_map.num_classes)
    if missing:
        raise DataFormatError(
            f"the class map has {class_map.num_classes} classes; "
            f"the synthetic scanner labels points with train ids {missing}"
        )
    stems = []
    for i in range(num_scans):
        spec = dataclasses.replace(cfg.scene, seed=derive_seed(cfg.scene.seed, "scan", i))
        cloud = generate_scene(spec)
        stem = f"{i:06d}"
        kitti_io.write_point_cloud(cloud, out_dir / "scans" / (stem + ".bin"))
        kitti_io.write_labels(cloud.labels, class_map, out_dir / "labels" / (stem + ".label"))
        stems.append(stem)
    cfg.save_yaml(out_dir / "config.yaml")
    return stems
