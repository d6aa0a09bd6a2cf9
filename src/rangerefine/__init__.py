"""Uncertain-point refinement for range-image LiDAR semantic segmentation.

The pipeline projects a point cloud to a range image, takes per-pixel class
probabilities from a pluggable coarse source, repairs labels with a windowed
KNN vote, localizes uncertain points (low-margin pixels and far background
points) and reclassifies them with a trainable self-attention refiner.
"""

from .coarse import CoarseSegmentation, OracleNoiseSpec, load_coarse, oracle_coarse, top2_margin
from .errors import DataFormatError, NumericError
from .kitti_io import (
    ClassMap,
    PointCloud,
    read_labels,
    read_point_cloud,
    write_labels,
    write_point_cloud,
)
from .knn_refiner import KnnConfig, knn_refine
from .metrics import ConfusionMatrix
from .pipeline import PipelineConfig, export_ply, generate_corpus, run_eval, run_refine, run_train
from .projection import (
    ProjectionConfig,
    RangeImage,
    back_project_labels,
    background_distances,
    project,
)
from .refiner import (
    ModelDims,
    RefinerModel,
    TrainConfig,
    load_checkpoint,
    lovasz_softmax_loss,
    refine,
    save_checkpoint,
    total_loss,
    train,
    wce_loss,
)
from .scanner import SyntheticSceneSpec, generate_scene
from .uncertainty import (
    SelectionConfig,
    UncertainPointSet,
    aggregate_features,
    build_pool,
    select_background,
    select_boundary,
)

__version__ = "0.1.0"
