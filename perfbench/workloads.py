"""Workload definitions for the rangerefine benchmark.

Pure data: every setting a workload uses is derived here from the workload
seed and a scale, as plain dicts that ``PipelineConfig.from_dict`` accepts.
Importing this module loads nothing from the program and no numpy, so the
orchestrating process stays free of BLAS thread pools.

Three workloads, each one process with one thread and scans handled one at a
time (a closed loop with a single caller: the program is an offline batch
tool, not a server):

* ``scan-knn``: ``run_refine`` without the refiner on full-size scans
  (64x2048 projection, ~144k points each). Projection, oracle coarse source
  and the KNN vote at real Semantic-KITTI scale; the pool and the refiner do
  no work, so a refiner change must leave it unchanged.
* ``refine-desk``: ``run_refine`` with a model trained during set-up, on
  held-out desk-scale scans (64x512, ~57k points, boundary budget 2048, so a
  pool of ~2.05k entries per scan). The paper's inference path; attention
  dominates its time and memory.
* ``train-desk``: ``run_train`` at the same desk scale with ``n_u = 512``:
  a pool per scan, then a fixed number of epochs of forward, backward and
  Adam over smaller contexts than ``refine-desk``.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("scan-knn", "refine-desk", "train-desk")
SCALES = ("full", "smoke")

# Offset of the held-out scene seed from the training scene seed, as in the
# acceptance suite's end-to-end run, so refine-desk never refines its own
# training scans.
HELD_OUT_OFFSET = 7919


@dataclass(frozen=True)
class Sizes:
    scans: int            # scans in the corpus the timed call reads
    train_scans: int      # refine-desk: scans the set-up model is trained on
    epochs: int           # refine-desk: set-up training; train-desk: timed training
    azimuth_steps: int    # synthetic scanner columns
    width: int            # range-image columns
    boundary_budget: int
    n_u: int


SIZES = {
    ("scan-knn", "full"): Sizes(4, 0, 1, 2600, 2048, 8192, 4096),
    ("refine-desk", "full"): Sizes(3, 2, 2, 1024, 512, 2048, 512),
    ("train-desk", "full"): Sizes(4, 0, 2, 1024, 512, 2048, 512),
    ("scan-knn", "smoke"): Sizes(2, 0, 1, 256, 256, 256, 64),
    ("refine-desk", "smoke"): Sizes(2, 1, 1, 256, 128, 128, 64),
    ("train-desk", "smoke"): Sizes(2, 0, 1, 256, 128, 128, 64),
}

# Quality floors checked on every timed call. They catch broken arithmetic,
# not small drifts: on the full scale, scan-knn scores ~0.99 mIoU and
# refine-desk ~0.8 (its set-up model is deliberately under-trained).
MIOU_FLOOR = {"scan-knn": 0.9, "refine-desk": 0.5}


# Spans a traced call must not record: the layers each workload bypasses.
_SCAN_KNN_SKIPS = (
    "pipeline.build_pool", "uncertainty.select_boundary", "uncertainty.select_background",
    "uncertainty.aggregate_features", "uncertainty.window_neighbors", "pipeline.refine",
    "pipeline.train", "refiner.total_loss", "RefinerModel.forward",
    "RefinerModel.backward", "Adam.step",
)
ABSENT_SPANS = {
    "scan-knn": _SCAN_KNN_SKIPS,
    "refine-desk": ("pipeline.train", "refiner.total_loss", "RefinerModel.backward", "Adam.step"),
    "train-desk": ("pipeline.refine", "pipeline.refine_scan"),
}


def sizes(workload: str, scale: str) -> Sizes:
    if (workload, scale) not in SIZES:
        raise ValueError(f"unknown workload/scale {workload!r}/{scale!r}")
    return SIZES[(workload, scale)]


def entry_point(workload: str) -> str:
    """Name of the ``rangerefine.pipeline`` function a timed call makes."""
    return "run_train" if workload == "train-desk" else "run_refine"


def pipeline_doc(workload: str, seed: int, scale: str) -> dict:
    """PipelineConfig document for the timed call (and, for refine-desk, the
    set-up training run)."""
    s = sizes(workload, scale)
    if workload == "scan-knn":
        # The acceptance suite's criterion-11 scene and oracle blur.
        return {
            "projection": {"width": s.width, "height": 64},
            "selection": {"seed": seed},
            "oracle": {"blur_radius": 1, "flip_rate": 0.05, "seed": seed},
            "scene": {
                "seed": seed, "azimuth_steps": s.azimuth_steps,
                "boxes": 6, "cylinders": 8, "planes": 2,
            },
            "use_refiner": False,
        }
    # The acceptance suite's desk-scale end-to-end configuration.
    return {
        "projection": {"width": s.width, "height": 64},
        "selection": {
            "boundary_budget": s.boundary_budget, "n_u": s.n_u, "c_u": 1.0, "seed": seed,
        },
        "train": {"epochs": s.epochs, "learning_rate": 1e-3, "seed": seed},
        "oracle": {"blur_radius": 2, "flip_rate": 0.05, "temperature": 1.0, "seed": seed},
        "scene": {
            "seed": seed, "azimuth_steps": s.azimuth_steps,
            "boxes": 5, "cylinders": 8, "planes": 2,
        },
    }


def corpus_seed(workload: str, seed: int) -> int:
    """Scene seed of the corpus the timed call reads."""
    return seed + HELD_OUT_OFFSET if workload == "refine-desk" else seed


def planned_ops(workload: str, scale: str) -> int:
    """Operations one timed call attempts: scans for run_refine, optimizer
    steps for run_train (one per scan per epoch)."""
    s = sizes(workload, scale)
    return s.scans * s.epochs if workload == "train-desk" else s.scans


def samples_per_call(workload: str, scale: str) -> int:
    """Pool entries fed to training steps by one train-desk call.

    Every pool holds at least min(boundary_budget, N) boundary entries, and
    the budget exceeds n_u, so each step samples exactly n_u entries. The
    traced run's ``refiner.step_entries`` confirms it.
    """
    s = sizes(workload, scale)
    return planned_ops(workload, scale) * s.n_u if workload == "train-desk" else 0
