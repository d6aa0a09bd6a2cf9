"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete. The end-to-end criteria (9, 10) train the refiner and take a few
minutes; everything else finishes in seconds.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from rangerefine import knn_refiner, uncertainty
from rangerefine.coarse import CoarseSegmentation, OracleNoiseSpec, oracle_coarse
from rangerefine.scanner import SyntheticSceneSpec, generate_scene
from rangerefine.knn_refiner import KnnConfig, knn_refine
from rangerefine.metrics import ConfusionMatrix
from rangerefine.pipeline import PipelineConfig, generate_corpus, refine_scan, run_refine, run_train
from rangerefine.projection import ProjectionConfig, project
from rangerefine.refiner import (
    ModelDims,
    RefinerModel,
    TrainConfig,
    _attention_forward,
    lovasz_softmax_loss,
    softmax_rows,
    total_loss,
)
from rangerefine.uncertainty import (
    SelectionConfig,
    aggregate_features,
    select_background,
    select_boundary,
)

from conftest import random_cloud
from test_knn_refiner import knn_oracle
from test_projection import project_oracle
from test_refiner import NO_CLASS, TINY, attention_oracle, fd_check, float64_model, random_layer
from test_refiner import lovasz_oracle
from test_uncertainty import aggregate_oracle, random_seg


def report(criterion, message):
    print(f"\nACCEPTANCE {criterion} PASS: {message}")


def test_criterion_1_projection_oracle():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    cfg = ProjectionConfig(width=96, height=24)
    for _ in range(200):
        cloud = random_cloud(rng, int(rng.integers(50, 5001)))
        img = project(cloud, cfg)
        us, vs, rs, fg = project_oracle(cloud, cfg)
        np.testing.assert_array_equal(img.point_u, us)
        np.testing.assert_array_equal(img.point_v, vs)
        np.testing.assert_array_equal(img.point_range, rs)
        for (v, u), i in fg.items():
            assert img.fg_point_index[v, u] == i
        assert img.is_foreground.sum() == len(fg) == img.valid_mask.sum()
        vv, uu = np.nonzero(img.valid_mask)
        sel = img.fg_point_index[vv, uu]
        np.testing.assert_array_equal(img.point_v[sel], vv)
        np.testing.assert_array_equal(img.point_u[sel], uu)
        np.testing.assert_array_equal(img.range_channel[vv, uu], img.point_range[sel])
        assert (img.range_channel[~img.valid_mask] == 0).all()
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(1, f"200 clouds vs brute-force foreground scan, {elapsed:.1f}s < 10s")


def test_criterion_2_knn_oracle(monkeypatch):
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    for _ in range(100):
        cloud = random_cloud(rng, int(rng.integers(50, 2000)))
        img = project(cloud, ProjectionConfig(width=64, height=16))
        pixel_labels = np.zeros((16, 64), dtype=np.int32)
        vv, uu = np.nonzero(img.valid_mask)
        pixel_labels[vv, uu] = rng.integers(0, 6, size=len(vv))
        cfg = KnnConfig(k=int(rng.integers(1, 8)), window=int(rng.choice([1, 3, 5, 7])))
        sigma, cutoff = float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.5, 4.0))
        monkeypatch.setattr(knn_refiner, "SIGMA", sigma)
        monkeypatch.setattr(knn_refiner, "RANGE_CUTOFF", cutoff)
        np.testing.assert_array_equal(
            knn_refine(img, pixel_labels, cfg), knn_oracle(img, pixel_labels, cfg, sigma, cutoff)
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(2, f"100 scenes exactly equal to sort-filter-vote oracle, {elapsed:.1f}s < 30s")


def test_criterion_3_aggregation_oracle(monkeypatch):
    rng = np.random.default_rng(303)
    for _ in range(100):
        cloud = random_cloud(rng, int(rng.integers(50, 1000)))
        img = project(cloud, ProjectionConfig(width=64, height=16))
        seg = random_seg(rng, img)
        k, window = int(rng.integers(1, 8)), int(rng.choice([1, 3, 5]))
        monkeypatch.setattr(uncertainty, "AGG_K", k)
        monkeypatch.setattr(uncertainty, "AGG_WINDOW", window)
        got = aggregate_features(cloud, img, seg, np.arange(len(cloud)))
        want = aggregate_oracle(cloud, img, seg, np.arange(len(cloud)), k, window)
        np.testing.assert_array_equal(got, want)
        assert np.abs(got[:, 5:].sum(axis=1) - 1.0).max() <= 1e-4
    report(3, "100 scenes exactly equal to window-averaging oracle; slices sum to 1 +- 1e-4")


def test_criterion_4_selection_semantics():
    rng = np.random.default_rng(404)
    for _ in range(20):
        cloud = random_cloud(rng, int(rng.integers(500, 4000)))
        img = project(cloud, ProjectionConfig(width=48, height=12))
        seg = random_seg(rng, img)
        n = len(cloud)
        for budget in (0, 7, n // 2, n, n + 500):
            sel = select_boundary(img, seg, SelectionConfig(boundary_budget=budget))
            assert len(sel) == min(budget, n)
            assert len(np.unique(sel)) == len(sel)
        sel3 = set(select_background(img, SelectionConfig(c_u=3.0)).tolist())
        sel4 = set(select_background(img, SelectionConfig(c_u=4.0)).tolist())
        assert sel4 <= sel3
        assert not (sel3 & set(np.flatnonzero(img.is_foreground).tolist()))
    report(4, "budget/cutoff cardinality rules and c_u=3 >= c_u=4 monotonicity hold")


def test_criterion_5_attention_correctness():
    rng = np.random.default_rng(505)
    x, wp, bp, wv, bv = random_layer(rng, 1, 8, 8)
    assert np.abs(_attention_forward(x, wp, bp, wv, bv)[0] - (x @ wv + bv)).max() < 1e-12

    x, wp, bp, wv, bv = random_layer(rng, 32, 16, 16)
    q = x @ wp + bp
    scores = q @ q.T
    assert np.abs(scores - scores.T).max() < 1e-9
    attn = softmax_rows(scores / np.sqrt(16))
    assert np.abs(attn.sum(axis=1) - 1.0).max() < 1e-9

    worst = 0.0
    for _ in range(10):
        x, wp, bp, wv, bv = random_layer(rng, 4, 8, 8)
        got = _attention_forward(x, wp, bp, wv, bv)[0]
        want = attention_oracle(x, wp, bp, wv, bv)
        worst = max(worst, np.abs(got - want).max() / np.abs(want).max())
    assert worst < 1e-10
    report(5, f"single-token=V, row sums, score symmetry, oracle rel err {worst:.1e} < 1e-10")


def test_criterion_6_gradient_check():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    model = float64_model(RefinerModel(TINY, seed=3))
    feats = rng.normal(size=(6, 25))
    targets = np.array([0, 1, 2, 3, 1, 2])
    weights = rng.uniform(0.5, 2.0, size=4)
    result = total_loss(model, feats, targets, weights, NO_CLASS)

    def value():
        return total_loss(model, feats, targets, weights, NO_CLASS).total

    worst = 0.0
    checked = 0
    for key, param in model.params.items():
        worst = max(worst, fd_check(value, param, result.grads[key], rel_tol=1e-4))
        checked += param.size
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(6, f"{checked} parameter gradients vs central differences, worst {worst:.1e} < 1e-4, {elapsed:.0f}s < 60s")


def test_criterion_7_lovasz_oracle():
    rng = np.random.default_rng(707)
    probs = np.array([[1.0, 0.0], [0.0, 1.0]])
    loss, _ = lovasz_softmax_loss(probs, np.array([0, 0]), ignore_class=2)
    assert loss == pytest.approx(0.5, abs=1e-15)

    worst = 0.0
    trials = 0
    while trials < 1000:
        n = int(rng.integers(1, 7))
        c = int(rng.integers(2, 5))
        probs = rng.uniform(size=(n, c))
        probs /= probs.sum(axis=1, keepdims=True)
        targets = rng.integers(0, c, size=n)
        loss, _ = lovasz_softmax_loss(probs, targets, ignore_class=c)
        worst = max(worst, abs(loss - lovasz_oracle(probs, targets)))
        trials += 1
    assert worst < 1e-10
    report(7, f"hand example 0.5 exact; 1000 instances vs threshold-integral oracle, worst {worst:.1e} < 1e-10")


def test_criterion_8_metrics():
    # an extra ignore class that no point belongs to
    cm = ConfusionMatrix(3, ignore_class=2)
    cm.counts[:2, :2] = [[2, 1], [0, 1]]
    assert cm.miou() == pytest.approx(7 / 12, abs=1e-12)
    assert cm.oacc() == pytest.approx(0.75, abs=1e-12)
    perfect = ConfusionMatrix(4, ignore_class=3)
    perfect.counts[:3, :3] = np.diag([4, 5, 6])
    assert perfect.miou() == pytest.approx(1.0, abs=1e-12)
    assert perfect.oacc() == pytest.approx(1.0, abs=1e-12)
    report(8, "hand matrix [[2,1],[0,1]] -> mIoU 7/12, oACC 0.75; perfect -> 1.0/1.0")


def e2e_config(seed=11):
    """Desk-scale end-to-end setup: 64x512 projection, blur 2, flip 0.05;
    the remaining knobs are sized for the single-thread time budget."""
    return PipelineConfig(
        projection=ProjectionConfig(width=512, height=64),
        knn=KnnConfig(),
        selection=SelectionConfig(boundary_budget=2048, n_u=512, c_u=1.0, seed=seed),
        train=TrainConfig(epochs=50, learning_rate=1e-3, seed=seed),
        oracle=OracleNoiseSpec(blur_radius=2, flip_rate=0.05, temperature=1.0, seed=seed),
        scene=SyntheticSceneSpec(
            seed=seed, azimuth_steps=1024, boxes=5, cylinders=8, planes=2
        ),
    )


@pytest.fixture(scope="module")
def e2e_run(tmp_path_factory):
    """Shared expensive run: 20 train + 5 held-out scans, 50 epochs, 1 thread."""
    root = tmp_path_factory.mktemp("e2e")
    cfg = e2e_config()
    start = time.perf_counter()
    train_dir = root / "train-corpus"
    generate_corpus(train_dir, cfg, 20)
    held_cfg = dataclasses.replace(
        cfg, scene=dataclasses.replace(cfg.scene, seed=cfg.scene.seed + 7919)
    )
    held_dir = root / "held-corpus"
    generate_corpus(held_dir, held_cfg, 5)

    model, _ = run_train(train_dir, root / "train-out", cfg)

    cmap = cfg.load_class_map()
    cm_full = ConfusionMatrix(cmap.num_classes, cmap.ignore_class)
    cm_knn = ConfusionMatrix(cmap.num_classes, cmap.ignore_class)
    from rangerefine import kitti_io

    for scan_path in sorted((held_dir / "scans").glob("*.bin")):
        cloud = kitti_io.read_point_cloud(scan_path)
        cloud.labels = kitti_io.read_labels(
            held_dir / "labels" / (scan_path.stem + ".label"), cmap
        )
        cm_full.accumulate(cloud.labels, refine_scan(cloud, cfg, cmap, model, held_dir))
        cm_knn.accumulate(cloud.labels, refine_scan(cloud, cfg, cmap, None, held_dir))
    elapsed = time.perf_counter() - start
    return cm_full, cm_knn, elapsed


def test_criterion_9_end_to_end_improvement(e2e_run):
    cm_full, cm_knn, elapsed = e2e_run
    miou_full = cm_full.miou()
    miou_knn = cm_knn.miou()
    delta = miou_full - miou_knn
    assert delta >= 0.01, f"full {miou_full:.4f} vs knn-only {miou_knn:.4f}"
    assert elapsed < 15 * 60
    report(
        9,
        f"held-out mIoU {miou_full:.4f} vs KNN-only {miou_knn:.4f} "
        f"(+{100 * delta:.1f} points >= 1.0), {elapsed:.0f}s < 900s single-threaded",
    )


def test_criterion_10_determinism(tmp_path):
    cfg = e2e_config(seed=5)
    cfg.train = dataclasses.replace(cfg.train, epochs=3, seed=5)
    cfg.scene = dataclasses.replace(cfg.scene, azimuth_steps=512)
    corpus = tmp_path / "corpus"
    generate_corpus(corpus, cfg, 3)
    artifacts = []
    for run in ("a", "b"):
        out = tmp_path / run
        run_train(corpus, out / "train", cfg)
        run_refine(corpus, out / "run", cfg, model=None)
        blobs = [(out / "train" / "model.ckpt").read_bytes()]
        blobs += [p.read_bytes() for p in sorted((out / "run" / "predictions").glob("*.label"))]
        blobs.append((out / "run" / "report.kv").read_bytes())
        blobs.append((out / "train" / "train_log.txt").read_bytes())
        artifacts.append(blobs)
    assert artifacts[0] == artifacts[1]
    report(10, "two identical runs: byte-identical checkpoint, labels, reports, logs")


def test_criterion_11_hot_path_performance():
    spec = SyntheticSceneSpec(seed=31, azimuth_steps=2600, boxes=6, cylinders=8, planes=2)
    cloud = generate_scene(spec)
    assert len(cloud) >= 130_000, f"scene too small: {len(cloud)}"
    proj = ProjectionConfig(width=2048, height=64)
    sel_cfg = SelectionConfig(boundary_budget=8192, c_u=1.0)
    # warm-up outside the timed region (allocator, caches)
    img = project(cloud, proj)
    seg = oracle_coarse(img, cloud.labels, OracleNoiseSpec(blur_radius=1, seed=1), 20)
    pixel_labels = np.argmax(seg.probs, axis=2).astype(np.int32)

    start = time.perf_counter()
    img = project(cloud, proj)
    knn_refine(img, pixel_labels, KnnConfig())
    select_boundary(img, seg, sel_cfg)
    select_background(img, sel_cfg)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(
        11,
        f"projection + KNN + selection for a {len(cloud)}-point scan: "
        f"{elapsed * 1000:.0f}ms < 1s on one core",
    )
