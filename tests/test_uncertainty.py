import numpy as np
import pytest

from rangerefine.coarse import CoarseSegmentation
from rangerefine.errors import DataFormatError
from rangerefine.kitti_io import PointCloud
from rangerefine.projection import ProjectionConfig, background_distances, project
from rangerefine.scanner import SyntheticSceneSpec, generate_scene
from rangerefine import uncertainty
from rangerefine._rand import generator
from rangerefine.uncertainty import (
    REASON_BACKGROUND,
    REASON_BOTH,
    REASON_BOUNDARY,
    SelectionConfig,
    aggregate_features,
    build_pool,
    sample_positions,
    select_background,
    select_boundary,
)

from conftest import random_cloud


def random_seg(rng, img, num_classes=6):
    probs = rng.uniform(0.05, 1.0, size=(img.height, img.width, num_classes))
    probs /= probs.sum(axis=2, keepdims=True)
    return CoarseSegmentation(probs=probs)


def scene_inputs(rng, n=1500, num_classes=6, width=48, height=16):
    cloud = random_cloud(rng, n, num_classes=num_classes)
    img = project(cloud, ProjectionConfig(width=width, height=height))
    return cloud, img, random_seg(rng, img, num_classes)


def aggregate_oracle(cloud, img, seg, indices, k, window):
    """Loop reimplementation: window scan, stable sort by |delta r|, mean top-k."""
    half = window // 2
    num_classes = seg.num_classes
    out = np.empty((len(indices), 5 + num_classes))
    for row, p in enumerate(indices):
        pv, pu, pr = int(img.point_v[p]), int(img.point_u[p]), float(img.point_range[p])
        cands = []
        for dv in range(-half, half + 1):
            for du in range(-half, half + 1):
                v, u = pv + dv, pu + du
                if 0 <= v < img.height and 0 <= u < img.width and img.valid_mask[v, u]:
                    cands.append((abs(float(img.range_channel[v, u]) - pr), v, u))
        cands.sort(key=lambda c: c[0])
        chosen = cands[:k]
        acc = np.zeros(num_classes)
        for _, v, u in chosen:
            acc = acc + seg.probs[v, u]
        mean = acc / len(chosen)
        mean = mean / mean.sum()
        out[row, 0:3] = cloud.points[p, :3].astype(np.float64)
        out[row, 3] = img.point_range[p]
        out[row, 4] = float(cloud.points[p, 3])
        out[row, 5:] = mean
    return out


# --- aggregate_features ---


def test_uniform_seg_gives_identical_class_slices(rng):
    cloud, img, seg = scene_inputs(rng, n=400)
    q = np.full(seg.num_classes, 1.0 / seg.num_classes)
    seg.probs[:] = q
    feats = aggregate_features(cloud, img, seg, np.arange(len(cloud)))
    np.testing.assert_allclose(feats[:, 5:], np.tile(q, (len(cloud), 1)), atol=1e-12)
    # same-ray points differ only in the geometry slice
    bg = np.flatnonzero(~img.is_foreground)
    if len(bg):
        p = bg[0]
        fg = img.fg_point_index[img.point_v[p], img.point_u[p]]
        np.testing.assert_allclose(feats[p, 5:], feats[fg, 5:], atol=1e-12)


def test_two_pixel_mean(rng, monkeypatch):
    # two points on horizontally adjacent pixels, one-hot opposite classes
    pts = np.array(
        [[10.0, 0.0, -2.0, 0.3], [10.0, 0.5, -2.0, 0.7]], dtype=np.float32
    )
    cloud = PointCloud(pts)
    img = project(cloud, ProjectionConfig(width=128, height=16))
    assert img.valid_mask.sum() == 2
    probs = np.zeros((16, 128, 2))
    probs[img.point_v[0], img.point_u[0], 0] = 1.0
    probs[img.point_v[1], img.point_u[1], 1] = 1.0
    seg = CoarseSegmentation(probs=probs)
    monkeypatch.setattr(uncertainty, "AGG_K", 2)
    assert uncertainty.AGG_WINDOW == 5
    feats = aggregate_features(cloud, img, seg, np.arange(len(cloud)))
    np.testing.assert_allclose(feats[:, 5:], 0.5)


def test_aggregation_matches_oracle(rng, monkeypatch):
    for _ in range(10):
        cloud, img, seg = scene_inputs(rng, n=int(rng.integers(100, 1200)))
        k, window = int(rng.integers(1, 8)), int(rng.choice([1, 3, 5]))
        monkeypatch.setattr(uncertainty, "AGG_K", k)
        monkeypatch.setattr(uncertainty, "AGG_WINDOW", window)
        indices = rng.choice(len(cloud), size=min(200, len(cloud)), replace=False)
        got = aggregate_features(cloud, img, seg, indices)
        want = aggregate_oracle(cloud, img, seg, indices, k, window)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_allclose(got[:, 5:].sum(axis=1), 1.0, atol=1e-4)


def test_feature_layout(rng):
    cloud, img, seg = scene_inputs(rng, n=50)
    feats = aggregate_features(cloud, img, seg, np.arange(len(cloud)))
    assert feats.shape == (50, 5 + seg.num_classes)
    np.testing.assert_allclose(feats[:, 0:3], cloud.points[:, :3].astype(np.float64))
    np.testing.assert_allclose(feats[:, 3], img.point_range)
    np.testing.assert_allclose(feats[:, 4], cloud.points[:, 3].astype(np.float64))


def test_feature_assembly_order_independent(rng):
    cloud, img, seg = scene_inputs(rng, n=600, num_classes=4)
    feats = aggregate_features(cloud, img, seg, np.arange(len(cloud)))
    perm = rng.permutation(len(cloud))
    cloud2 = PointCloud(cloud.points[perm], labels=cloud.labels[perm])
    img2 = project(cloud2, ProjectionConfig(width=48, height=16))
    seg2 = CoarseSegmentation(probs=seg.probs)
    feats2 = aggregate_features(cloud2, img2, seg2, np.arange(len(cloud2)))
    np.testing.assert_allclose(feats2, feats[perm], atol=1e-12)


# --- select_boundary ---


def test_boundary_ordering_lowest_margin_first(rng):
    cloud, img, seg = scene_inputs(rng, n=300)
    seg.probs[:] = 0.0
    seg.probs[:, :, 0] = 1.0  # one-hot everywhere: margin 1
    v, u = img.point_v[7], img.point_u[7]
    seg.probs[v, u] = 1.0 / seg.num_classes  # single uniform pixel: margin 0
    same_pixel = np.flatnonzero((img.point_v == v) & (img.point_u == u))
    sel = select_boundary(img, seg, SelectionConfig(boundary_budget=len(same_pixel)))
    np.testing.assert_array_equal(sel, same_pixel)


def test_boundary_budget_zero(rng):
    cloud, img, seg = scene_inputs(rng, n=100)
    assert len(select_boundary(img, seg, SelectionConfig(boundary_budget=0))) == 0


def test_boundary_distinct_margins_seed_independent(rng):
    # 10 single-point pixels with distinct margins, budget 4: the 4 lowest win
    pts = np.zeros((10, 4), dtype=np.float32)
    for i in range(10):
        azim = np.pi * (1.0 - (2 * (10 + i) + 1) / 64)
        pts[i, 0] = 10 * np.cos(azim)
        pts[i, 1] = 10 * np.sin(azim)
        pts[i, 2] = -2.0
    cloud = PointCloud(pts)
    img = project(cloud, ProjectionConfig(width=64, height=16))
    assert img.valid_mask.sum() == 10
    probs = np.zeros((16, 64, 2))
    probs[..., 0] = 1.0
    margins = np.array([0.5, 0.1, 0.9, 0.3, 0.2, 0.8, 0.4, 0.7, 0.6, 0.05])
    for i in range(10):
        v, u = img.point_v[i], img.point_u[i]
        probs[v, u] = [(1 + margins[i]) / 2, (1 - margins[i]) / 2]
    seg = CoarseSegmentation(probs=probs)
    expected = set(np.argsort(margins)[:4].tolist())
    for seed in (0, 1, 99):
        sel = select_boundary(img, seg, SelectionConfig(boundary_budget=4, seed=seed))
        assert set(sel.tolist()) == expected


def test_boundary_stratum_sampled_deterministically(rng):
    cloud, img, seg = scene_inputs(rng, n=500)
    seg.probs[:] = 0.0
    seg.probs[:, :, 0] = 1.0  # all margins tie at 1.0: the budget cut is inside the stratum
    cfg = SelectionConfig(boundary_budget=64, seed=5)
    a = select_boundary(img, seg, cfg)
    b = select_boundary(img, seg, cfg)
    np.testing.assert_array_equal(a, b)
    assert len(a) == 64
    c = select_boundary(img, seg, SelectionConfig(boundary_budget=64, seed=6))
    assert len(c) == 64 and not np.array_equal(a, c)


def test_boundary_budget_caps_at_total(rng):
    # a budget of N or more takes every point, as ascending indices
    cloud, img, seg = scene_inputs(rng, n=120)
    for budget in (120, 10_000):
        sel = select_boundary(img, seg, SelectionConfig(boundary_budget=budget))
        assert sel.dtype == np.int64
        assert sel.tolist() == list(range(120))


def boundary_oracle(img, seg, budget, seed):
    """Python rule: every point below the budget's margin cut, plus a seeded
    draw from the ascending indices of the points at the cut."""
    margins = []
    for v, u in zip(img.point_v.tolist(), img.point_u.tolist()):
        top = sorted(seg.probs[v, u].tolist(), reverse=True)
        margins.append(top[0] - top[1])
    budget = min(budget, len(margins))
    if budget == 0:
        return []
    cut = sorted(margins)[budget - 1]
    below = [i for i, m in enumerate(margins) if m < cut]
    stratum = np.array([i for i, m in enumerate(margins) if m == cut], dtype=np.int64)
    drawn = generator("boundary-stratum", seed).choice(
        stratum, size=budget - len(below), replace=False
    )
    return sorted(below + drawn.tolist())


def test_boundary_matches_selection_oracle(rng):
    # rounded probabilities tie many margins, so the cut usually falls inside a stratum
    for _ in range(6):
        cloud, img, seg = scene_inputs(rng, n=int(rng.integers(200, 600)), width=32, height=8)
        seg.probs[:] = np.round(seg.probs * 4) / 4
        n = len(cloud)
        for budget in (0, 1, 7, n // 2, n - 1, n, n + 5):
            for seed in (0, 3):
                sel = select_boundary(img, seg, SelectionConfig(boundary_budget=budget, seed=seed))
                assert sel.dtype == np.int64
                assert (np.diff(sel) > 0).all()
                assert sel.tolist() == boundary_oracle(img, seg, budget, seed)


# --- select_background ---


def test_background_threshold_rule():
    pts = np.array(
        [
            [5.0, 0.0, 0.0, 0.1],
            [9.0, 0.0, 0.0, 0.1],   # gap 4 m -> selected at c_u = 1
            [5.5, 0.0, 0.0, 0.1],   # gap 0.5 m -> not selected
        ],
        dtype=np.float32,
    )
    img = project(PointCloud(pts), ProjectionConfig(width=64, height=16))
    sel = select_background(img, SelectionConfig(c_u=1.0))
    assert sel.tolist() == [1]


def test_background_empty_when_no_background(rng):
    pts = np.array([[5.0, 0.0, 0.0, 0.1], [0.0, 7.0, 0.0, 0.1]], dtype=np.float32)
    img = project(PointCloud(pts), ProjectionConfig(width=64, height=16))
    assert len(select_background(img, SelectionConfig(c_u=1.0))) == 0


def test_background_monotone_in_cutoff(rng):
    for _ in range(5):
        cloud = random_cloud(rng, 3000)
        img = project(cloud, ProjectionConfig(width=32, height=8))
        sel3 = set(select_background(img, SelectionConfig(c_u=3.0)).tolist())
        sel4 = set(select_background(img, SelectionConfig(c_u=4.0)).tolist())
        assert sel4 <= sel3
        fg = set(np.flatnonzero(img.is_foreground).tolist())
        assert not (sel3 & fg)


# --- build_pool / sampling ---


def test_pool_union_and_reasons(rng):
    cloud, img, seg = scene_inputs(rng, n=2500, width=32, height=8)
    cfg = SelectionConfig(boundary_budget=100, c_u=1.0)
    boundary = set(select_boundary(img, seg, cfg).tolist())
    background = set(select_background(img, cfg).tolist())
    labels = rng.integers(0, seg.num_classes, size=len(cloud)).astype(np.int32)
    pool = build_pool(cloud, img, seg, cfg, labels)
    assert set(pool.indices.tolist()) == boundary | background
    assert len(np.unique(pool.indices)) == len(pool)
    for idx, reason in zip(pool.indices.tolist(), pool.reason.tolist()):
        expect = (REASON_BOUNDARY if idx in boundary else 0) | (
            REASON_BACKGROUND if idx in background else 0
        )
        assert reason == expect
    np.testing.assert_array_equal(pool.coarse_label, labels[pool.indices])
    np.testing.assert_allclose(pool.features[:, 5:].sum(axis=1), 1.0, atol=1e-4)


def test_pool_dedupes_identical_selections(rng):
    cloud, img, seg = scene_inputs(rng, n=800, width=32, height=8)
    # tiny budget, no background: boundary-only pool
    cfg = SelectionConfig(boundary_budget=7, c_u=1e9)
    labels = np.zeros(len(cloud), dtype=np.int32)
    pool = build_pool(cloud, img, seg, cfg, labels)
    assert len(pool) == 7
    assert (pool.reason == REASON_BOUNDARY).all()


def test_sample_training_batch(rng):
    # training draws each batch's pool positions with sample_positions
    cloud, img, seg = scene_inputs(rng, n=1000, width=32, height=8)
    cfg = SelectionConfig(boundary_budget=500, c_u=1.0)
    pool = build_pool(cloud, img, seg, cfg, np.zeros(len(cloud), dtype=np.int32))
    small = sample_positions(len(pool), 4096, seed=1)
    np.testing.assert_array_equal(small, np.arange(len(pool)))  # undersized pool: everything
    batch = sample_positions(len(pool), 64, seed=1)
    assert len(np.unique(batch)) == 64
    assert (np.diff(batch) > 0).all() and 0 <= batch[0] and batch[-1] < len(pool)
    again = sample_positions(len(pool), 64, seed=1)
    np.testing.assert_array_equal(batch, again)
    other = sample_positions(len(pool), 64, seed=2)
    assert not np.array_equal(batch, other)


def test_sample_empty_pool_rejected(rng):
    cloud, img, seg = scene_inputs(rng, n=50, width=32, height=8)
    pool = build_pool(
        cloud, img, seg, SelectionConfig(boundary_budget=0, c_u=1e9),
        np.zeros(50, dtype=np.int32),
    )
    assert len(pool) == 0
    with pytest.raises(DataFormatError, match="empty pool"):
        sample_positions(len(pool), 10, seed=0)
