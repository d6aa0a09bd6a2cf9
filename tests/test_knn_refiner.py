import math
import tracemalloc

import numpy as np
import pytest

from rangerefine.errors import DataFormatError
from rangerefine.scanner import SyntheticSceneSpec, generate_scene
from rangerefine import knn_refiner, projection
from rangerefine.knn_refiner import KnnConfig, knn_refine
from rangerefine.projection import ProjectionConfig, project

from conftest import random_cloud
from test_projection import cloud_from_xyz


def knn_oracle(img, pixel_labels, cfg, k, sigma, range_cutoff):
    """Independent per-point loop: enumerate window, stable-sort, filter, vote."""
    num_classes = int(pixel_labels.max()) + 1
    half = cfg.window // 2
    out = np.empty(img.num_points, dtype=np.int64)
    for p in range(img.num_points):
        pv, pu, pr = int(img.point_v[p]), int(img.point_u[p]), float(img.point_range[p])
        cands = []
        for dv in range(-half, half + 1):
            for du in range(-half, half + 1):
                v, u = pv + dv, pu + du
                if not (0 <= v < img.height and 0 <= u < img.width):
                    continue
                if not img.valid_mask[v, u]:
                    continue
                cands.append((abs(float(img.range_channel[v, u]) - pr), int(pixel_labels[v, u])))
        cands.sort(key=lambda c: c[0])  # stable: ties keep window scan order
        votes = [0.0] * num_classes
        any_vote = False
        for dr, label in cands[:k]:
            if dr > range_cutoff:
                continue
            w = math.exp(-(dr * dr) / (2.0 * sigma * sigma))
            votes[label] += w
            any_vote = True
        if not any_vote:
            out[p] = pixel_labels[pv, pu]
            continue
        best = 0
        for c in range(1, num_classes):
            if votes[c] > votes[best]:
                best = c
        out[p] = best
    return out


def labeled_image(rng, n, num_classes=5, width=48, height=16):
    cloud = random_cloud(rng, n, num_classes=num_classes)
    img = project(cloud, ProjectionConfig(width=width, height=height))
    pixel_labels = np.zeros((height, width), dtype=np.int32)
    vv, uu = np.nonzero(img.valid_mask)
    pixel_labels[vv, uu] = rng.integers(0, num_classes, size=len(vv))
    return img, pixel_labels


def test_isolated_point_keeps_backprojected_label():
    img = project(cloud_from_xyz([[10.0, 0.0, 0.0]]), ProjectionConfig(width=64, height=16))
    labels = np.full((16, 64), 3, dtype=np.int32)
    out = knn_refine(img, labels, KnnConfig(window=5))
    assert out[0] == 3


def test_cutoff_filters_all_neighbors():
    # background at 9 m, window holds only the 5 m foreground: all filtered
    img = project(
        cloud_from_xyz([[5.0, 0.0, 0.0], [9.0, 0.0, 0.0]]),
        ProjectionConfig(width=64, height=16),
    )
    labels = np.zeros((16, 64), dtype=np.int32)
    v, u = img.point_v[0], img.point_u[0]
    labels[v, u] = 2  # "car" pixel; it is also the background point's own pixel label
    assert knn_refiner.RANGE_CUTOFF == 1.0
    out = knn_refine(img, labels, KnnConfig(window=5))
    assert out[1] == 2  # keeps back-projected label, vote was emptied


def test_seven_point_hand_scene_matches_oracle(monkeypatch):
    xyz = [
        [5.0, 0.0, 0.0],
        [5.2, 0.0, 0.0],   # same ray, background
        [5.0, 0.3, 0.0],
        [5.0, -0.3, 0.0],
        [5.0, 0.0, 0.3],
        [5.0, 0.0, -0.3],
        [9.0, 0.0, 0.0],   # far background on the center ray
    ]
    img = project(cloud_from_xyz(xyz), ProjectionConfig(width=256, height=64))
    labels = np.zeros((64, 256), dtype=np.int32)
    vv, uu = np.nonzero(img.valid_mask)
    labels[vv, uu] = [1, 2, 3, 1, 2][: len(vv)]
    monkeypatch.setattr(knn_refiner, "SIGMA", 0.5)
    monkeypatch.setattr(knn_refiner, "RANGE_CUTOFF", 2.0)
    monkeypatch.setattr(knn_refiner, "K", 3)
    cfg = KnnConfig(window=5)
    np.testing.assert_array_equal(
        knn_refine(img, labels, cfg), knn_oracle(img, labels, cfg, 3, 0.5, 2.0)
    )


def test_matches_oracle_on_random_scenes(rng, monkeypatch):
    for trial in range(20):
        img, pixel_labels = labeled_image(rng, int(rng.integers(50, 1200)))
        k, cfg = int(rng.integers(1, 8)), KnnConfig(window=int(rng.choice([1, 3, 5, 7])))
        sigma, cutoff = float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.5, 4.0))
        monkeypatch.setattr(knn_refiner, "K", k)
        monkeypatch.setattr(knn_refiner, "SIGMA", sigma)
        monkeypatch.setattr(knn_refiner, "RANGE_CUTOFF", cutoff)
        np.testing.assert_array_equal(
            knn_refine(img, pixel_labels, cfg), knn_oracle(img, pixel_labels, cfg, k, sigma, cutoff)
        )


@pytest.mark.parametrize("block", [1, 7, 10**6])
def test_block_size_does_not_change_labels(rng, monkeypatch, block):
    img, pixel_labels = labeled_image(rng, 1200)
    cases = [(knn_refiner.K, KnnConfig()), (9, KnnConfig(window=7)), (1, KnnConfig(window=1))]
    default = []
    for k, cfg in cases:
        monkeypatch.setattr(knn_refiner, "K", k)
        default.append(knn_refine(img, pixel_labels, cfg))
    monkeypatch.setattr(projection, "ROW_BLOCK", block)
    for (k, cfg), labels in zip(cases, default):
        monkeypatch.setattr(knn_refiner, "K", k)
        got = knn_refine(img, pixel_labels, cfg)
        assert got.dtype == labels.dtype and got.tobytes() == labels.tobytes()
        oracle = knn_oracle(img, pixel_labels, cfg, k, knn_refiner.SIGMA, knn_refiner.RANGE_CUTOFF)
        np.testing.assert_array_equal(got, oracle)


def test_full_size_scan_memory_bounded():
    # 144k points on 64 x 2048. The (N, 5) candidate pixels and deltas are
    # 11.5 MB, and one row block's temporaries a few MB. A vote over all rows
    # at once peaks at 67.4e6, and one that keeps the whole (N, 25) argsort
    # alive at 74.3e6
    spec = SyntheticSceneSpec(seed=31, azimuth_steps=2600, boxes=6, cylinders=8, planes=2)
    cloud = generate_scene(spec)
    img = project(cloud, ProjectionConfig(width=2048, height=64))
    pixel_labels = np.zeros((64, 2048), dtype=np.int32)
    vv, uu = np.nonzero(img.valid_mask)
    pixel_labels[vv, uu] = cloud.labels[img.fg_point_index[vv, uu]]
    tracemalloc.start()
    try:
        knn_refine(img, pixel_labels, KnnConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6, f"knn_refine peak {peak / 1e6:.0f} MB"


def test_locality(rng):
    # editing pixels outside the window never changes a point's label
    img, pixel_labels = labeled_image(rng, 800)
    cfg = KnnConfig(window=5)
    before = knn_refine(img, pixel_labels, cfg)
    p = 17
    pv, pu = int(img.point_v[p]), int(img.point_u[p])
    edited = pixel_labels.copy()
    far = (np.abs(np.arange(img.height)[:, None] - pv) > 2) | (
        np.abs(np.arange(img.width)[None, :] - pu) > 2
    )
    edited[far] = (edited[far] + 1) % 5
    after = knn_refine(img, edited, cfg)
    assert after[p] == before[p]


def test_label_domain_closure(rng):
    img, pixel_labels = labeled_image(rng, 600)
    out = knn_refine(img, pixel_labels, KnnConfig())
    assert set(np.unique(out)) <= set(np.unique(pixel_labels))


def test_foreground_stability(rng):
    # uniform pixel labels: every foreground point keeps its label
    cloud = random_cloud(rng, 700)
    img = project(cloud, ProjectionConfig(width=48, height=16))
    labels = np.full((16, 48), 4, dtype=np.int32)
    out = knn_refine(img, labels, KnnConfig())
    np.testing.assert_array_equal(out[img.is_foreground], 4)


def test_config_validation():
    with pytest.raises(DataFormatError):
        KnnConfig(window=4)
