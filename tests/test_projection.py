import math
import tracemalloc

import numpy as np
import pytest

from rangerefine import projection
from rangerefine.errors import DataFormatError
from rangerefine.kitti_io import PointCloud
from rangerefine.projection import (
    FOV_DOWN_DEG,
    FOV_UP_DEG,
    ProjectionConfig,
    RangeImage,
    back_project_labels,
    background_distances,
    project,
    window_neighbors,
)

from conftest import random_cloud


def cloud_from_xyz(xyz, remission=0.5):
    pts = np.zeros((len(xyz), 4), dtype=np.float32)
    pts[:, :3] = xyz
    pts[:, 3] = remission
    return PointCloud(pts)


def project_oracle(cloud, cfg):
    """Straight-line reimplementation: per-point u/v plus per-pixel min scan."""
    fov_up = math.radians(FOV_UP_DEG)
    fov_down = math.radians(FOV_DOWN_DEG)
    span = fov_up - fov_down
    us, vs, rs = [], [], []
    best = {}
    for i in range(len(cloud)):
        x, y, z = (float(c) for c in cloud.points[i, :3].astype(np.float64))
        r = math.sqrt(x * x + y * y + z * z)
        u = math.floor(0.5 * (1.0 - math.atan2(y, x) / math.pi) * cfg.width)
        v = math.floor((1.0 - (math.asin(z / r) - fov_down) / span) * cfg.height)
        u = min(max(u, 0), cfg.width - 1)
        v = min(max(v, 0), cfg.height - 1)
        us.append(u)
        vs.append(v)
        rs.append(r)
        key = (v, u)
        if key not in best or (r, i) < best[key]:
            best[key] = (r, i)
    return us, vs, rs, {k: i for k, (r, i) in best.items()}


def test_u_formula_forward_point():
    img = project(cloud_from_xyz([[1.0, 0.0, 0.0]]), ProjectionConfig(width=512, height=64))
    assert img.point_u[0] == 256  # atan2 = 0 -> u = W/2


def test_v_formula_hand_value():
    # elevation 0 with fov 3..-25 degrees: v = floor(64 * 3 / 28) = 6
    img = project(cloud_from_xyz([[1.0, 0.0, 0.0]]), ProjectionConfig(width=512, height=64))
    assert img.point_v[0] == 6


def test_same_ray_foreground_is_nearest():
    img = project(
        cloud_from_xyz([[5.0, 0.0, 0.0], [9.0, 0.0, 0.0]]),
        ProjectionConfig(width=64, height=16),
    )
    assert img.point_u[0] == img.point_u[1] and img.point_v[0] == img.point_v[1]
    assert img.is_foreground[0] and not img.is_foreground[1]
    v, u = img.point_v[0], img.point_u[0]
    assert img.fg_point_index[v, u] == 0
    assert img.range_channel[v, u] == pytest.approx(5.0)


def test_empty_cloud_rejected():
    with pytest.raises(DataFormatError, match="empty"):
        project(PointCloud(np.zeros((0, 4), dtype=np.float32)), ProjectionConfig())


def test_origin_point_rejected():
    # the first bad point is named
    cloud = cloud_from_xyz([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(DataFormatError, match="point 1 is at the scanner origin"):
        project(cloud, ProjectionConfig())


def tie_heavy_cloud(rng, n):
    """Random cloud snapped to a 0.5 m grid.

    Points collide on the grid, so a pixel holds several point indices at
    exactly one range, and a window holds many equal range gaps.
    """
    cloud = random_cloud(rng, n)
    cloud.points[:, :3] = np.round(cloud.points[:, :3] * 2.0) / 2.0
    return cloud


def ulp_spaced_cloud(rng):
    """One point per column of a 32-wide image, all ranges within 26 ulps,
    plus copies of them at 2x and 3x scale.

    Each point's (x, y) is an integer point on a circle of radius R, so
    x^2 + y^2 = R^2 exactly, and a z of 0 to 5 steps of 2^-11 puts its range
    0 to 26 ulps above R. A copy's gaps to the circle's points, about R or
    2R, then differ by a few ulps of the gap itself.
    """
    radius = 5 * 13 * 17 * 29
    x = np.arange(radius + 1)
    y = np.sqrt(radius**2 - x**2).round().astype(np.int64)
    on = x**2 + y**2 == radius**2
    xy = np.concatenate([np.stack([sx * x[on], sy * y[on]], axis=1)
                         for sx in (1, -1) for sy in (1, -1)])
    column = np.floor(0.5 * (1.0 - np.arctan2(xy[:, 1], xy[:, 0]) / math.pi) * 32)
    xy = xy[np.unique(column, return_index=True)[1]]
    xyz = np.column_stack([xy, rng.integers(0, 6, len(xy)) * 2.0**-11])
    return cloud_from_xyz(np.concatenate([xyz, 2 * xyz, 3 * xyz]))


def test_projection_matches_bruteforce_oracle(rng):
    cfg = ProjectionConfig(width=96, height=24)
    clouds = [random_cloud(rng, int(rng.integers(1, 2000))) for _ in range(25)]
    clouds.append(tie_heavy_cloud(rng, 2000))
    for cloud in clouds:
        img = project(cloud, cfg)
        us, vs, rs, fg = project_oracle(cloud, cfg)
        np.testing.assert_array_equal(img.point_u, us)
        np.testing.assert_array_equal(img.point_v, vs)
        np.testing.assert_allclose(img.point_range, rs, rtol=0, atol=0)
        for (v, u), i in fg.items():
            assert img.fg_point_index[v, u] == i
        assert img.valid_mask.sum() == len(fg)
        assert img.is_foreground.sum() == len(fg)


def test_bookkeeping_invariants(rng):
    cfg = ProjectionConfig(width=128, height=32)
    cloud = random_cloud(rng, 3000)
    img = project(cloud, cfg)
    assert ((img.point_u >= 0) & (img.point_u < cfg.width)).all()
    assert ((img.point_v >= 0) & (img.point_v < cfg.height)).all()
    vv, uu = np.nonzero(img.valid_mask)
    fg = img.fg_point_index[vv, uu]
    np.testing.assert_array_equal(img.point_v[fg], vv)
    np.testing.assert_array_equal(img.point_u[fg], uu)
    np.testing.assert_array_equal(img.range_channel[vv, uu], img.point_range[fg])
    assert (img.range_channel[~img.valid_mask] == 0).all()


def test_projection_deterministic(rng):
    cloud = random_cloud(rng, 1500)
    cfg = ProjectionConfig(width=128, height=32)
    a = project(cloud, cfg)
    b = project(cloud, cfg)
    assert a.range_channel.tobytes() == b.range_channel.tobytes()
    assert a.fg_point_index.tobytes() == b.fg_point_index.tobytes()


def test_background_distance_values():
    img = project(
        cloud_from_xyz([[5.0, 0.0, 0.0], [9.0, 0.0, 0.0], [5.0, 0.0, 0.0]]),
        ProjectionConfig(width=64, height=16),
    )
    dist = background_distances(img)
    assert not img.is_foreground[1] and dist[1] == pytest.approx(4.0)
    # exact duplicate ties with the foreground; tie broken by index
    assert not img.is_foreground[2] and dist[2] == pytest.approx(0.0)


def test_background_distances_nonnegative_and_minimal(rng):
    # no background point may undercut its pixel's stored foreground range
    cloud = random_cloud(rng, 4000)
    img = project(cloud, ProjectionConfig(width=64, height=16))
    dist = background_distances(img)
    bg = ~img.is_foreground
    assert (dist[bg] >= 0).all()
    fg_range = img.range_channel[img.point_v, img.point_u]
    assert (img.point_range[bg] >= fg_range[bg]).all()


def test_back_project_constant_field(rng):
    cloud = random_cloud(rng, 500)
    img = project(cloud, ProjectionConfig(width=64, height=16))
    labels = np.full((16, 64), 7, dtype=np.int32)
    np.testing.assert_array_equal(back_project_labels(img, labels), 7)


def test_back_project_shared_pixel_and_roundtrip(rng):
    cloud = random_cloud(rng, 2000)
    img = project(cloud, ProjectionConfig(width=64, height=16))
    # label every pixel from its foreground point's ground truth
    pixel_labels = np.zeros((16, 64), dtype=np.int32)
    vv, uu = np.nonzero(img.valid_mask)
    pixel_labels[vv, uu] = cloud.labels[img.fg_point_index[vv, uu]]
    back = back_project_labels(img, pixel_labels)
    fg = img.is_foreground
    np.testing.assert_array_equal(back[fg], cloud.labels[fg])  # identity on foreground
    # same-ray points inherit the foreground label (the quantization loss)
    bg = ~fg
    fg_of_pixel = img.fg_point_index[img.point_v[bg], img.point_u[bg]]
    np.testing.assert_array_equal(back[bg], cloud.labels[fg_of_pixel])


# --- window_neighbors ---


def hand_image(ranges, query_v, query_u, query_range):
    """RangeImage with the given per-pixel ranges (0 = empty) and query points."""
    ranges = np.asarray(ranges, dtype=np.float64)
    valid = ranges > 0
    fg = np.where(valid, np.arange(ranges.size).reshape(ranges.shape), -1)
    return RangeImage(
        range_channel=ranges,
        valid_mask=valid,
        fg_point_index=fg,
        point_u=np.asarray(query_u, dtype=np.int32),
        point_v=np.asarray(query_v, dtype=np.int32),
        point_range=np.asarray(query_range, dtype=np.float64),
        is_foreground=np.zeros(len(query_u), dtype=bool),
    )


def test_window_tie_at_kth_place_keeps_row_major_earlier():
    # candidates at (2, 0) and (0, 2) both sit 1 m from the query: (0, 2) comes first
    img = hand_image([[0, 0, 9], [0, 10, 0], [11, 0, 12]], [1], [1], [10.0])
    pixel, delta = window_neighbors(img, 3, 2)
    np.testing.assert_array_equal(pixel, [[4, 2]])
    np.testing.assert_array_equal(delta, [[0.0, 1.0]])
    pixel, delta = window_neighbors(img, 3, 9)
    np.testing.assert_array_equal(pixel, [[4, 2, 6, 8, -1, -1, -1, -1, -1]])
    assert np.isinf(delta[0, 4:]).all()


def test_window_many_ties_rank_in_row_major_order():
    # a full 5 x 5 window whose 24 neighbors all sit 1 m from the center
    ranges = np.where(np.arange(25).reshape(5, 5) % 2 == 0, 9.0, 11.0)
    ranges[2, 2] = 10.0
    img = hand_image(ranges, [2], [2], [10.0])
    pixel, delta = window_neighbors(img, 5, 25)
    np.testing.assert_array_equal(pixel[0], [12] + [p for p in range(25) if p != 12])
    np.testing.assert_array_equal(delta[0], [0.0] + [1.0] * 24)


def test_window_near_ties_rank_by_value():
    # a full 5 x 5 window whose 24 neighbors sit 1.0 + j ulps from the center,
    # j falling in row-major order: the value order is the reverse of the
    # window order, and all 24 deltas agree above their low 5 bits
    neighbors = [p for p in range(25) if p != 12]
    ranges = np.full(25, 0.5)
    ranges[neighbors] = 1.5 + np.arange(23, -1, -1) * 2.0**-52
    img = hand_image(ranges.reshape(5, 5), [2], [2], [0.5])
    for k in (3, 24, 25):
        pixel, delta = window_neighbors(img, 5, k)
        np.testing.assert_array_equal(pixel[0], ([12] + neighbors[::-1])[:k])
        np.testing.assert_array_equal(delta[0], ([0.0] + [1.0 + j * 2.0**-52 for j in range(24)])[:k])


def test_window_wider_than_image_stays_in_bounds():
    height, width = 4, 5
    ranges = np.arange(1, height * width + 1, dtype=np.float64).reshape(height, width)
    ranges[1, 2] = ranges[3, 0] = 0.0  # two empty pixels
    vv, uu = np.divmod(np.arange(height * width), width)
    img = hand_image(ranges, vv, uu, np.full(height * width, 0.5))
    pixel, delta = window_neighbors(img, 7, 49)
    assert pixel.shape == (height * width, 49)
    assert ((pixel >= -1) & (pixel < height * width)).all()
    assert (np.isinf(delta) == (pixel == -1)).all()
    # every valid pixel of the clipped window, once each (all 4 rows are in reach)
    for row in range(height * width):
        found = pixel[row][pixel[row] >= 0]
        in_window = (ranges > 0) & (np.abs(np.arange(width) - uu[row]) <= 3)[None, :]
        np.testing.assert_array_equal(np.sort(found), np.flatnonzero(in_window))
        np.testing.assert_array_equal(delta[row][: len(found)], ranges.ravel()[found] - 0.5)


def test_window_k_above_window_area_returns_all_columns(rng):
    img = project(random_cloud(rng, 300), ProjectionConfig(width=64, height=16))
    pixel, delta = window_neighbors(img, 3, 20)
    assert pixel.shape == delta.shape == (300, 9)
    assert (delta[:, 1:] >= delta[:, :-1]).all()


def test_window_indices_rows_match_all_points_call(rng):
    img = project(random_cloud(rng, 1500), ProjectionConfig(width=48, height=16))
    indices = rng.choice(1500, size=200, replace=False)
    pixel_all, delta_all = window_neighbors(img, 5, 5)
    pixel, delta = window_neighbors(img, 5, 5, indices)
    np.testing.assert_array_equal(pixel, pixel_all[indices])
    np.testing.assert_array_equal(delta, delta_all[indices])


def window_oracle(img, window, indices):
    """Straight-line ranking of every window candidate, per point.

    Candidates are enumerated in row-major window order, then stably sorted
    by |delta range|; an invalid one reads pixel -1 and delta +inf.
    """
    half = window // 2
    rows = range(img.num_points) if indices is None else indices
    pixel = np.empty((len(rows), window * window), dtype=np.int64)
    delta = np.empty((len(rows), window * window))
    for row, i in enumerate(rows):
        candidates = []
        for v in range(img.point_v[i] - half, img.point_v[i] + half + 1):
            for u in range(img.point_u[i] - half, img.point_u[i] + half + 1):
                if 0 <= v < img.height and 0 <= u < img.width and img.valid_mask[v, u]:
                    gap = abs(float(img.range_channel[v, u]) - float(img.point_range[i]))
                    candidates.append((gap, v * img.width + u))
                else:
                    candidates.append((math.inf, -1))
        candidates.sort(key=lambda c: c[0])
        delta[row] = [c[0] for c in candidates]
        pixel[row] = [c[1] for c in candidates]
    return pixel, delta


def test_window_matches_straight_line_oracle_on_ties(rng, monkeypatch):
    # blocks of 7 rows put block boundaries inside every cloud and subset
    monkeypatch.setattr(projection, "ROW_BLOCK", 7)
    cut_ties = 0
    for cloud in (tie_heavy_cloud(rng, 300), tie_heavy_cloud(rng, 800), ulp_spaced_cloud(rng)):
        img = project(cloud, ProjectionConfig(width=32, height=8))
        subset = rng.choice(len(cloud), size=60, replace=False)
        for window in (1, 3, 5, 7):
            for indices in (None, subset):
                pixel_all, delta_all = window_oracle(img, window, indices)
                for k in range(1, window * window + 2):
                    kk = min(k, window * window)
                    pixel, delta = window_neighbors(img, window, k, indices)
                    np.testing.assert_array_equal(pixel, pixel_all[:, :kk])
                    np.testing.assert_array_equal(delta, delta_all[:, :kk])
                    if kk < window * window:
                        at_cut = delta_all[:, kk - 1]
                        cut_ties += int((np.isfinite(at_cut) & (at_cut == delta_all[:, kk])).sum())
    # the sweep must hold finite ties across rank k', where only a stable order is right
    assert cut_ties > 0


@pytest.mark.parametrize("block", [1, 7, 10**6])
def test_window_block_size_does_not_change_output(rng, monkeypatch, block):
    img = project(tie_heavy_cloud(rng, 800), ProjectionConfig(width=32, height=8))
    subset = rng.choice(800, size=90, replace=False)
    calls = [(window, k, indices) for window in (1, 3, 5, 7) for k in (1, 5, 50)
             for indices in (None, subset)]
    default = [window_neighbors(img, *call) for call in calls]
    monkeypatch.setattr(projection, "ROW_BLOCK", block)
    for call, (pixel, delta) in zip(calls, default):
        got_pixel, got_delta = window_neighbors(img, *call)
        assert got_pixel.tobytes() == pixel.tobytes()
        assert got_delta.tobytes() == delta.tobytes()


def test_window_memory_does_not_grow_with_the_window(rng):
    # 20k points on 64 x 512: blocks of ROW_BLOCK rows of a 41 x 41 window
    # would hold 160 MiB of candidates, 32 times the 5 x 5 window's peak
    img = project(random_cloud(rng, 20_000), ProjectionConfig(width=512, height=64))
    peaks = {}
    for window in (5, 41):
        tracemalloc.start()
        try:
            window_neighbors(img, window, 5)
            peaks[window] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[41] < 2 * peaks[5], f"peaks {peaks}"
