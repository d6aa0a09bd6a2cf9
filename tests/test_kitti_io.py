import math
import os
import stat
import struct
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangerefine import scanner
from rangerefine._rand import generator
from rangerefine.errors import DataFormatError
from rangerefine.kitti_io import (
    ClassMap,
    PointCloud,
    read_labels,
    read_point_cloud,
    write_labels,
    write_point_cloud,
)
from rangerefine.scanner import (
    FOV_DOWN_DEG,
    FOV_UP_DEG,
    GROUND_EXTENT,
    NOISE_SIGMA,
    RINGS,
    SENSOR_HEIGHT,
    SHAPE_CLASS,
    SceneObject,
    SyntheticSceneSpec,
    generate_scene,
    place_objects,
)


def small_map():
    return ClassMap(
        labels={0: "unlabeled", 10: "a", 11: "b", 20: "c", 252: "moving-a"},
        learning_map={0: 0, 10: 1, 11: 2, 20: 3, 252: 1},
        learning_map_inv={0: 0, 1: 10, 2: 11, 3: 20},
        learning_ignore={0: True, 1: False, 2: False, 3: False},
    )


# --- point cloud files ---


def test_read_point_cloud_decodes_records(tmp_path):
    payload = struct.pack("<8f", 1, 0, 0, 0.5, 0, 2, 0, 0.1)
    path = tmp_path / "scan.bin"
    path.write_bytes(payload)
    cloud = read_point_cloud(path)
    assert len(cloud) == 2
    np.testing.assert_array_equal(
        cloud.points, np.array([[1, 0, 0, 0.5], [0, 2, 0, 0.1]], dtype=np.float32)
    )


def test_read_point_cloud_empty_file(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    assert len(read_point_cloud(path)) == 0


def test_read_point_cloud_truncated(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\x00" * 17)
    with pytest.raises(DataFormatError, match="multiple of 16"):
        read_point_cloud(path)


def test_read_point_cloud_rejects_nan(tmp_path):
    # the one check of finite coordinates: projection takes them as read
    for bad in (math.nan, math.inf, -math.inf):
        path = tmp_path / "bad.bin"
        path.write_bytes(struct.pack("<8f", 1, 0, 0, 0.5, bad, 2, 0, 0.1))
        with pytest.raises(DataFormatError, match="non-finite values in .* at point 1"):
            read_point_cloud(path)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            *(st.floats(-100.0, 100.0, width=32) for _ in range(3)),
            st.floats(0.0, 1.0, width=32),
        ),
        max_size=64,
    )
)
def test_point_cloud_roundtrip_bit_exact(tmp_path_factory, records):
    pts = np.array(records, dtype=np.float32).reshape(-1, 4)
    path = tmp_path_factory.mktemp("rt") / "scan.bin"
    write_point_cloud(PointCloud(pts), path)
    back = read_point_cloud(path)
    assert back.points.tobytes() == pts.tobytes()


# --- label files ---


def test_read_labels_mapping_rules(tmp_path):
    cmap = small_map()
    words = [
        0x00000000,              # unlabeled
        0x0000000A,              # raw 10 -> train 1
        (7 << 16) | 0x0000000A,  # instance id in the upper bits is dropped
        0x00000063,              # unmapped raw 99 -> ignore
    ]
    path = tmp_path / "scan.label"
    path.write_bytes(struct.pack("<4I", *words))
    np.testing.assert_array_equal(read_labels(path, cmap), [0, 1, 1, 0])


def test_read_labels_truncated(tmp_path):
    path = tmp_path / "bad.label"
    path.write_bytes(b"\x00" * 5)
    with pytest.raises(DataFormatError, match="multiple of 4"):
        read_labels(path, small_map())


def test_write_labels_empty(tmp_path):
    path = tmp_path / "empty.label"
    write_labels(np.array([], dtype=np.int32), small_map(), path)
    assert path.read_bytes() == b""


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_written_files_get_the_umask_mode(tmp_path, umask):
    # the mode a plain open() gives a new file under the same umask
    previous = os.umask(umask)
    try:
        (tmp_path / "plain").write_bytes(b"")
        cloud = PointCloud(np.zeros((2, 4), dtype=np.float32))
        write_point_cloud(cloud, tmp_path / "new.bin")
        write_labels(np.array([1, 2]), small_map(), tmp_path / "new.label")
        # an existing file's mode is replaced along with its bytes
        (tmp_path / "old.label").write_bytes(b"x")
        (tmp_path / "old.label").chmod(0o600)
        write_labels(np.array([3]), small_map(), tmp_path / "old.label")
    finally:
        os.umask(previous)
    expected = 0o666 & ~umask
    assert stat.S_IMODE((tmp_path / "plain").stat().st_mode) == expected
    for name in ("new.bin", "new.label", "old.label"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == expected, name


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=200))
def test_label_roundtrip_identity(tmp_path_factory, labels):
    cmap = small_map()
    path = tmp_path_factory.mktemp("rt") / "x.label"
    arr = np.array(labels, dtype=np.int32)
    write_labels(arr, cmap, path)
    np.testing.assert_array_equal(read_labels(path, cmap), arr)


# the packaged map, pinned: the 20 train classes, their raw ids, and where
# each of the 34 listed raw ids goes
SEMANTIC_KITTI_NAMES = [
    "unlabeled", "car", "bicycle", "motorcycle", "truck", "other-vehicle", "person",
    "bicyclist", "motorcyclist", "road", "parking", "sidewalk", "other-ground", "building",
    "fence", "vegetation", "trunk", "terrain", "pole", "traffic-sign",
]
SEMANTIC_KITTI_TRAIN_TO_RAW = [0, 10, 11, 15, 18, 20, 30, 31, 32, 40, 44, 48, 49, 50, 51, 70, 71, 72, 80, 81]
SEMANTIC_KITTI_RAW_TO_TRAIN = {
    0: 0, 1: 0, 10: 1, 11: 2, 13: 5, 15: 3, 16: 5, 18: 4, 20: 5, 30: 6, 31: 7, 32: 8,
    40: 9, 44: 10, 48: 11, 49: 12, 50: 13, 51: 14, 52: 0, 60: 9, 70: 15, 71: 16, 72: 17,
    80: 18, 81: 19, 99: 0, 252: 1, 253: 7, 254: 6, 255: 8, 256: 5, 257: 5, 258: 4, 259: 5,
}


def test_default_semantic_kitti_map():
    cmap = ClassMap.semantic_kitti()
    assert (cmap.num_classes, cmap.ignore_class) == (20, 0)
    assert cmap.names == SEMANTIC_KITTI_NAMES
    np.testing.assert_array_equal(cmap.to_raw(np.arange(20)), SEMANTIC_KITTI_TRAIN_TO_RAW)
    raw = np.array([*SEMANTIC_KITTI_RAW_TO_TRAIN, 100])
    np.testing.assert_array_equal(cmap.to_train(raw), [*SEMANTIC_KITTI_RAW_TO_TRAIN.values(), 0])


def test_dataset_keys_beside_the_tables_are_ignored(tmp_path):
    # the dataset's semantic-kitti.yaml also carries color_map, content and
    # split, and maps of earlier versions a viewer's palette
    ref = resources.files("rangerefine").joinpath("data/semantic_kitti.yaml")
    path = tmp_path / "semantic-kitti.yaml"
    path.write_text(
        ref.read_text()
        + "color_map:\n  0: [0, 0, 0]\n  10: [245, 150, 100]\n"
        + "content:\n  0: 0.018889854628292943\n  10: 0.040818519255974316\n"
        + "split:\n  train: [0, 1, 2]\n  valid: [8]\n  test: [11, 12]\n"
        + "palette:\n  0: [128, 128, 128]\n"
    )
    cmap, full = ClassMap.semantic_kitti(), ClassMap.from_yaml(path)
    assert (full.num_classes, full.ignore_class, full.names) == (20, 0, cmap.names)
    raw = np.arange(1 << 16)
    np.testing.assert_array_equal(full.to_train(raw), cmap.to_train(raw))
    np.testing.assert_array_equal(full.to_raw(np.arange(20)), cmap.to_raw(np.arange(20)))


def test_class_map_checks_only_the_names_train_classes_take(tmp_path):
    # raw 99 folds onto unlabeled, so no report line carries its name
    path = tmp_path / "classes.yaml"
    path.write_text(
        "labels: {0: unlabeled, 10: car, 99: other object}\n"
        "learning_map: {0: 0, 10: 1, 99: 0}\n"
        "learning_map_inv: {0: 0, 1: 10}\n"
        "learning_ignore: {0: true, 1: false}\n"
    )
    cmap = ClassMap.from_yaml(path)
    assert (cmap.num_classes, cmap.ignore_class, cmap.names) == (2, 0, ["unlabeled", "car"])
    np.testing.assert_array_equal(cmap.to_train(np.array([0, 10, 99, 7])), [0, 1, 0, 0])


def test_class_map_missing_ids_message_is_bounded():
    # 1,000 train ids keyed 0, 2, ..., 1998: the 500 odd ones below 1,000 are missing
    inverse = {2 * t: t for t in range(1000)}
    with pytest.raises(DataFormatError) as exc:
        ClassMap({}, {}, inverse, {t: t == 0 for t in inverse})
    message = str(exc.value)
    assert "500 missing, the first [1, 3, 5, 7, 9]" in message
    assert len(message) < 200


# --- synthetic scenes ---


def test_scene_ground_only_single_class():
    spec = SyntheticSceneSpec(seed=3, boxes=0, cylinders=0, planes=0, azimuth_steps=256)
    cloud = generate_scene(spec)
    assert len(cloud) > 0
    assert set(np.unique(cloud.labels)) == {SHAPE_CLASS["ground"]}


def test_scene_deterministic():
    spec = SyntheticSceneSpec(seed=11, azimuth_steps=256)
    a = generate_scene(spec)
    b = generate_scene(spec)
    assert a.points.tobytes() == b.points.tobytes()
    assert a.labels.tobytes() == b.labels.tobytes()


def test_scene_point_count_within_ray_budget():
    spec = SyntheticSceneSpec(seed=5, azimuth_steps=512)
    cloud = generate_scene(spec)
    nominal = RINGS * spec.azimuth_steps
    assert 0.5 * nominal <= len(cloud) <= 1.5 * nominal


def test_scene_ground_points_on_plane_within_extent():
    # range noise is truncated at 3 sigma along the ray, so a ground point
    # leaves the plane and the extent by at most that much
    cloud = generate_scene(SyntheticSceneSpec(seed=3, azimuth_steps=256))
    ground = cloud.points[cloud.labels == SHAPE_CLASS["ground"], :3].astype(np.float64)
    assert len(ground) > 1000
    pad = 3 * NOISE_SIGMA + 1e-5  # plus float32 rounding of the coordinates
    assert np.abs(ground[:, 2] + SENSOR_HEIGHT).max() <= pad
    assert np.hypot(ground[:, 0], ground[:, 1]).max() <= GROUND_EXTENT + pad


def test_scene_points_lie_on_evenly_spaced_rings():
    # noise moves a point along its ray, so its elevation is its ring's exactly
    cloud = generate_scene(SyntheticSceneSpec(seed=13, azimuth_steps=256))
    x, y, z = cloud.points[:, :3].astype(np.float64).T
    elevation = np.degrees(np.arctan2(z, np.hypot(x, y)))
    ring = (FOV_UP_DEG - elevation) * (RINGS - 1) / (FOV_UP_DEG - FOV_DOWN_DEG)
    nearest = np.round(ring)
    assert np.abs(ring - nearest).max() < 1e-3
    assert nearest.min() >= 0 and nearest.max() <= RINGS - 1
    assert RINGS // 2 < len(np.unique(nearest)) <= RINGS


def test_box_points_inside_inflated_aabb():
    # derived check: every box-labeled point must lie in the box's AABB
    # inflated by 3 * NOISE_SIGMA (range noise is truncated there)
    spec = SyntheticSceneSpec(seed=7, boxes=1, cylinders=0, planes=0, azimuth_steps=512)
    objects = place_objects(spec)
    assert len(objects) == 1 and objects[0].kind == "box"
    box = objects[0]
    # bounds of the yaw-rotated box: each half-extent projected onto x and y
    hx, hy, hz = np.asarray(box.size) / 2
    c, s = abs(math.cos(box.yaw)), abs(math.sin(box.yaw))
    half = np.array([hx * c + hy * s, hx * s + hy * c, hz])
    lo, hi = np.asarray(box.center) - half, np.asarray(box.center) + half
    cloud = generate_scene(spec)
    box_pts = cloud.points[cloud.labels == SHAPE_CLASS["box"], :3].astype(np.float64)
    assert len(box_pts) > 10
    pad = 3 * NOISE_SIGMA + 1e-9
    assert (box_pts >= lo - pad).all() and (box_pts <= hi + pad).all()


def test_scene_reproducible_serialization(tmp_path):
    spec = SyntheticSceneSpec(seed=9, azimuth_steps=256)
    paths = []
    for name in ("a.bin", "b.bin"):
        cloud = generate_scene(spec)
        path = tmp_path / name
        write_point_cloud(cloud, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def all_rays_scene(spec):
    """Straight-line reference: every object is tested against every ray."""
    dirs = scanner._ray_directions(spec.azimuth_steps)
    n_rays = len(dirs)
    dz = dirs[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_best = np.where(dz < 0, -SENSOR_HEIGHT / dz, np.inf)
    horiz = t_best * np.hypot(dirs[:, 0], dirs[:, 1])
    t_best = np.where(horiz <= GROUND_EXTENT, t_best, np.inf)
    label = np.where(np.isfinite(t_best), SHAPE_CLASS["ground"], -1).astype(np.int32)
    for obj in scanner.place_objects(spec):
        t_obj = scanner._INTERSECT[obj.kind](dirs, obj)
        closer = t_obj < t_best
        t_best = np.where(closer, t_obj, t_best)
        label[closer] = SHAPE_CLASS[obj.kind]
    hit = np.isfinite(t_best)
    rng = generator("scene-noise", spec.seed)
    noise = np.clip(rng.normal(0.0, NOISE_SIGMA, size=n_rays), -3 * NOISE_SIGMA, 3 * NOISE_SIGMA)
    rem_jitter = rng.uniform(-0.05, 0.05, size=n_rays)
    xyz = dirs[hit] * (t_best[hit] + noise[hit])[:, None]
    labels = label[hit]
    remission = np.clip(0.15 + 0.8 * ((labels * 37) % 97) / 97.0 + rem_jitter[hit], 0.0, 1.0)
    points = np.empty((hit.sum(), 4), dtype=np.float32)
    points[:, :3] = xyz.astype(np.float32)
    points[:, 3] = remission.astype(np.float32)
    return points, labels


def assert_matches_all_rays(spec):
    cloud = generate_scene(spec)
    points, labels = all_rays_scene(spec)
    assert cloud.points.tobytes() == points.tobytes(), spec
    assert cloud.labels.tobytes() == labels.tobytes(), spec


def test_wedge_culling_matches_all_rays_cast():
    # culling must drop only rays that miss: the same bytes at every column
    # count, including objects whose wedge wraps across the +-pi seam
    crosses_seam = False
    for seed in range(30):
        for steps in (1, 2, 7, 256, 1024, 2600):
            assert_matches_all_rays(SyntheticSceneSpec(seed=seed, azimuth_steps=steps))
        for obj in place_objects(SyntheticSceneSpec(seed=seed)):
            centre, half = scanner._wedge(obj)
            crosses_seam |= abs(centre) + half > math.pi
    assert crosses_seam
    dense = SyntheticSceneSpec(seed=99, boxes=40, cylinders=40, planes=10, azimuth_steps=1024)
    assert_matches_all_rays(dense)


def test_wedge_culling_with_sensor_inside_bounding_circle(monkeypatch):
    # a wall passing 5 cm from the sensor is hit behind it as well as in
    # front, so its wedge must cover every column
    ground_z = -SENSOR_HEIGHT
    near = [
        SceneObject("plane", (1.0, 0.0, ground_z + 1.5), (10.0, 3.0, 0.0), 0.05),
        SceneObject("box", (2.0, 0.0, ground_z + 1.0), (1.0, 5.0, 2.0), 0.0),
        SceneObject("cylinder", (-0.2, 0.1, ground_z + 2.0), (0.3, 4.0, 0.0), 0.0),
    ]
    monkeypatch.setattr(scanner, "place_objects", lambda spec: near)
    assert all(scanner._wedge(obj)[1] == math.pi for obj in near)
    cloud = generate_scene(SyntheticSceneSpec(seed=1, azimuth_steps=512))
    walls = cloud.points[cloud.labels == SHAPE_CLASS["plane"]]
    assert (walls[:, 0] < 0).any() and (walls[:, 0] > 0).any()
    assert_matches_all_rays(SyntheticSceneSpec(seed=1, azimuth_steps=512))
