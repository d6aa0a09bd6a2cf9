import tracemalloc

import numpy as np
import pytest

from rangerefine._rand import uniform01
from rangerefine.coarse import (
    CoarseSegmentation,
    OracleNoiseSpec,
    load_coarse,
    oracle_coarse,
    top2_margin,
)
from rangerefine.errors import DataFormatError
from rangerefine.scanner import SyntheticSceneSpec, generate_scene
from rangerefine.projection import ProjectionConfig, project

from test_projection import cloud_from_xyz


def projected_scene(seed=4, steps=384, width=192):
    cloud = generate_scene(
        SyntheticSceneSpec(seed=seed, azimuth_steps=steps, boxes=3, cylinders=3, planes=1)
    )
    img = project(cloud, ProjectionConfig(width=width, height=64))
    return cloud, img


# --- load_coarse ---


def test_load_one_hot(tmp_path):
    probs = np.zeros((2, 3, 4), dtype="<f4")
    probs[..., 1] = 1.0
    path = tmp_path / "x.probs"
    path.write_bytes(probs.tobytes())
    seg = load_coarse(path, 2, 3, 4)
    np.testing.assert_array_equal(seg.probs[..., 1], 1.0)
    np.testing.assert_array_equal(seg.probs[..., 0], 0.0)


def test_load_renormalizes_near_one(tmp_path):
    probs = np.full((1, 1, 4), 0.9995 / 4, dtype="<f4")
    path = tmp_path / "x.probs"
    path.write_bytes(probs.tobytes())
    seg = load_coarse(path, 1, 1, 4)
    assert seg.probs[0, 0].sum() == pytest.approx(1.0, abs=1e-12)


def test_load_rejects_bad_sum(tmp_path):
    probs = np.full((1, 1, 4), 0.125, dtype="<f4")  # sums to 0.5
    path = tmp_path / "x.probs"
    path.write_bytes(probs.tobytes())
    with pytest.raises(DataFormatError, match="sums to"):
        load_coarse(path, 1, 1, 4)


def test_load_rejects_size_mismatch(tmp_path):
    path = tmp_path / "x.probs"
    path.write_bytes(b"\x00" * 12)
    with pytest.raises(DataFormatError, match="expected"):
        load_coarse(path, 1, 1, 4)


def test_load_rejects_nan(tmp_path):
    probs = np.full((1, 1, 2), 0.5, dtype="<f4")
    probs[0, 0, 0] = np.nan
    path = tmp_path / "x.probs"
    path.write_bytes(probs.tobytes())
    with pytest.raises(DataFormatError, match=r"non-finite .* \(0, 0, 0\)$"):
        load_coarse(path, 1, 1, 2)


def test_load_rejects_negative_naming_first_entry(tmp_path):
    probs = np.full((2, 3, 4), 0.25, dtype="<f4")
    probs[1, 2, 3] = -0.25  # row-major: (1, 2, 3) comes after (1, 1, 2)
    probs[1, 1, 2] = -0.5
    path = tmp_path / "x.probs"
    path.write_bytes(probs.tobytes())
    with pytest.raises(DataFormatError, match=r"negative .* \(row, col, class\) \(1, 1, 2\)$"):
        load_coarse(path, 2, 3, 4)


# --- oracle_coarse ---


def test_oracle_identity_noise_is_one_hot():
    cloud, img = projected_scene()
    seg = oracle_coarse(img, cloud.labels, OracleNoiseSpec(0, 0.0, 1.0, seed=1), 20)
    vv, uu = np.nonzero(img.valid_mask)
    fg_labels = cloud.labels[img.fg_point_index[vv, uu]]
    np.testing.assert_array_equal(np.argmax(seg.probs[vv, uu], axis=1), fg_labels)
    np.testing.assert_array_equal(seg.probs[vv, uu].max(axis=1), 1.0)


def test_blur_hand_example():
    # 3x3 grid of points, center labeled a=1, ring labeled b=0, radius-1 blur:
    # neighbors average 9 one-hot vectors -> prob(a) = 1/9 off-center
    xyz = []
    for dv in (-1, 0, 1):
        for du in (-1, 0, 1):
            # exact centers of pixels (4+dv, 8+du) in a 8x16 image, fov 3..-25
            azim = np.pi * (1.0 - (2 * (8 + du) + 1) / 16)
            elev = np.deg2rad(-25.0 + 28.0 * (1.0 - ((4 + dv) + 0.5) / 8))
            xyz.append(
                [
                    10 * np.cos(elev) * np.cos(azim),
                    10 * np.cos(elev) * np.sin(azim),
                    10 * np.sin(elev),
                ]
            )
    cloud = cloud_from_xyz(xyz)
    cloud.labels = np.zeros(9, dtype=np.int32)
    img = project(cloud, ProjectionConfig(width=16, height=8))
    # all nine points on distinct pixels forming a 3x3 block
    assert img.valid_mask.sum() == 9
    center = 4
    cloud.labels[center] = 1
    seg = oracle_coarse(img, cloud.labels, OracleNoiseSpec(1, 0.0, 1.0, seed=0), 4)
    cv, cu = img.point_v[center], img.point_u[center]
    assert seg.probs[cv, cu, 1] == pytest.approx(1 / 9)
    assert np.argmax(seg.probs[cv, cu]) == 0
    for p in range(9):
        if p == center:
            continue
        v, u = img.point_v[p], img.point_u[p]
        assert seg.probs[v, u, 1] > 0 or max(abs(v - cv), abs(u - cu)) > 1


def test_oracle_deterministic():
    cloud, img = projected_scene()
    spec = OracleNoiseSpec(2, 0.1, 0.8, seed=42)
    a = oracle_coarse(img, cloud.labels, spec, 20)
    b = oracle_coarse(img, cloud.labels, spec, 20)
    assert a.probs.tobytes() == b.probs.tobytes()


def test_oracle_normalization_preserved():
    cloud, img = projected_scene()
    for spec in (
        OracleNoiseSpec(0, 0.0, 1.0, 0),
        OracleNoiseSpec(3, 0.0, 1.0, 0),
        OracleNoiseSpec(2, 0.2, 1.0, 5),
        OracleNoiseSpec(2, 0.2, 0.5, 5),
        OracleNoiseSpec(1, 0.5, 2.0, 5),
    ):
        seg = oracle_coarse(img, cloud.labels, spec, 20)
        sums = seg.probs.sum(axis=2)
        np.testing.assert_allclose(sums, 1.0, atol=1e-5)
        # the flip and the temperature touch valid pixels only
        np.testing.assert_array_equal(seg.probs[~img.valid_mask], 1 / 20)


def test_flip_rate_changes_argmax_fraction():
    cloud, img = projected_scene()
    clean = oracle_coarse(img, cloud.labels, OracleNoiseSpec(0, 0.0, 1.0, 1), 20)
    flipped = oracle_coarse(img, cloud.labels, OracleNoiseSpec(0, 0.25, 1.0, 1), 20)
    vv, uu = np.nonzero(img.valid_mask)
    differs = (
        np.argmax(clean.probs[vv, uu], axis=1) != np.argmax(flipped.probs[vv, uu], axis=1)
    ).mean()
    assert 0.15 < differs < 0.35  # ~flip_rate, modulo runner-up ties


def test_blur_errors_confined_to_boundary_band(rng):
    # with flips off and temperature 1, argmax errors stay within blur_radius
    # (chebyshev) of a pixel whose foreground ground truth differs
    cloud, img = projected_scene(seed=8)
    vv, uu = np.nonzero(img.valid_mask)
    gt_pix = np.full((img.height, img.width), -1, dtype=np.int64)
    gt_pix[vv, uu] = cloud.labels[img.fg_point_index[vv, uu]]
    for radius in (1, 2, 3):
        seg = oracle_coarse(img, cloud.labels, OracleNoiseSpec(radius, 0.0, 1.0, 0), 20)
        pred = np.argmax(seg.probs[vv, uu], axis=1)
        wrong = np.flatnonzero(pred != gt_pix[vv, uu])
        for w in wrong:
            v, u = int(vv[w]), int(uu[w])
            v0, v1 = max(0, v - radius), min(img.height, v + radius + 1)
            u0, u1 = max(0, u - radius), min(img.width, u + radius + 1)
            block = gt_pix[v0:v1, u0:u1]
            assert ((block >= 0) & (block != gt_pix[v, u])).any()


def window_count_oracle(img, labels, radius, num_classes):
    """Per valid pixel, in np.nonzero order: the integer class counts over the
    valid pixels of its clipped (2r+1)^2 window, one window at a time."""
    vv, uu = np.nonzero(img.valid_mask)
    gt_pix = np.full((img.height, img.width), -1, dtype=np.int64)
    gt_pix[vv, uu] = labels[img.fg_point_index[vv, uu]]
    counts = np.zeros((len(vv), num_classes), dtype=np.int64)
    for i, (v, u) in enumerate(zip(vv, uu)):
        block = gt_pix[max(0, v - radius) : v + radius + 1, max(0, u - radius) : u + radius + 1]
        counts[i] = np.bincount(block[block >= 0], minlength=num_classes)
    return counts


@pytest.mark.parametrize(
    "radius, steps, width",
    # r = 8 overflows a uint8 count; r = 10**6 is a window wider than the image
    [(0, 384, 192), (1, 384, 192), (2, 384, 192), (3, 384, 192), (8, 256, 128),
     (10**6, 96, 48)],
)
def test_blur_matches_window_average_oracle(radius, steps, width):
    # flips off, temperature 1: each valid pixel holds the correctly rounded
    # count / total, byte for byte, with no renormalisation rounding on top
    cloud, img = projected_scene(steps=steps, width=width)
    valid = img.valid_mask
    # edge pixels are part of the comparison
    assert valid[0].any() and valid[-1].any() and valid[:, 0].any() and valid[:, -1].any()
    counts = window_count_oracle(img, cloud.labels, radius, 20)
    if radius == 8:
        assert counts.sum(axis=1).max() > 255  # a uint8 window count would wrap here
    expected = counts / counts.sum(axis=1, keepdims=True)
    seg = oracle_coarse(img, cloud.labels, OracleNoiseSpec(radius, 0.0, 1.0, 0), 20)
    got = seg.probs[valid]
    assert got.tobytes() == expected.tobytes(), f"{(got != expected).any(axis=1).sum()} pixels differ"
    assert (seg.probs[~valid] == 1 / 20).all()


@pytest.mark.parametrize("flip_rate", [0.25, 0.5])
@pytest.mark.parametrize("radius", [1, 2])
def test_flipped_argmax_matches_integer_oracle(flip_rate, radius):
    # the labels the KNN vote reads: each drawn pixel's top and runner-up
    # counts swapped (ties to the smaller class id), then the argmax
    cloud, img = projected_scene()
    vv, uu = np.nonzero(img.valid_mask)
    counts = window_count_oracle(img, cloud.labels, radius, 20)
    drawn = uniform01(11, "flip", vv, uu) < flip_rate
    expected = np.empty(len(vv), dtype=np.int64)
    for i, row in enumerate(counts):
        row = [int(c) for c in row]
        if drawn[i]:
            top = max(range(20), key=lambda c: (row[c], -c))
            runner = max((c for c in range(20) if c != top), key=lambda c: (row[c], -c))
            row[top], row[runner] = row[runner], row[top]
        expected[i] = max(range(20), key=lambda c: (row[c], -c))
    seg = oracle_coarse(img, cloud.labels, OracleNoiseSpec(radius, flip_rate, 1.0, 11), 20)
    np.testing.assert_array_equal(np.argmax(seg.probs[vv, uu], axis=1), expected)
    assert (expected != np.argmax(counts, axis=1)).mean() > flip_rate / 2


def test_flip_draws_on_valid_pixels_equal_full_grid_draws():
    # the oracle draws flips only at valid pixels; counter-based hashing makes
    # those draws the same entries as a draw over the whole grid
    _, img = projected_scene()
    vv, uu = np.nonzero(img.valid_mask)
    full = uniform01(7, "flip", np.arange(img.height)[:, None], np.arange(img.width)[None, :])
    np.testing.assert_array_equal(uniform01(7, "flip", vv, uu), full[vv, uu])
    pick = np.array([5, 0, len(vv) - 1, 5])  # any order, repeats
    np.testing.assert_array_equal(uniform01(7, "flip", vv[pick], uu[pick]), full[vv, uu][pick])


def test_oracle_full_size_scan_memory_bounded():
    # criterion-11 scene: 64 x 2048, 144k points; the (H, W, 20) float64
    # output alone is 20 MiB. Gathering every valid pixel's rows for the
    # noise peaks at 47.7 MiB; working in place on the output, near 25 MiB
    spec = SyntheticSceneSpec(seed=31, azimuth_steps=2600, boxes=6, cylinders=8, planes=2)
    cloud = generate_scene(spec)
    img = project(cloud, ProjectionConfig(width=2048, height=64))
    tracemalloc.start()
    try:
        oracle_coarse(img, cloud.labels, OracleNoiseSpec(blur_radius=1, seed=1), 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20, f"oracle_coarse peak {peak / 2**20:.0f} MiB"


# --- top2_margin ---


def make_seg(rows):
    return CoarseSegmentation(probs=np.asarray(rows, dtype=np.float64)[None, :, :])


def test_margin_values():
    seg = make_seg([[0.5, 0.3, 0.2], [1.0, 0.0, 0.0], [1 / 3, 1 / 3, 1 / 3]])
    margin = top2_margin(seg)
    assert margin[0, 0] == pytest.approx(0.2)
    assert margin[0, 1] == pytest.approx(1.0)
    assert margin[0, 2] == pytest.approx(0.0)


def test_margin_uniform_20_classes():
    seg = make_seg([[1 / 20] * 20])
    assert top2_margin(seg)[0, 0] == pytest.approx(0.0)


def test_margin_needs_two_classes():
    seg = make_seg([[1.0]])
    with pytest.raises(DataFormatError):
        top2_margin(seg)


def test_margin_range_on_random_scene(rng):
    cloud, img = projected_scene()
    seg = oracle_coarse(img, cloud.labels, OracleNoiseSpec(2, 0.1, 0.9, 7), 20)
    margin = top2_margin(seg)[img.valid_mask]
    assert (margin >= -1e-12).all() and (margin <= 1.0 + 1e-12).all()
