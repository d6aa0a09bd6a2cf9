import numpy as np
import pytest

from rangerefine.errors import DataFormatError
from rangerefine.metrics import ConfusionMatrix


def iou_oracle(gt, pred, num_classes, ignore_class=None):
    """Set-arithmetic IoU per class: |A & B| / |A | B| over index sets."""
    ious = {}
    keep = np.ones(len(gt), dtype=bool)
    if ignore_class is not None:
        keep = gt != ignore_class
    for c in range(num_classes):
        if ignore_class is not None and c == ignore_class:
            continue
        a = set(np.flatnonzero((gt == c) & keep).tolist())
        b = set(np.flatnonzero((pred == c) & keep).tolist())
        union = a | b
        if union:
            ious[c] = len(a & b) / len(union)
    return ious


def test_accumulate_counts():
    cm = ConfusionMatrix(4, ignore_class=3)
    cm.accumulate(np.array([1, 1]), np.array([1, 2]))
    assert cm.counts[1, 1] == 1 and cm.counts[1, 2] == 1
    assert cm.counts.sum() == 2


def test_ignore_class_excluded():
    cm = ConfusionMatrix(3, ignore_class=0)
    cm.accumulate(np.array([0, 0, 0]), np.array([1, 2, 0]))
    assert cm.counts.sum() == 0


def test_miou_hand_matrix():
    # here and below, an extra ignore class that no point belongs to
    cm = ConfusionMatrix(3, ignore_class=2)
    cm.counts[:2, :2] = [[2, 1], [0, 1]]
    iou = cm.per_class_iou()
    assert iou[0] == pytest.approx(2 / 3, abs=1e-12)
    assert iou[1] == pytest.approx(0.5, abs=1e-12)
    assert cm.miou() == pytest.approx(7 / 12, abs=1e-12)
    assert cm.oacc() == pytest.approx(0.75, abs=1e-12)


def test_perfect_diagonal():
    cm = ConfusionMatrix(5, ignore_class=4)
    cm.counts[:4, :4] = np.diag([5, 3, 2, 9])
    assert cm.miou() == 1.0
    assert cm.oacc() == 1.0


def test_absent_class_excluded_from_mean():
    cm = ConfusionMatrix(4, ignore_class=3)
    cm.counts[:3, :3] = [[4, 0, 0], [0, 2, 0], [0, 0, 0]]  # class 2 never occurs
    assert cm.miou() == 1.0


def test_uniform_two_by_two():
    cm = ConfusionMatrix(3, ignore_class=2)
    cm.counts[:2, :2] = [[1, 1], [1, 1]]
    assert cm.oacc() == 0.5


def test_empty_matrix_errors():
    cm = ConfusionMatrix(3, ignore_class=0)
    with pytest.raises(DataFormatError):
        cm.miou()


def test_permutation_invariance(rng):
    gt = rng.integers(0, 5, 2000)
    pred = rng.integers(0, 5, 2000)
    cm = ConfusionMatrix(6, ignore_class=5).accumulate(gt, pred)
    perm = rng.permutation(5)
    cm_p = ConfusionMatrix(6, ignore_class=5).accumulate(perm[gt], perm[pred])
    assert cm.miou() == pytest.approx(cm_p.miou(), abs=1e-12)
    assert cm.oacc() == pytest.approx(cm_p.oacc(), abs=1e-12)


def test_matches_set_arithmetic_oracle(rng):
    for ignore in (None, 0):
        for _ in range(10):
            n = int(rng.integers(10, 8000))
            gt = rng.integers(0, 6, n)
            pred = rng.integers(0, 6, n)
            # no label is 6, so ignoring it ignores nothing
            cm = ConfusionMatrix(7, ignore_class=6 if ignore is None else ignore)
            cm.accumulate(gt, pred)
            want = iou_oracle(gt, pred, 6, ignore)
            got = cm.per_class_iou()
            for c in range(6):
                if c in want:
                    assert got[c] == pytest.approx(want[c], abs=1e-12)
                else:
                    assert np.isnan(got[c])
            if want:
                assert cm.miou() == pytest.approx(np.mean(list(want.values())), abs=1e-12)


def test_accumulation_order_irrelevant(rng):
    gt = rng.integers(0, 4, 500)
    pred = rng.integers(0, 4, 500)
    a = ConfusionMatrix(4, ignore_class=0).accumulate(gt, pred)
    order = rng.permutation(500)
    b = ConfusionMatrix(4, ignore_class=0).accumulate(gt[order], pred[order])
    np.testing.assert_array_equal(a.counts, b.counts)
