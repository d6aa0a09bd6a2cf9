import os

# Pin BLAS to one thread before numpy loads its thread pools.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from rangerefine.kitti_io import PointCloud


def random_cloud(rng, n, num_classes=6, duplicate_rate=0.05):
    """Random cloud with ranges in [2, 30] m and occasional exact duplicates.

    Duplicates land on the same pixel with identical range, exercising the
    foreground tie-break.
    """
    azim = rng.uniform(-np.pi, np.pi, size=n)
    elev = rng.uniform(np.deg2rad(-28.0), np.deg2rad(6.0), size=n)
    r = rng.uniform(2.0, 30.0, size=n)
    pts = np.empty((n, 4), dtype=np.float32)
    pts[:, 0] = np.cos(elev) * np.cos(azim) * r
    pts[:, 1] = np.cos(elev) * np.sin(azim) * r
    pts[:, 2] = np.sin(elev) * r
    pts[:, 3] = rng.uniform(0.0, 1.0, size=n)
    dup = rng.uniform(size=n) < duplicate_rate
    dup[0] = False
    src = rng.integers(0, n, size=n)
    for i in np.flatnonzero(dup):
        pts[i] = pts[src[i] % max(i, 1)]
    labels = rng.integers(0, num_classes, size=n).astype(np.int32)
    return PointCloud(pts, labels=labels)


@pytest.fixture
def rng():
    return np.random.default_rng(20240517)
