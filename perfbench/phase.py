"""One benchmark process: a workload's set-up, or one timed call.

``run.py`` starts this script in a fresh process for every set-up and every
timed call, with BLAS and OpenMP pinned to one thread through the
environment and ``PYTHONPATH`` pointing at the checkout's ``src``. Results
go to a JSON file, never to stdout, so program output cannot corrupt them.

    python3 perfbench/phase.py setup --workload W --seed N --scale full --dir D --result R
    python3 perfbench/phase.py call --workload W --scale full --dir D --out O --trace 0 --result R
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads
from tracing import Tracer

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

# The host shares its cores with other tenants, and its speed drifts: on the
# 2-vCPU VM the bounds were measured on, identical calls ran up to 40% slower
# for minutes at a time while still reading one busy core. So every process
# also times a fixed kernel made of the program's hot numpy operations, just
# before and just after its work, and run.py rescales the work's wall time to
# a host on which one pass of that kernel takes REFERENCE_S seconds.
REFERENCE_S = 0.045
REFERENCE_PASSES = 4


def reference_times() -> list[float]:
    """Wall times of REFERENCE_PASSES passes of the fixed reference kernel, after
    one untimed pass: a 1024x64 Gram matrix with its row softmax, a stable
    argsort and gather over 40000x25, and a 144k-point gather from a 64x2048
    image. The inputs do not depend on the workload or its seed."""
    import numpy as np

    rng = np.random.default_rng(0)
    q = rng.normal(size=(1024, 64))
    d = rng.normal(size=(40000, 25))
    img = rng.normal(size=(64, 2048))
    v, u = rng.integers(0, 64, 144000), rng.integers(0, 2048, 144000)

    def one_pass():
        s = q @ q.T
        e = np.exp(s - s.max(axis=1, keepdims=True))
        e /= e.sum(axis=1, keepdims=True)
        order = np.argsort(d, axis=1, kind="stable")
        return e[0, 0] + np.take_along_axis(d, order, axis=1)[0, 0] + img[v, u].sum()

    one_pass()
    times = []
    for _ in range(REFERENCE_PASSES):
        start = time.perf_counter()
        one_pass()
        times.append(time.perf_counter() - start)
    return times


def digest_files(paths) -> str:
    """sha256 over (name, bytes) of each file, in the given order."""
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def corpus_files(corpus: Path) -> list[Path]:
    return sorted(corpus.glob("scans/*.bin")) + sorted(corpus.glob("labels/*.label"))


def setup(args) -> dict:
    from rangerefine import pipeline

    w, d = args.workload, Path(args.dir)
    doc = workloads.pipeline_doc(w, args.seed, args.scale)
    s = workloads.sizes(w, args.scale)
    reference = reference_times()
    start, cpu_start = time.perf_counter(), time.process_time()
    cfg = pipeline.PipelineConfig.from_dict(doc)
    corpus_cfg = pipeline.PipelineConfig.from_dict(doc)
    corpus_cfg.scene.seed = workloads.corpus_seed(w, args.seed)
    pipeline.generate_corpus(d / "corpus", corpus_cfg, s.scans)
    artifacts = corpus_files(d / "corpus")
    if w == "refine-desk":
        pipeline.generate_corpus(d / "train-corpus", cfg, s.train_scans)
        pipeline.run_train(d / "train-corpus", d / "model", cfg)
        artifacts.append(d / "model" / "model.ckpt")
    setup_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start
    reference += reference_times()
    cfg.save_yaml(d / "config.yaml")
    points = {p.stem: p.stat().st_size // 16 for p in sorted((d / "corpus").glob("scans/*.bin"))}
    return {
        "setup_s": setup_s,
        "cpu_s": cpu_s,
        "reference_s": statistics.median(reference),
        "digest": digest_files(artifacts),
        "points": points,
    }


def environment() -> dict:
    import numpy as np
    import rangerefine

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = None
    return {
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas,
        "program": str(Path(rangerefine.__file__).parent),
    }


def independent_miou(pred_dir: Path, gt_dir: Path, class_map) -> float:
    """mIoU recomputed from the written label files by set counting."""
    import numpy as np
    from rangerefine.kitti_io import read_labels

    c, ignore = class_map.num_classes, class_map.ignore_class
    counts = np.zeros(c * c, dtype=np.int64)
    for gt_path in sorted(gt_dir.glob("*.label")):
        gt = read_labels(gt_path, class_map).astype(np.int64)
        pred = read_labels(pred_dir / gt_path.name, class_map).astype(np.int64)
        keep = gt != ignore
        counts += np.bincount(gt[keep] * c + pred[keep], minlength=c * c)
    counts = counts.reshape(c, c)
    ious = []
    for k in range(c):
        union = counts[k, :].sum() + counts[:, k].sum() - counts[k, k]
        if k != ignore and union > 0:
            ious.append(counts[k, k] / union)
    return float(sum(ious) / len(ious))


def call(args) -> dict:
    from rangerefine import pipeline
    from rangerefine.errors import DataFormatError, NumericError
    from rangerefine.refiner import load_checkpoint

    w, d, out = args.workload, Path(args.dir), Path(args.out)
    cfg = pipeline.PipelineConfig.from_yaml(d / "config.yaml")
    model = load_checkpoint(d / "model" / "model.ckpt") if w == "refine-desk" else None
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    entry = getattr(pipeline, workloads.entry_point(w))
    call_args = (d / "corpus", out, cfg) + (() if w == "train-desk" else (model,))

    error, returned = None, None
    reference = reference_times()
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        returned = entry(*call_args)
    except (DataFormatError, NumericError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu_start
    # Before the second reference pass, which must not count towards the peak.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
    reference += reference_times()

    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "reference_s": statistics.median(reference),
        "peak_rss_mb": peak_rss_mb,
        "error": error,
        "env": environment(),
    }
    if w == "train-desk":
        log = out / "train_log.txt"
        artifacts = [out / "model.ckpt", log]
        if error is None:
            losses = [float(line.split()[1]) for line in log.read_text().splitlines()]
            result["losses"] = losses
    else:
        preds = sorted((out / "predictions").glob("*.label"))
        result["labels"] = {p.stem: p.stat().st_size // 4 for p in preds}
        artifacts = preds + [out / "report.kv"]
        if error is None:
            result["miou"] = returned["miou"]
            result["miou_recomputed"] = independent_miou(
                out / "predictions", d / "corpus" / "labels", cfg.load_class_map()
            )
    if error is None:
        result["digest"] = digest_files(artifacts)
    if tracer:
        values, samples = tracer.summarize()
        result.update(layers=values, samples=samples, missing=tracer.missing,
                      span_names=sorted({s.name for s in tracer.spans}))
        tracer.write_spans(args.spans)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=["setup", "call"])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--scale", default="full", choices=workloads.SCALES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--out")
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--spans")
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    result = setup(args) if args.command == "setup" else call(args)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
