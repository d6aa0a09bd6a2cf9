"""Command-line entry points: gen, project, train, refine, eval, export.

Every subcommand takes ``--config`` (YAML, schema = PipelineConfig); gen, train
and refine also take a small set of targeted overrides. Exit codes: 0 success,
1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import kitti_io, pipeline
from .errors import DataFormatError, NumericError
from .projection import ProjectionConfig, project, write_range_pgm
from .refiner import load_checkpoint

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_overrides(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--c-u", type=float, dest="c_u", help="background distance cutoff (m)")
    sub.add_argument("--boundary-budget", type=int, help="max boundary-uncertain points")
    sub.add_argument("--n-u", type=int, dest="n_u", help="training sample size per scan")
    sub.add_argument("--knn-k", type=int, help="KNN neighbor count")
    sub.add_argument("--seed", type=int, help="master seed (scene, oracle, selection, training)")
    sub.add_argument("--mode", help="coarse probability source: oracle or loaded")


# flag dest -> the (section, field) pairs it sets; section None is the top level
_OVERRIDES = {
    "c_u": [("selection", "c_u")],
    "boundary_budget": [("selection", "boundary_budget")],
    "n_u": [("selection", "n_u")],
    "knn_k": [("knn", "k")],
    "seed": [("scene", "seed"), ("oracle", "seed"), ("selection", "seed"), ("train", "seed")],
    "mode": [(None, "mode")],
    "epochs": [("train", "epochs")],
    "use_knn": [(None, "use_knn")],
    "use_refiner": [(None, "use_refiner")],
}


def _load_config(args) -> pipeline.PipelineConfig:
    """The YAML config (or the defaults) with each given flag applied through
    ``dataclasses.replace``, so every override is checked like a YAML value."""
    if args.config:
        cfg = pipeline.PipelineConfig.from_yaml(args.config)
    else:
        cfg = pipeline.PipelineConfig()
    for dest, targets in _OVERRIDES.items():
        value = getattr(args, dest, None)
        if value is None:
            continue
        for section, name in targets:
            if section is None:
                cfg = dataclasses.replace(cfg, **{name: value})
            else:
                part = dataclasses.replace(getattr(cfg, section), **{name: value})
                cfg = dataclasses.replace(cfg, **{section: part})
    return cfg


def build_parser() -> _Parser:
    parser = _Parser(prog="rangerefine", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("gen", help="generate a synthetic corpus")
    gen.add_argument("--out", required=True, help="corpus output directory")
    gen.add_argument("--scans", type=int, default=10, help="number of scans")
    _add_overrides(gen)

    proj = commands.add_parser("project", help="project one scan to a 16-bit range PGM")
    proj.add_argument("--scan", required=True, help="input .bin scan")
    proj.add_argument("--out", required=True, help="output .pgm path")

    tr = commands.add_parser("train", help="train the uncertain-point refiner")
    tr.add_argument("--data", required=True, help="corpus directory")
    tr.add_argument("--out", required=True, help="run output directory")
    tr.add_argument("--epochs", type=int, help="override training epochs")
    _add_overrides(tr)

    rf = commands.add_parser("refine", help="run the full pipeline over a corpus")
    rf.add_argument("--data", required=True, help="corpus directory")
    rf.add_argument("--out", required=True, help="run output directory")
    rf.add_argument("--model", help="refiner checkpoint (omit for KNN-only)")
    rf.add_argument("--no-knn", action="store_const", const=False, dest="use_knn",
                    help="skip KNN (pure back-projection)")
    rf.add_argument("--no-refiner", action="store_const", const=False, dest="use_refiner",
                    help="skip the refiner stage")
    _add_overrides(rf)

    ev = commands.add_parser("eval", help="evaluate predictions against ground truth")
    ev.add_argument("--pred", required=True, help="directory of predicted .label files")
    ev.add_argument("--gt", required=True, help="directory of ground-truth .label files")
    ev.add_argument("--out", help="optional report output directory")

    ex = commands.add_parser("export", help="export a labeled cloud as colored PLY")
    ex.add_argument("--scan", required=True, help="input .bin scan")
    ex.add_argument("--labels", required=True, help="label file for the scan")
    ex.add_argument("--out", required=True, help="output .ply path")

    for sub in commands.choices.values():
        sub.add_argument("--config", help="pipeline config YAML")
    return parser


def _cmd_gen(args, cfg: pipeline.PipelineConfig) -> int:
    stems = pipeline.generate_corpus(args.out, cfg, args.scans)
    print(f"wrote {len(stems)} scans to {args.out}")
    return EXIT_OK


def _cmd_project(args, cfg: pipeline.PipelineConfig) -> int:
    cloud = kitti_io.read_point_cloud(args.scan)
    img = project(cloud, cfg.projection)
    write_range_pgm(img, args.out)
    print(
        f"{args.scan}: {len(cloud)} points -> {img.height}x{img.width}, "
        f"{int(img.valid_mask.sum())} valid pixels"
    )
    return EXIT_OK


def _cmd_train(args, cfg: pipeline.PipelineConfig) -> int:
    _, ckpt = pipeline.run_train(args.data, args.out, cfg)
    print(f"checkpoint written to {ckpt}")
    return EXIT_OK


def _cmd_refine(args, cfg: pipeline.PipelineConfig) -> int:
    model = load_checkpoint(args.model) if args.model else None
    report = pipeline.run_refine(args.data, args.out, cfg, model)
    if "miou" in report:
        print(f"mIoU {report['miou']:.4f}  oACC {report['oacc']:.4f}")
    print(f"labels written under {Path(args.out) / 'predictions'}")
    return EXIT_OK


def _cmd_eval(args, cfg: pipeline.PipelineConfig) -> int:
    report = pipeline.run_eval(args.pred, args.gt, cfg.load_class_map(), args.out)
    for name, value in report["iou"].items():
        print(f"iou.{name} {value:.4f}")
    print(f"mIoU {report['miou']:.4f}")
    print(f"oACC {report['oacc']:.4f}")
    return EXIT_OK


def _cmd_export(args, cfg: pipeline.PipelineConfig) -> int:
    class_map = cfg.load_class_map()
    cloud = pipeline.read_scan(args.scan, args.labels, class_map)
    pipeline.export_ply(cloud, cloud.labels, class_map.palette, args.out, class_map.ignore_class)
    print(f"wrote {args.out}")
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "project": _cmd_project,
    "train": _cmd_train,
    "refine": _cmd_refine,
    "eval": _cmd_eval,
    "export": _cmd_export,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, _load_config(args))
    except (DataFormatError, OSError) as exc:  # an unreadable input file is a data error
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
