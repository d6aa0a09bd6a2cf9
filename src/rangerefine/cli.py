"""Command-line entry points: gen, train, refine, eval.

Every run setting comes from one file, ``--config`` (YAML, schema =
PipelineConfig; the defaults without it); the command line names only paths
and gen's scan count. Exit codes: 0 success, 1 usage error, 2 data error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import pipeline
from .errors import DataFormatError, NumericError
from .refiner import load_checkpoint

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    # options match by full name only: refine must not read --mode as a short --model
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_config(args) -> pipeline.PipelineConfig:
    """The ``--config`` file, or the defaults without one; "" is a missing file."""
    if args.config is None:
        return pipeline.PipelineConfig()
    return pipeline.PipelineConfig.from_yaml(args.config)


def build_parser() -> _Parser:
    parser = _Parser(prog="rangerefine", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("gen", help="generate a synthetic corpus")
    gen.add_argument("--out", required=True, help="corpus output directory")
    gen.add_argument("--scans", type=int, default=10, help="number of scans")

    tr = commands.add_parser("train", help="train the uncertain-point refiner")
    tr.add_argument("--data", required=True, help="corpus directory")
    tr.add_argument("--out", required=True, help="run output directory")

    rf = commands.add_parser("refine", help="run the full pipeline over a corpus")
    rf.add_argument("--data", required=True, help="corpus directory")
    rf.add_argument("--out", required=True, help="run output directory")
    rf.add_argument("--model", help="refiner checkpoint (omit for KNN-only)")

    ev = commands.add_parser("eval", help="evaluate predictions against ground truth")
    ev.add_argument("--pred", required=True, help="directory of predicted .label files")
    ev.add_argument("--gt", required=True, help="directory of ground-truth .label files")
    ev.add_argument("--out", help="optional report output directory")

    for sub in commands.choices.values():
        sub.add_argument("--config", help="pipeline config YAML, every run setting (omit for the defaults)")
    return parser


def _cmd_gen(args, cfg: pipeline.PipelineConfig) -> int:
    stems = pipeline.generate_corpus(args.out, cfg, args.scans)
    print(f"wrote {len(stems)} scans to {args.out}")
    return EXIT_OK


def _cmd_train(args, cfg: pipeline.PipelineConfig) -> int:
    _, ckpt = pipeline.run_train(args.data, args.out, cfg)
    print(f"checkpoint written to {ckpt}")
    return EXIT_OK


def _cmd_refine(args, cfg: pipeline.PipelineConfig) -> int:
    model = None if args.model is None else load_checkpoint(args.model)
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


_COMMANDS = {
    "gen": _cmd_gen,
    "train": _cmd_train,
    "refine": _cmd_refine,
    "eval": _cmd_eval,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # "" would name the working directory: gen would fill it, refine read it as a model
        for option in ("out", "data", "pred", "gt", "model"):
            if getattr(args, option, None) == "":
                raise DataFormatError(f"--{option} is an empty path")
        return _COMMANDS[args.command](args, _load_config(args))
    except (DataFormatError, OSError) as exc:  # an unreadable input file is a data error
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
