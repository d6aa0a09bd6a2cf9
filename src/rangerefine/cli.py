"""Command-line entry points: gen, train, refine, eval.

Every subcommand takes ``--config`` (YAML, schema = PipelineConfig); gen, train
and refine also take a small set of targeted overrides. Exit codes: 0 success,
1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
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
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


_PIPELINE = ("gen", "train", "refine")

# Each override once: its flag, the subcommands that take it, the (section,
# field) pairs it sets (section None is the top level), its argparse options.
# A flag a command does not read still lands in the config it echoes.
_OVERRIDES = [
    ("--c-u", _PIPELINE, [("selection", "c_u")], dict(type=float, help="background distance cutoff (m)")),
    ("--boundary-budget", _PIPELINE, [("selection", "boundary_budget")],
     dict(type=int, help="max boundary-uncertain points")),
    ("--n-u", _PIPELINE, [("selection", "n_u")], dict(type=int, help="training sample size per scan")),
    ("--seed", _PIPELINE, [("scene", "seed"), ("oracle", "seed"), ("selection", "seed"), ("train", "seed")],
     dict(type=int, help="master seed (scene, oracle, selection, training)")),
    ("--mode", _PIPELINE, [(None, "mode")], dict(help="coarse probability source: oracle or loaded")),
    ("--epochs", ("train",), [("train", "epochs")], dict(type=int, help="override training epochs")),
]


def _load_config(args) -> pipeline.PipelineConfig:
    """The YAML config (or the defaults) with each given flag written into its
    fields, built once through ``from_dict`` so every override is checked like
    a YAML value."""
    cfg = pipeline.PipelineConfig.from_yaml(args.config) if args.config else pipeline.PipelineConfig()
    doc = dataclasses.asdict(cfg)
    for flag, commands, targets, _ in _OVERRIDES:
        # argparse's dest for the flag; no default, so a mismatch fails loudly
        value = getattr(args, flag[2:].replace("-", "_")) if args.command in commands else None
        if value is not None:
            for section, name in targets:
                (doc if section is None else doc[section])[name] = value
    return pipeline.PipelineConfig.from_dict(doc)


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

    for flag, names, _, options in _OVERRIDES:
        for name in names:
            commands.choices[name].add_argument(flag, **options)
    for sub in commands.choices.values():
        sub.add_argument("--config", help="pipeline config YAML")
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


_COMMANDS = {
    "gen": _cmd_gen,
    "train": _cmd_train,
    "refine": _cmd_refine,
    "eval": _cmd_eval,
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
