import dataclasses
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import yaml

from rangerefine import cli, kitti_io, pipeline, refiner
from rangerefine.coarse import OracleNoiseSpec, oracle_coarse
from rangerefine.errors import DataFormatError, NumericError
from rangerefine.kitti_io import ClassMap, read_labels, read_point_cloud, write_labels
from rangerefine.knn_refiner import KnnConfig
from rangerefine.pipeline import (
    PipelineConfig,
    build_pool_for_scan,
    generate_corpus,
    refine_scan,
    run_eval,
    run_refine,
    run_train,
)
from rangerefine.projection import ProjectionConfig, project
from rangerefine.refiner import ModelDims, RefinerModel, TrainConfig, load_checkpoint, save_checkpoint
from rangerefine.scanner import SyntheticSceneSpec, generate_scene
from rangerefine.uncertainty import SelectionConfig


def tiny_config(seed=1):
    return PipelineConfig(
        projection=ProjectionConfig(width=128, height=64),
        knn=KnnConfig(),
        selection=SelectionConfig(boundary_budget=256, n_u=128, seed=seed),
        train=TrainConfig(epochs=2, seed=seed),
        oracle=OracleNoiseSpec(blur_radius=1, flip_rate=0.02, seed=seed),
        scene=SyntheticSceneSpec(seed=seed, azimuth_steps=256, boxes=3, cylinders=4, planes=1),
    )


# the config sections that hold a seed: one for every stage that draws
SEEDS = ("scene", "oracle", "selection", "train")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    cfg = tiny_config()
    generate_corpus(root, cfg, 3)
    return root, cfg


# --- config file ---


def test_config_yaml_roundtrip(tmp_path):
    cfg = tiny_config()
    cfg.selection.c_u = 2.5
    path = tmp_path / "config.yaml"
    cfg.save_yaml(path)
    back = PipelineConfig.from_yaml(path)
    assert back == cfg


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("selection: {c_u: 1.0, typo_key: 3}\n")
    with pytest.raises(DataFormatError, match="typo_key"):
        PipelineConfig.from_yaml(path)


def test_config_rejects_removed_refine_keys(tmp_path, capsys):
    # refine always runs the KNN vote: use_knn went with the back-projection-only path
    path = tmp_path / "config.yaml"
    for key, value in (("refine_context_limit", "16384"), ("use_knn", "true")):
        path.write_text(f"{key}: {value}\n")
        with pytest.raises(DataFormatError, match=f"unknown keys in config: .*{key}"):
            PipelineConfig.from_yaml(path)
        assert cli.main(["gen", "--out", str(tmp_path / "c"), "--config", str(path)]) == 2
        assert f"unknown keys in config: ['{key}']" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()


@pytest.mark.parametrize(
    "section, field, value",
    [
        ("oracle", "blur_radius", "1.5"),
        ("selection", "n_u", "true"),
        ("knn", "window", "5.0"),
        ("projection", "width", "'2048'"),
        ("train", "epochs", "2.0"),
        ("scene", "seed", "1.5"),
        # the seed hash takes 64 bits: 2**64 does not fit
        ("scene", "seed", "18446744073709551616"),
    ],
)
def test_config_rejects_non_integer_fields(tmp_path, capsys, section, field, value):
    path = tmp_path / "config.yaml"
    path.write_text(f"{section}: {{{field}: {value}}}\n")
    args = ["refine", "--data", str(tmp_path / "c"), "--out", str(tmp_path / "r")]
    assert cli.main([*args, "--config", str(path)]) == 2
    assert f"{field} must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "section, field, value, message",
    [
        ("selection", "c_u", "true", "c_u must be a finite number"),
        ("selection", "c_u", ".nan", "c_u must be a finite number"),
        ("oracle", "flip_rate", "false", "flip_rate must be a finite number"),
        ("train", "learning_rate", ".inf", "learning_rate must be a finite number"),
        # above float32's maximum, the float32 Adam step would scale by inf
        ("train", "learning_rate", "1.0e+39", "learning_rate must be <= 3.4e38"),
        # class_weights is no longer a field: any value, well-formed or not, is an unknown key.
        ("train", "class_weights", "[a, b]", "class_weights']"),
        ("train", "class_weights", "[.nan, 1.0]", "class_weights']"),
        (None, "use_refiner", "0", "use_refiner must be true or false"),
        (None, "class_map", "5", "class_map must be a string or null"),
        # the coarse source is the corpus's coarse/ directory, not a setting
        (None, "mode", "foo", "unknown keys in config: ['mode']"),
        (None, "mode", "loaded", "unknown keys in config: ['mode']"),
        ("oracle", "blur_radius", "-1", "blur_radius must be >= 0"),
        ("oracle", "flip_rate", "1.0", "flip_rate must be in [0, 1)"),
        ("scene", "boxes", "-1", "object counts must be >= 0"),
        ("scene", "azimuth_steps", "0", "scanner needs at least one azimuth step"),
        ("projection", "width", "0", "projection width and height must be >= 1"),
        ("selection", "boundary_budget", "-5", "boundary_budget must be >= 0"),
        ("selection", "n_u", "0", "n_u must be >= 1"),
        ("selection", "c_u", "-3", "c_u must be > 0"),
    ],
)
def test_config_rejects_bad_float_fields(tmp_path, capsys, section, field, value, message):
    path = tmp_path / "config.yaml"
    path.write_text(f"{field}: {value}\n" if section is None else f"{section}: {{{field}: {value}}}\n")
    args = ["refine", "--data", str(tmp_path / "c"), "--out", str(tmp_path / "r")]
    assert cli.main([*args, "--config", str(path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "section, key",
    [
        ("knn", "weighted"),
        ("selection", "background_mode"),
        ("train", "class_weights"),
        ("train", "beta1"),
        # the scanner is one fixed sensor: its settings are module constants
        ("scene", "noise_sigma"),
        ("scene", "class_assignment"),
        ("scene", "ground_extent"),
        ("scene", "rings"),
        ("scene", "fov_up_deg"),
        ("scene", "sensor_height"),
        # fixed by the stage that reads them: module constants
        ("knn", "k"),
        ("knn", "sigma"),
        ("knn", "range_cutoff"),
        ("selection", "agg_k"),
        ("selection", "agg_window"),
        ("projection", "fov_up_deg"),
        ("projection", "fov_down_deg"),
    ],
)
def test_config_rejects_removed_knobs(tmp_path, capsys, section, key):
    path = tmp_path / "config.yaml"
    path.write_text(f"{section}: {{{key}: null}}\n")
    args = ["refine", "--data", str(tmp_path / "c"), "--out", str(tmp_path / "r")]
    assert cli.main([*args, "--config", str(path)]) == 2
    assert f"unknown keys in config section {section}: ['{key}']" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--scans", "0", "num_scans must be >= 1"),
        # mode and seed were flags once; gen reads seeds from its config, and
        # mode is no setting at all
        ("--mode", "foo", "unknown keys in config: ['mode']"),
        ("--mode", "loaded", "unknown keys in config: ['mode']"),
        ("--seed", "18446744073709551616", "seed must be an integer"),
    ],
)
def test_cli_rejects_bad_overrides(tmp_path, capsys, flag, value, message):
    out = tmp_path / "c"
    args = ["gen", "--out", str(out), "--scans", "1"]
    if flag == "--scans":
        args += [flag, value]
    else:
        config = tmp_path / "config.yaml"
        if flag == "--mode":
            config.write_text(f"mode: {value}\n")
        else:
            config.write_text("".join(f"{section}: {{seed: {value}}}\n" for section in SEEDS))
        args += ["--config", str(config)]
    assert cli.main(args) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def class_map_text(**tables):
    """A two-class map in the dataset's format, with the given tables' YAML in place of its own."""
    tables = {
        "labels": "{0: unlabeled, 10: car}",
        "learning_map": "{0: 0, 10: 1}",
        "learning_map_inv": "{0: 0, 1: 10}",
        "learning_ignore": "{0: true, 1: false}",
        **tables,
    }
    return "".join(f"{key}: {value}\n" for key, value in tables.items())


THREE_CLASSES = {
    "learning_map": "{0: 0, 10: 1, 20: 2}",
    "learning_map_inv": "{0: 0, 1: 10, 2: 20}",
    "learning_ignore": "{0: true, 1: false, 2: false}",
}


@pytest.mark.parametrize(
    "text, message",
    [
        ("- 1\n", "must be a mapping, got [1]"),
        (class_map_text(learning_map="5"), "learning_map must be a mapping, got 5"),
        (
            class_map_text(learning_ignore="{0: true, one: false}"),
            "learning_ignore key must be an integer, got 'one'",
        ),
        # an inverse that does not invert: written [0, 1, 2] would read back as [0, 2, 1]
        (
            class_map_text(**{**THREE_CLASSES, "learning_map_inv": "{0: 0, 1: 20, 2: 10}"}),
            "learning_map_inv maps 1 to raw id 20, which does not read back as 1",
        ),
        # 70010 spills into the instance bits and would read back as the ignore class
        (class_map_text(learning_map_inv="{0: 0, 1: 70010}"), "learning_map_inv maps 1 to raw id 70010"),
        (class_map_text(learning_map_inv="{0: 0, 1: -10}"), "learning_map_inv maps 1 to raw id -10"),
        # the class count is len(learning_map_inv), whose keys are the train ids
        (
            class_map_text(learning_map_inv="{0: 0, 2: 10}"),
            "learning_map_inv keys must be the train ids 0..1; 1 missing, the first [1]",
        ),
        # one learning_ignore boolean for each of those train ids
        (
            class_map_text(learning_ignore="{0: true, 1: false, 2: false}"),
            "learning_ignore keys must be the train ids 0..1",
        ),
        # a map in the format of earlier versions
        ("raw_to_train: {0: 0, 1: 1}\nnum_classes: 2\n", "missing key 'learning_map'"),
        (class_map_text(learning_map="{0: 0, 10: 1, 70000: 1}"), "raw id 70000 does not fit 16 bits"),
        (
            class_map_text(learning_map="{0: 0, 10: 1, 11: 2, 12: -1}"),
            "learning_map values are not train ids 0..1: [-1, 2]",
        ),
        (
            class_map_text(learning_ignore="{0: false, 1: false}"),
            "learning_ignore must mark exactly one train id, not []",
        ),
        (
            class_map_text(learning_ignore="{0: true, 1: true}"),
            "learning_ignore must mark exactly one train id, not [0, 1]",
        ),
        # an integer is not read as a boolean
        (
            class_map_text(learning_ignore="{0: 1, 1: 0}"),
            "learning_ignore value must be true or false, got 1",
        ),
        # YAML that is not an integer is not read as one: no rounding, no bool or string ids
        (class_map_text(learning_map="{0: 0, 1.9: 1}"), "learning_map key must be an integer, got 1.9"),
        (class_map_text(learning_map="{0: 0, 10: 1.5}"), "learning_map value must be an integer, got 1.5"),
        (
            class_map_text(learning_map_inv="{0: 0, 1: '10'}"),
            "learning_map_inv value must be an integer, got '10'",
        ),
        (class_map_text(labels="{0: unlabeled, true: car}"), "labels key must be an integer, got True"),
        (class_map_text(labels="{0: unlabeled, 11: car}"), "labels has no name for raw id 10, train id 1"),
        # a report keys each IoU by its class name
        (
            class_map_text(labels="{0: unlabeled, 10: car, 20: car}", **THREE_CLASSES),
            "classes 1 and 2 are both named 'car'",
        ),
        # a name is one whitespace-free ASCII token, so each report.kv line splits in two
        (
            class_map_text(labels="{0: null, 10: car}"),
            "class names must be non-empty ASCII strings without whitespace, got None",
        ),
        (class_map_text(labels="{0: road, 10: traffic sign}"), "without whitespace, got 'traffic sign'"),
        (class_map_text(labels="{0: unlabeled, 10: ''}"), "without whitespace, got ''"),
        (class_map_text(labels="{0: unlabeled, 10: [a, b]}"), "got ['a', 'b']"),
        (class_map_text(labels="{0: unlabeled, 10: 7}"), "without whitespace, got 7"),
        (class_map_text(labels="{0: unlabeled, 10: café}"), "got 'café'"),
    ],
    ids=["document", "table", "integer", "swapped", "raw-overflow", "raw-negative", "key-range",
         "num-classes", "old-format", "raw-16-bits", "map-value-range", "ignore-none", "ignore-two",
         "ignore-non-bool", "raw-key-float", "raw-value-float", "inverse-value-string",
         "names-key-bool", "labels-missing", "names-duplicate", "names-null", "names-space",
         "names-empty", "names-list", "names-int", "names-non-ascii"],
)
def test_class_map_errors_are_located(tmp_path, capsys, text, message):
    class_map = tmp_path / "classes.yaml"
    class_map.write_text(text, encoding="utf-8")
    with pytest.raises(DataFormatError, match="class map"):
        ClassMap.from_yaml(class_map)
    config = tmp_path / "config.yaml"
    config.write_text(f"class_map: {class_map}\n")
    assert cli.main(["gen", "--out", str(tmp_path / "c"), "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"class map {class_map}" in err and message in err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("- 1\n", "config must be a mapping of sections, got [1]"),
        ("knn: 5\n", "config section knn must be a mapping, got 5"),
        # keys YAML reads as an integer and a string, which do not sort together
        ("foo: 1\n2: 3\n", "unknown keys in config: [2, 'foo']"),
        ("selection: {7: 1, bar: 2}\n", "unknown keys in config section selection: [7, 'bar']"),
    ],
    ids=["document", "section", "mixed-keys", "mixed-section-keys"],
)
def test_config_structure_errors_are_located(tmp_path, capsys, text, message):
    path = tmp_path / "config.yaml"
    path.write_text(text)
    assert cli.main(["gen", "--out", str(tmp_path / "c"), "--config", str(path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


REPEATED_SECTION = b"projection: {width: 256}\nuse_refiner: true\nprojection: {width: 128}\n"
# class 1 keeps raw id 11, so the map is valid whichever value raw 10 gets
REPEATED_RAW_ID = (
    b"labels: {0: unlabeled, 11: a, 30: b}\nlearning_map:\n  0: 0\n  10: 1\n  11: 1\n  30: 2\n  10: 2\n"
    b"learning_map_inv: {0: 0, 1: 11, 2: 30}\nlearning_ignore: {0: true, 1: false, 2: false}\n"
)


@pytest.mark.parametrize(
    "kind, payload, problem",
    [
        ("config", b"knn: {window: [\n", "is not valid YAML"),
        ("class map", b"learning_map: [\n", "is not valid YAML"),
        # Latin-1 bytes in a comment: the file is not UTF-8 text
        ("config", b"knn: {window: 5}  # caf\xe9\n", "is not UTF-8 text"),
        ("class map", b"learning_map: {0: 0}  # caf\xe9\n", "is not UTF-8 text"),
        # a repeated key, whose last value PyYAML would keep without a word
        ("config", REPEATED_SECTION, "repeats key 'projection' at line 3"),
        ("class map", REPEATED_RAW_ID, "repeats key '10' at line 7"),
    ],
    ids=["config", "class_map", "config-bytes", "class_map-bytes", "config-repeat", "class_map-repeat"],
)
def test_malformed_yaml_is_located(tmp_path, capsys, kind, payload, problem):
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(payload)
    config = bad
    if kind == "class map":
        config = tmp_path / "config.yaml"
        config.write_text(f"class_map: {bad}\n")
    assert cli.main(["gen", "--out", str(tmp_path / "c"), "--config", str(config)]) == 2
    assert f"{kind} {bad} {problem}" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


def test_yaml_loaders_parse_alike(tmp_path, monkeypatch):
    # libyaml's parser and the pure-Python fallback read the same documents
    ref = resources.files("rangerefine").joinpath("data/semantic_kitti.yaml")
    config = tmp_path / "config.yaml"
    tiny_config().save_yaml(config)
    docs = {}
    for loader in (yaml.CSafeLoader, yaml.SafeLoader):
        monkeypatch.setattr(kitti_io, "_YAML_LOADER", loader)
        with resources.as_file(ref) as path:
            docs[loader] = (kitti_io.read_yaml(path, "class map"), kitti_io.read_yaml(config, "config"))
    assert docs[yaml.CSafeLoader] == docs[yaml.SafeLoader]
    assert docs[yaml.SafeLoader][1] == dataclasses.asdict(tiny_config())


@pytest.mark.parametrize("loader", ["CSafeLoader", "SafeLoader"])
def test_malformed_yaml_is_located_by_either_loader(tmp_path, monkeypatch, loader):
    monkeypatch.setattr(kitti_io, "_YAML_LOADER", getattr(yaml, loader))
    bad = tmp_path / "bad.yaml"
    for kind, payload, problem in [
        ("config", b"knn: {window: [\n", "is not valid YAML"),
        ("config", b"knn: {window: 5}  # caf\xe9\n", "is not UTF-8 text"),
        # past the first chunk either parser decodes
        ("class map", b"# padding\n" * 2000 + b"learning_map: {0: 0}  # caf\xe9\n", "is not UTF-8 text"),
        ("config", REPEATED_SECTION, "repeats key 'projection' at line 3"),
        ("class map", REPEATED_RAW_ID, "repeats key '10' at line 7"),
        # two spellings of one integer are one dict key
        ("class map", b"learning_map: {0: 0}\nlabels: {1: a, 0x1: b}\n", "repeats key '0x1' at line 2"),
    ]:
        bad.write_bytes(payload)
        with pytest.raises(DataFormatError, match=f"{kind} {bad} {problem}"):
            kitti_io.read_yaml(bad, kind)


@pytest.mark.parametrize(
    "missing", ["config", "class_map", "model", "scan", "labels", "config_dir", "model_dir"]
)
def test_cli_missing_input_file_exits_2(tmp_path, capsys, missing):
    gone = str(tmp_path / "no-such-file")
    folder = str(tmp_path)  # a directory where a file is expected
    config = tmp_path / "config.yaml"
    config.write_text(f"class_map: {gone}\n")
    # a corpus whose scan, or whose scan's label file, is a directory
    corpus = tmp_path / "corpus"
    scan = corpus / "scans" / "000000.bin"
    label = corpus / "labels" / "000000.label"
    if missing == "labels":
        scan.parent.mkdir(parents=True)
        scan.write_bytes(np.ones((4, 4), dtype="<f4").tobytes())
    (scan if missing == "scan" else label).mkdir(parents=True)
    out = str(tmp_path / "out")
    argv = {
        "config": ["gen", "--out", out, "--config", gone],
        "class_map": ["gen", "--out", out, "--config", str(config)],
        "model": ["refine", "--data", out, "--out", out, "--model", gone],
        "scan": ["refine", "--data", str(corpus), "--out", out],
        "labels": ["refine", "--data", str(corpus), "--out", out],
        "config_dir": ["gen", "--out", out, "--config", folder],
        "model_dir": ["refine", "--data", out, "--out", out, "--model", folder],
    }[missing]
    assert cli.main(argv) == 2
    named = {"scan": str(scan), "labels": str(label)}.get(missing, folder if missing.endswith("_dir") else gone)
    assert named in capsys.readouterr().err


def test_config_accepts_integer_float_fields():
    cfg = PipelineConfig.from_dict(
        {"selection": {"c_u": 1}, "oracle": {"flip_rate": 0}, "train": {"learning_rate": 3}}
    )
    assert (cfg.selection.c_u, cfg.oracle.flip_rate, cfg.train.learning_rate) == (1, 0, 3)


# every settable value, as (section, field); None is the top level
SETTABLE = [
    ("knn", "window"),
    ("oracle", "blur_radius"), ("oracle", "flip_rate"), ("oracle", "seed"),
    ("oracle", "temperature"),
    ("projection", "height"), ("projection", "width"),
    ("scene", "azimuth_steps"), ("scene", "boxes"), ("scene", "cylinders"),
    ("scene", "planes"), ("scene", "seed"),
    ("selection", "boundary_budget"), ("selection", "c_u"), ("selection", "n_u"),
    ("selection", "seed"),
    ("train", "epochs"), ("train", "learning_rate"), ("train", "seed"),
    (None, "class_map"), (None, "use_refiner"),
]


def test_config_schema_is_pinned():
    doc = dataclasses.asdict(PipelineConfig())
    leaves = set()
    for key, value in doc.items():
        if isinstance(value, dict):
            leaves |= {(key, name) for name in value}
        else:
            leaves.add((None, key))
    assert len(SETTABLE) == 21
    assert leaves == set(SETTABLE)


# --- gen ---


def test_generate_corpus_layout_and_determinism(tmp_path, corpus):
    root, cfg = corpus
    scans = sorted((root / "scans").glob("*.bin"))
    labels = sorted((root / "labels").glob("*.label"))
    assert len(scans) == 3 and len(labels) == 3
    assert (root / "config.yaml").exists()
    again = tmp_path / "again"
    generate_corpus(again, cfg, 3)
    assert (again / "scans" / "000000.bin").read_bytes() == scans[0].read_bytes()
    cloud = read_point_cloud(scans[0])
    gt = read_labels(labels[0], cfg.load_class_map())
    assert len(gt) == len(cloud)


@pytest.mark.parametrize("case", ["scans", "labels", "coarse", "empty-coarse"])
def test_gen_refuses_a_corpus_that_holds_files(tmp_path, capsys, case):
    out = tmp_path / "c"
    assert cli.main(["gen", "--out", str(out), "--scans", "2"]) == 0
    sub = case.removeprefix("empty-")
    if sub != "scans":
        shutil.rmtree(out / "scans")
    if sub == "coarse":
        # refine reads any coarse/ in place of the new scans' oracle, and an
        # empty one fails every scan with a missing-probabilities error
        shutil.rmtree(out / "labels")
        (out / "coarse").mkdir()
        if case == "coarse":
            (out / "coarse" / "000000.probs").write_bytes(bytes(4))
    before = {p: p.read_bytes() if p.is_file() else None for p in sorted(out.rglob("*"))}
    seeds = tmp_path / "seeds.yaml"
    seeds.write_text("".join(f"{section}: {{seed: 9}}\n" for section in SEEDS))
    assert cli.main(["gen", "--out", str(out), "--scans", "1", "--config", str(seeds)]) == 2
    refusal = "exists; refine would read it" if sub == "coarse" else "is not empty"
    assert f"{sub} directory {out / sub} {refusal}" in capsys.readouterr().err
    assert {p: p.read_bytes() if p.is_file() else None for p in sorted(out.rglob("*"))} == before


def test_gen_refuses_a_class_map_without_the_scanner_classes(tmp_path, capsys):
    # ten classes: the scanner's train ids 13 and 16 have no class
    class_map = tmp_path / "ten.yaml"
    class_map.write_text(class_map_text(
        labels="{" + ", ".join(f"{10 * t}: c{t}" for t in range(10)) + "}",
        learning_map="{" + ", ".join(f"{10 * t}: {t}" for t in range(10)) + "}",
        learning_map_inv="{" + ", ".join(f"{t}: {10 * t}" for t in range(10)) + "}",
        learning_ignore="{" + ", ".join(f"{t}: {str(t == 0).lower()}" for t in range(10)) + "}",
    ))
    scene = "scene: {azimuth_steps: 64, boxes: 1, cylinders: 1, planes: 1}\n"
    ten = tmp_path / "ten-config.yaml"
    ten.write_text(scene + f"class_map: {class_map}\n")
    out = tmp_path / "c"
    assert cli.main(["gen", "--out", str(out), "--scans", "2", "--config", str(ten)]) == 2
    err = capsys.readouterr().err
    assert "the class map has 10 classes; the synthetic scanner labels points with train ids [13, 16]" in err
    assert not out.exists()
    # nothing was written, so a retry with the packaged map is not refused
    packaged = tmp_path / "packaged-config.yaml"
    packaged.write_text(scene)
    assert cli.main(["gen", "--out", str(out), "--scans", "2", "--config", str(packaged)]) == 0
    assert len(list((out / "labels").glob("*.label"))) == 2


# --- train + refine ---


@pytest.fixture(scope="module")
def trained(tmp_path_factory, corpus):
    root, cfg = corpus
    out = tmp_path_factory.mktemp("train")
    model, ckpt = run_train(root, out, cfg)
    return model, ckpt, out


def test_train_writes_artifacts(trained, corpus):
    _, ckpt, out = trained
    assert ckpt.exists()
    log_lines = (out / "train_log.txt").read_text().strip().splitlines()
    assert len(log_lines) == 2
    epoch, loss, wce, lovasz = log_lines[0].split()
    assert epoch == "0" and float(loss) == pytest.approx(float(wce) + float(lovasz), rel=1e-6)
    assert (out / "config.yaml").exists()


def test_train_deterministic_checkpoint(tmp_path, corpus, trained):
    root, cfg = corpus
    _, ckpt, _ = trained
    out2 = tmp_path / "rerun"
    _, ckpt2 = run_train(root, out2, cfg)
    assert ckpt.read_bytes() == ckpt2.read_bytes()


def test_refine_writes_predictions_and_report(tmp_path, corpus, trained):
    root, cfg = corpus
    model = load_checkpoint(trained[1])
    out = tmp_path / "run"
    report = run_refine(root, out, cfg, model)
    preds = sorted((out / "predictions").glob("*.label"))
    assert len(preds) == 3
    assert 0.0 <= report["miou"] <= 1.0
    assert (out / "report.kv").exists()
    kv = dict(
        line.split() for line in (out / "report.kv").read_text().strip().splitlines()
    )
    assert float(kv["miou"]) == pytest.approx(report["miou"], abs=1e-9)
    # prediction lengths match the scans
    cmap = cfg.load_class_map()
    cloud = read_point_cloud(root / "scans" / "000000.bin")
    assert len(read_labels(preds[0], cmap)) == len(cloud)


def test_pipeline_determinism_end_to_end(tmp_path, corpus, trained):
    root, cfg = corpus
    model = load_checkpoint(trained[1])
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        run_refine(root, out, cfg, model)
        outs.append(out)
    for stem in ("000000", "000001", "000002"):
        a = (outs[0] / "predictions" / f"{stem}.label").read_bytes()
        b = (outs[1] / "predictions" / f"{stem}.label").read_bytes()
        assert a == b
    assert (outs[0] / "report.kv").read_bytes() == (outs[1] / "report.kv").read_bytes()


@pytest.mark.parametrize(
    "in_dim, num_classes", [(25, 10), (24, 20)], ids=["classes", "input-width"]
)
def test_refine_refuses_a_model_for_another_class_map(
    tmp_path, capsys, corpus, in_dim, num_classes
):
    root, _ = corpus
    ckpt = tmp_path / "model.ckpt"
    dims = ModelDims(in_dim=in_dim, embed_hidden=4, embed_dim=4, attn_layers=1,
                     head_hidden1=4, head_hidden2=4, num_classes=num_classes)
    save_checkpoint(RefinerModel(dims, seed=0), ckpt)
    out = tmp_path / "run"
    argv = ["refine", "--data", str(root), "--out", str(out), "--model", str(ckpt)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"model has {num_classes} classes and input width {in_dim}; " \
        "the class map needs 20 classes and input width 25" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "block, value, problem",
    [("head2.b", np.nan, "non-finite value"), ("feature_scale", np.inf, "non-finite value"),
     # the id names the case, a scale <= 0; the message is the floor's
     pytest.param("feature_scale", -1.0, "value below 1e-06", id="feature_scale--1.0-value <= 0"),
     # > 0, but below the floor train applies: standardizing by it overflows
     ("feature_scale", 1e-45, "value below 1e-06")],
)
def test_refine_refuses_a_model_with_bad_values(tmp_path, capsys, corpus, block, value, problem):
    root, _ = corpus
    ckpt = tmp_path / "model.ckpt"
    model = RefinerModel(ModelDims(embed_hidden=4, embed_dim=4, attn_layers=1,
                                   head_hidden1=4, head_hidden2=4), seed=0)
    blocks = {**model.params, "feature_scale": model.feature_scale}
    blocks[block][0] = value
    save_checkpoint(model, ckpt)
    out = tmp_path / "run"
    argv = ["refine", "--data", str(root), "--out", str(out), "--model", str(ckpt)]
    assert cli.main(argv) == 2
    assert f"data error: {ckpt}: block {block} holds a {problem}" in capsys.readouterr().err
    assert not out.exists()


def test_refine_refuses_stale_predictions(tmp_path, corpus):
    # a 3-scan run, then a 1-scan run into the same output directory
    root, cfg = corpus
    one_scan = tmp_path / "one-scan"
    generate_corpus(one_scan, cfg, 1)
    out = tmp_path / "run"
    assert run_refine(root, out, cfg, model=None)["num_scans"] == 3
    before = sorted(p.name for p in (out / "predictions").iterdir())
    with pytest.raises(DataFormatError, match="not empty") as excinfo:
        run_refine(one_scan, out, cfg, model=None)
    assert str(out / "predictions") in str(excinfo.value)
    assert cli.main(["refine", "--data", str(one_scan), "--out", str(out)]) == 2
    assert sorted(p.name for p in (out / "predictions").iterdir()) == before
    assert run_refine(one_scan, tmp_path / "fresh", cfg, model=None)["num_scans"] == 1


@pytest.mark.parametrize(
    "command, change", [("train", "short"), ("train", "long"), ("refine", "short")]
)
def test_label_length_mismatch_is_located(tmp_path, capsys, corpus, command, change):
    root, _ = corpus
    data = tmp_path / "data"
    shutil.copytree(root, data)
    label = data / "labels" / "000001.label"
    words = label.read_bytes()
    # half the records, or 100 records too many
    label.write_bytes(words[: len(words) // 8 * 4] if change == "short" else words + bytes(400))
    out = tmp_path / "out"
    argv = [command, "--data", str(data), "--out", str(out), "--config", str(data / "config.yaml")]
    assert cli.main(argv) == 2
    assert f"{label}: " in capsys.readouterr().err
    assert not (out / "model.ckpt").exists()


def export_oracle_probs(data, cfg, fill_empty_pixels=None):
    """Write each scan's oracle probabilities as ``coarse/<scan>.probs``; with
    ``fill_empty_pixels``, pixels no point projects to put all mass on that class."""
    cmap = cfg.load_class_map()
    for scan in sorted((data / "scans").glob("*.bin")):
        cloud = read_point_cloud(scan)
        img = project(cloud, cfg.projection)
        labels = read_labels(data / "labels" / (scan.stem + ".label"), cmap)
        probs = oracle_coarse(img, labels, cfg.oracle, cmap.num_classes).probs
        if fill_empty_pixels is not None:
            probs[~img.valid_mask] = 0.0
            probs[~img.valid_mask, fill_empty_pixels] = 1.0
        (data / "coarse").mkdir(exist_ok=True)
        (data / "coarse" / (scan.stem + ".probs")).write_bytes(probs.astype("<f4").tobytes())


def test_loaded_mode_end_to_end_ignores_empty_pixels(tmp_path, corpus):
    root, cfg = corpus
    for name, fill in (("oracle-rows", None), ("class-19-rows", 19)):
        data = tmp_path / name / "data"
        shutil.copytree(root, data)
        export_oracle_probs(data, cfg, fill)
        common = ["--config", str(data / "config.yaml")]
        train_dir, run_dir = tmp_path / name / "train", tmp_path / name / "run"
        assert cli.main(["train", "--data", str(data), "--out", str(train_dir), *common]) == 0
        assert cli.main([
            "refine", "--data", str(data), "--out", str(run_dir),
            "--model", str(train_dir / "model.ckpt"), *common,
        ]) == 0
    a, b = tmp_path / "oracle-rows", tmp_path / "class-19-rows"
    for artifact in ("train/model.ckpt", "train/train_log.txt", "run/report.kv"):
        assert (a / artifact).read_bytes() == (b / artifact).read_bytes()
    preds = sorted((a / "run" / "predictions").glob("*.label"))
    assert len(preds) == 3
    for pred in preds:
        assert pred.read_bytes() == (b / "run" / "predictions" / pred.name).read_bytes()


def test_coarse_export_replaces_the_oracle_and_needs_no_labels(tmp_path):
    # the default config, at full size: a corpus that holds coarse/ is read from it
    data = tmp_path / "corpus"
    assert cli.main(["gen", "--out", str(data), "--scans", "1"]) == 0
    cmap = ClassMap.semantic_kitti()
    gt = read_labels(data / "labels" / "000000.label", cmap)
    probs = np.zeros((64, 2048, cmap.num_classes), dtype="<f4")
    probs[:, :, 11] = 1.0
    (data / "coarse").mkdir()
    (data / "coarse" / "000000.probs").write_bytes(probs.tobytes())
    assert not np.all(gt == 11)  # the oracle would not predict class 11 everywhere
    expected = tmp_path / "expected.label"
    write_labels(np.full(len(gt), 11), cmap, expected)

    assert cli.main(["refine", "--data", str(data), "--out", str(tmp_path / "labeled")]) == 0
    assert (tmp_path / "labeled" / "report.kv").exists()
    # refine reads labels only to score them
    shutil.rmtree(data / "labels")
    assert cli.main(["refine", "--data", str(data), "--out", str(tmp_path / "unlabeled")]) == 0
    assert not (tmp_path / "unlabeled" / "report.kv").exists()
    for run in ("labeled", "unlabeled"):
        assert (tmp_path / run / "predictions" / "000000.label").read_bytes() == expected.read_bytes()


def test_empty_pool_reproduces_knn_only(corpus, trained):
    root, cfg = corpus
    model = load_checkpoint(trained[1])
    cmap = cfg.load_class_map()
    cloud = read_point_cloud(root / "scans" / "000000.bin")
    cloud.labels = read_labels(root / "labels" / "000000.label", cmap)
    # budget 0 and an unreachable background cutoff empty the pool
    cfg_empty = dataclasses.replace(
        cfg, selection=dataclasses.replace(cfg.selection, boundary_budget=0, c_u=1e9)
    )
    pool, _ = build_pool_for_scan(cloud, cfg_empty, cmap, root)
    assert len(pool) == 0
    with_refiner = refine_scan(cloud, cfg_empty, cmap, model, root)
    knn_only = refine_scan(cloud, cfg, cmap, None, root)
    np.testing.assert_array_equal(with_refiner, knn_only)


def test_use_refiner_false_ignores_the_model(tmp_path, corpus, trained):
    # the config's switch gives the run refine makes without --model
    root, cfg = corpus
    model = load_checkpoint(trained[1])
    run_refine(root, tmp_path / "off", dataclasses.replace(cfg, use_refiner=False), model)
    run_refine(root, tmp_path / "knn", cfg, None)
    for name in ("report.kv", *(f"predictions/{stem}.label" for stem in ("000000", "000001", "000002"))):
        assert (tmp_path / "off" / name).read_bytes() == (tmp_path / "knn" / name).read_bytes()


def test_refiner_rewrites_only_pool_members(corpus, trained):
    # the whole pool is refined, and nothing outside it is touched
    root, cfg = corpus
    model = load_checkpoint(trained[1])
    cmap = cfg.load_class_map()
    cloud = read_point_cloud(root / "scans" / "000002.bin")
    cloud.labels = read_labels(root / "labels" / "000002.label", cmap)
    # pool indices do not depend on the labels build_pool is given
    pool, _ = build_pool_for_scan(cloud, cfg, cmap, root)
    assert len(pool) > 0
    refined = refine_scan(cloud, cfg, cmap, model, root)
    knn_only = refine_scan(cloud, cfg, cmap, None, root)
    changed = np.flatnonzero(refined != knn_only)
    assert len(changed) > 0
    assert set(changed.tolist()) <= set(pool.indices.tolist())


def test_full_size_scan_without_refiner_memory_bounded(tmp_path):
    # criterion-11 scene, 64 x 2048, 144k points, default stages: the
    # (H, W, 20) probabilities alone are 21 MB. With per-row kernels that
    # take all rows at once, projection, oracle and KNN peak at 93.5e6
    spec = SyntheticSceneSpec(seed=31, azimuth_steps=2600, boxes=6, cylinders=8, planes=2)
    cloud = generate_scene(spec)
    cfg = PipelineConfig()
    cmap = cfg.load_class_map()
    tracemalloc.start()
    try:
        refine_scan(cloud, cfg, cmap, None, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60e6, f"refine_scan peak {peak / 1e6:.0f} MB"


def test_run_train_leaves_no_spill(tmp_path, corpus, monkeypatch):
    # the pools are spilled to a temporary file, which goes however the run ends
    root, cfg = corpus
    spill = tmp_path / "tmp"
    spill.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spill))
    run_train(root, tmp_path / "finished", cfg)
    assert not any(spill.iterdir())

    diverging = dataclasses.replace(cfg, train=TrainConfig(epochs=2, learning_rate=1e30, seed=1))
    with pytest.raises(NumericError, match="training failed at epoch"):
        run_train(root, tmp_path / "diverged", diverging)
    assert not any(spill.iterdir())

    data = tmp_path / "data"
    shutil.copytree(root, data)
    label = data / "labels" / "000001.label"  # scan 000000 is spilled before this one fails
    label.write_bytes(label.read_bytes()[:-4])
    with pytest.raises(DataFormatError, match="labels for"):
        run_train(data, tmp_path / "bad-labels", cfg)
    assert not any(spill.iterdir())


# Trains on a corpus, its pools spilled, and kills itself at the first step.
KILLED_RUN = """
import os, signal, sys
from rangerefine import pipeline, refiner
refiner.total_loss = lambda *args: os.kill(os.getpid(), signal.SIGKILL)
pipeline.run_train(sys.argv[1], sys.argv[2], pipeline.PipelineConfig.from_yaml(sys.argv[3]))
"""


def test_killed_run_train_leaves_no_spill(tmp_path, corpus):
    root, _ = corpus
    spill = tmp_path / "tmp"
    spill.mkdir()
    env = dict(os.environ, TMPDIR=str(spill), PYTHONPATH=str(Path(pipeline.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", KILLED_RUN, str(root), str(tmp_path / "out"), str(root / "config.yaml")],
        env=env, capture_output=True, timeout=300,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
    assert not any(spill.iterdir())


def test_run_train_memory_does_not_grow_with_corpus(tmp_path):
    # one pool in memory at a time: with every pool held, 16 full-size scans
    # (144k points, ~8.2k pool entries each) peaked 31.8 MB above 4 scans
    cfg = PipelineConfig(
        selection=SelectionConfig(n_u=64),
        train=TrainConfig(epochs=1),
        scene=SyntheticSceneSpec(seed=31, azimuth_steps=2600),
    )
    for scans in (4, 16):
        generate_corpus(tmp_path / f"corpus{scans}", cfg, scans)
    peaks = {}
    for scans in (4, 16):
        tracemalloc.start()
        try:
            run_train(tmp_path / f"corpus{scans}", tmp_path / f"out{scans}", cfg)
            peaks[scans] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[16] - peaks[4] < 5e6, f"{peaks[4] / 1e6:.1f} MB at 4 scans, {peaks[16] / 1e6:.1f} MB at 16"


# --- eval ---


def test_eval_perfect_predictions(tmp_path, corpus):
    root, cfg = corpus
    out = tmp_path / "missing" / "eval"  # the report writer makes its parents
    report = run_eval(root / "labels", root / "labels", cfg.load_class_map(), out)
    assert report["miou"] == pytest.approx(1.0)
    assert report["oacc"] == pytest.approx(1.0)
    assert [p.name for p in out.iterdir()] == ["report.kv"]


def test_eval_hand_built_four_points(tmp_path):
    cmap = ClassMap.semantic_kitti()
    gt_dir = tmp_path / "gt"
    pred_dir = tmp_path / "pred"
    write_labels(np.array([1, 1, 1, 2]), cmap, gt_dir / "000000.label")
    write_labels(np.array([1, 1, 2, 2]), cmap, pred_dir / "000000.label")
    report = run_eval(pred_dir, gt_dir, cmap)
    assert report["miou"] == pytest.approx(7 / 12, abs=1e-12)
    assert report["oacc"] == pytest.approx(0.75, abs=1e-12)


def test_eval_disjoint_scan_sets(tmp_path):
    cmap = ClassMap.semantic_kitti()
    write_labels(np.array([1]), cmap, tmp_path / "gt" / "000000.label")
    write_labels(np.array([1]), cmap, tmp_path / "pred" / "000001.label")
    with pytest.raises(DataFormatError, match="000000"):
        run_eval(tmp_path / "pred", tmp_path / "gt", cmap)


# --- CLI ---


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["refine"])  # missing required arguments
    assert excinfo.value.code == 1
    assert "{gen,train,refine,eval}" in cli.build_parser().format_usage()


@pytest.mark.parametrize(
    "flag",
    ["--knn-k 3", "--no-knn", "--no-refiner", "--c-u 9.5", "--boundary-budget 5", "--n-u 7",
     "--seed 9", "--mode loaded", "--epochs 1"],
)
def test_cli_rejects_removed_flags(tmp_path, capsys, flag):
    # KNN always votes, with the RangeNet++ k, and refine without --model is
    # the KNN-only run; every setting comes from --config, none from a flag
    out = ["--out", str(tmp_path / "o")]
    for args in (["gen", *out], ["train", "--data", str(tmp_path), *out],
                 ["refine", "--data", str(tmp_path), *out],
                 ["refine", "--data", str(tmp_path), *out, "--model", str(tmp_path / "m.ckpt")],
                 ["eval", "--pred", str(tmp_path), "--gt", str(tmp_path), *out]):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([*args, *flag.split()])
        assert excinfo.value.code == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("option", ["--model", "--config"])
def test_cli_empty_path_is_a_missing_file(tmp_path, capsys, corpus, option):
    # "" names no file: it asks neither for the KNN-only run nor for the defaults
    root, _ = corpus
    out = tmp_path / "run"
    assert cli.main(["refine", "--data", str(root), "--out", str(out), option, ""]) == 2
    assert "data error: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, option",
    [("gen", "--out"), ("train", "--data"), ("train", "--out"), ("refine", "--data"),
     ("refine", "--out"), ("refine", "--model"), ("eval", "--pred"), ("eval", "--gt"),
     ("eval", "--out")],
)
def test_cli_rejects_an_empty_path(tmp_path_factory, tmp_path, monkeypatch, capsys, corpus, command, option):
    # "" names the working directory: gen --out "" would fill it, and
    # refine --model "" would read it as a checkpoint
    root, _ = corpus
    out = tmp_path_factory.mktemp("elsewhere") / "out"
    paths = {"--data": root, "--out": out, "--pred": root / "labels", "--gt": root / "labels"}
    argv = [command, "--config", str(root / "config.yaml")]
    for name in {"gen": ["--out"], "train": ["--data", "--out"], "refine": ["--data", "--out"],
                 "eval": ["--pred", "--gt", "--out"]}[command]:
        argv += [name, "" if name == option else str(paths[name])]
    if option == "--model":
        argv += ["--model", ""]
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    assert f"data error: {option} is an empty path" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert not out.exists()


def test_cli_data_error_exit_code(tmp_path, capsys):
    # a corpus without scans fails before any output directory is made
    for command in ("train", "refine"):
        assert cli.main([command, "--data", str(tmp_path), "--out", str(tmp_path / "o")]) == 2
        assert "no scans directory" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "case",
    ["unlabeled-oracle", "negative-probs", "empty-gt", "truncated-pred", "no-scans", "no-labels",
     "no-coarse", "short-pred", "empty-labels"],
)
def test_cli_data_errors_are_located(tmp_path, capsys, corpus, case):
    root, cfg = corpus
    data = tmp_path / "data"
    shutil.copytree(root, data)
    out = tmp_path / "out"
    refine = ["refine", "--data", str(data), "--out", str(out), "--config", str(data / "config.yaml")]
    if case == "unlabeled-oracle":
        (data / "labels" / "000000.label").unlink()
        argv = refine
        message = (f"stage 'coarse' failed on scan 000000: no coarse/ under {data} "
                   "and no labels to synthesize probabilities from")
    elif case == "negative-probs":
        export_oracle_probs(data, cfg)
        probs = data / "coarse" / "000000.probs"
        values = np.frombuffer(probs.read_bytes(), dtype="<f4").copy()
        values[7] = -0.5
        probs.write_bytes(values.tobytes())
        argv = refine
        message = f"stage 'coarse' failed on scan 000000: {probs}: negative probability values"
    elif case == "empty-gt":
        (tmp_path / "gt").mkdir()
        argv = ["eval", "--pred", str(data / "labels"), "--gt", str(tmp_path / "gt")]
        message = f"no .label files in {tmp_path / 'gt'}"
    elif case == "truncated-pred":
        label = data / "labels" / "000001.label"
        label.write_bytes(label.read_bytes()[:-2])
        argv = ["eval", "--pred", str(data / "labels"), "--gt", str(root / "labels"),
                "--out", str(out)]
        message = f"truncated label file {label}"
    elif case == "no-scans":
        for scan in (data / "scans").iterdir():
            scan.unlink()
        argv = refine
        message = f"no .bin scans in {data / 'scans'}"
    elif case == "no-labels":
        shutil.rmtree(data / "labels")
        argv = ["train", "--data", str(data), "--out", str(out), "--config", str(data / "config.yaml")]
        message = f"no labeled scans under {data}"
    elif case == "no-coarse":
        # an empty coarse/ still names the corpus's coarse source: no oracle fallback
        (data / "coarse").mkdir()
        argv = refine
        message = f"stage 'coarse' failed on scan 000000: missing coarse probabilities {data / 'coarse'}"
    else:
        # label files of 2 and 3 words, or both empty
        words = (2, 3) if case == "short-pred" else (0, 0)
        for sub, n in zip(("pred", "gt"), words):
            (tmp_path / sub).mkdir()
            (tmp_path / sub / "000000.label").write_bytes(bytes(4 * n))
        argv = ["eval", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
                "--out", str(out)]
        message = {"short-pred": "scan 000000: 2 predictions vs 3 ground-truth points",
                   "empty-labels": "mIoU undefined: no class has any accumulated point"}[case]
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_train_divergence_exits_3(tmp_path, capsys, corpus):
    root, cfg = corpus
    config = tmp_path / "config.yaml"
    train = dataclasses.replace(cfg.train, learning_rate=1.0e30)
    dataclasses.replace(cfg, train=train).save_yaml(config)
    out = tmp_path / "out"
    assert cli.main(["train", "--data", str(root), "--out", str(out), "--config", str(config)]) == 3
    assert "numeric failure: training failed at epoch 0, scan " in capsys.readouterr().err
    assert not (out / "model.ckpt").exists()


def test_run_train_writes_no_model_with_a_non_finite_parameter(tmp_path, corpus, monkeypatch):
    # the last of the 2 epochs x 3 scans steps leaves a NaN bias, which no loss sees
    root, cfg = corpus
    step = refiner.Adam.step

    def last_step_breaks_a_bias(self, grads):
        step(self, grads)
        if self.t == cfg.train.epochs * 3:
            self.model.params["head2.b"][1] = np.nan

    monkeypatch.setattr(refiner.Adam, "step", last_step_breaks_a_bias)
    out = tmp_path / "out"
    with pytest.raises(NumericError, match="training failed at epoch 1: block head2.b holds a non-finite"):
        run_train(root, out, cfg)
    assert not (out / "model.ckpt").exists()
    assert not (out / "train_log.txt").exists()


def test_cli_train_locates_an_all_ignore_scan(tmp_path, capsys, corpus):
    # every label of scan 000001 becomes raw id 0, which maps to the ignore class
    root, _ = corpus
    data = tmp_path / "data"
    shutil.copytree(root, data)
    label = data / "labels" / "000001.label"
    label.write_bytes(bytes(label.stat().st_size))
    out = tmp_path / "out"
    argv = ["train", "--data", str(data), "--out", str(out), "--config", str(data / "config.yaml")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "training failed at epoch 0, scan 000001: weighted cross entropy: every target is ignored" in err
    assert not (out / "model.ckpt").exists()


def test_cli_train_names_the_failing_scan_by_file(tmp_path, capsys, corpus):
    # 000000 has no labels, so the all-ignore 000002 is the second scan that trains
    root, _ = corpus
    data = tmp_path / "data"
    shutil.copytree(root, data)
    (data / "labels" / "000000.label").unlink()
    label = data / "labels" / "000002.label"
    label.write_bytes(bytes(label.stat().st_size))
    out = tmp_path / "out"
    argv = ["train", "--data", str(data), "--out", str(out), "--config", str(data / "config.yaml")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "training failed at epoch 0, scan 000002: weighted cross entropy: every target is ignored" in err


def test_train_skips_the_knn_vote(tmp_path, corpus, monkeypatch):
    # training reads only pool indices and features, which the KNN labels do not touch
    root, cfg = corpus

    def knn_refine(*args, **kwargs):
        raise AssertionError("training ran the KNN vote")

    monkeypatch.setattr(pipeline, "knn_refine", knn_refine)
    _, ckpt = run_train(root, tmp_path / "out", cfg)
    assert ckpt.exists()


def test_cli_full_workflow(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    cfg_path = tmp_path / "config.yaml"
    cfg = tiny_config(seed=3)
    dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, epochs=1)).save_yaml(cfg_path)
    common = ["--config", str(cfg_path)]

    assert cli.main(["gen", "--out", str(corpus_dir), "--scans", "2", *common]) == 0

    train_dir = tmp_path / "train"
    assert cli.main([
        "train", "--data", str(corpus_dir), "--out", str(train_dir), *common,
    ]) == 0
    run_dir = tmp_path / "run"
    assert cli.main([
        "refine", "--data", str(corpus_dir), "--out", str(run_dir),
        "--model", str(train_dir / "model.ckpt"), *common,
    ]) == 0
    assert cli.main([
        "eval", "--pred", str(run_dir / "predictions"),
        "--gt", str(corpus_dir / "labels"), *common,
    ]) == 0
    out = capsys.readouterr().out
    assert "mIoU" in out


# every setting the tiny corpus varies, in one partial file
SEEDS_YAML = """\
projection: {height: 64, width: 128}
scene: {seed: 9, azimuth_steps: 256, boxes: 3, cylinders: 4, planes: 1}
oracle: {seed: 9, blur_radius: 1, flip_rate: 0.02}
selection: {seed: 9, boundary_budget: 11, n_u: 7, c_u: 2.5}
train: {seed: 9, epochs: 1}
"""


def test_cli_runs_from_the_config_gen_echoes(tmp_path):
    # the corpus's config.yaml, passed on, gives the runs its own file gives
    seeds = tmp_path / "seeds.yaml"
    seeds.write_text(SEEDS_YAML)
    corpus_dir = tmp_path / "c"
    assert cli.main(["gen", "--out", str(corpus_dir), "--scans", "2", "--config", str(seeds)]) == 0
    echo = corpus_dir / "config.yaml"
    echoed = PipelineConfig.from_yaml(echo)
    assert [getattr(echoed, section).seed for section in SEEDS] == [9] * 4
    export_oracle_probs(corpus_dir, echoed)

    runs = {}
    for name, config in (("given", seeds), ("echoed", echo)):
        run = tmp_path / name
        data, common = ["--data", str(corpus_dir)], ["--config", str(config)]
        assert cli.main(["train", *data, "--out", str(run / "train"), *common]) == 0
        model = ["--model", str(run / "train" / "model.ckpt")]
        assert cli.main(["refine", *data, "--out", str(run / "full"), *model, *common]) == 0
        assert cli.main(["refine", *data, "--out", str(run / "knn"), *common]) == 0
        assert cli.main(["eval", "--pred", str(run / "full" / "predictions"),
                         "--gt", str(corpus_dir / "labels"), "--out", str(run / "eval"), *common]) == 0
        runs[name] = {p.relative_to(run): p.read_bytes() for p in sorted(run.rglob("*")) if p.is_file()}
    assert runs["given"] == runs["echoed"]
    files = runs["given"]
    assert files[Path("train/config.yaml")] == files[Path("full/config.yaml")] == echo.read_bytes()
    assert len(files[Path("train/train_log.txt")].splitlines()) == 1
    assert len([p for p in files if p.suffix == ".label"]) == 4
