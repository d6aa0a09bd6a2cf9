import copy
import dataclasses
import shutil
import tempfile
import tracemalloc
from importlib import resources

import numpy as np
import pytest
import yaml

from rangerefine import cli, kitti_io, pipeline
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
    cfg.mode = "oracle"
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
        # class_weights is no longer a field: any value, well-formed or not, is an unknown key.
        ("train", "class_weights", "[a, b]", "class_weights']"),
        ("train", "class_weights", "[.nan, 1.0]", "class_weights']"),
        (None, "use_refiner", "0", "use_refiner must be true or false"),
        (None, "class_map", "5", "class_map must be a string or null"),
        (None, "mode", "foo", "mode must be 'oracle' or 'loaded'"),
        ("oracle", "blur_radius", "-1", "blur_radius must be >= 0"),
        ("oracle", "flip_rate", "1.0", "flip_rate must be in [0, 1)"),
        ("scene", "boxes", "-1", "object counts must be >= 0"),
        ("scene", "azimuth_steps", "0", "scanner needs at least one azimuth step"),
        ("projection", "width", "0", "projection width and height must be >= 1"),
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
        ("--boundary-budget", "-5", "boundary_budget must be >= 0"),
        ("--n-u", "0", "n_u must be >= 1"),
        ("--c-u", "-3", "c_u must be > 0"),
        ("--mode", "foo", "mode must be 'oracle' or 'loaded'"),
        ("--scans", "0", "num_scans must be >= 1"),
        ("--seed", "18446744073709551616", "seed must be an integer"),
    ],
)
def test_cli_rejects_bad_overrides(tmp_path, capsys, flag, value, message):
    out = tmp_path / "c"
    assert cli.main(["gen", "--out", str(out), "--scans", "1", flag, value]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("- 1\n", "must be a mapping, got [1]"),
        ("raw_to_train: 5\nnum_classes: 2\n", "raw_to_train must be a mapping, got 5"),
        ("raw_to_train: {0: 0, 1: 1}\nnum_classes: x\n", "num_classes must be an integer, got 'x'"),
        # an inverse that does not invert: written [0, 1, 2] would read back as [0, 2, 1]
        (
            "raw_to_train: {0: 0, 10: 1, 20: 2}\nnum_classes: 3\ntrain_to_raw: {0: 0, 1: 20, 2: 10}\n",
            "train_to_raw maps 1 to raw id 20, which does not read back as 1",
        ),
        # 70010 spills into the instance bits and would read back as the ignore class
        (
            "raw_to_train: {0: 0, 10: 1}\nnum_classes: 2\ntrain_to_raw: {0: 0, 1: 70010}\n",
            "train_to_raw maps 1 to raw id 70010",
        ),
        (
            "raw_to_train: {0: 0, 10: 1}\nnum_classes: 2\ntrain_to_raw: {0: 0, 1: -10}\n",
            "train_to_raw maps 1 to raw id -10",
        ),
        (
            "raw_to_train: {0: 0, 10: 1}\nnum_classes: 2\ntrain_to_raw: {0: 0, 1: 10, 2: 10}\n",
            "train_to_raw key 2 out of range 0..1",
        ),
        # a typo'd names key would leave its class named class_<id>
        (
            "raw_to_train: {0: 0, 1: 1}\nnum_classes: 2\nnames: {0: a, 1: b, 7: zz, -1: neg}\n",
            "names keys out of range 0..1: [-1, 7]",
        ),
        ("raw_to_train: {0: 0, 1: 1}\nnum_classes: 70000\n", "num_classes 70000 exceeds the 65536"),
        ("raw_to_train: {0: 0, 1: 1}\n", "is missing key 'num_classes'"),
        ("raw_to_train: {0: 0, 70000: 1}\nnum_classes: 2\n", "raw id 70000 does not fit 16 bits"),
        ("raw_to_train: {0: 0, 1: 1}\nnum_classes: 2\nignore_class: 5\n", "ignore_class 5 out of range"),
        # YAML that is not an integer is not read as one: no rounding, no bool or string ids
        ("raw_to_train: {0: 0, 1: 1}\nnum_classes: 2.7\n", "num_classes must be an integer, got 2.7"),
        ("raw_to_train: {0: 0, 1: 1}\nnum_classes: '2'\n", "num_classes must be an integer, got '2'"),
        (
            "raw_to_train: {0: 0, 1: 1}\nnum_classes: 2\nignore_class: true\n",
            "ignore_class must be an integer, got True",
        ),
        ("raw_to_train: {0: 0, 1.9: 1}\nnum_classes: 2\n", "raw_to_train key must be an integer, got 1.9"),
        ("raw_to_train: {0: 0, 1: 1.5}\nnum_classes: 2\n", "raw_to_train value must be an integer, got 1.5"),
        (
            "raw_to_train: {0: 0, 1: 1}\nnum_classes: 2\ntrain_to_raw: {0: 0, 1: '1'}\n",
            "train_to_raw value must be an integer, got '1'",
        ),
        (
            "raw_to_train: {0: 0, 1: 1}\nnum_classes: 2\nnames: {true: car}\n",
            "names key must be an integer, got True",
        ),
        # a report keys each IoU by its class name, the class_<id> fallback included
        (
            "raw_to_train: {0: 0, 1: 1, 2: 2}\nnum_classes: 3\nnames: {1: car, 2: car}\n",
            "classes 1 and 2 are both named 'car'",
        ),
        (
            "raw_to_train: {0: 0, 1: 1, 2: 2}\nnum_classes: 3\nnames: {2: class_1}\n",
            "classes 1 and 2 are both named 'class_1'",
        ),
        # a name is one whitespace-free ASCII token, so each report.kv line splits in two
        (
            "raw_to_train: {0: 0, 1: 1}\nnum_classes: 2\nnames: {0: null, 1: car}\n",
            "class names must be non-empty ASCII strings without whitespace, got None",
        ),
        (
            "raw_to_train: {0: 0, 1: 1}\nnum_classes: 2\nnames: {0: road, 1: traffic sign}\n",
            "without whitespace, got 'traffic sign'",
        ),
        ("raw_to_train: {0: 0, 1: 1}\nnum_classes: 2\nnames: {1: ''}\n", "without whitespace, got ''"),
        ("raw_to_train: {0: 0, 1: 1}\nnum_classes: 2\nnames: {1: [a, b]}\n", "got ['a', 'b']"),
        ("raw_to_train: {0: 0, 1: 1}\nnum_classes: 2\nnames: {1: 7}\n", "without whitespace, got 7"),
        ("raw_to_train: {0: 0, 1: 1}\nnum_classes: 2\nnames: {1: café}\n", "got 'café'"),
    ],
    ids=["document", "table", "integer", "swapped", "raw-overflow", "raw-negative", "key-range",
         "names-key-range",
         "num-classes", "no-num-classes", "raw-16-bits", "ignore-range", "num-classes-float",
         "num-classes-string", "ignore-bool", "raw-key-float", "raw-value-float",
         "inverse-value-string", "names-key-bool", "names-duplicate", "names-fallback-duplicate",
         "names-null", "names-space", "names-empty", "names-list", "names-int", "names-non-ascii"],
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


REPEATED_SECTION = b"projection: {width: 256}\nmode: oracle\nprojection: {width: 128}\n"
# class 1 keeps raw id 11, so the map is valid whichever value raw 10 gets
REPEATED_RAW_ID = b"num_classes: 3\nraw_to_train:\n  0: 0\n  10: 1\n  11: 1\n  30: 2\n  10: 2\n"


@pytest.mark.parametrize(
    "kind, payload, problem",
    [
        ("config", b"knn: {window: [\n", "is not valid YAML"),
        ("class map", b"num_classes: [\n", "is not valid YAML"),
        # Latin-1 bytes in a comment: the file is not UTF-8 text
        ("config", b"knn: {window: 5}  # caf\xe9\n", "is not UTF-8 text"),
        ("class map", b"num_classes: 2  # caf\xe9\n", "is not UTF-8 text"),
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
        ("class map", b"# padding\n" * 2000 + b"num_classes: 2  # caf\xe9\n", "is not UTF-8 text"),
        ("config", REPEATED_SECTION, "repeats key 'projection' at line 3"),
        ("class map", REPEATED_RAW_ID, "repeats key '10' at line 7"),
        # two spellings of one integer are one dict key
        ("class map", b"num_classes: 2\nnames: {1: a, 0x1: b}\n", "repeats key '0x1' at line 2"),
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
    (None, "class_map"), (None, "mode"), (None, "use_refiner"),
]


def test_config_schema_is_pinned():
    doc = dataclasses.asdict(PipelineConfig())
    leaves = set()
    for key, value in doc.items():
        if isinstance(value, dict):
            leaves |= {(key, name) for name in value}
        else:
            leaves.add((None, key))
    assert len(SETTABLE) == 22
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


@pytest.mark.parametrize("sub", ["scans", "labels"])
def test_gen_refuses_a_corpus_that_holds_files(tmp_path, capsys, sub):
    out = tmp_path / "c"
    assert cli.main(["gen", "--out", str(out), "--scans", "2"]) == 0
    if sub == "labels":
        shutil.rmtree(out / "scans")
    before = {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    assert cli.main(["gen", "--out", str(out), "--scans", "1", "--seed", "9"]) == 2
    assert f"{sub} directory {out / sub} is not empty" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()} == before


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
        common = ["--config", str(data / "config.yaml"), "--mode", "loaded"]
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


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_run_train_leaves_no_spill(tmp_path, corpus, monkeypatch):
    # the pools are spilled to a temporary directory, which goes however the run ends
    root, cfg = corpus
    spill = tmp_path / "tmp"
    spill.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spill))
    spilled = []
    real_train = pipeline.train

    def spying_train(*args, **kwargs):
        spilled.append(sorted(p.name for p in spill.rglob("*") if p.is_file()))
        return real_train(*args, **kwargs)

    monkeypatch.setattr(pipeline, "train", spying_train)
    run_train(root, tmp_path / "finished", cfg)
    assert spilled == [["0.npy", "1.npy", "2.npy"]]
    assert not any(spill.iterdir())

    diverging = dataclasses.replace(cfg, train=TrainConfig(epochs=2, learning_rate=1e200, seed=1))
    with pytest.raises(NumericError, match="training failed at epoch"):
        run_train(root, tmp_path / "diverged", diverging)
    assert len(spilled) == 2 and not any(spill.iterdir())

    data = tmp_path / "data"
    shutil.copytree(root, data)
    label = data / "labels" / "000001.label"  # scan 000000 is spilled before this one fails
    label.write_bytes(label.read_bytes()[:-4])
    with pytest.raises(DataFormatError, match="labels for"):
        run_train(data, tmp_path / "bad-labels", cfg)
    assert len(spilled) == 2 and not any(spill.iterdir())


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


# every override: its arguments, the subcommands that take it, and the config
# values it sets, each unlike tiny_config's; written apart from cli's own table
PIPELINE = ("gen", "train", "refine")
SEEDS = ("scene", "oracle", "selection", "train")
OVERRIDE_EXPECTATIONS = [
    ("--c-u 9.5", PIPELINE, {("selection", "c_u"): 9.5}),
    ("--boundary-budget 5", PIPELINE, {("selection", "boundary_budget"): 5}),
    ("--n-u 7", PIPELINE, {("selection", "n_u"): 7}),
    ("--seed 9", PIPELINE, {(section, "seed"): 9 for section in SEEDS}),
    ("--mode loaded", PIPELINE, {(None, "mode"): "loaded"}),
    ("--epochs 1", ("train",), {("train", "epochs"): 1}),
]


@pytest.mark.parametrize("command", ["gen", "train", "refine", "eval"])
def test_each_override_sets_exactly_its_fields(tmp_path, capsys, monkeypatch, command):
    config = tmp_path / "config.yaml"
    tiny_config().save_yaml(config)
    base = dataclasses.asdict(tiny_config())
    paths = {
        "gen": ["--out", "c"],
        "train": ["--data", "c", "--out", "t"],
        "refine": ["--data", "c", "--out", "r"],
        "eval": ["--pred", "p", "--gt", "g"],
    }[command]
    echo = tmp_path / "echo.yaml"

    def run(args, cfg):  # echoes the config it is handed, as every pipeline run does
        cfg.save_yaml(echo)
        return cli.EXIT_OK

    monkeypatch.setitem(cli._COMMANDS, command, run)
    for flag, commands, sets in OVERRIDE_EXPECTATIONS:
        argv = [command, *paths, "--config", str(config), *flag.split()]
        if command not in commands:
            with pytest.raises(SystemExit) as excinfo:
                cli.main(argv)
            assert excinfo.value.code == 1
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
            continue
        assert cli.main(argv) == 0
        expected = copy.deepcopy(base)
        for (section, name), value in sets.items():
            assert (base if section is None else base[section])[name] != value
            (expected if section is None else expected[section])[name] = value
        assert yaml.safe_load(echo.read_text()) == expected


@pytest.mark.parametrize("flag", ["--knn-k 3", "--no-knn", "--no-refiner"])
def test_cli_rejects_removed_flags(tmp_path, capsys, flag):
    # KNN always votes, with the RangeNet++ k, and refine without --model is
    # the KNN-only run; none of these is a setting
    out = ["--out", str(tmp_path / "o")]
    for args in (["gen", *out], ["train", "--data", str(tmp_path), *out],
                 ["refine", "--data", str(tmp_path), *out],
                 ["refine", "--data", str(tmp_path), *out, "--model", str(tmp_path / "m.ckpt")]):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([*args, *flag.split()])
        assert excinfo.value.code == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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
        message = "stage 'coarse' failed on scan 000000: oracle mode needs ground-truth labels"
    elif case == "negative-probs":
        export_oracle_probs(data, cfg)
        probs = data / "coarse" / "000000.probs"
        values = np.frombuffer(probs.read_bytes(), dtype="<f4").copy()
        values[7] = -0.5
        probs.write_bytes(values.tobytes())
        argv = [*refine, "--mode", "loaded"]
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
        argv = [*refine, "--mode", "loaded"]
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


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_cli_train_divergence_exits_3(tmp_path, capsys, corpus):
    root, cfg = corpus
    config = tmp_path / "config.yaml"
    train = dataclasses.replace(cfg.train, learning_rate=1.0e30)
    dataclasses.replace(cfg, train=train).save_yaml(config)
    out = tmp_path / "out"
    assert cli.main(["train", "--data", str(root), "--out", str(out), "--config", str(config)]) == 3
    assert "numeric failure: training failed at epoch 0, scan " in capsys.readouterr().err
    assert not (out / "model.ckpt").exists()


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
    tiny_config(seed=3).save_yaml(cfg_path)
    common = ["--config", str(cfg_path)]

    assert cli.main(["gen", "--out", str(corpus_dir), "--scans", "2", *common]) == 0

    train_dir = tmp_path / "train"
    assert cli.main([
        "train", "--data", str(corpus_dir), "--out", str(train_dir),
        "--epochs", "1", *common,
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


def test_cli_overrides_apply(tmp_path):
    config = tmp_path / "config.yaml"
    tiny_config().save_yaml(config)
    common = ["--config", str(config)]
    corpus_dir = tmp_path / "c"
    gen = ["gen", "--out", str(corpus_dir), "--scans", "2", "--seed", "9", "--mode", "loaded"]
    assert cli.main([*gen, *common]) == 0
    echoed = PipelineConfig.from_yaml(corpus_dir / "config.yaml")
    assert [echoed.scene.seed, echoed.oracle.seed, echoed.selection.seed, echoed.train.seed] == [9] * 4
    assert echoed.mode == "loaded"

    run_dir = tmp_path / "r"
    assert cli.main([
        "refine", "--data", str(corpus_dir), "--out", str(run_dir), *common,
        "--c-u", "2.5", "--boundary-budget", "11", "--n-u", "7",
    ]) == 0
    echoed = PipelineConfig.from_yaml(run_dir / "config.yaml")
    assert echoed.selection.c_u == 2.5
    assert echoed.selection.boundary_budget == 11
    assert echoed.selection.n_u == 7

    train_dir = tmp_path / "t"
    assert cli.main([
        "train", "--data", str(corpus_dir), "--out", str(train_dir), *common, "--epochs", "1",
    ]) == 0
    assert PipelineConfig.from_yaml(train_dir / "config.yaml").train.epochs == 1
    assert len((train_dir / "train_log.txt").read_text().splitlines()) == 1
