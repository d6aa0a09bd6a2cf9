import dataclasses
import shutil

import numpy as np
import pytest

from rangerefine import cli, pipeline
from rangerefine.coarse import OracleNoiseSpec, oracle_coarse
from rangerefine.errors import DataFormatError
from rangerefine.kitti_io import ClassMap, PointCloud, read_labels, read_point_cloud, write_labels
from rangerefine.knn_refiner import KnnConfig
from rangerefine.pipeline import (
    PipelineConfig,
    build_pool_for_scan,
    export_ply,
    generate_corpus,
    refine_scan,
    run_eval,
    run_refine,
    run_train,
)
from rangerefine.projection import ProjectionConfig, back_project_labels, project
from rangerefine.refiner import ModelDims, RefinerModel, TrainConfig, load_checkpoint, save_checkpoint
from rangerefine.scanner import SyntheticSceneSpec
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
    path = tmp_path / "config.yaml"
    path.write_text("refine_context_limit: 16384\n")
    with pytest.raises(DataFormatError, match="unknown keys in config: .*refine_context_limit"):
        PipelineConfig.from_yaml(path)
    assert cli.main(["gen", "--out", str(tmp_path / "c"), "--config", str(path)]) == 2
    assert "unknown keys in config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, field, value",
    [
        ("oracle", "blur_radius", "1.5"),
        ("selection", "n_u", "true"),
        ("knn", "window", "5.0"),
        ("projection", "width", "'2048'"),
        ("train", "epochs", "2.0"),
        ("scene", "seed", "1.5"),
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
        ("--knn-k", "0", "k must be >= 1"),
        ("--boundary-budget", "-5", "boundary_budget must be >= 0"),
        ("--n-u", "0", "n_u must be >= 1"),
        ("--c-u", "-3", "c_u must be > 0"),
        ("--mode", "foo", "mode must be 'oracle' or 'loaded'"),
        ("--scans", "0", "num_scans must be >= 1"),
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
        ("raw_to_train: {0: 0, 1: 1}\nnum_classes: x\n", "invalid literal for int()"),
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
        ("raw_to_train: {0: 0, 1: 1}\nnum_classes: 70000\n", "num_classes 70000 exceeds the 65536"),
    ],
    ids=["document", "table", "integer", "swapped", "raw-overflow", "raw-negative", "key-range",
         "num-classes"],
)
def test_class_map_errors_are_located(tmp_path, capsys, text, message):
    class_map = tmp_path / "classes.yaml"
    class_map.write_text(text)
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
    ],
    ids=["document", "section"],
)
def test_config_structure_errors_are_located(tmp_path, capsys, text, message):
    path = tmp_path / "config.yaml"
    path.write_text(text)
    assert cli.main(["gen", "--out", str(tmp_path / "c"), "--config", str(path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize(
    "kind, text",
    [("config", "knn: {k: [\n"), ("class map", "num_classes: [\n")],
    ids=["config", "class_map"],
)
def test_malformed_yaml_is_located(tmp_path, capsys, kind, text):
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    config = bad
    if kind == "class map":
        config = tmp_path / "config.yaml"
        config.write_text(f"class_map: {bad}\n")
    assert cli.main(["gen", "--out", str(tmp_path / "c"), "--config", str(config)]) == 2
    assert f"{kind} {bad} is not valid YAML" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize(
    "missing", ["config", "class_map", "model", "scan", "labels", "config_dir", "model_dir"]
)
def test_cli_missing_input_file_exits_2(tmp_path, capsys, missing):
    gone = str(tmp_path / "no-such-file")
    folder = str(tmp_path)  # a directory where a file is expected
    config = tmp_path / "config.yaml"
    config.write_text(f"class_map: {gone}\n")
    scan = tmp_path / "scan.bin"
    scan.write_bytes(np.zeros((4, 4), dtype="<f4").tobytes())
    out = str(tmp_path / "out")
    argv = {
        "config": ["gen", "--out", out, "--config", gone],
        "class_map": ["gen", "--out", out, "--config", str(config)],
        "model": ["refine", "--data", out, "--out", out, "--model", gone],
        "scan": ["project", "--scan", gone, "--out", out],
        "labels": ["export", "--scan", str(scan), "--labels", gone, "--out", out],
        "config_dir": ["gen", "--out", out, "--config", folder],
        "model_dir": ["refine", "--data", out, "--out", out, "--model", folder],
    }[missing]
    assert cli.main(argv) == 2
    assert (folder if missing.endswith("_dir") else gone) in capsys.readouterr().err


def test_config_accepts_integer_float_fields():
    cfg = PipelineConfig.from_dict(
        {"selection": {"c_u": 1}, "oracle": {"flip_rate": 0}, "train": {"learning_rate": 3}}
    )
    assert (cfg.selection.c_u, cfg.oracle.flip_rate, cfg.train.learning_rate) == (1, 0, 3)


# every settable value, as (section, field); None is the top level
SETTABLE = [
    ("knn", "k"), ("knn", "window"),
    ("oracle", "blur_radius"), ("oracle", "flip_rate"), ("oracle", "seed"),
    ("oracle", "temperature"),
    ("projection", "height"), ("projection", "width"),
    ("scene", "azimuth_steps"), ("scene", "boxes"), ("scene", "cylinders"),
    ("scene", "planes"), ("scene", "seed"),
    ("selection", "boundary_budget"), ("selection", "c_u"), ("selection", "n_u"),
    ("selection", "seed"),
    ("train", "epochs"), ("train", "learning_rate"), ("train", "seed"),
    (None, "class_map"), (None, "mode"), (None, "use_knn"), (None, "use_refiner"),
]


def test_config_schema_is_pinned():
    doc = dataclasses.asdict(PipelineConfig())
    leaves = set()
    for key, value in doc.items():
        if isinstance(value, dict):
            leaves |= {(key, name) for name in value}
        else:
            leaves.add((None, key))
    assert len(SETTABLE) == 24
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
    assert (out / "report.txt").exists() and (out / "report.kv").exists()
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
    assert cli.main(["refine", "--data", str(one_scan), "--out", str(out), "--no-refiner"]) == 2
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


def test_no_knn_reproduces_back_projection(corpus):
    root, cfg = corpus
    cmap = cfg.load_class_map()
    cloud = read_point_cloud(root / "scans" / "000001.bin")
    cloud.labels = read_labels(root / "labels" / "000001.label", cmap)
    cfg_noknn = dataclasses.replace(cfg, use_knn=False)
    labels = refine_scan(cloud, cfg_noknn, cmap, None, root)
    img = project(cloud, cfg.projection)
    seg = oracle_coarse(img, cloud.labels, cfg.oracle, cmap.num_classes)
    pixel_labels = np.argmax(seg.probs, axis=2).astype(np.int32)
    pixel_labels[~img.valid_mask] = cmap.ignore_class
    np.testing.assert_array_equal(labels, back_project_labels(img, pixel_labels))


# --- eval ---


def test_eval_perfect_predictions(tmp_path, corpus):
    root, cfg = corpus
    report = run_eval(root / "labels", root / "labels", cfg.load_class_map(), tmp_path)
    assert report["miou"] == pytest.approx(1.0)
    assert report["oacc"] == pytest.approx(1.0)
    assert (tmp_path / "report.txt").exists()


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


# --- export ---


def test_export_ply_roundtrip(tmp_path):
    pts = np.array([[1.25, -2.5, 0.125, 0.5], [3.0, 4.0, 5.0, 0.1]], dtype=np.float32)
    cloud = PointCloud(pts)
    palette = {0: (128, 128, 128), 3: (255, 0, 0)}
    path = tmp_path / "cloud.ply"
    export_ply(cloud, np.array([3, 0]), palette, path, ignore_class=0)
    lines = path.read_text().splitlines()
    assert lines[0] == "ply"
    assert "element vertex 2" in lines
    body = lines[lines.index("end_header") + 1 :]
    assert len(body) == 2
    x, y, z, r, g, b = body[0].split()
    assert (float(x), float(y), float(z)) == (1.25, -2.5, 0.125)
    assert (r, g, b) == ("255", "0", "0")


def test_export_ply_gray_default_and_missing_class(tmp_path):
    pts = np.zeros((1, 4), dtype=np.float32)
    pts[0, 0] = 1.0
    cloud = PointCloud(pts)
    path = tmp_path / "x.ply"
    export_ply(cloud, np.array([0]), {}, path, ignore_class=0)  # ignore falls back to gray
    assert "128 128 128" in path.read_text()
    with pytest.raises(DataFormatError, match="class 5"):
        export_ply(cloud, np.array([5]), {}, path, ignore_class=0)


def ply_oracle(cloud, labels, palette, ignore_class):
    """Per-point f-string formatting of the PLY file."""
    lines = ["ply", "format ascii 1.0", f"element vertex {len(cloud)}"]
    lines += [f"property float {axis}" for axis in "xyz"]
    lines += [f"property uchar {c}" for c in ("red", "green", "blue")]
    lines.append("end_header")
    for p, cls in zip(cloud.points, labels.tolist()):
        r, g, b = palette[cls] if cls in palette else (128, 128, 128)
        lines.append(f"{p[0]:.6f} {p[1]:.6f} {p[2]:.6f} {r} {g} {b}")
    return ("\n".join(lines) + "\n").encode("ascii")


def test_export_ply_matches_per_point_oracle(tmp_path, rng):
    pts = rng.normal(scale=40.0, size=(500, 4)).astype(np.float32)
    pts[0, :3] = (-0.0, 0.0, -0.0)
    pts[1, :3] = (-1e-9, -123.4567891, 5e-7)  # rounds to -0.000000 and 0.000001
    pts[2, :3] = (-80.0, 1e4, -0.5)
    cloud = PointCloud(pts)
    palette = {1: (255, 0, 0), 2: (0, 200, 17), 4: (7, 7, 255)}
    labels = rng.choice([0, 1, 2, 4], size=500)
    labels[:3] = 0  # ignore class, not in the palette: gray
    path = tmp_path / "cloud.ply"
    export_ply(cloud, labels, palette, path, ignore_class=0)
    assert path.read_bytes() == ply_oracle(cloud, labels, palette, 0)
    export_ply(PointCloud(pts[:0]), labels[:0], palette, path, ignore_class=0)
    assert path.read_bytes() == ply_oracle(PointCloud(pts[:0]), labels[:0], palette, 0)


# --- CLI ---


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["refine"])  # missing required arguments
    assert excinfo.value.code == 1


@pytest.mark.parametrize("command", ["eval", "export", "project"])
def test_cli_commands_without_a_pipeline_take_no_overrides(tmp_path, capsys, command):
    paths = {
        "eval": ["--pred", str(tmp_path), "--gt", str(tmp_path)],
        "export": ["--scan", "s.bin", "--labels", "s.label", "--out", "s.ply"],
        "project": ["--scan", "s.bin", "--out", "s.pgm"],
    }[command]
    for flag in ("--c-u 9", "--boundary-budget 5", "--n-u 7", "--knn-k 3", "--seed 1",
                 "--mode loaded"):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([command, *paths, *flag.split()])
        assert excinfo.value.code == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_cli_data_error_exit_code(tmp_path, capsys):
    # a corpus without scans fails before any output directory is made
    for command in ("train", "refine"):
        assert cli.main([command, "--data", str(tmp_path), "--out", str(tmp_path / "o")]) == 2
        assert "no scans directory" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "case", ["unlabeled-oracle", "negative-probs", "empty-gt", "truncated-pred"]
)
def test_cli_data_errors_are_located(tmp_path, capsys, corpus, case):
    root, cfg = corpus
    data = tmp_path / "data"
    shutil.copytree(root, data)
    out = tmp_path / "out"
    refine = ["refine", "--data", str(data), "--out", str(out), "--no-refiner",
              "--config", str(data / "config.yaml")]
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
    else:
        label = data / "labels" / "000001.label"
        label.write_bytes(label.read_bytes()[:-2])
        argv = ["eval", "--pred", str(data / "labels"), "--gt", str(root / "labels"),
                "--out", str(out)]
        message = f"truncated label file {label}"
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
    assert cli.main([
        "project", "--scan", str(corpus_dir / "scans" / "000000.bin"),
        "--out", str(tmp_path / "range.pgm"), *common,
    ]) == 0
    assert (tmp_path / "range.pgm").read_bytes().startswith(b"P5")

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

    ply_path = tmp_path / "scan.ply"
    assert cli.main([
        "export", "--scan", str(corpus_dir / "scans" / "000000.bin"),
        "--labels", str(run_dir / "predictions" / "000000.label"),
        "--out", str(ply_path), *common,
    ]) == 0
    assert ply_path.exists()


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
        "--no-refiner", "--no-knn", "--c-u", "2.5", "--knn-k", "3", "--boundary-budget", "11",
        "--n-u", "7",
    ]) == 0
    echoed = PipelineConfig.from_yaml(run_dir / "config.yaml")
    assert echoed.selection.c_u == 2.5
    assert echoed.knn.k == 3
    assert echoed.selection.boundary_budget == 11
    assert echoed.selection.n_u == 7
    assert echoed.use_refiner is False and echoed.use_knn is False

    train_dir = tmp_path / "t"
    assert cli.main([
        "train", "--data", str(corpus_dir), "--out", str(train_dir), *common, "--epochs", "1",
    ]) == 0
    assert PipelineConfig.from_yaml(train_dir / "config.yaml").train.epochs == 1
    assert len((train_dir / "train_log.txt").read_text().splitlines()) == 1
