import pytest

from gridrank import cli, grid, model, training


@pytest.mark.parametrize("override,message", [
    ('train.epochs="abc"', "train.epochs must be of type int, got 'abc'"),
    ("train.batch_size=2.5", "train.batch_size must be of type int, got 2.5"),
    ("train.margin=0", "margin must be > 0"),
])
def test_bad_override_exits_with_config_error(override, message, capsys):
    assert cli.main(["--set", override, "config-schema"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


def test_file_and_override_values_coerced_by_field_type(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"train": {"lr_main": 1, "gain_cap": 3}, "eval": {"ks": [5, 10]}}')
    config = cli.load_run_config(str(path), ["train.epochs=30", "model.fixed_gate=null", "out_dir=runs/x"])
    assert config.train.lr_main == 1.0 and isinstance(config.train.lr_main, float)
    assert config.train.gain_cap == 3.0 and config.train.epochs == 30
    assert config.model.fixed_gate is None and config.eval.ks == [5, 10] and config.out_dir == "runs/x"


SMALL_MODEL = ["--set", "model.hidden=4", "--set", "model.recurrent_hidden=4", "--set", "model.window=3",
               "--set", "model.embed_dim=3"]


@pytest.fixture
def manifest(tmp_path):
    sizes = ["--set", "data.rows=4", "--set", "data.cols=4", "--set", "data.periods=30"]
    assert cli.main(sizes + ["gen-data", "--out", str(tmp_path / "data")]) == cli.EXIT_OK
    return str(tmp_path / "data" / "manifest.json")


def one_line_error(capsys, prefix):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(prefix) and "Traceback" not in err
    return err


def test_eval_k_above_grid_size_exits_before_any_epoch(manifest, tmp_path, capsys, monkeypatch):
    built = []
    monkeypatch.setattr(training, "forward", lambda *args: built.append(args))
    code = cli.main(SMALL_MODEL + ["--set", "train.epochs=1", "--set", "train.warmup_epochs=1",
                                   "--set", "train.eval_k=17", "train", "--data", manifest,
                                   "--out", str(tmp_path / "run")])
    assert code == cli.EXIT_CONFIG
    assert "train.eval_k=17 exceeds the grid's 16 locations" in one_line_error(capsys, "config error:")
    assert built == [] and not (tmp_path / "run").exists()


def test_evaluate_cutoff_above_grid_size_is_a_config_error(manifest, tmp_path, capsys):
    code = cli.main(["--set", "eval.ks=[5, 17]", "evaluate", "--data", manifest, "--predictor", "ha",
                     "--out", str(tmp_path / "eval")])
    assert code == cli.EXIT_CONFIG
    assert "[17] exceed the grid's 16 locations" in one_line_error(capsys, "config error:")


def test_missing_manifest_is_a_data_error(tmp_path, capsys):
    code = cli.main(["evaluate", "--data", str(tmp_path / "absent.json"), "--predictor", "ha",
                     "--out", str(tmp_path / "eval")])
    assert code == cli.EXIT_DATA
    assert "missing file" in one_line_error(capsys, "data error:")


def test_truncated_checkpoint_is_a_data_error(manifest, tmp_path, capsys):
    data = grid.load_grid(manifest)
    params = model.init_params(model.ModelConfig.for_grid(data, hidden=4, recurrent_hidden=4, window=3,
                                                          embed_dim=3))
    model.save_checkpoint(tmp_path / "ckpt", params)
    blob = tmp_path / "ckpt" / model.CHECKPOINT_BLOB
    blob.write_bytes(blob.read_bytes()[:blob.stat().st_size // 2])
    code = cli.main(SMALL_MODEL + ["--set", "eval.ks=[5, 10]", "evaluate", "--data", manifest,
                                   "--checkpoint", str(tmp_path / "ckpt"), "--out", str(tmp_path / "eval")])
    assert code == cli.EXIT_DATA
    assert "checkpoint.bin holds" in one_line_error(capsys, "data error:")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_diverging_training_is_a_numerical_failure(manifest, tmp_path, capsys):
    code = cli.main(SMALL_MODEL + ["--set", "train.epochs=1", "--set", "train.warmup_epochs=1",
                                   "--set", "train.batch_size=1", "--set", "train.lr_warmup=1e300",
                                   "train", "--data", manifest, "--out", str(tmp_path / "run")])
    assert code == cli.EXIT_NUMERIC
    one_line_error(capsys, "numerical failure:")
