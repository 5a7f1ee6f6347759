import csv
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from gridrank import cli, grid, metrics, model, training

from conftest import write_csv_dataset, write_old_layout


@pytest.mark.parametrize("override,message", [
    ('train.epochs="abc"', "train.epochs must be of type int, got 'abc'"),
    ("train.batch_size=2.5", "train.batch_size must be of type int, got 2.5"),
    ("train.margin=0", "margin must be > 0"),
    ("train.margin=1e-8", "margin must leave 1 + margin^2 > 1 in float64, got 1e-08"),
    ("train.epochs=-1", "train.epochs must be >= 0, got -1"),
    ("train.warmup_epochs=-1", "train.warmup_epochs must be >= 0, got -1"),
    ("train.warmup_epochs=101", "train.warmup_epochs must be at most epochs (100), got 101"),
    ("train.lr_warmup=0", "train.lr_warmup must be positive, got 0.0"),
    ("train.lr_main=-1", "train.lr_main must be positive, got -1.0"),
    ("train.bandwidth=0", "train.bandwidth must be positive, got 0.0"),
    ("train.batch_size=0", "train.batch_size must be >= 1, got 0"),
    ("train.eval_k=0", "train.eval_k must be >= 1, got 0"),
    ("eval.envelope=box", "eval.envelope must be one of ('minmax', 'quantile'), got 'box'"),
    ("train.early_stop_patience=0", "train.early_stop_patience must be >= 1 or null, got 0"),
    ("eval.ks=[0,5]", "eval.ks must be a non-empty list of cutoffs >= 1, got [0, 5]"),
    ("eval.ks=[]", "eval.ks must be a non-empty list of cutoffs >= 1, got []"),
    ("eval.radius=-1", "eval.radius must be >= 0, got -1.0"),
    ("eval.crossk_k=0", "eval.crossk_k must be >= 1, got 0"),
    ("eval.crossk_sims=0", "eval.crossk_sims must be >= 1, got 0"),
    ("data.train_fraction=1.5", "data.train_fraction must be in (0, 1), got 1.5"),
    ("data.train_fraction=0", "data.train_fraction must be in (0, 1), got 0.0"),
    ("train.radius=NaN", "train.radius must be a finite number, got nan"),
    ("eval.radius=NaN", "eval.radius must be a finite number, got nan"),
    ("train.bandwidth=NaN", "train.bandwidth must be a finite number, got nan"),
    ("train.lr_main=Infinity", "train.lr_main must be a finite number, got inf"),
    ("model.fixed_gate=-Infinity", "model.fixed_gate must be a finite number, got -inf"),
    ("model.hidden=0", "hidden must be positive, got 0"),
    ("model.saturation=-1", "saturation must be positive, got -1.0"),
    ("model.fixed_gate=2", "fixed_gate must be in [0, 1], got 2.0"),
    ("model.window=0", "window must be positive, got 0"),
    ("eval.crossk_step=0", "eval.crossk_step must be > 0, got 0.0"),
    ("eval.crossk_max_distance=-1", "eval.crossk_max_distance must be >= 0, got -1.0"),
    ("eval.ks=5", "eval.ks must be a list, got 5"),
    ("data.seed=-1", "data.seed must be >= 0, got -1"),
    ("train.seed=-1", "train.seed must be >= 0, got -1"),
    ("eval.crossk_seed=-1", "eval.crossk_seed must be >= 0, got -1"),
    ("train.epochs", "override 'train.epochs' must look like section.key=value"),
])
def test_bad_override_exits_with_config_error(override, message, capsys):
    """Each message names the key it refuses by its section.key path, and the value."""
    assert cli.main(["--set", override, "config-schema"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    if "=" in override:
        assert err.startswith(f"config error: {override.split('=')[0]} ") and ", got " in err


def test_default_config_round_trips_with_an_unchanged_hash(tmp_path, capsys):
    assert cli.main(["config-schema"]) == cli.EXIT_OK
    path = tmp_path / "default.json"
    path.write_text(capsys.readouterr().out)
    config = cli.load_run_config(str(path), [])
    assert config == cli.RunConfig()
    assert cli.config_hash(config) == "15e21905583cc283ca008e3051eda249de8b161403844e4898999ce301426915"


def test_non_finite_config_file_value_exits_with_config_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"model": {"fixed_gate": NaN}}')
    assert cli.main(["--config", str(path), "config-schema"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "model.fixed_gate must be a finite number, got nan" in err


def test_gradcheck_passes_on_both_checks(capsys):
    assert cli.main(["gradcheck", "--coords", "20"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and all(": PASS " in line for line in lines)


def test_file_and_override_values_coerced_by_field_type(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"train": {"lr_main": 1, "early_stop_patience": 3}, "model": {"fixed_gate": 1}, '
                    '"eval": {"ks": [5, 10]}}')
    config = cli.load_run_config(str(path), ["train.epochs=30", "train.early_stop_patience=null",
                                             "out_dir=runs/x"])
    assert config.train.lr_main == 1.0 and isinstance(config.train.lr_main, float)
    assert config.model.fixed_gate == 1.0 and isinstance(config.model.fixed_gate, float)
    assert config.train.epochs == 30 and config.train.early_stop_patience is None
    assert config.eval.ks == [5, 10] and config.out_dir == "runs/x"


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
    monkeypatch.setattr(training, "batch_backward", lambda *args: built.append(args))
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
    assert not (tmp_path / "eval").exists()


def test_crossk_cutoff_above_grid_size_is_a_config_error(manifest, tmp_path, capsys):
    code = cli.main(["--set", "eval.crossk_k=17", "crossk", "--data", manifest, "--predictor", "ha",
                     "--out", str(tmp_path / "crossk")])
    assert code == cli.EXIT_CONFIG
    assert "eval.crossk_k=17 exceeds the grid's 16 locations" in one_line_error(capsys, "config error:")
    assert not (tmp_path / "crossk").exists()


@pytest.mark.parametrize("max_distance,step", [("1e20", "0.5"), ("500.5", "0.5"), ("4", "1e-300")])
def test_crossk_distance_grid_above_the_limit_is_a_config_error(manifest, tmp_path, capsys, max_distance, step):
    code = cli.main(["--set", f"eval.crossk_max_distance={max_distance}", "--set", f"eval.crossk_step={step}",
                     "crossk", "--data", manifest, "--predictor", "ha", "--out", str(tmp_path / "crossk")])
    assert code == cli.EXIT_CONFIG
    assert "eval.crossk_max_distance gives more than 1000 cross-K distances at crossk_step " in \
        one_line_error(capsys, "config error:")
    assert not (tmp_path / "crossk").exists()


def test_crossk_distance_grid_at_the_limit_and_the_default_grid_run(manifest, tmp_path):
    for extra, count in ([], 9), (["--set", "eval.crossk_max_distance=499.5"], cli.MAX_CROSSK_DISTANCES):
        out = tmp_path / f"crossk{count}"
        code = cli.main(extra + ["--set", "eval.crossk_sims=9", "crossk", "--data", manifest, "--predictor", "ha",
                                 "--out", str(out)])
        assert code == cli.EXIT_OK
        with open(out / "crossk_ha.csv") as fh:
            assert len(list(csv.DictReader(fh))) == count


@pytest.mark.parametrize("k", ["-3", "0", "17"])
def test_rank_k_outside_range_exits_2(manifest, k, capsys):
    assert cli.main(["rank", "--data", manifest, "--predictor", "ha", "--k", k]) == cli.EXIT_CONFIG
    assert f"--k {k} outside [1, 16]" in one_line_error(capsys, "config error:")


def test_rank_k_bounds_are_inclusive(manifest, capsys):
    for k, rows in (("1", 1), ("16", 16)):
        assert cli.main(["rank", "--data", manifest, "--predictor", "ha", "--k", k]) == cli.EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith(f"top-{k} locations") and len(out) == 2 + rows


def test_evaluate_ha_reports_the_tiled_historical_average(manifest, tmp_path):
    out = tmp_path / "eval"
    assert cli.main(["--set", "eval.ks=[3, 5]", "evaluate", "--data", manifest, "--predictor", "ha",
                     "--out", str(out)]) == cli.EXIT_OK
    config, data = cli.RunConfig(), grid.load_grid(manifest)
    splits = training.Splits(train_end=grid.split_boundary(data.periods, config.data.train_fraction))
    _, windows = training.split_windows(data, splits.validate(data.periods), config.model.window)
    days = [w.target for w in windows]
    predicted = np.tile(training.historical_average(data, splits), (len(days), 1))
    want = metrics.metric_report(data.risk_by_location()[:, days].T, predicted, [3, 5], (data.rows, data.cols),
                                 config.eval.radius)
    rows = json.loads((out / "report_ha.json").read_text())["metrics"]
    assert sorted((row["metric"], row["K"]) for row in rows) == sorted(
        (metric, k) for metric in ("ndcg", "prec", "lndcg") for k in (3, 5))
    for row in rows:
        assert row["per_day"] == want.lookup(row["metric"], row["K"]).per_day
    assert (out / "report_ha.csv").exists()


def test_rank_oracle_orders_the_day_by_its_true_risk(manifest, capsys):
    assert cli.main(["rank", "--data", manifest, "--predictor", "oracle", "--day", "20", "--k", "16"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "top-16 locations for period 20 (oracle):"
    rows = [line.split(",") for line in lines[2:]]
    risk = grid.load_grid(manifest).risk_by_location()[:, 20]
    assert sorted(int(row[1]) for row in rows) == list(range(16))
    assert all(float(row[4]) == float(row[5]) == risk[int(row[1])] for row in rows)
    # row and col of the row-major location
    assert all(0 <= int(row[3]) < 4 and int(row[1]) == 4 * int(row[2]) + int(row[3]) for row in rows)
    # descending score, ties by ascending location
    keys = [(-float(row[4]), int(row[1])) for row in rows]
    assert keys == sorted(keys)


def test_an_old_layout_dataset_reads_its_csvs_past_a_stale_copy(manifest, tmp_path):
    """A dataset written while a binary copy sat beside the CSVs names them
    in its manifest, so ``evaluate`` reads the CSVs even when its
    ``tensors.json`` and ``tensors.bin`` hold another grid."""
    old = write_old_layout(grid.load_grid(manifest), tmp_path / "old")
    stale = grid.save_grid(grid.generate_synthetic(8, 4, 4, 30), tmp_path / "stale").parent
    for name in (grid.INDEX_NAME, grid.BLOB_NAME):
        shutil.copyfile(stale / name, old.parent / name)
    reports = []
    for data in (manifest, old):
        out = tmp_path / f"eval_{len(reports)}"
        assert cli.main(["--set", "eval.ks=[5]", "evaluate", "--data", str(data), "--predictor", "ha",
                         "--out", str(out)]) == cli.EXIT_OK
        reports.append((out / "report_ha.json").read_bytes())
    assert reports[0] == reports[1]


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


def test_corrupted_checkpoint_is_a_data_error(manifest, tmp_path, capsys):
    data = grid.load_grid(manifest)
    params = model.init_params(model.ModelConfig.for_grid(data, hidden=4, recurrent_hidden=4, window=3,
                                                          embed_dim=3))
    model.save_checkpoint(tmp_path / "ckpt", params)
    blob = tmp_path / "ckpt" / model.CHECKPOINT_BLOB
    raw = bytearray(blob.read_bytes())
    raw[-1] ^= 0x80
    blob.write_bytes(bytes(raw))
    code = cli.main(SMALL_MODEL + ["--set", "eval.ks=[5, 10]", "evaluate", "--data", manifest,
                                   "--checkpoint", str(tmp_path / "ckpt"), "--out", str(tmp_path / "eval")])
    assert code == cli.EXIT_DATA
    assert "sha256" in one_line_error(capsys, "data error:")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_diverging_training_is_a_numerical_failure(manifest, tmp_path, capsys):
    code = cli.main(SMALL_MODEL + ["--set", "train.epochs=1", "--set", "train.warmup_epochs=1",
                                   "--set", "train.batch_size=1", "--set", "train.lr_warmup=1e300",
                                   "train", "--data", manifest, "--out", str(tmp_path / "run")])
    assert code == cli.EXIT_NUMERIC
    one_line_error(capsys, "numerical failure:")


@pytest.fixture
def window3_checkpoint(manifest, tmp_path):
    code = cli.main(SMALL_MODEL + ["--set", "train.epochs=0", "--set", "train.warmup_epochs=0",
                                   "train", "--data", manifest, "--out", str(tmp_path / "run")])
    assert code == cli.EXIT_OK
    return str(tmp_path / "run" / "checkpoint")


def train_checkpoint(manifest, out, *settings) -> Path:
    """Train the small model with ``--set`` ``settings``; its checkpoint directory."""
    overrides = [arg for setting in settings for arg in ("--set", setting)]
    assert cli.main(SMALL_MODEL + overrides + ["train", "--data", manifest, "--out", str(out)]) == cli.EXIT_OK
    return out / "checkpoint"


def test_every_positive_bandwidth_trains(manifest, tmp_path):
    """Bandwidths whose 1 / (2 pi b^2) overflows, or whose b^2 underflows,
    train like any bandwidth below about 0.026, where the kernel is the
    identity: the third epoch draws from a refreshed distribution."""
    epochs = ("train.epochs=3", "train.warmup_epochs=1")
    identity = train_checkpoint(manifest, tmp_path / "identity", *epochs, "train.bandwidth=0.02")
    for bandwidth in ("1e-154", "3e-155", "1e-160", "1e-300"):
        checkpoint = train_checkpoint(manifest, tmp_path / bandwidth, *epochs, f"train.bandwidth={bandwidth}")
        assert (checkpoint / "checkpoint.bin").read_bytes() == (identity / "checkpoint.bin").read_bytes()


def risk_scaled(directory, factor) -> str:
    """The manifest of a 4 x 4 x 30 dataset whose risk is multiplied by ``factor``."""
    data = grid.generate_synthetic(7, 4, 4, 30, 2)
    data.risk *= factor
    return str(grid.save_grid(data, directory))


def test_risk_whose_total_gain_is_finite_trains_and_evaluates(tmp_path):
    data = risk_scaled(tmp_path / "x100", 100)  # largest risk 1000: sum(2^y - 1) < 2^1004
    assert cli.main(SMALL_MODEL + ["--set", "train.epochs=3", "--set", "train.warmup_epochs=1",
                                   "--set", "train.eval_k=5", "train", "--data", data,
                                   "--out", str(tmp_path / "run")]) == cli.EXIT_OK
    assert cli.main(["--set", "eval.ks=[5]", "evaluate", "--predictor", "ha", "--data", data,
                     "--out", str(tmp_path / "eval")]) == cli.EXIT_OK


def test_untrained_checkpoint_holds_the_train_seed_draw(manifest, tmp_path):
    checkpoint = train_checkpoint(manifest, tmp_path / "run", "train.epochs=0", "train.warmup_epochs=0",
                                  "train.seed=5")
    saved = model.load_checkpoint(checkpoint).named_tensors()
    config = model.ModelConfig.for_grid(grid.load_grid(manifest), hidden=4, recurrent_hidden=4, window=3,
                                        embed_dim=3)
    drawn = model.init_params(config, seed=5).named_tensors()
    assert [name for name, _ in saved] == [name for name, _ in drawn]
    assert all(np.array_equal(a.data, b.data) for (_, a), (_, b) in zip(saved, drawn))
    other = model.init_params(config, seed=6).named_tensors()
    assert not all(np.array_equal(a.data, b.data) for (_, a), (_, b) in zip(saved, other))
    record = json.loads((tmp_path / "run" / "run.json").read_text())
    assert "seed" not in record and record["config"]["train"]["seed"] == 5


def test_train_seed_alone_fixes_the_checkpoint_bytes(manifest, tmp_path):
    schedule = ("train.epochs=2", "train.warmup_epochs=1", "train.batch_size=4")
    blobs = [(train_checkpoint(manifest, tmp_path / f"run{i}", *schedule, f"train.seed={seed}")
              / model.CHECKPOINT_BLOB).read_bytes() for i, seed in enumerate((5, 5, 6))]
    assert blobs[0] == blobs[1] and blobs[0] != blobs[2]


def test_only_the_config_sets_the_data_seed_and_the_out_dir(monkeypatch):
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen-data", "--seed", "3"])
    assert exc.value.code == cli.EXIT_CONFIG
    monkeypatch.setenv("GRIDRANK_OUT_DIR", "runs/env")
    assert cli.load_run_config(None, []).out_dir == cli.RunConfig().out_dir


def test_crossk_takes_the_window_from_the_checkpoint(manifest, window3_checkpoint, tmp_path):
    written = []
    for extra in ([], ["--set", "model.window=3"]):
        out = tmp_path / f"crossk{len(extra)}"
        code = cli.main(extra + ["--set", "eval.crossk_sims=9", "crossk", "--data", manifest,
                                 "--checkpoint", window3_checkpoint, "--out", str(out)])
        assert code == cli.EXIT_OK
        written.append((out / "crossk_model.csv").read_bytes())
    assert written[0] == written[1]


def test_training_log_scores_local_ndcg_at_the_evaluation_radius(manifest, tmp_path):
    settings = SMALL_MODEL + ["--set", "train.epochs=1", "--set", "train.warmup_epochs=0", "--set", "train.eval_k=3",
                              "--set", "train.radius=1", "--set", "eval.radius=1.5", "--set", "eval.ks=[3]"]
    run, out = tmp_path / "run", tmp_path / "eval"
    assert cli.main(settings + ["train", "--data", manifest, "--out", str(run)]) == cli.EXIT_OK
    assert cli.main(settings + ["evaluate", "--data", manifest, "--checkpoint", str(run / "checkpoint"),
                                "--out", str(out)]) == cli.EXIT_OK
    with open(run / "training_log.csv") as fh:
        logged = float(next(csv.DictReader(fh))["val_lndcg@3"])
    report = json.loads((out / "report.json").read_text())
    assert logged == pytest.approx(next(row["mean"] for row in report["metrics"] if row["metric"] == "lndcg"),
                                   abs=1e-12)


def test_a_checkpoint_window_leaving_no_training_window_evaluates(manifest, tmp_path, capsys):
    """On 4 x 4 x 30 (train_end 22) a window of 29 leaves one validation
    window and no training window: evaluate and crossk score the validation
    split alone, and train refuses the split."""
    config = model.ModelConfig.for_grid(grid.load_grid(manifest), hidden=4, recurrent_hidden=4, window=29,
                                        embed_dim=3)
    checkpoint = str(model.save_checkpoint(tmp_path / "ckpt", model.init_params(config)).parent)
    for command in (["--set", "eval.ks=[5, 10]", "evaluate"], ["--set", "eval.crossk_sims=9", "crossk"]):
        code = cli.main(command + ["--data", manifest, "--checkpoint", checkpoint, "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_OK
    capsys.readouterr()
    code = cli.main(SMALL_MODEL + ["--set", "model.window=29", "train", "--data", manifest,
                                   "--out", str(tmp_path / "run")])
    assert code == cli.EXIT_DATA
    assert "empty training split: no feasible windows before train_end" in one_line_error(capsys, "data error:")
    assert not (tmp_path / "run").exists()


def test_rank_checks_the_day_against_the_checkpoint_window(manifest, window3_checkpoint, capsys):
    assert cli.main(["rank", "--data", manifest, "--checkpoint", window3_checkpoint, "--day", "5"]) == cli.EXIT_OK
    assert "top-10 locations for period 5 (model):" in capsys.readouterr().out
    assert cli.main(["rank", "--data", manifest, "--checkpoint", window3_checkpoint, "--day", "2"]) == cli.EXIT_CONFIG
    assert "day 2 has no length-3 input window" in one_line_error(capsys, "config error:")


def test_split_that_disagrees_with_the_normalization_is_a_config_error(manifest, tmp_path, capsys):
    code = cli.main(SMALL_MODEL + ["--set", "data.train_fraction=0.5", "train", "--data", manifest,
                                   "--out", str(tmp_path / "run")])
    assert code == cli.EXIT_CONFIG
    err = one_line_error(capsys, "config error:")
    assert "data.train_fraction=0.5 splits at period 15" in err and "before 22" in err
    assert not (tmp_path / "run").exists()


def edited_copy(path, name, edit):
    """A copy of the JSON file ``path`` beside it, named ``name``, with
    ``edit`` applied to its payload; returns the copy's path."""
    payload = json.loads(path.read_text())
    edit(payload)
    copy = path.parent / name
    copy.write_text(json.dumps(payload))
    return str(copy)


def dataset_copy(manifest, directory, edit):
    """A copy of the dataset directory of ``manifest`` in ``directory``, with
    ``edit`` applied to the copy's directory; returns the copy's manifest."""
    shutil.copytree(Path(manifest).parent, directory)
    edit(directory)
    return str(directory / "manifest.json")


def edit_lines(name, edit):
    """An edit for ``dataset_copy`` that applies ``edit`` to the lines of the file ``name``."""
    def apply(directory):
        path = directory / name
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    return apply


def flip_byte(directory):
    """An edit for ``dataset_copy`` that flips one bit in the middle of ``tensors.bin``."""
    path = directory / grid.BLOB_NAME
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    path.write_bytes(bytes(blob))


def first_key(text):
    """An edit of a CSV's lines that sets the first key of the first record to ``text``."""
    return lambda lines: lines[:1] + [text + "," + lines[1].split(",", 1)[1]] + lines[2:]


def text_file(path, text):
    """Write ``text`` to ``path``; returns the path as a string."""
    path.write_text(text)
    return str(path)


def swapped(first, second, key=None):
    """An edit of a tensor index that swaps the ``key`` ("name" or
    "offset") of its entries named ``first`` and ``second``, or without a
    ``key`` their places in the list. Each pair has one shape, so the
    edited index still covers the blob and its digest still matches."""
    def edit(payload):
        entries = payload["tensors"]
        i, j = (next(n for n, entry in enumerate(entries) if entry["name"] == name) for name in (first, second))
        if key is None:
            entries[i], entries[j] = entries[j], entries[i]
        else:
            entries[i][key], entries[j][key] = entries[j][key], entries[i][key]
    return edit


def index_edit(edit):
    """An edit for ``dataset_copy`` that applies ``edit`` to the payload of its ``tensors.json``."""
    def apply(directory):
        edited_copy(directory / grid.INDEX_NAME, grid.INDEX_NAME, edit)
    return apply


# Same-shape pairs of the 4 x 4 checkpoint and of a d_st = 1 dataset, each
# with the layout of the pair's first entry: (tag, file, first, second, layout).
PAIRS = [("emb", "checkpoint", "adjacency.emb1", "adjacency.emb2",
          "tensors[0] must be {'name': 'adjacency.emb1', 'shape': [16, 3], 'offset': 0}"),
         ("mix", "checkpoint", "adjacency.mix1", "adjacency.mix2",
          "tensors[2] must be {'name': 'adjacency.mix1', 'shape': [3, 3], 'offset': 768}"),
         ("f_st_y", "dataset", "f_st", "y", "tensors[2] must be {'name': 'f_st', 'shape': [4, 4, 30, 1], 'offset': 1728}")]
# Each pair with its names, its offsets or its places in the list swapped, by placeholder.
SWAPS = {f"{{{tag}_{key or 'order'}}}": (file, first, second, key, layout)
         for tag, file, first, second, layout in PAIRS for key in ("name", "offset", None)}


@pytest.fixture(scope="module")
def manifest16(tmp_path_factory):
    """A 16 x 16 dataset: S x S = 2^16 entries, so its builds run on the thread pool."""
    out = tmp_path_factory.mktemp("data16")
    sizes = ["--set", "data.rows=16", "--set", "data.cols=16", "--set", "data.periods=30"]
    assert cli.main(sizes + ["gen-data", "--out", str(out)]) == cli.EXIT_OK
    return str(out / "manifest.json")


# Each field of the model-dataset contract, and its value in a 4 x 4 x 30
# dataset that differs from the default one in that field alone.
MISMATCHED = {"rows": 5, "cols": 5, "d_t": 5, "d_s": 7, "d_st": 4}


@pytest.fixture(scope="module")
def mismatched(tmp_path_factory):
    """``{data_<field>}`` placeholders: for each field of ``MISMATCHED``, the
    manifest of a dataset that differs from ``manifest``'s in that field."""
    manifests = {}
    for name, value in MISMATCHED.items():
        out = tmp_path_factory.mktemp(f"data_{name}")
        sizes = {"rows": 4, "cols": 4, "periods": 30, name: value}
        overrides = [arg for key, size in sizes.items() for arg in ("--set", f"data.{key}={size}")]
        assert cli.main(overrides + ["gen-data", "--out", str(out)]) == cli.EXIT_OK
        manifests[f"{{data_{name}}}"] = str(out / "manifest.json")
    return manifests


@pytest.fixture
def bad_inputs(manifest, manifest16, mismatched, tmp_path):
    """Placeholders for the argv of ``test_bad_input_exits_with_one_line``:
    the dataset, dataset manifests and checkpoint manifests with one field
    broken, copies of a hand-written CSV dataset with one CSV broken,
    copies of the dataset with its tensor file broken, datasets that do not
    match the checkpoint, and a directory."""
    data = grid.load_grid(manifest)
    params = model.init_params(model.ModelConfig.for_grid(data, hidden=4, recurrent_hidden=4, window=3,
                                                          embed_dim=3))
    checkpoint = model.save_checkpoint(tmp_path / "ckpt", params)
    params.table["head.bias"].data[0, 0] = np.nan
    model.save_checkpoint(tmp_path / "head_bias_nan", params)  # with a digest that matches
    dataset = Path(manifest)
    csv_dataset = write_csv_dataset(data, tmp_path / "csv")
    # at d_st = 1, f_st and y have one shape
    d_st_1 = grid.save_grid(grid.generate_synthetic(7, 4, 4, 30, d_st=1), tmp_path / "d_st_1")
    swaps = {}
    for placeholder, (file, first, second, key, _) in SWAPS.items():
        edit, name = swapped(first, second, key), placeholder[1:-1]
        swaps[placeholder] = (edited_copy(checkpoint, f"{name}.json", edit) if file == "checkpoint"
                              else dataset_copy(d_st_1, tmp_path / name, index_edit(edit)))
    return {
        **swaps,
        **mismatched,
        "{data}": manifest,
        "{data16}": manifest16,
        "{checkpoint}": str(checkpoint.parent),
        "{head_bias_nan}": str(tmp_path / "head_bias_nan"),
        "{dir}": str(tmp_path),
        "{out}": str(tmp_path / "out"),
        "{no_f_t}": edited_copy(csv_dataset, "no_f_t.json", lambda m: m["files"].pop("f_t")),
        "{M_four}": edited_copy(dataset, "M_four.json", lambda m: m.update(M="four")),
        "{files_list}": edited_copy(csv_dataset, "files_list.json", lambda m: m.update(files=["f_t.csv"])),
        "{no_offset}": edited_copy(checkpoint, "no_offset.json", lambda m: m["tensors"][0].pop("offset")),
        "{no_name}": edited_copy(checkpoint, "no_name.json", lambda m: m["tensors"][1].pop("name")),
        "{name_list}": edited_copy(checkpoint, "name_list.json", lambda m: m["tensors"][0].update(name=[])),
        "{shape_5}": edited_copy(checkpoint, "shape_5.json", lambda m: m["tensors"][0].update(shape=5)),
        "{offset_half}": edited_copy(checkpoint, "offset_half.json", lambda m: m["tensors"][0].update(offset=0.5)),
        "{seed_null}": edited_copy(checkpoint, "seed_null.json", lambda m: m["config"].update(seed=None)),
        "{entries_twice}": edited_copy(checkpoint, "entries_twice.json", lambda m: m["tensors"].extend(
            [entry for entry in m["tensors"] if entry["name"] in ("lstm.wx", "lstm.bias")])),
        "{dtype_f4}": edited_copy(checkpoint, "dtype_f4.json", lambda m: m.update(dtype="<f4")),
        "{hidden_float}": edited_copy(checkpoint, "hidden_float.json", lambda m: m["config"].update(hidden=32.5)),
        "{hidden_negative}": edited_copy(checkpoint, "hidden_negative.json",
                                         lambda m: m["config"].update(hidden=-1)),
        "{saturation_negative}": edited_copy(checkpoint, "saturation_negative.json",
                                             lambda m: m["config"].update(saturation=-2)),
        "{rows_float}": edited_copy(checkpoint, "rows_float.json", lambda m: m["config"].update(rows=4.0)),
        "{window_true}": edited_copy(checkpoint, "window_true.json", lambda m: m["config"].update(window=True)),
        "{M_float}": edited_copy(dataset, "M_float.json", lambda m: m.update(M=4.5)),
        "{train_end_x}": edited_copy(dataset, "train_end_x.json", lambda m: m["normalization"].update(train_end="x")),
        **{f"{{train_end_{value}}}": edited_copy(dataset, f"train_end_{value}.json",
                                                 lambda m, value=value: m["normalization"].update(train_end=value))
           for value in TRAIN_END_OUTSIDE},
        "{d_t_true}": edited_copy(dataset, "d_t_true.json", lambda m: m.update(d_t=True)),
        "{no_checkpoint}": str(tmp_path / "absent"),
        "{config_absent}": str(tmp_path / "absent.json"),
        "{config_list}": text_file(tmp_path / "list.json", "[1, 2]"),
        "{config_train_5}": text_file(tmp_path / "train_5.json", '{"train": 5}'),
        "{config_malformed}": text_file(tmp_path / "malformed.json", '{"train": '),
        "{f_st_abc}": dataset_copy(csv_dataset, tmp_path / "f_st_abc", edit_lines(
            "f_st.csv", lambda lines: lines[:1] + [lines[1].rsplit(",", 1)[0] + ",abc"] + lines[2:])),
        "{y_header_only}": dataset_copy(csv_dataset, tmp_path / "y_header_only",
                                        edit_lines("y.csv", lambda lines: lines[:1])),
        "{y_key_nan}": dataset_copy(csv_dataset, tmp_path / "y_key_nan", edit_lines("y.csv", first_key("nan"))),
        "{y_key_1e300}": dataset_copy(csv_dataset, tmp_path / "y_key_1e300", edit_lines("y.csv", first_key("1e300"))),
        "{blob_flipped}": dataset_copy(manifest, tmp_path / "blob_flipped", flip_byte),
        "{index_garbled}": dataset_copy(manifest, tmp_path / "index_garbled",
                                        lambda directory: text_file(directory / grid.INDEX_NAME, '{"tensors": ')),
        "{index_missing}": dataset_copy(manifest, tmp_path / "index_missing",
                                        lambda directory: (directory / grid.INDEX_NAME).unlink()),
        "{manifest_alone}": text_file(tmp_path / "alone.json", dataset.read_text()),
        "{risk_x200}": risk_scaled(tmp_path / "risk_x200", 200),
    }


EVALUATE_HA = ["evaluate", "--predictor", "ha", "--out", "{out}", "--data"]
TRAIN_END_OUTSIDE = (-5, 0, 1000)  # integers outside [2, T - 1] for the manifest's normalization.train_end
EVALUATE_MODEL = ["--set", "eval.ks=[5, 10]", "evaluate", "--data", "{data}", "--out", "{out}", "--checkpoint"]
TRAIN = ["train", "--out", "{out}", "--data"]
CROSSK_HA = ["crossk", "--predictor", "ha", "--out", "{out}", "--data"]
BAD_F_ST = "malformed rows in f_st.csv: could not convert string 'abc'"
NO_Y = "dimension mismatch in y: missing record at (row=0, col=0, t=0)"
BAD_Y_KEY = "non-integer key in y.csv"
BAD_BLOB = "tensors.bin does not match the sha256 digest in tensors.json"
GAIN_OVERFLOW = "total gain sum(2^y - 1) of period"
DIVERGING_WARMUP = ["--set", "train.epochs=2", "--set", "train.warmup_epochs=1", "--set", "train.lr_warmup=1e300"]
HUGE_MARGIN = ["--set", "train.epochs=1", "--set", "train.warmup_epochs=0", "--set", "train.margin=1e308"]
# The third importance refresh sees |risk - score| = 1039 while the loss is still finite.
IMPORTANCE_OVERFLOW = ["--set", "model.window=3", "--set", "train.eval_k=5", "--set", "train.epochs=6",
                       "--set", "train.warmup_epochs=1", "--set", "train.batch_size=8", "--set", "train.lr_main=10"]
# The model predictor's commands with the 4 x 4 checkpoint, less the dataset.
ON_CHECKPOINT = {"evaluate": ["--set", "eval.ks=[5, 10]", "evaluate", "--out", "{out}", "--checkpoint", "{checkpoint}"],
                 "crossk": ["crossk", "--out", "{out}", "--checkpoint", "{checkpoint}"],
                 "rank": ["rank", "--checkpoint", "{checkpoint}"]}
MISMATCH_CASES = [(argv + ["--data", f"{{data_{name}}}"], cli.EXIT_DATA,
                   f"dataset does not match the model: {name} {value} (model ")
                  for name, value in MISMATCHED.items() for argv in ON_CHECKPOINT.values()]
MISMATCH_IDS = [f"{command}-{name}-mismatch" for name in MISMATCHED for command in ON_CHECKPOINT]
# Each swap exits 3 naming the first entry out of place and the layout it must have.
SWAP_CASES = [((EVALUATE_MODEL if file == "checkpoint" else EVALUATE_HA) + [placeholder], cli.EXIT_DATA, layout)
              for placeholder, (file, _, _, _, layout) in SWAPS.items()]
SWAP_IDS = [f"{file}-{placeholder[1:-1]}-swapped" for placeholder, (file, *_) in SWAPS.items()]


@pytest.mark.parametrize("argv,code,message", [
    (["rank", "--data", "{data}", "--predictor", "ha", "--day", "foo"], cli.EXIT_CONFIG,
     "--day must be a period index or 'last', got 'foo'"),
    (["gradcheck", "--coords", "-5"], cli.EXIT_CONFIG, "--coords must be >= 1, got -5"),
    (["gradcheck", "--coords", "0"], cli.EXIT_CONFIG, "--coords must be >= 1, got 0"),
    (["--config", "{dir}", "config-schema"], cli.EXIT_CONFIG, "Is a directory"),
    (["--set", "train.adam_beta1=1", "config-schema"], cli.EXIT_CONFIG,
     "unknown config key(s) ['adam_beta1'] in section train"),
    (["--set", "train.adam_beta2=-3", "--set", "train.adam_eps=0", "config-schema"], cli.EXIT_CONFIG,
     "unknown config key(s) ['adam_beta2', 'adam_eps'] in section train"),
    (["--set", "model.seed=1", "config-schema"], cli.EXIT_CONFIG, "unknown config key(s) ['seed'] in section model"),
    (["--set", "train.gain_cap=3", "config-schema"], cli.EXIT_CONFIG,
     "unknown config key(s) ['gain_cap'] in section train"),
    (["--set", "train.warmup_mode=bce", "config-schema"], cli.EXIT_CONFIG,
     "unknown config key(s) ['warmup_mode'] in section train"),
    (EVALUATE_HA + ["{no_f_t}"], cli.EXIT_DATA, "no_f_t.json: files lacks keys ['f_t']"),
    (EVALUATE_HA + ["{M_four}"], cli.EXIT_DATA, "M_four.json: M must be of type int, got 'four'"),
    (EVALUATE_HA + ["{files_list}"], cli.EXIT_DATA, "files_list.json: files must be a JSON object, got ['f_t.csv']"),
    (EVALUATE_MODEL + ["{no_offset}"], cli.EXIT_DATA, "no_offset.json: tensors[0] lacks keys ['offset']"),
    (EVALUATE_MODEL + ["{no_name}"], cli.EXIT_DATA, "no_name.json: tensors[1] lacks keys ['name']"),
    (EVALUATE_MODEL + ["{name_list}"], cli.EXIT_DATA, "name_list.json: tensors[0].name must be of type str, got []"),
    (EVALUATE_MODEL + ["{shape_5}"], cli.EXIT_DATA, "shape_5.json: tensors[0].shape must be a list, got 5"),
    (EVALUATE_MODEL + ["{offset_half}"], cli.EXIT_DATA, "offset_half.json: tensors[0].offset must be of type int, got 0.5"),
    (EVALUATE_MODEL + ["{seed_null}"], cli.EXIT_DATA, "seed_null.json: config has unknown keys ['seed']"),
    (EVALUATE_MODEL + ["{entries_twice}"], cli.EXIT_DATA,
     "entries_twice.json: tensors[14] must be absent, got {'name': 'lstm.wx'"),
    (EVALUATE_MODEL + ["{dtype_f4}"], cli.EXIT_DATA, "dtype_f4.json: dtype must be '<f8', got '<f4'"),
    (EVALUATE_MODEL + ["{head_bias_nan}"], cli.EXIT_DATA, "checkpoint entry head.bias holds a non-finite value"),
    (EVALUATE_MODEL + ["{hidden_float}"], cli.EXIT_DATA, "hidden_float.json: config.hidden must be of type int, got 32.5"),
    (EVALUATE_MODEL + ["{hidden_negative}"], cli.EXIT_DATA, "hidden_negative.json: config.hidden must be positive, got -1"),
    (EVALUATE_MODEL + ["{saturation_negative}"], cli.EXIT_DATA,
     "saturation_negative.json: config.saturation must be positive, got -2.0"),
    (EVALUATE_MODEL + ["{rows_float}"], cli.EXIT_DATA, "rows_float.json: config.rows must be of type int, got 4.0"),
    (EVALUATE_MODEL + ["{window_true}"], cli.EXIT_DATA, "window_true.json: config.window must be of type int, got True"),
    (["crossk", "--checkpoint", "{hidden_float}", "--out", "{out}", "--data", "{data}"], cli.EXIT_DATA,
     "hidden_float.json: config.hidden must be of type int, got 32.5"),
    (EVALUATE_HA + ["{M_float}"], cli.EXIT_DATA, "M_float.json: M must be of type int, got 4.5"),
    (EVALUATE_HA + ["{d_t_true}"], cli.EXIT_DATA, "d_t_true.json: d_t must be of type int, got True"),
    (EVALUATE_MODEL + ["{no_checkpoint}"], cli.EXIT_DATA, "missing file"),
    (["crossk", "--checkpoint", "{no_checkpoint}", "--out", "{out}", "--data", "{data}"], cli.EXIT_DATA,
     "missing file"),
    (TRAIN + ["{f_st_abc}"], cli.EXIT_DATA, BAD_F_ST),
    (EVALUATE_HA + ["{f_st_abc}"], cli.EXIT_DATA, BAD_F_ST),
    (CROSSK_HA + ["{f_st_abc}"], cli.EXIT_DATA, BAD_F_ST),
    (TRAIN + ["{y_header_only}"], cli.EXIT_DATA, NO_Y),
    (EVALUATE_HA + ["{y_header_only}"], cli.EXIT_DATA, NO_Y),
    (CROSSK_HA + ["{y_header_only}"], cli.EXIT_DATA, NO_Y),
    (EVALUATE_HA + ["{y_key_nan}"], cli.EXIT_DATA, BAD_Y_KEY),
    (EVALUATE_HA + ["{y_key_1e300}"], cli.EXIT_DATA, BAD_Y_KEY),
    (TRAIN + ["{blob_flipped}"], cli.EXIT_DATA, BAD_BLOB),
    (EVALUATE_HA + ["{blob_flipped}"], cli.EXIT_DATA, BAD_BLOB),
    (EVALUATE_HA + ["{index_garbled}"], cli.EXIT_DATA, "malformed dataset index manifest"),
    (CROSSK_HA + ["{index_garbled}"], cli.EXIT_DATA, "tensors.json: Expecting value: line 1 column 13 (char 12)"),
    (EVALUATE_HA + ["{index_missing}"], cli.EXIT_DATA, "missing file"),
    (EVALUATE_HA + ["{manifest_alone}"], cli.EXIT_DATA, "missing file"),
    (["--set", "eval.ks=[5]"] + EVALUATE_HA + ["{risk_x200}"], cli.EXIT_DATA, GAIN_OVERFLOW),
    (SMALL_MODEL + ["--set", "train.eval_k=5"] + TRAIN + ["{risk_x200}"], cli.EXIT_DATA, GAIN_OVERFLOW),
    (CROSSK_HA + ["{risk_x200}"], cli.EXIT_DATA, GAIN_OVERFLOW),
    (DIVERGING_WARMUP + TRAIN + ["{data}"], cli.EXIT_NUMERIC, "non-finite"),
    (HUGE_MARGIN + TRAIN + ["{data}"], cli.EXIT_NUMERIC, "non-finite"),
    (SMALL_MODEL + DIVERGING_WARMUP + TRAIN + ["{data16}"], cli.EXIT_NUMERIC, "non-finite"),
    (IMPORTANCE_OVERFLOW + TRAIN + ["{data}"], cli.EXIT_NUMERIC,
     "importance 2^|risk - score| - 1 overflows float64 (largest |risk - score| 1039.38)"),
    (["--set", "eval.crossk_sims=100000000"] + CROSSK_HA + ["{data}"], cli.EXIT_CONFIG,
     f"eval.crossk_sims must be at most {cli.MAX_CROSSK_SIMS}, got 100000000"),
    (["--config", "{config_absent}", "config-schema"], cli.EXIT_CONFIG,
     "absent.json: No such file or directory"),
    (["--config", "{config_list}", "config-schema"], cli.EXIT_CONFIG, "config root must be a JSON object"),
    (["--config", "{config_train_5}", "config-schema"], cli.EXIT_CONFIG, "config section train must be an object"),
    (["--config", "{config_train_5}", "--set", "train.epochs=3", "config-schema"], cli.EXIT_CONFIG,
     "config section train must be an object"),
    (["--config", "{config_malformed}", "config-schema"], cli.EXIT_CONFIG, "malformed config"),
    (["rank", "--data", "{data}", "--predictor", "ha", "--day", "500"], cli.EXIT_CONFIG,
     "day 500 outside study period [0, 30)"),
    (["evaluate", "--data", "{data}", "--out", "{out}"], cli.EXIT_CONFIG,
     "--checkpoint is required with the model predictor"),
    (EVALUATE_HA + ["{train_end_x}"], cli.EXIT_DATA,
     "train_end_x.json: normalization.train_end must be of type int, got 'x'"),
] + [(EVALUATE_HA + [f"{{train_end_{value}}}"], cli.EXIT_DATA,
      f"train_end_{value}.json: normalization.train_end must lie in [2, 29], got {value}")
     for value in TRAIN_END_OUTSIDE] + MISMATCH_CASES + SWAP_CASES, ids=[
        "rank-day-foo", "coords-negative", "coords-zero", "config-directory", "adam-beta1", "adam-beta2-eps",
        "model-seed", "train-gain-cap", "train-warmup-mode", "manifest-no-f_t", "manifest-M-four",
        "manifest-files-list", "checkpoint-no-offset", "checkpoint-no-name", "checkpoint-name-list",
        "checkpoint-shape-5", "checkpoint-offset-half", "checkpoint-seed-null", "checkpoint-entries-twice",
        "checkpoint-dtype-f4", "checkpoint-head-bias-nan", "checkpoint-hidden-float", "checkpoint-hidden-negative",
        "checkpoint-saturation-negative", "checkpoint-rows-float",
        "checkpoint-window-true",
        "crossk-checkpoint-hidden-float", "manifest-M-float", "manifest-d_t-true", "evaluate-no-checkpoint", "crossk-no-checkpoint",
        "train-f_st-abc", "evaluate-f_st-abc", "crossk-f_st-abc", "train-y-header-only", "evaluate-y-header-only",
        "crossk-y-header-only", "evaluate-y-key-nan", "evaluate-y-key-1e300", "train-blob-byte-flipped",
        "evaluate-blob-byte-flipped", "evaluate-index-garbled", "crossk-index-garbled", "evaluate-index-missing",
        "evaluate-manifest-without-files-or-index", "evaluate-risk-x200", "train-risk-x200", "crossk-risk-x200",
        "train-diverging-warmup",
        "train-huge-margin", "train-diverging-warmup-pooled", "train-importance-overflow", "crossk-sims-past-limit",
        "config-absent", "config-root-list", "config-section-int", "config-section-int-with-override",
        "config-malformed-json", "rank-day-500", "evaluate-model-without-checkpoint",
        "manifest-train-end-string"] + [f"manifest-train-end-{value}" for value in TRAIN_END_OUTSIDE]
    + MISMATCH_IDS + SWAP_IDS)
@pytest.mark.filterwarnings("error")
def test_bad_input_exits_with_one_line(bad_inputs, argv, code, message, capsys):
    """Each bad input exits with its code and one stderr line, raises no
    warning (outside pytest a warning prints another stderr line), and
    leaves no run directory behind."""
    assert cli.main([bad_inputs.get(arg, arg) for arg in argv]) == code
    prefix = {cli.EXIT_CONFIG: "config error:", cli.EXIT_DATA: "data error:",
              cli.EXIT_NUMERIC: "numerical failure:"}[code]
    assert message in one_line_error(capsys, prefix)
    assert not Path(bad_inputs["{out}"]).exists()
