import csv
import json
from pathlib import Path

import numpy as np
import pytest

from gridrank import cli, grid, model, training


@pytest.mark.parametrize("override,message", [
    ('train.epochs="abc"', "train.epochs must be of type int, got 'abc'"),
    ("train.batch_size=2.5", "train.batch_size must be of type int, got 2.5"),
    ("train.margin=0", "margin must be > 0"),
    ("eval.ks=[0,5]", "eval.ks must be a non-empty list of cutoffs >= 1, got [0, 5]"),
    ("eval.ks=[]", "eval.ks must be a non-empty list of cutoffs >= 1, got []"),
    ("eval.radius=-1", "eval.radius must be >= 0, got -1.0"),
    ("eval.crossk_k=0", "eval.crossk_k and eval.crossk_sims must be >= 1, got 0 and 99"),
    ("eval.crossk_sims=0", "eval.crossk_k and eval.crossk_sims must be >= 1, got 10 and 0"),
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
])
def test_bad_override_exits_with_config_error(override, message, capsys):
    assert cli.main(["--set", override, "config-schema"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


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
    assert "gives more than 1000 cross-K distances" in one_line_error(capsys, "config error:")
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


def dataset_copy(manifest, directory, name, edit):
    """A copy of the dataset at ``manifest`` in ``directory``, with ``edit``
    applied to the lines of its CSV ``name``; returns the copy's manifest."""
    source = Path(manifest).parent
    directory.mkdir()
    for path in source.iterdir():
        lines = path.read_text().splitlines()
        (directory / path.name).write_text("\n".join(edit(lines) if path.name == name else lines) + "\n")
    return str(directory / "manifest.json")


def first_key(text):
    """An edit for ``dataset_copy`` that sets the first key of the first record to ``text``."""
    return lambda lines: lines[:1] + [text + "," + lines[1].split(",", 1)[1]] + lines[2:]


@pytest.fixture
def bad_inputs(manifest, tmp_path):
    """Placeholders for the argv of ``test_bad_input_exits_with_one_line``:
    the dataset, dataset manifests and checkpoint manifests with one field
    broken, and a directory."""
    data = grid.load_grid(manifest)
    params = model.init_params(model.ModelConfig.for_grid(data, hidden=4, recurrent_hidden=4, window=3,
                                                          embed_dim=3))
    checkpoint = model.save_checkpoint(tmp_path / "ckpt", params)
    dataset = Path(manifest)
    return {
        "{data}": manifest,
        "{dir}": str(tmp_path),
        "{out}": str(tmp_path / "out"),
        "{no_f_t}": edited_copy(dataset, "no_f_t.json", lambda m: m["files"].pop("f_t")),
        "{M_four}": edited_copy(dataset, "M_four.json", lambda m: m.update(M="four")),
        "{files_list}": edited_copy(dataset, "files_list.json", lambda m: m.update(files=["f_t.csv"])),
        "{no_offset}": edited_copy(checkpoint, "no_offset.json", lambda m: m["tensors"][0].pop("offset")),
        "{no_name}": edited_copy(checkpoint, "no_name.json", lambda m: m["tensors"][1].pop("name")),
        "{shape_5}": edited_copy(checkpoint, "shape_5.json", lambda m: m["tensors"][0].update(shape=5)),
        "{offset_half}": edited_copy(checkpoint, "offset_half.json", lambda m: m["tensors"][0].update(offset=0.5)),
        "{seed_null}": edited_copy(checkpoint, "seed_null.json", lambda m: m["config"].update(seed=None)),
        "{no_checkpoint}": str(tmp_path / "absent"),
        "{f_st_abc}": dataset_copy(manifest, tmp_path / "f_st_abc", "f_st.csv",
                                   lambda lines: lines[:1] + [lines[1].rsplit(",", 1)[0] + ",abc"] + lines[2:]),
        "{y_header_only}": dataset_copy(manifest, tmp_path / "y_header_only", "y.csv", lambda lines: lines[:1]),
        "{y_key_nan}": dataset_copy(manifest, tmp_path / "y_key_nan", "y.csv", first_key("nan")),
        "{y_key_1e300}": dataset_copy(manifest, tmp_path / "y_key_1e300", "y.csv", first_key("1e300")),
    }


EVALUATE_HA = ["evaluate", "--predictor", "ha", "--out", "{out}", "--data"]
EVALUATE_MODEL = ["--set", "eval.ks=[5, 10]", "evaluate", "--data", "{data}", "--out", "{out}", "--checkpoint"]
TRAIN = ["train", "--out", "{out}", "--data"]
CROSSK_HA = ["crossk", "--predictor", "ha", "--out", "{out}", "--data"]
BAD_F_ST = "malformed rows in f_st.csv: could not convert string 'abc'"
NO_Y = "dimension mismatch in y: missing record at (row=0, col=0, t=0)"
BAD_Y_KEY = "non-integer key in y.csv"


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
    (EVALUATE_HA + ["{no_f_t}"], cli.EXIT_DATA, "KeyError('f_t')"),
    (EVALUATE_HA + ["{M_four}"], cli.EXIT_DATA, "ValueError"),
    (EVALUATE_HA + ["{files_list}"], cli.EXIT_DATA, "TypeError"),
    (EVALUATE_MODEL + ["{no_offset}"], cli.EXIT_DATA, "KeyError('offset')"),
    (EVALUATE_MODEL + ["{no_name}"], cli.EXIT_DATA, "KeyError('name')"),
    (EVALUATE_MODEL + ["{shape_5}"], cli.EXIT_DATA, "TypeError"),
    (EVALUATE_MODEL + ["{offset_half}"], cli.EXIT_DATA, "TypeError"),
    (EVALUATE_MODEL + ["{seed_null}"], cli.EXIT_DATA, "TypeError"),
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
], ids=["rank-day-foo", "coords-negative", "coords-zero", "config-directory", "adam-beta1", "adam-beta2-eps",
        "model-seed", "train-gain-cap", "train-warmup-mode", "manifest-no-f_t", "manifest-M-four",
        "manifest-files-list", "checkpoint-no-offset", "checkpoint-no-name", "checkpoint-shape-5",
        "checkpoint-offset-half", "checkpoint-seed-null", "evaluate-no-checkpoint", "crossk-no-checkpoint",
        "train-f_st-abc", "evaluate-f_st-abc", "crossk-f_st-abc", "train-y-header-only", "evaluate-y-header-only",
        "crossk-y-header-only", "evaluate-y-key-nan", "evaluate-y-key-1e300"])
@pytest.mark.filterwarnings("error")
def test_bad_input_exits_with_one_line(bad_inputs, argv, code, message, capsys):
    """Each bad input exits with its code and one stderr line, raises no
    warning (outside pytest a warning prints another stderr line), and
    leaves no run directory behind."""
    assert cli.main([bad_inputs.get(arg, arg) for arg in argv]) == code
    prefix = {cli.EXIT_CONFIG: "config error:", cli.EXIT_DATA: "data error:"}[code]
    assert message in one_line_error(capsys, prefix)
    assert not Path(bad_inputs["{out}"]).exists()
