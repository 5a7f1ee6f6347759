import pytest

from gridrank import cli


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
