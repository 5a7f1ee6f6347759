"""Bad values for every config key and for the tensor-file manifests:
each run exits with a documented code, with at most one stderr line and
never a traceback.

Each key of the run config is set to each of ``BAD_VALUES`` in turn,
under ``config-schema``, the subcommand that only loads and validates the
config (exit 0 or 2). Each ``data.*`` key also runs them under
``gen-data`` on a 4 x 4 x 30 grid, and every dataset it writes loads back
to the same arrays from its binary copy and from its CSVs.

On a 4 x 4 x 30 dataset and a checkpoint trained on it for one epoch,
each key of ``checkpoint.json``, of its first and last entries and of its
config is set to each of ``MANIFEST_VALUES`` or deleted, under
``evaluate --predictor model`` (exit 0, 2 or 3), and so is the blob cut
short, grown or emptied. The same edits of the dataset's ``tensors.json``
leave ``evaluate --predictor ha`` writing the intact dataset's report:
the CSVs are read instead of a copy that does not check out.
"""

import contextlib
import io
import json
import shutil
import traceback
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from gridrank import cli, grid, model

BAD_VALUES = ["null", "true", "-1", "0", "1.5", '"x"', "[]", "{}", "1e308", "-1e308", "1e-300", "[0]",
              "[1,2,3]", "[-5]", "2"]


def config_keys(section: dict, prefix: str = "") -> list[str]:
    """The dotted path of every leaf of a config section, as ``--set`` takes it."""
    keys = []
    for name, value in section.items():
        keys += config_keys(value, f"{prefix}{name}.") if isinstance(value, dict) else [prefix + name]
    return keys


KEYS = config_keys(asdict(cli.RunConfig()))


def test_the_keys_reach_into_every_section():
    assert {"data.seed", "model.fixed_gate", "train.epochs", "eval.envelope", "out_dir"} <= set(KEYS)


def run(argv: list[str], value: str, failures: list[str],
        codes: tuple[int, ...] = (cli.EXIT_OK, cli.EXIT_CONFIG)) -> int | None:
    """``cli.main(argv)``'s exit code; a traceback, an exit code not in
    ``codes``, or more than one stderr line is appended to ``failures``
    under ``value`` (a traceback gives None)."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # a traceback: record it with the case that raised it
        failures.append(f"{value}: {traceback.format_exc(limit=-1).strip()}")
        return None
    text = err.getvalue()
    if code not in codes or text.count("\n") > 1 or "Traceback" in text:
        failures.append(f"{value}: exit {code}, stderr {text!r}")
    return code


@pytest.mark.parametrize("key", KEYS)
def test_every_bad_value_exits_0_or_2_with_at_most_one_line(key):
    failures = []
    for value in BAD_VALUES:
        run(["--set", f"{key}={value}", "config-schema"], value, failures)
    assert not failures, "\n".join(failures)


SMALL = ["--set", "data.rows=4", "--set", "data.cols=4", "--set", "data.periods=30"]


@pytest.mark.parametrize("key", [key for key in KEYS if key.startswith("data.")])
def test_every_bad_data_value_under_gen_data(key, tmp_path, monkeypatch):
    """Each written dataset loads from ``tensors.bin`` without a CSV parse,
    and to the same bits as from its CSVs once ``tensors.json`` is gone."""
    parses = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: parses.append(1) or loadtxt(*args, **kwargs))
    failures = []
    for i, value in enumerate(BAD_VALUES):
        out = tmp_path / str(i)
        if run(SMALL + ["--set", f"{key}={value}", "gen-data", "--out", str(out)], value, failures) != cli.EXIT_OK:
            continue
        binary = grid.load_grid(out)
        if parses:
            failures.append(f"{value}: the binary copy was not used")
        (out / grid.INDEX_NAME).unlink()
        parsed = grid.load_grid(out)
        if len(parses) != 4 or binary.normalization != parsed.normalization or not all(
                getattr(binary, name).tobytes() == getattr(parsed, name).tobytes()
                for name in ("temporal", "spatial", "spatiotemporal", "risk")):
            failures.append(f"{value}: the binary copy and the CSVs disagree")
        parses.clear()
    assert not failures, "\n".join(failures)


MANIFEST_VALUES = ["null", "true", "-1", "0", "1.5", '"x"', "[]", "{}", "1e308", "[0]", "[1,2,3]"]
DELETE = "deleted"
EVALUATE_MODEL = ["--set", "eval.ks=[5]", "evaluate", "--predictor", "model"]
EVALUATE_HA = ["--set", "eval.ks=[5]", "evaluate", "--predictor", "ha"]


def manifest_keys(payload: dict, config: bool) -> list[tuple]:
    """The path of every top-level key of a tensor-file manifest, of every
    key of its first and last entries and, with ``config``, of every key of
    its ``config``."""
    keys = [(key,) for key in payload]
    keys += [("tensors", at, key) for at in (0, -1) for key in payload["tensors"][at]]
    return keys + ([("config", key) for key in payload["config"]] if config else [])


def edits(payload: dict, key: tuple):
    """(label, copy of ``payload``) with ``key`` set to each of
    ``MANIFEST_VALUES`` in turn, then deleted."""
    for value in MANIFEST_VALUES + [DELETE]:
        edited = json.loads(json.dumps(payload))
        *parents, last = key
        target = edited
        for part in parents:
            target = target[part]
        if value == DELETE:
            del target[last]
        else:
            target[last] = json.loads(value)
        yield f"{key}={value}", edited


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """(dataset manifest, checkpoint directory, the dataset's intact
    ``report_ha.json`` bytes) for a 4 x 4 x 30 dataset and a checkpoint
    trained on it for one epoch."""
    root = tmp_path_factory.mktemp("trained")
    manifest = str(root / "data" / "manifest.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(SMALL + ["gen-data", "--out", str(root / "data")]) == cli.EXIT_OK
        assert cli.main(SMALL + ["--set", "train.epochs=1", "--set", "train.warmup_epochs=0",
                                 "train", "--data", manifest, "--out", str(root / "run")]) == cli.EXIT_OK
        assert cli.main(EVALUATE_HA + ["--data", manifest, "--out", str(root / "ha")]) == cli.EXIT_OK
    return manifest, root / "run" / "checkpoint", (root / "ha" / "report_ha.json").read_bytes()


def checkpoint_copy(checkpoint: Path, directory: Path, payload: dict | None = None, blob=None) -> str:
    """A copy of ``checkpoint`` in ``directory``, with ``payload`` as its
    manifest and ``blob`` applied to its blob's bytes when given."""
    shutil.copytree(checkpoint, directory)
    if payload is not None:
        (directory / "checkpoint.json").write_text(json.dumps(payload))
    if blob is not None:
        path = directory / "checkpoint.bin"
        path.write_bytes(blob(path.read_bytes()))
    return str(directory)


def checkpoint_keys() -> list[tuple]:
    config = asdict(model.ModelConfig(rows=4, cols=4, d_t=1, d_s=1, d_st=1))
    tensors = [{"name": "", "shape": [], "offset": 0}]
    return manifest_keys({"config": config, "dtype": "", "tensors": tensors, "sha256": ""}, config=True)


def index_keys() -> list[tuple]:
    tensors = [{"name": "", "shape": [], "offset": 0}]
    return manifest_keys({"dtype": "", "tensors": tensors, "sha256": "", "manifest_sha256": "",
                          "csv_sha256": {}}, config=False)


def test_the_manifest_keys_are_those_written(trained, tmp_path):
    manifest, checkpoint, _ = trained
    assert checkpoint_keys() == manifest_keys(json.loads((checkpoint / "checkpoint.json").read_text()), True)
    index = json.loads((Path(manifest).parent / grid.INDEX_NAME).read_text())
    assert index_keys() == manifest_keys(index, config=False)
    assert cli.main(EVALUATE_MODEL + ["--data", manifest, "--checkpoint", str(checkpoint),
                                      "--out", str(tmp_path)]) == cli.EXIT_OK


@pytest.mark.parametrize("key", checkpoint_keys(), ids=lambda key: ".".join(map(str, key)))
def test_every_bad_checkpoint_value_exits_0_2_or_3(trained, tmp_path, key):
    manifest, checkpoint, _ = trained
    payload = json.loads((checkpoint / "checkpoint.json").read_text())
    failures = []
    for i, (label, edited) in enumerate(edits(payload, key)):
        copy = checkpoint_copy(checkpoint, tmp_path / f"ckpt{i}", edited)
        run(EVALUATE_MODEL + ["--data", manifest, "--checkpoint", copy, "--out", str(tmp_path / f"out{i}")],
            label, failures, (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_DATA))
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("blob", [lambda raw: raw[:-8], lambda raw: raw + bytes(8), lambda raw: b""],
                         ids=["truncated-by-8", "8-tail-bytes", "empty"])
def test_a_bad_checkpoint_blob_is_a_data_error(trained, tmp_path, blob):
    manifest, checkpoint, _ = trained
    failures = []
    copy = checkpoint_copy(checkpoint, tmp_path / "ckpt", blob=blob)
    code = run(EVALUATE_MODEL + ["--data", manifest, "--checkpoint", copy, "--out", str(tmp_path / "out")],
               "blob", failures, (cli.EXIT_DATA,))
    assert not failures and code == cli.EXIT_DATA, "\n".join(failures)


@pytest.mark.parametrize("key", index_keys(), ids=lambda key: ".".join(map(str, key)))
def test_every_bad_index_value_reads_the_csvs(trained, tmp_path, key):
    """The report is byte for byte the intact dataset's."""
    manifest, _, intact = trained
    dataset = Path(manifest).parent
    payload = json.loads((dataset / grid.INDEX_NAME).read_text())
    failures = []
    for i, (label, edited) in enumerate(edits(payload, key)):
        copy = tmp_path / f"data{i}"
        shutil.copytree(dataset, copy)
        (copy / grid.INDEX_NAME).write_text(json.dumps(edited))
        out = tmp_path / f"out{i}"
        if run(EVALUATE_HA + ["--data", str(copy / "manifest.json"), "--out", str(out)], label, failures,
               (cli.EXIT_OK,)) == cli.EXIT_OK and (out / "report_ha.json").read_bytes() != intact:
            failures.append(f"{label}: the report differs from the intact dataset's")
    assert not failures, "\n".join(failures)
