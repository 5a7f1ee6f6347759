"""Bad values for every config key and for the tensor-file manifests:
each run exits with a documented code, with at most one stderr line and
never a traceback.

Each key of the run config is set to each of ``BAD_VALUES`` in turn,
under ``config-schema``, the subcommand that only loads and validates the
config (exit 0 or 2). Each ``data.*`` key also runs them under
``gen-data`` on a 4 x 4 x 30 grid, and every dataset it writes loads from
its tensor file alone, to the same arrays as a CSV dataset of that grid.
Each value the run config accepts for a key also runs under ``train``
(one epoch on a 4 x 4 x 30 dataset), ``evaluate`` and ``crossk`` (with a
checkpoint trained on it), which exit 0, 2, 3 or 4: a value drawn with a
fixed seed per key and subcommand in every run, and the rest as ``slow``
tests. A value the config refuses exits 2 before any subcommand runs.

On a 4 x 4 x 30 dataset and a checkpoint trained on it for one epoch,
each key of ``checkpoint.json``, of its first and last entries and of its
config is set to each of ``MANIFEST_VALUES`` or deleted, under
``evaluate --predictor model`` (exit 0, 2 or 3; a deleted key always 3),
and so is the blob cut short, grown or emptied. The same edits of the
dataset's ``tensors.json``, and of each key of its ``manifest.json``,
make ``evaluate --predictor ha`` exit 3: a dataset without a
normalization record, or whose record lacks ``train_end``, has no split
to score. The edits of an old-layout dataset's
``tensors.json`` leave its CSVs read, and that report written.
"""

import contextlib
import io
import json
import random
import shutil
import traceback
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from gridrank import cli, grid, model
from gridrank.errors import ConfigError

from conftest import write_csv_dataset, write_old_layout

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
    """Each written dataset is its manifest and tensor file alone, loads
    without a CSV parse, and to the same bits as a CSV dataset of it."""
    parses = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: parses.append(1) or loadtxt(*args, **kwargs))
    failures = []
    for i, value in enumerate(BAD_VALUES):
        out = tmp_path / str(i)
        if run(SMALL + ["--set", f"{key}={value}", "gen-data", "--out", str(out)], value, failures) != cli.EXIT_OK:
            continue
        if {path.name for path in out.iterdir()} != {grid.MANIFEST_NAME, grid.INDEX_NAME, grid.BLOB_NAME, "run.json"}:
            failures.append(f"{value}: gen-data wrote {sorted(path.name for path in out.iterdir())}")
        binary = grid.load_grid(out)
        if parses:
            failures.append(f"{value}: the tensor file was not used")
        parsed = grid.load_grid(write_csv_dataset(binary, tmp_path / f"csv{i}"))
        if len(parses) != 4 or binary.normalization != parsed.normalization or not all(
                getattr(binary, name).tobytes() == getattr(parsed, name).tobytes()
                for name in ("temporal", "spatial", "spatiotemporal", "risk")):
            failures.append(f"{value}: the tensor file and the CSV dataset disagree")
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


def index_keys(old_layout: bool = False) -> list[tuple]:
    """The keys of a dataset's ``tensors.json``; ``old_layout`` adds the
    digests of the manifest and the CSVs that a binary copy beside them
    carried."""
    tensors = [{"name": "", "shape": [], "offset": 0}]
    digests = {"manifest_sha256": "", "csv_sha256": {}} if old_layout else {}
    return manifest_keys({"dtype": "", "tensors": tensors, "sha256": "", **digests}, config=False)


DATASET_KEYS = ["M", "N", "T", "d_t", "d_s", "d_st", "normalization"]


@pytest.fixture(scope="module")
def old_layout(trained, tmp_path_factory):
    """The directory of ``trained``'s dataset in the old layout: its CSVs,
    named by the manifest, with a binary copy beside them."""
    manifest, _, _ = trained
    return write_old_layout(grid.load_grid(manifest), tmp_path_factory.mktemp("old") / "data").parent


def test_the_manifest_keys_are_those_written(trained, old_layout, tmp_path):
    manifest, checkpoint, _ = trained
    assert checkpoint_keys() == manifest_keys(json.loads((checkpoint / "checkpoint.json").read_text()), True)
    index = json.loads((Path(manifest).parent / grid.INDEX_NAME).read_text())
    assert index_keys() == manifest_keys(index, config=False)
    assert index_keys(old_layout=True) == manifest_keys(
        json.loads((old_layout / grid.INDEX_NAME).read_text()), config=False)
    assert list(json.loads(Path(manifest).read_text())) == DATASET_KEYS
    assert cli.main(EVALUATE_MODEL + ["--data", manifest, "--checkpoint", str(checkpoint),
                                      "--out", str(tmp_path)]) == cli.EXIT_OK


@pytest.mark.parametrize("key", checkpoint_keys(), ids=lambda key: ".".join(map(str, key)))
def test_every_bad_checkpoint_value_exits_0_2_or_3(trained, tmp_path, key):
    """A deleted key exits 3: a config key would otherwise take its default,
    not the value the checkpoint was trained with."""
    manifest, checkpoint, _ = trained
    payload = json.loads((checkpoint / "checkpoint.json").read_text())
    failures = []
    for i, (label, edited) in enumerate(edits(payload, key)):
        copy = checkpoint_copy(checkpoint, tmp_path / f"ckpt{i}", edited)
        codes = (cli.EXIT_DATA,) if label.endswith(DELETE) else (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_DATA)
        run(EVALUATE_MODEL + ["--data", manifest, "--checkpoint", copy, "--out", str(tmp_path / f"out{i}")],
            label, failures, codes)
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


def evaluate_edited_copies(dataset: Path, name: str, key: tuple, tmp_path: Path, intact: bytes,
                           codes) -> list[str]:
    """Run ``evaluate --predictor ha`` on copies of ``dataset`` whose JSON
    file ``name`` has ``key`` set to each of ``MANIFEST_VALUES`` or deleted.
    An edit that leaves the file's payload as it was is skipped. ``codes``
    maps an edited payload to the exit codes allowed; an exit 0 must
    write the ``intact`` report. Returns the failures."""
    payload = json.loads((dataset / name).read_text())
    failures = []
    for i, (label, edited) in enumerate(edits(payload, key)):
        if edited == payload:
            continue
        copy = tmp_path / f"data{i}"
        shutil.copytree(dataset, copy)
        (copy / name).write_text(json.dumps(edited))
        out = tmp_path / f"out{i}"
        if run(EVALUATE_HA + ["--data", str(copy / grid.MANIFEST_NAME), "--out", str(out)], label, failures,
               codes(edited)) == cli.EXIT_OK and (out / "report_ha.json").read_bytes() != intact:
            failures.append(f"{label}: the report differs from the intact dataset's")
    return failures


@pytest.mark.parametrize("key", index_keys(old_layout=True), ids=lambda key: ".".join(map(str, key)))
def test_every_bad_index_value_reads_the_csvs(trained, old_layout, tmp_path, key):
    """An old-layout dataset's manifest names its CSVs, so whatever its
    ``tensors.json`` holds, the report is byte for byte the intact
    dataset's."""
    _, _, intact = trained
    failures = evaluate_edited_copies(old_layout, grid.INDEX_NAME, key, tmp_path, intact,
                                      lambda edited: (cli.EXIT_OK,))
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("key", index_keys(), ids=lambda key: ".".join(map(str, key)))
def test_every_bad_index_value_is_a_data_error(trained, tmp_path, key):
    """A dataset without CSVs has no other source than its tensor file."""
    manifest, _, intact = trained
    failures = evaluate_edited_copies(Path(manifest).parent, grid.INDEX_NAME, key, tmp_path, intact,
                                      lambda edited: (cli.EXIT_DATA,))
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("key", DATASET_KEYS)
def test_every_bad_manifest_value_exits_3(trained, tmp_path, key):
    """The manifest fixes the grid and its split, so every edit is a data
    error, a dropped normalization record or ``train_end`` too."""
    manifest, _, intact = trained
    failures = evaluate_edited_copies(Path(manifest).parent, grid.MANIFEST_NAME, (key,), tmp_path, intact,
                                      lambda edited: (cli.EXIT_DATA,))
    assert not failures, "\n".join(failures)


# Each subcommand of the pipeline: the overrides it runs under on the 4 x 4 x
# 30 dataset, before the bad one, and its arguments less --data, --checkpoint
# and --out. ``evaluate`` and ``crossk`` score with ``trained``'s checkpoint.
PIPELINE = {"train": (["train.epochs=2", "train.warmup_epochs=0"], ["train"]),
            "evaluate": (["eval.ks=[5]"], ["evaluate", "--predictor", "model"]),
            "crossk": ([], ["crossk", "--predictor", "model"])}


def accepted(command: str, key: str) -> list[str]:
    """The values of ``BAD_VALUES`` that the run config accepts for ``key``
    under ``command``'s overrides. Any other exits 2 before a subcommand
    runs, as the ``config-schema`` grid shows for every subcommand."""
    values = []
    for value in BAD_VALUES:
        with contextlib.suppress(ConfigError):
            cli.load_run_config(None, PIPELINE[command][0] + [f"{key}={value}"])
            values.append(value)
    return values


def run_pipeline(trained, tmp_path, command: str, key: str, values: list[str]) -> list[str]:
    """Run ``command`` with ``key`` set to each of ``values`` on
    ``trained``'s dataset and checkpoint; returns the failures: an exit
    other than 0, 2, 3 or 4, more than one stderr line, or a traceback."""
    manifest, checkpoint, _ = trained
    overrides, args = PIPELINE[command]
    failures = []
    for i, value in enumerate(values):
        argv = [part for override in overrides + [f"{key}={value}"] for part in ("--set", override)]
        argv += args + ["--data", manifest, "--out", str(tmp_path / f"out{i}")]
        if command != "train":
            argv += ["--checkpoint", str(checkpoint)]
        run(argv, f"{command} {key}={value}", failures,
            (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_DATA, cli.EXIT_NUMERIC))
    return failures


def drawn(command: str, key: str, values: list[str]) -> list[str]:
    """One of ``values`` for ``key`` under ``command``, drawn with a seed
    fixed by both; none if ``values`` is empty."""
    return [random.Random(f"{command} {key}").choice(values)] if values else []


def test_a_sample_of_bad_values_under_train_evaluate_and_crossk(trained, tmp_path):
    """Each key under each subcommand, with one of its accepted values
    drawn by a fixed seed. ``test_every_other_accepted_value_under_the_pipeline``
    runs the rest of the grid."""
    failures = []
    for command in PIPELINE:
        for key in KEYS:
            failures += run_pipeline(trained, tmp_path / command / key, command, key,
                                     drawn(command, key, accepted(command, key)))
    assert not failures, "\n".join(failures)


@pytest.mark.slow
@pytest.mark.parametrize("command", PIPELINE)
@pytest.mark.parametrize("key", KEYS)
def test_every_other_accepted_value_under_the_pipeline(trained, tmp_path, command, key):
    values = accepted(command, key)
    failures = run_pipeline(trained, tmp_path, command, key,
                            [value for value in values if value not in drawn(command, key, values)])
    assert not failures, "\n".join(failures)
