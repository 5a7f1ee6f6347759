"""Bad values for every config key, through ``--set``: each run exits 0 or
2 with at most one stderr line and never a traceback.

Each key of the run config is set to each of ``BAD_VALUES`` in turn,
under ``config-schema``, the subcommand that only loads and validates the
config. Each ``data.*`` key also runs them under ``gen-data`` on a
4 x 4 x 30 grid, and every dataset it writes loads back to the same arrays
from its binary copy and from its CSVs.
"""

import contextlib
import io
import traceback
from dataclasses import asdict

import numpy as np
import pytest

from gridrank import cli, grid

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


def run(argv: list[str], value: str, failures: list[str]) -> int | None:
    """``cli.main(argv)``'s exit code; a traceback, an exit other than 0 or
    2, or more than one stderr line is appended to ``failures`` under
    ``value`` (a traceback gives None)."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # a traceback: record it with the case that raised it
        failures.append(f"{value}: {traceback.format_exc(limit=-1).strip()}")
        return None
    text = err.getvalue()
    if code not in (cli.EXIT_OK, cli.EXIT_CONFIG) or text.count("\n") > 1 or "Traceback" in text:
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
