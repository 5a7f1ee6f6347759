"""Bad values for every config key, through ``--set``: each run exits 0 or
2 with at most one stderr line and never a traceback.

Each key of the run config is set to each of ``BAD_VALUES`` in turn,
under ``config-schema``, the subcommand that only loads and validates the
config.
"""

import contextlib
import io
import traceback
from dataclasses import asdict

import pytest

from gridrank import cli

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


@pytest.mark.parametrize("key", KEYS)
def test_every_bad_value_exits_0_or_2_with_at_most_one_line(key):
    failures = []
    for value in BAD_VALUES:
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(["--set", f"{key}={value}", "config-schema"])
        except Exception:  # a traceback: record it with the case that raised it
            failures.append(f"{value}: {traceback.format_exc(limit=-1).strip()}")
            continue
        text = err.getvalue()
        if code not in (cli.EXIT_OK, cli.EXIT_CONFIG) or text.count("\n") > 1 or "Traceback" in text:
            failures.append(f"{value}: exit {code}, stderr {text!r}")
    assert not failures, "\n".join(failures)
