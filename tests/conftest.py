import csv
import hashlib
from pathlib import Path

import numpy as np
import pytest

from gridrank import autodiff, grid

# The CSVs of a hand-written dataset, and the key columns leading each one's rows.
CSV_FILES = {"f_t": "f_t.csv", "f_s": "f_s.csv", "f_st": "f_st.csv", "y": "y.csv"}
CSV_KEYS = {"f_t": ("t",), "f_s": ("row", "col"), "f_st": ("row", "col", "t"), "y": ("row", "col", "t")}


@pytest.fixture(autouse=True)
def finite_checks():
    """Run every unit test with per-op finiteness checks enabled."""
    autodiff.set_debug(True)
    yield
    autodiff.set_debug(False)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def pytest_addoption(parser):
    parser.addoption("--skip-slow", action="store_true", default=False,
                     help="skip the end-to-end acceptance experiments")


def pytest_collection_modifyitems(config, items):
    if not config.getoption("--skip-slow"):
        return
    marker = pytest.mark.skip(reason="--skip-slow given")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(marker)


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running end-to-end experiment")


def dataset_arrays(data: grid.StGrid) -> dict[str, np.ndarray]:
    """The four arrays of ``data`` as a dataset stores them, y with a trailing axis of 1."""
    return {"f_t": data.temporal, "f_s": data.spatial, "f_st": data.spatiotemporal, "y": data.risk[..., None]}


def write_csv_dataset(data: grid.StGrid, directory) -> Path:
    """``data`` as a hand-written CSV dataset in ``directory``: one keyed CSV
    per array (the header, then one row per key in row-major order, floats
    in shortest round-trip repr), and a manifest whose ``files`` key names
    them. Returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, values in dataset_arrays(data).items():
        columns = ["y"] if name == "y" else [f"f{j}" for j in range(values.shape[-1])]
        with open(directory / CSV_FILES[name], "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(CSV_KEYS[name]) + columns)
            for key, record in zip(np.ndindex(values.shape[:-1]), values.reshape(-1, values.shape[-1])):
                writer.writerow(list(key) + [repr(v) for v in record.tolist()])
    return grid.save_json(directory / grid.MANIFEST_NAME, {
        "M": data.rows, "N": data.cols, "T": data.periods, "d_t": data.d_t, "d_s": data.d_s, "d_st": data.d_st,
        "files": dict(CSV_FILES), "normalization": data.normalization})


def write_old_layout(data: grid.StGrid, directory) -> Path:
    """``data`` in the layout datasets had when they kept a binary copy
    beside their CSVs: the CSV dataset, then ``tensors.bin`` and an index
    ``tensors.json`` that adds the sha256 of the manifest and of each CSV.
    Returns the manifest path."""
    manifest = write_csv_dataset(data, directory)
    index = grid.write_tensors(manifest.parent / grid.BLOB_NAME, dataset_arrays(data))
    digests = {name: hashlib.sha256((manifest.parent / file).read_bytes()).hexdigest()
               for name, file in CSV_FILES.items()}
    grid.save_json(manifest.parent / grid.INDEX_NAME, {
        **index, "manifest_sha256": hashlib.sha256(manifest.read_bytes()).hexdigest(), "csv_sha256": digests})
    return manifest
