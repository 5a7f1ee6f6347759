import contextlib
import hashlib
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from gridrank import grid, training
from gridrank.errors import DataError

from conftest import dataset_arrays, write_csv_dataset, write_old_layout


@pytest.fixture(scope="module")
def small():
    return grid.generate_synthetic(7, 4, 4, 30, 1)


class TestWindows:
    def test_counts_and_targets(self):
        g = grid.generate_synthetic(1, 4, 4, 30, 1)
        g10 = grid.StGrid(rows=g.rows, cols=g.cols, periods=10, temporal=g.temporal[:10],
                          spatial=g.spatial, spatiotemporal=g.spatiotemporal[:, :, :10],
                          risk=g.risk[:, :, :10])
        train, val = training.split_windows(g10, training.Splits(train_end=8), 7)
        assert [w.target for w in train] == [7] and [w.target for w in val] == [8, 9]
        assert all(list(w.inputs()) == list(range(w.target - 7, w.target)) for w in train + val)

    def test_single_window(self):
        assert list(grid.Window(target=7, length=7).inputs()) == list(range(7))

    def test_length_equal_to_periods_is_error(self, small):
        with pytest.raises(DataError, match="shorter than the study period"):
            training.split_windows(small, training.Splits(train_end=20), small.periods)

    def test_window_validates_bounds(self):
        with pytest.raises(DataError):
            grid.Window(target=3, length=7)


class TestSyntheticGenerator:
    def test_deterministic_bit_identical(self):
        a = grid.generate_synthetic(7, 8, 8, 60, 3)
        b = grid.generate_synthetic(7, 8, 8, 60, 3)
        for name in ("temporal", "spatial", "spatiotemporal", "risk"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_default_feature_widths(self, small):
        assert (small.d_t, small.d_s, small.d_st) == (4, 6, 3)
        assert small.temporal.shape == (30, 4)
        assert small.risk.min() >= 0

    def test_seeds_differ(self):
        a = grid.generate_synthetic(1, 4, 4, 30, 1)
        b = grid.generate_synthetic(2, 4, 4, 30, 1)
        assert not np.array_equal(a.risk, b.risk)

    def test_hotspot_peak_matches_planted_rate(self):
        g, truth = grid.generate_synthetic(11, 8, 8, 90, 1, return_truth=True)
        mean_risk = g.risk.mean(axis=2)
        peak = np.unravel_index(np.argmax(mean_risk), mean_risk.shape)
        center = truth.centers[0]
        distance = np.hypot(peak[0] - center[0], peak[1] - center[1])
        assert distance <= 2.0 * truth.widths[0]

    def test_all_zero_rate_rejected(self):
        g = grid.generate_synthetic(3, 4, 4, 30, 1)
        g.risk[:] = 0.0
        with pytest.raises(DataError, match="zero everywhere"):
            g.validate()

    @pytest.mark.parametrize("dims", [(3, 4, 30, 1), (4, 3, 30, 1), (4, 4, 29, 1), (4, 4, 30, 0)])
    def test_invalid_dimensions(self, dims):
        with pytest.raises(DataError, match="invalid dimensions"):
            grid.generate_synthetic(1, *dims)


PINNED = {  # a hand-built 2x3x4 grid's files, as datasets were written with a binary copy beside their CSVs
    "f_t.csv": "6f106825d335fe59721d51bea618eeff36f0ebdbac92ad72d97bed85decf369d",
    "f_s.csv": "4f7bff7d83e10996f38f8e728855c87c64e7baf9bff5a3f5b2a801e00be86080",
    "f_st.csv": "63e81d1228a43554ef4b05b8fe6c5bcf9434fa7b4811c9b46171a49255eca8c3",
    "y.csv": "7fff2dae3421d9336c9caba1a66d99416198b4d7bb4ef58d1ef27dd649de6228",
    "manifest.json": "8cf5ecea3e43f08522de1894931df47d24a5d2685d10a0e4bde442d57771ba86",
    "tensors.bin": "2a6e087ab5bb6fceeba80de262a8fc41c2df3e948c6f7e03658c18053728841d",
    "tensors.json": "61ddad9cb7eb2d36742c45dc193a6e27234a1f9f6f704d98d8b132ccfa6cf23f",
}


def hand_built() -> grid.StGrid:
    rng = np.random.default_rng(11)
    return grid.StGrid(rows=2, cols=3, periods=4, temporal=rng.normal(size=(4, 2)),
                       spatial=rng.normal(size=(2, 3, 2)), spatiotemporal=rng.normal(size=(2, 3, 4, 1)),
                       risk=rng.poisson(1.5, size=(2, 3, 4)).astype(float) / 3.0,
                       normalization={"train_end": 3}).validate()


def digests(directory) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in directory.iterdir()}


def csv_dataset(data, directory):
    """A hand-written CSV dataset of ``data`` in ``directory``; returns (manifest, the path of its y.csv)."""
    manifest = write_csv_dataset(data, directory)
    return manifest, directory / "y.csv"


class TestManifestIO:
    def test_written_bytes_are_pinned(self, tmp_path):
        """The manifest, the tensor file and its index of a hand-built
        2x3x4 grid; ``tensors.bin`` holds the bytes it held beside the
        CSVs."""
        grid.save_grid(hand_built(), tmp_path)
        assert digests(tmp_path) == {
            "manifest.json": "0c93e7fb430ff1e03cf62d171563e351f50cc9023a3b8dc0644975b7d81e2f28",
            "tensors.bin": PINNED["tensors.bin"],
            "tensors.json": "0240687babf82981eef650c2e5f433eefd4e186da43936d888a725f2aada9457",
        }

    def test_the_test_writers_write_the_old_bytes(self, tmp_path):
        """The CSV datasets the tests hand-write, and the old layout with
        its binary copy, are byte for byte what ``save_grid`` wrote
        before it dropped the CSVs."""
        write_old_layout(hand_built(), tmp_path)
        assert digests(tmp_path) == PINNED

    def test_round_trip_bit_exact(self, small, tmp_path):
        manifest = grid.save_grid(small, tmp_path / "ds")
        loaded = grid.load_grid(manifest)
        assert (loaded.rows, loaded.cols, loaded.periods) == (4, 4, 30)
        for name in ("temporal", "spatial", "spatiotemporal", "risk"):
            assert np.array_equal(getattr(loaded, name), getattr(small, name)), name
        assert loaded.normalization == json.loads(json.dumps(small.normalization))

    def test_save_writes_the_manifest_and_the_tensor_file_alone(self, small, tmp_path):
        manifest = grid.save_grid(small, tmp_path / "ds")
        assert sorted(path.name for path in manifest.parent.iterdir()) == \
            sorted([grid.MANIFEST_NAME, grid.INDEX_NAME, grid.BLOB_NAME])
        assert "files" not in json.loads(manifest.read_text())

    def test_load_accepts_directory(self, small, tmp_path):
        grid.save_grid(small, tmp_path / "ds")
        loaded = grid.load_grid(tmp_path / "ds")
        assert loaded.periods == small.periods

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="missing file"):
            grid.load_grid(tmp_path / "nope" / "manifest.json")

    def test_missing_tensor_file(self, small, tmp_path):
        manifest, y_path = csv_dataset(small, tmp_path / "ds")
        y_path.unlink()
        with pytest.raises(DataError, match="missing file"):
            grid.load_grid(manifest)

    def test_wrong_T_names_axis(self, small, tmp_path):
        manifest, _ = csv_dataset(small, tmp_path / "ds")
        payload = json.loads(manifest.read_text())
        payload["T"] = small.periods + 2
        manifest.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="f_t.*T"):
            grid.load_grid(manifest)

    def test_extra_T_rows_named(self, small, tmp_path):
        manifest, _ = csv_dataset(small, tmp_path / "ds")
        payload = json.loads(manifest.read_text())
        payload["T"] = small.periods - 1
        manifest.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="T"):
            grid.load_grid(manifest)

    @pytest.mark.parametrize("key,value", [
        ("M", 4.5), ("N", 4.0), ("T", 30.9), ("M", "4"), ("d_t", True), ("d_s", 0), ("d_st", -1), ("T", None),
    ])
    def test_sizes_must_be_json_integers(self, small, tmp_path, key, value):
        """``int()`` would truncate 4.5 and 30.9, parse "4" and read True as 1."""
        manifest = grid.save_grid(small, tmp_path / "ds")
        payload = json.loads(manifest.read_text())
        payload[key] = value
        manifest.write_text(json.dumps(payload))
        with pytest.raises(DataError) as raised:
            grid.load_grid(manifest)
        problem = f"must be >= 1, got {value}" if type(value) is int else f"must be of type int, got {value!r}"
        assert str(raised.value) == f"malformed dataset manifest {manifest}: {key} {problem}"

    @pytest.mark.parametrize("value", [None, [], [["train_end", 22]], "x", 1],
                             ids=["null", "list", "pairs", "string", "int"])
    def test_normalization_must_be_a_json_object(self, small, tmp_path, value):
        """``dict()`` would accept a list of pairs."""
        manifest = grid.save_grid(small, tmp_path / "ds")
        payload = json.loads(manifest.read_text())
        payload["normalization"] = value
        manifest.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=re.escape(f"normalization must be a JSON object, got {value!r}")):
            grid.load_grid(manifest)

    def test_nan_reported_with_coordinates(self, small, tmp_path):
        manifest, y_path = csv_dataset(small, tmp_path / "ds")
        lines = y_path.read_text().splitlines()
        parts = lines[1].split(",")  # first record: row 0, col 0, t 0
        parts[-1] = "nan"
        lines[1] = ",".join(parts)
        y_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"non-finite value in y at \(0, 0, 0\)"):
            grid.load_grid(manifest)

    def test_negative_risk_rejected(self, small, tmp_path):
        manifest, y_path = csv_dataset(small, tmp_path / "ds")
        lines = y_path.read_text().splitlines()
        parts = lines[1].split(",")
        parts[-1] = "-1.0"
        lines[1] = ",".join(parts)
        y_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="negative risk"):
            grid.load_grid(manifest)

    @pytest.mark.parametrize("edit,message", [
        (lambda lines: lines + [lines[1]], "repeated key in y: 481 rows for 480 cells"),
        (lambda lines: lines[:1] + ["0,0,0"] + lines[2:], "malformed rows in y.csv"),
        (lambda lines: lines[:1] + ["0,0,0,abc"] + lines[2:], "malformed rows in y.csv: .*'abc'"),
        (lambda lines: lines[:1] + ["0,0,0.5,1"] + lines[2:], "non-integer key in y.csv"),
        (lambda lines: lines[:1] + ["#" + lines[1]] + lines[2:], "malformed rows in y.csv: .*'#0'"),
        (lambda lines: lines[:1] + [lines[1] + ",0"] + lines[2:], "malformed rows in y.csv: .*4 columns but 5"),
        (lambda lines: lines[:1] + ["0,0,0,1_000"] + lines[2:], "malformed rows in y.csv: .*'1_000'"),
    ])
    def test_malformed_rows_are_data_errors(self, small, tmp_path, edit, message):
        manifest, y_path = csv_dataset(small, tmp_path / "ds")
        y_path.write_text("\n".join(edit(y_path.read_text().splitlines())) + "\n")
        with pytest.raises(DataError, match=message):
            grid.load_grid(manifest)

    def test_header_only_file_is_a_missing_record_without_a_warning(self, small, tmp_path):
        manifest, y_path = csv_dataset(small, tmp_path / "ds")
        y_path.write_text("row,col,t,y\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=r"dimension mismatch in y: missing record at \(row=0, col=0, t=0\)"):
                grid.load_grid(manifest)

    def test_extreme_floats_round_trip_bit_for_bit(self, small, tmp_path):
        extremes = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.30000000000000004]
        st = small.spatiotemporal.copy()
        st.reshape(-1)[:len(extremes)] = extremes
        edited = grid.StGrid(rows=small.rows, cols=small.cols, periods=small.periods, temporal=small.temporal,
                             spatial=small.spatial, spatiotemporal=st, risk=small.risk).validate()
        loaded = grid.load_grid(grid.save_grid(edited, tmp_path / "ds"))
        assert loaded.spatiotemporal.tobytes() == st.tobytes()

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace("\n", "\r\n"),
        lambda text: text.replace("\n", "\n\n"),
        lambda text: "\n".join(",".join(f'"{cell}"' for cell in line.split(",")) for line in text.splitlines()) + "\n",
    ], ids=["crlf", "blank-lines", "quoted-fields"])
    def test_csv_reader_variants_are_accepted(self, small, tmp_path, edit):
        """Line ends, blank lines and quoting that ``csv.reader`` accepted
        parse to the same values."""
        manifest, _ = csv_dataset(small, tmp_path / "ds")
        for name in ("f_st.csv", "y.csv"):
            path = tmp_path / "ds" / name
            path.write_bytes(edit(path.read_text()).encode())
        loaded = grid.load_grid(manifest)
        assert np.array_equal(loaded.spatiotemporal, small.spatiotemporal)
        assert np.array_equal(loaded.risk, small.risk)

    def test_load_peak_memory_is_a_small_multiple_of_the_arrays(self, tmp_path):
        """From the tensor file, then from a CSV dataset of the same grid."""
        data = grid.generate_synthetic(7, 16, 16, 60, 3)
        for manifest in (grid.save_grid(data, tmp_path / "ds"), write_csv_dataset(data, tmp_path / "csv")):
            tracemalloc.start()
            try:
                loaded = grid.load_grid(manifest)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            kept = sum(a.nbytes for a in (loaded.temporal, loaded.spatial, loaded.spatiotemporal, loaded.risk))
            assert peak < 5 * kept, (peak, kept)


ARRAYS = ("temporal", "spatial", "spatiotemporal", "risk")


def same_bits(a: grid.StGrid, b: grid.StGrid) -> bool:
    return all(getattr(a, name).dtype == getattr(b, name).dtype
               and getattr(a, name).tobytes() == getattr(b, name).tobytes() for name in ARRAYS)


@pytest.fixture
def parses(monkeypatch):
    """The calls to ``np.loadtxt``, one per CSV parsed."""
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: calls.append(1) or loadtxt(*args, **kwargs))
    return calls


def rewrite_index(edit):
    """An edit of a dataset directory that applies ``edit`` to the payload of its tensors.json."""
    def apply(directory):
        path = directory / grid.INDEX_NAME
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
    return apply


def entry(payload, name):
    return next(item for item in payload["tensors"] if item["name"] == name)


def flip_byte(directory):
    path = directory / grid.BLOB_NAME
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    path.write_bytes(bytes(blob))


def truncate(directory):
    path = directory / grid.BLOB_NAME
    path.write_bytes(path.read_bytes()[:-8])


def stale_copy(directory):
    """Replace the tensor file with another grid's of the same shape."""
    arrays = dataset_arrays(grid.generate_synthetic(8, 4, 4, 30, 1))
    grid.save_json(directory / grid.INDEX_NAME, grid.write_tensors(directory / grid.BLOB_NAME, arrays))


def reindent_manifest(directory):
    path = directory / grid.MANIFEST_NAME
    path.write_text(json.dumps(json.loads(path.read_text()), indent=4))


BROKEN_COPIES = [
    lambda directory: (directory / grid.INDEX_NAME).unlink(),
    lambda directory: (directory / grid.INDEX_NAME).write_text('{"tensors": '),
    lambda directory: (directory / grid.INDEX_NAME).write_text("[1, 2]"),
    rewrite_index(lambda m: m.pop("csv_sha256")),
    rewrite_index(lambda m: entry(m, "f_s").update(shape=[4, 6, 4])),
    rewrite_index(lambda m: entry(m, "y").update(offset=entry(m, "y")["offset"] + 8)),
    rewrite_index(lambda m: m["tensors"].pop()),
    rewrite_index(lambda m: m.update(dtype="<f4")),
    lambda directory: (directory / grid.BLOB_NAME).unlink(),
    truncate,
    flip_byte,
    reindent_manifest,
    stale_copy,
    lambda directory: None,
]
BROKEN_COPY_IDS = ["index-missing", "index-malformed", "index-list", "index-no-csv-digests", "shape-changed",
                   "offset-changed", "entry-missing", "dtype-f4", "blob-missing", "blob-truncated",
                   "blob-byte-flipped", "manifest-reindented", "stale", "intact"]


class TestBinaryCopy:
    """The tensor file is a dataset's one source, unless its manifest names
    CSVs: then, as in the old layout's binary copy beside them, the CSVs
    are read and the tensor file is never looked at."""

    def test_both_paths_give_the_same_bits(self, small, tmp_path, parses):
        extremes = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.30000000000000004]
        st = small.spatiotemporal.copy()
        st.reshape(-1)[:len(extremes)] = extremes
        edited = grid.StGrid(rows=small.rows, cols=small.cols, periods=small.periods, temporal=small.temporal,
                             spatial=small.spatial, spatiotemporal=st, risk=small.risk,
                             normalization=small.normalization).validate()
        binary = grid.load_grid(grid.save_grid(edited, tmp_path / "ds"))
        assert parses == []
        parsed = grid.load_grid(write_csv_dataset(edited, tmp_path / "csv"))
        assert len(parses) == 4
        assert same_bits(binary, parsed) and same_bits(binary, edited)
        assert binary.normalization == parsed.normalization
        assert all(getattr(binary, name).flags.c_contiguous for name in ARRAYS)

    @pytest.mark.parametrize("edit", BROKEN_COPIES, ids=BROKEN_COPY_IDS)
    def test_a_copy_that_does_not_check_out_falls_back_to_the_csvs(self, small, tmp_path, parses, edit):
        """An old-layout dataset reads its CSVs whatever its copy holds."""
        manifest = write_old_layout(small, tmp_path / "ds")
        edit(tmp_path / "ds")
        loaded = grid.load_grid(manifest)
        assert len(parses) == 4 and same_bits(loaded, small)

    @pytest.mark.parametrize("edit,message", [
        (lambda directory: (directory / grid.INDEX_NAME).unlink(), "missing file: .*tensors.json"),
        (lambda directory: (directory / grid.INDEX_NAME).write_text('{"tensors": '),
         r"malformed dataset index manifest .*tensors.json: Expecting value: line 1 column 13"),
        (lambda directory: (directory / grid.INDEX_NAME).write_text("[1, 2]"),
         re.escape("tensors.json: root must be a JSON object, got [1, 2]")),
        (rewrite_index(lambda m: entry(m, "f_s").update(shape=[4, 6, 4])),
         re.escape("tensors[1] must be {'name': 'f_s', 'shape': [4, 4, 6], 'offset': 960}, "
                   "got {'name': 'f_s', 'shape': [4, 6, 4], 'offset': 960}")),
        (rewrite_index(lambda m: entry(m, "y").update(offset=entry(m, "y")["offset"] + 8)),
         re.escape("tensors[3] must be {'name': 'y', 'shape': [4, 4, 30, 1], 'offset': 13248}, "
                   "got {'name': 'y', 'shape': [4, 4, 30, 1], 'offset': 13256}")),
        (rewrite_index(lambda m: m["tensors"].pop()),
         re.escape("tensors[3] must be {'name': 'y', 'shape': [4, 4, 30, 1], 'offset': 13248}, got absent")),
        (rewrite_index(lambda m: m.update(dtype="<f4")), "tensors.json: dtype must be '<f8', got '<f4'"),
        (lambda directory: (directory / grid.BLOB_NAME).unlink(), "missing file: .*tensors.bin"),
        (truncate, "tensors.bin holds 17080 bytes, tensors.json lists 17088"),
        (flip_byte, "tensors.bin does not match the sha256 digest in tensors.json"),
    ], ids=["index-missing", "index-malformed", "index-list", "shape-changed", "offset-changed",
            "entry-missing", "dtype-f4", "blob-missing", "blob-truncated", "blob-byte-flipped"])
    def test_a_tensor_file_that_does_not_check_out_is_a_data_error(self, small, tmp_path, parses, edit, message):
        manifest = grid.save_grid(small, tmp_path / "ds")
        edit(tmp_path / "ds")
        with pytest.raises(DataError, match=message):
            grid.load_grid(manifest)
        assert parses == []

    def test_a_manifest_without_files_or_an_index_beside_it_is_a_data_error(self, small, tmp_path):
        manifest = grid.save_grid(small, tmp_path / "ds")
        alone = tmp_path / "alone" / grid.MANIFEST_NAME
        alone.parent.mkdir()
        alone.write_bytes(manifest.read_bytes())
        with pytest.raises(DataError, match=re.escape(f"missing file: {alone.parent / grid.INDEX_NAME}")):
            grid.load_grid(alone)

    def test_an_edited_csv_is_read_from_the_csv(self, small, tmp_path, parses):
        manifest = write_old_layout(small, tmp_path / "ds")
        y_path = tmp_path / "ds" / "y.csv"
        lines = y_path.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + ",7.5"  # row 0, col 0, t 0
        y_path.write_text("\n".join(lines) + "\n")
        loaded = grid.load_grid(manifest)
        assert len(parses) == 4 and loaded.risk[0, 0, 0] == 7.5

    def test_an_edited_manifest_keeps_its_error(self, small, tmp_path, parses):
        """The tensor file's shapes no longer fit the manifest's T."""
        manifest = grid.save_grid(small, tmp_path / "ds")
        payload = json.loads(manifest.read_text())
        payload["T"] = small.periods + 2
        manifest.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=re.escape("tensors[0] must be {'name': 'f_t', 'shape': [32, 4], "
                                                      "'offset': 0}, got {'name': 'f_t', 'shape': [30, 4]")):
            grid.load_grid(manifest)

    def test_a_copy_of_the_manifest_beside_it_parses_the_csvs(self, small, tmp_path, parses):
        manifest = write_old_layout(small, tmp_path / "ds")
        copy = tmp_path / "ds" / "other.json"
        copy.write_text(json.dumps(json.loads(manifest.read_text())))
        assert same_bits(grid.load_grid(copy), small) and len(parses) == 4

    @pytest.mark.parametrize("edit", [lambda directory: None, flip_byte,
                                      lambda directory: (directory / grid.INDEX_NAME).unlink()],
                             ids=["hit", "blob-byte-flipped", "index-missing"])
    def test_loading_writes_nothing(self, small, tmp_path, edit):
        """Whether the load succeeds or, with a broken tensor file, fails."""
        directory = tmp_path / "ds"
        manifest = grid.save_grid(small, directory)
        edit(directory)
        before = {path.name: path.read_bytes() for path in directory.iterdir()}
        with contextlib.suppress(DataError):
            grid.load_grid(manifest)
        assert {path.name: path.read_bytes() for path in directory.iterdir()} == before
