"""Gridded spatiotemporal event data: model, windowing, synthetic generation, I/O.

A dataset is an M x N cell grid observed over T equal-length periods with
three feature groups (per-period, per-cell, per-cell-per-period) and a
non-negative risk score per cell and period. Locations are indexed
row-major: ``location = row * cols + col``, fixed across the whole
package.

On disk a dataset is ``manifest.json`` (its sizes and normalization
record) plus its four arrays in the one tensor-file format, which
checkpoints share: :func:`write_tensors` writes them to a raw
little-endian float64 blob (``tensors.bin``) in order, contiguous from
offset 0, and returns its index (``tensors.json``: the dtype, each
array's name, shape and offset, and the blob's sha256). :func:`read_tensors`
accepts that one layout alone, and ``errors.read_json`` reads every JSON
file, naming the file and the key path of any fault in one DataError
line. A hand-written manifest may name one keyed CSV per array instead
(see :func:`load_grid`). Loading never writes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import TypedDict

import numpy as np

from .errors import DataError, read_json


def split_boundary(periods: int, train_fraction: float) -> int:
    """First validation period of the chronological split at ``train_fraction``,
    kept in [2, periods - 1]."""
    return min(max(2, int(round(train_fraction * periods))), periods - 1)


@lru_cache(maxsize=64)
def neighbourhood_stencil(rows: int, cols: int, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Every cell's circular neighbourhood as an (S, m) member matrix and mask.

    Cell j is a member of cell i's neighbourhood when their centers lie
    within ``radius`` cells: dr^2 + dc^2 <= radius^2 + 1e-12, so the
    relation is symmetric and includes the center. Row i lists the members
    in ascending location order, then padding (``mask`` False, member 0)
    up to the largest neighbourhood size m. Built from the integer offsets
    inside the radius in O(S * m); cached per shape and radius, and the
    returned arrays are read-only.
    """
    reach = math.isqrt(int(min(radius * radius + 1e-12, (max(rows, cols) - 1) ** 2)))
    dr, dc = np.meshgrid(np.arange(-reach, reach + 1), np.arange(-reach, reach + 1), indexing="ij")
    inside = dr * dr + dc * dc <= radius * radius + 1e-12
    row, col = np.divmod(np.arange(rows * cols), cols)
    rr, cc = row[:, None] + dr[inside], col[:, None] + dc[inside]
    valid = (rr >= 0) & (rr < rows) & (cc >= 0) & (cc < cols)
    # offsets ascend in (dr, dc), so a stable sort of the valid ones to the
    # front keeps each row's members in ascending location order
    front = np.argsort(~valid, axis=1, kind="stable")[:, :int(valid.sum(axis=1).max())]
    mask = np.take_along_axis(valid, front, axis=1)
    members = np.where(mask, np.take_along_axis(rr * cols + cc, front, axis=1), 0)
    members.flags.writeable = mask.flags.writeable = False
    return members, mask


@dataclass(frozen=True)
class Window:
    """One forecasting instance: inputs [target - length, target), predict target."""

    target: int
    length: int

    def __post_init__(self):
        if self.length < 1:
            raise DataError(f"window length must be >= 1, got {self.length}")
        if self.target - self.length < 0:
            raise DataError(f"window target {self.target} needs {self.length} preceding periods")

    def inputs(self) -> range:
        return range(self.target - self.length, self.target)


@dataclass(eq=False)
class StGrid:
    """Immutable-by-convention container for one gridded dataset.

    temporal: (T, d_t), spatial: (rows, cols, d_s),
    spatiotemporal: (rows, cols, T, d_st), risk: (rows, cols, T).
    """

    rows: int
    cols: int
    periods: int
    temporal: np.ndarray
    spatial: np.ndarray
    spatiotemporal: np.ndarray
    risk: np.ndarray
    normalization: dict = field(default_factory=dict)
    attrs: dict = field(default_factory=dict, repr=False)

    @property
    def n_locations(self) -> int:
        return self.rows * self.cols

    @property
    def d_t(self) -> int:
        return self.temporal.shape[1]

    @property
    def d_s(self) -> int:
        return self.spatial.shape[2]

    @property
    def d_st(self) -> int:
        return self.spatiotemporal.shape[3]

    def risk_by_location(self) -> np.ndarray:
        """Risk reshaped to (S, T), row-major locations."""
        return self.risk.reshape(self.n_locations, self.periods)

    def spatiotemporal_at(self, t: int) -> np.ndarray:
        """(S, d_st) slice of the spatiotemporal features at period t."""
        return self.spatiotemporal[:, :, t, :].reshape(self.n_locations, self.d_st)

    def spatial_flat(self) -> np.ndarray:
        return self.spatial.reshape(self.n_locations, self.d_s)

    def validate(self) -> "StGrid":
        if min(self.rows, self.cols, self.periods) < 1:
            raise DataError(f"invalid dimensions rows={self.rows} cols={self.cols} periods={self.periods}")
        expected = {
            "f_t": (self.temporal, (self.periods, self.temporal.shape[-1]), ("T", "d_t")),
            "f_s": (self.spatial, (self.rows, self.cols, self.spatial.shape[-1]), ("rows", "cols", "d_s")),
            "f_st": (self.spatiotemporal,
                     (self.rows, self.cols, self.periods, self.spatiotemporal.shape[-1]),
                     ("rows", "cols", "T", "d_st")),
            "y": (self.risk, (self.rows, self.cols, self.periods), ("rows", "cols", "T")),
        }
        for name, (arr, shape, axes) in expected.items():
            if arr.shape != shape:
                axis = next((axes[i] for i, (g, e) in enumerate(zip(arr.shape, shape)) if g != e), "rank")
                raise DataError(f"dimension mismatch in {name}: shape {arr.shape}, expected {shape} (axis {axis})")
            _require_finite(name, arr)
        if np.any(self.risk < 0):
            where = np.argwhere(self.risk < 0)[0]
            raise DataError(f"negative risk at (row={where[0]}, col={where[1]}, t={where[2]})")
        if not np.any(self.risk > 0):
            raise DataError("risk is zero everywhere; dataset carries no ranking signal")
        # A period's total gain bounds its every DCG, ideal DCG and surrogate
        # coefficient; it is summed only once S * 2^max(y) reaches 2^1023.
        if not self.risk.max() < 1023 - math.log2(self.n_locations):
            with np.errstate(over="ignore"):
                total = (np.exp2(self.risk) - 1.0).sum(axis=(0, 1))
            if not np.all(np.isfinite(total)):
                t = int(np.argmin(np.isfinite(total)))
                raise DataError(f"total gain sum(2^y - 1) of period {t} overflows float64 "
                                f"(largest risk {self.risk[:, :, t].max():g})")
        return self


def _require_finite(name: str, arr: np.ndarray) -> None:
    if np.all(np.isfinite(arr)):
        return
    where = np.argwhere(~np.isfinite(arr))[0]
    coords = ", ".join(str(int(v)) for v in where)
    raise DataError(f"non-finite value in {name} at ({coords})")


# ---------------------------------------------------------------------------
# synthetic data


@dataclass
class SyntheticTruth:
    """Planted structure behind a synthetic grid, for oracle tests."""

    rate: np.ndarray           # (rows, cols, T) Poisson intensity
    centers: np.ndarray        # (n_hotspots, 2) float (row, col)
    widths: np.ndarray
    amplitudes: np.ndarray
    group: np.ndarray          # +1 / -1 modulation phase per hotspot
    base: np.ndarray           # (rows, cols) static intensity


def _smooth_field(rng, rows: int, cols: int, passes: int = 3) -> np.ndarray:
    z = rng.normal(size=(rows, cols))
    for _ in range(passes):
        padded = np.pad(z, 1, mode="edge")
        z = (padded[:-2, 1:-1] + padded[2:, 1:-1] + padded[1:-1, :-2]
             + padded[1:-1, 2:] + padded[1:-1, 1:-1]) / 5.0
    return z


def _scale_unit(arr: np.ndarray, lo: float, hi: float) -> np.ndarray:
    if hi > lo:
        return (arr - lo) / (hi - lo)
    return np.zeros_like(arr)


def generate_synthetic(seed: int, rows: int = 8, cols: int = 8, periods: int = 120,
                       n_hotspots: int = 3, *, d_t: int = 4, d_s: int = 6, d_st: int = 3,
                       train_fraction: float = 0.75, base_rate: float = 0.06,
                       amplitude: float = 1.0, return_truth: bool = False):
    """Deterministic synthetic dataset with recoverable top-K structure.

    Plants ``n_hotspots`` Gaussian intensity bumps whose activity swings
    with a weekly on/off phase (alternating between hotspots), plus a
    periodic holiday damping. Risk is Poisson around that rate, so the
    true ranking is known up to sampling noise. Features expose the
    ingredients: weekly/holiday calendar channels, per-group hotspot
    intensity maps, and traffic-like spatiotemporal channels.
    """
    if rows < 4 or cols < 4 or periods < 30 or n_hotspots < 1:
        raise DataError(f"invalid dimensions: need rows,cols >= 4, periods >= 30, hotspots >= 1; "
                        f"got {rows}x{cols}x{periods}, {n_hotspots} hotspots")
    if min(d_t, d_s, d_st) < 1:
        raise DataError("feature widths must be positive")
    rng = np.random.default_rng(seed)

    rr, cc = np.indices((rows, cols), dtype=np.float64)
    centers = []
    for _ in range(n_hotspots):
        candidate = None
        for _attempt in range(200):
            candidate = rng.uniform([0.5, 0.5], [rows - 0.5, cols - 0.5])
            if all(np.hypot(*(candidate - c)) >= 2.2 for c in centers):
                break
        centers.append(candidate)
    centers = np.asarray(centers)
    widths = rng.uniform(0.9, 1.6, size=n_hotspots)
    amplitudes = rng.uniform(2.5, 3.5, size=n_hotspots) * amplitude
    group = np.array([1.0 if k % 2 == 0 else -1.0 for k in range(n_hotspots)])

    bumps = np.stack([
        amplitudes[k] * np.exp(-((rr - centers[k, 0]) ** 2 + (cc - centers[k, 1]) ** 2) / (2.0 * widths[k] ** 2))
        for k in range(n_hotspots)
    ])
    bump_total = bumps.sum(axis=0)
    base = base_rate + bump_total
    phase = (group[:, None, None] * bumps).sum(axis=0) / (bump_total + 1e-9)

    day = np.arange(periods)
    weekend = np.isin(day % 7, (4, 5, 6))
    swing = np.where(weekend, 1.0, -1.0)
    holiday = (day % 29) == 7
    damping = np.where(holiday, 0.5, 1.0)

    modulation = np.exp(1.1 * phase[:, :, None] * swing[None, None, :])
    rate = np.minimum(base[:, :, None] * modulation * damping[None, None, :], 6.0)
    risk = np.minimum(rng.poisson(rate), 12).astype(np.float64)

    # temporal channels: weekly phase, weekend and holiday flags, then noise
    temporal_channels = [
        np.sin(2.0 * np.pi * day / 7.0),
        np.cos(2.0 * np.pi * day / 7.0),
        weekend.astype(float),
        holiday.astype(float),
    ]
    while len(temporal_channels) < d_t:
        temporal_channels.append(rng.normal(size=periods))
    temporal = np.stack(temporal_channels[:d_t], axis=1)

    # spatial channels: per-group hotspot intensity, base field, proximity, noise
    even_field = bumps[group > 0].sum(axis=0) if np.any(group > 0) else np.zeros((rows, cols))
    odd_field = bumps[group < 0].sum(axis=0) if np.any(group < 0) else np.zeros((rows, cols))
    nearest = np.min(np.stack([
        np.hypot(rr - centers[k, 0], cc - centers[k, 1]) for k in range(n_hotspots)
    ]), axis=0)
    spatial_channels = [even_field, odd_field, base, -nearest]
    while len(spatial_channels) < d_s:
        spatial_channels.append(_smooth_field(rng, rows, cols))
    spatial = np.stack(spatial_channels[:d_s], axis=2)

    # spatiotemporal channels: traffic proxy, phase-aligned swing, AR noise
    traffic = np.sqrt(rate) * np.exp(rng.normal(0.0, 0.3, size=rate.shape))
    aligned = phase[:, :, None] * swing[None, None, :] + rng.normal(0.0, 0.3, size=rate.shape)
    noise = rng.normal(size=rate.shape)
    ar = np.empty_like(noise)
    ar[:, :, 0] = noise[:, :, 0]
    for t in range(1, periods):
        ar[:, :, t] = 0.7 * ar[:, :, t - 1] + noise[:, :, t]
    st_channels = [traffic, aligned, ar]
    while len(st_channels) < d_st:
        st_channels.append(rng.normal(size=rate.shape))
    st = np.stack(st_channels[:d_st], axis=3)

    # normalize features to [0, 1] with training-split statistics
    train_end = split_boundary(periods, train_fraction)
    normalization = {"f_t": [], "f_s": [], "f_st": [], "train_end": train_end}
    for name, arr, fitted in (("f_t", temporal, temporal[:train_end]), ("f_s", spatial, spatial),
                              ("f_st", st, st[:, :, :train_end])):
        for j in range(arr.shape[-1]):
            lo, hi = float(fitted[..., j].min()), float(fitted[..., j].max())
            arr[..., j] = _scale_unit(arr[..., j], lo, hi)
            normalization[name].append({"min": lo, "max": hi})

    grid = StGrid(rows=rows, cols=cols, periods=periods, temporal=temporal,
                  spatial=spatial, spatiotemporal=st, risk=risk,
                  normalization=normalization).validate()
    if return_truth:
        truth = SyntheticTruth(rate=rate, centers=centers, widths=widths,
                               amplitudes=amplitudes, group=group, base=base)
        return grid, truth
    return grid


# ---------------------------------------------------------------------------
# manifest I/O

MANIFEST_NAME = "manifest.json"
BLOB_NAME = "tensors.bin"
INDEX_NAME = "tensors.json"
# each array's leading axes, which also key every row of its CSV, in this order
_AXES = {"f_t": ("t",), "f_s": ("row", "col"), "f_st": ("row", "col", "t"), "y": ("row", "col", "t")}


# the range each channel was scaled from, and the first period the ranges left out
Normalization = TypedDict("Normalization", {"f_t": list[dict], "f_s": list[dict], "f_st": list[dict],
                                            "train_end": int}, total=False)


_SIZES = ("M", "N", "T", "d_t", "d_s", "d_st")
Files = TypedDict("Files", dict.fromkeys(_AXES, str))  # a hand-written dataset's CSVs


class Manifest(TypedDict("_Sizes", dict.fromkeys(_SIZES, int)), total=False):  # manifest.json
    normalization: Normalization
    files: Files


def save_json(path: Path, payload) -> Path:
    """Write ``payload`` to ``path`` as JSON indented by 2, with a final
    newline; returns ``path``."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return path


def save_csv(path: Path, header: list[str], rows) -> Path:
    """Write ``header`` (if not empty) and ``rows`` to ``path`` as CSV, None
    as an empty field and a float as ``repr(float(v))``; returns ``path``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow(header)
        writer.writerows(["" if v is None else repr(float(v)) if isinstance(v, float) else v for v in row]
                         for row in rows)
    return path


class Entry(TypedDict("_Marked", {"trainable": bool}, total=False)):  # checkpoints once marked each entry
    name: str
    shape: list[int]
    offset: int


class TensorIndex(TypedDict):  # as write_tensors returns it
    dtype: str
    tensors: list[Entry]
    sha256: str


def _layout(shapes: dict[str, tuple]) -> tuple[list[dict], int]:
    """The index entries :func:`write_tensors` writes for arrays of
    ``shapes``, and the blob's size in bytes."""
    entries, offset = [], 0
    for name, shape in shapes.items():
        entries.append({"name": name, "shape": list(shape), "offset": offset})
        offset += 8 * math.prod(shape)
    return entries, offset


def write_tensors(path: Path, arrays: dict[str, np.ndarray]) -> TensorIndex:
    """Write ``arrays`` to ``path`` as raw little-endian float64, in order,
    each hashed as it is written, so no copy of the whole blob is held;
    returns the index :func:`read_tensors` checks."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for values in arrays.values():
            raw = np.ascontiguousarray(values, dtype="<f8")
            digest.update(raw)
            fh.write(raw)
    entries, _ = _layout({name: np.shape(values) for name, values in arrays.items()})
    return {"dtype": "<f8", "tensors": entries, "sha256": digest.hexdigest()}


def read_tensors(index: TensorIndex, index_path: Path, blob_path: Path, shapes: dict[str, tuple],
                 label: str) -> dict[str, np.ndarray]:
    """The arrays of ``shapes`` from ``blob_path``, read straight into place
    and hashed as read. ``index``, read from ``index_path``, must list the
    layout :func:`write_tensors` writes for ``shapes`` (a former
    ``trainable`` mark aside), so two arrays of one shape cannot trade
    places, and the blob must be that long. Faults are named as
    ``read_json`` names them, under ``label``."""
    entries, size = _layout(shapes)
    if index["dtype"] != "<f8":
        raise DataError(f"malformed {label} {index_path}: dtype must be '<f8', got {index['dtype']!r}")
    listed = [{key: entry[key] for key in ("name", "shape", "offset")} for entry in index["tensors"]]
    if listed != entries:
        at = next(i for i, pair in enumerate(zip(listed + [None], entries + [None])) if pair[0] != pair[1])
        want, got = (items[at] if at < len(items) else "absent" for items in (entries, listed))
        raise DataError(f"malformed {label} {index_path}: tensors[{at}] must be {want}, got {got}")
    if not blob_path.exists():
        raise DataError(f"missing file: {blob_path}")
    if blob_path.stat().st_size != size:
        raise DataError(f"{blob_path.name} holds {blob_path.stat().st_size} bytes, {index_path.name} lists {size}")
    arrays, digest = {}, hashlib.sha256()
    with open(blob_path, "rb") as fh:
        for name, shape in shapes.items():
            array = arrays[name] = np.empty(shape, dtype="<f8")
            fh.readinto(array)
            digest.update(array)
    if index["sha256"] != digest.hexdigest():
        raise DataError(f"{blob_path.name} does not match the sha256 digest in {index_path.name}")
    return {name: array.astype(np.float64, copy=False) for name, array in arrays.items()}


def save_grid(grid: StGrid, directory) -> Path:
    """Write ``manifest.json``, then f_t, f_s, f_st and y (with a trailing
    axis of 1) as a tensor file, its index ``tensors.json`` last; returns
    the manifest path. ``load_grid(save_grid(g))`` is bit-exact."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "M": grid.rows, "N": grid.cols, "T": grid.periods,
        "d_t": grid.d_t, "d_s": grid.d_s, "d_st": grid.d_st,
        "normalization": grid.normalization,
    }
    path = save_json(directory / MANIFEST_NAME, manifest)
    save_json(directory / INDEX_NAME, write_tensors(directory / BLOB_NAME, {
        "f_t": grid.temporal, "f_s": grid.spatial, "f_st": grid.spatiotemporal, "y": grid.risk[..., None]}))
    return path


_AXIS_NAMES = {"row": "rows", "col": "cols", "t": "T"}


def _load_keyed(path: Path, name: str, shape: tuple) -> np.ndarray:
    """The array ``name`` of ``shape`` from a CSV whose leading integer
    columns, the axes of ``name``, key one row each, then its value columns
    ``f0, f1, ...`` (``y`` for y). Every key must lie inside its axis and
    every cell must be present exactly once; a repeated key is a data
    error. The header must match exactly; numpy's C reader (``np.loadtxt``)
    parses the body: commas, optional double quotes, LF or CRLF, blank
    lines skipped, no comment lines, and numpy's float spellings only
    (Python's ``1_000`` is malformed)."""
    if not path.exists():
        raise DataError(f"missing file: {path}")
    axes, width = dict(zip(_AXES[name], shape)), shape[-1]
    header = list(axes) + (["y"] if name == "y" else [f"f{j}" for j in range(width)])
    with open(path, newline="") as fh:
        found = next(csv.reader(fh), None)
        if found is None:
            raise DataError(f"empty CSV: {path}")
        if found != header:
            raise DataError(f"bad header in {path.name}: {found}, expected {header}")
        with warnings.catch_warnings():
            # a header-only file is reported below as a missing record
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            try:
                # one field as wide as the header makes a row of any other width malformed
                table = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', ndmin=1,
                                   dtype=[("row", np.float64, (len(header),))])["row"]
            except ValueError as exc:
                raise DataError(f"malformed rows in {path.name}: {exc}") from None
    raw = table[:, :len(axes)]
    castable = np.abs(raw) < 2.0 ** 63  # False for NaN, infinities and keys beyond int64
    keys = np.where(castable, raw, 0.0).astype(int)
    if not (castable.all() and np.array_equal(keys, raw)):
        raise DataError(f"non-integer key in {path.name}")
    for position, (axis, size) in enumerate(axes.items()):
        if keys.size and (keys[:, position].min() < 0 or keys[:, position].max() >= size):
            raise DataError(f"dimension mismatch in {name}: axis {_AXIS_NAMES[axis]} index "
                            f"{int(keys[:, position].max())} outside [0, {size})")
    out = np.full(shape, np.nan)
    seen = np.zeros(shape[:-1], dtype=bool)
    out[tuple(keys.T)] = table[:, len(axes):]
    seen[tuple(keys.T)] = True
    if not seen.all():
        missing = ", ".join(f"{axis}={int(i)}" for axis, i in zip(axes, np.argwhere(~seen)[0]))
        expected = ", ".join(f"{_AXIS_NAMES[axis]}={size}" for axis, size in axes.items())
        raise DataError(f"dimension mismatch in {name}: missing record at ({missing}); expected {expected}")
    if len(table) > seen.size:
        raise DataError(f"repeated key in {name}: {len(table)} rows for {seen.size} cells")
    return out


def load_grid(manifest_path) -> StGrid:
    """Load and validate a dataset from its manifest (or its directory).

    The manifest holds the sizes, each a JSON integer >= 1. Without a
    ``files`` key, as :func:`save_grid` writes it, the arrays come from the
    tensor file beside it alone. A hand-written dataset names one CSV per
    array instead, relative to the manifest (``"files": {"f_t": ...,
    "f_s": ..., "f_st": ..., "y": ...}``), keyed by ``t`` (f_t), ``row,col``
    (f_s) or ``row,col,t`` (f_st and y); see :func:`_load_keyed`. A
    recorded ``normalization.train_end`` must lie in [2, T - 1], as
    :func:`split_boundary` puts it. Nothing is written.
    """
    manifest_path = Path(manifest_path)
    if manifest_path.is_dir():
        manifest_path = manifest_path / MANIFEST_NAME
    manifest = read_json(manifest_path, Manifest, "dataset manifest")
    for key in _SIZES:
        if manifest[key] < 1:
            raise DataError(f"malformed dataset manifest {manifest_path}: {key} must be >= 1, got {manifest[key]}")
    train_end = manifest.get("normalization", {}).get("train_end")
    if train_end is not None and not 2 <= train_end <= manifest["T"] - 1:
        raise DataError(f"malformed dataset manifest {manifest_path}: normalization.train_end must lie in "
                        f"[2, {manifest['T'] - 1}], got {train_end}")

    widths = {"f_t": manifest["d_t"], "f_s": manifest["d_s"], "f_st": manifest["d_st"], "y": 1}
    sizes = {"row": manifest["M"], "col": manifest["N"], "t": manifest["T"]}
    shapes = {name: tuple(sizes[axis] for axis in _AXES[name]) + (widths[name],) for name in _AXES}
    if "files" in manifest:
        arrays = {name: _load_keyed(manifest_path.parent / manifest["files"][name], name, shape)
                  for name, shape in shapes.items()}
    else:
        index_path = manifest_path.parent / INDEX_NAME
        label = "dataset index manifest"
        arrays = read_tensors(read_json(index_path, TensorIndex, label), index_path,
                              manifest_path.parent / BLOB_NAME, shapes, label)

    return StGrid(rows=sizes["row"], cols=sizes["col"], periods=sizes["t"], temporal=arrays["f_t"],
                  spatial=arrays["f_s"], spatiotemporal=arrays["f_st"], risk=arrays["y"][:, :, :, 0],
                  normalization=manifest.get("normalization", {})).validate()
