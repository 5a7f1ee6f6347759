"""Gridded spatiotemporal event data: model, windowing, synthetic generation, I/O.

A dataset is an M x N cell grid observed over T equal-length periods with
three feature groups (per-period, per-cell, per-cell-per-period) and a
non-negative risk score per cell and period. Locations are indexed
row-major: ``location = row * cols + col``, fixed across the whole
package.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import DataError


def location_rc(location: int, cols: int) -> tuple[int, int]:
    """(row, col) of a row-major flat location index."""
    return divmod(location, cols)


def cell_coordinates(rows: int, cols: int) -> np.ndarray:
    """(S, 2) array of (row, col) cell centers in row-major location order."""
    rr, cc = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    return np.stack([rr.reshape(-1), cc.reshape(-1)], axis=1).astype(np.float64)


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

    rr, cc = cell_coordinates(rows, cols).T.reshape(2, rows, cols)
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
    for j in range(temporal.shape[1]):
        lo, hi = float(temporal[:train_end, j].min()), float(temporal[:train_end, j].max())
        temporal[:, j] = _scale_unit(temporal[:, j], lo, hi)
        normalization["f_t"].append({"min": lo, "max": hi})
    for j in range(spatial.shape[2]):
        lo, hi = float(spatial[:, :, j].min()), float(spatial[:, :, j].max())
        spatial[:, :, j] = _scale_unit(spatial[:, :, j], lo, hi)
        normalization["f_s"].append({"min": lo, "max": hi})
    for j in range(st.shape[3]):
        lo, hi = float(st[:, :, :train_end, j].min()), float(st[:, :, :train_end, j].max())
        st[:, :, :, j] = _scale_unit(st[:, :, :, j], lo, hi)
        normalization["f_st"].append({"min": lo, "max": hi})

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
_FILES = {"f_t": "f_t.csv", "f_s": "f_s.csv", "f_st": "f_st.csv", "y": "y.csv"}
# the key columns of each file, leading every row in this order
_AXES = {"f_t": ("t",), "f_s": ("row", "col"), "f_st": ("row", "col", "t"), "y": ("row", "col", "t")}


def _columns(name: str, width: int) -> list[str]:
    return ["y"] if name == "y" else [f"f{j}" for j in range(width)]


def _save_keyed(path: Path, name: str, values: np.ndarray) -> None:
    """``values`` of shape (*sizes, width) as the CSV :func:`_load_keyed`
    reads: the header, then one row per key in row-major order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(_AXES[name]) + _columns(name, values.shape[-1]))
        for key, record in zip(np.ndindex(values.shape[:-1]), values.reshape(-1, values.shape[-1])):
            writer.writerow(list(key) + [repr(v) for v in record.tolist()])


def save_grid(grid: StGrid, directory) -> Path:
    """Write manifest + CSV tensors; returns the manifest path.

    Floats are written with shortest round-trip repr so that
    ``load_grid(save_grid(g))`` is bit-exact.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    tensors = {"f_t": grid.temporal, "f_s": grid.spatial, "f_st": grid.spatiotemporal,
               "y": grid.risk[..., None]}
    for name, values in tensors.items():
        _save_keyed(directory / _FILES[name], name, values)

    manifest = {
        "M": grid.rows, "N": grid.cols, "T": grid.periods,
        "d_t": grid.d_t, "d_s": grid.d_s, "d_st": grid.d_st,
        "files": dict(_FILES),
        "normalization": grid.normalization,
    }
    path = directory / MANIFEST_NAME
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return path


_AXIS_NAMES = {"row": "rows", "col": "cols", "t": "T"}


def _load_keyed(path: Path, name: str, axes: dict[str, int], columns: list[str]) -> np.ndarray:
    """A CSV whose leading integer columns ``axes`` (header name -> size)
    key one row each, as an array of shape (*sizes, len(columns)). Every
    key must lie inside its axis and every cell must be present exactly
    once; a repeated key is a data error. The header must match exactly;
    numpy's C reader (``np.loadtxt``) parses the body: commas, optional
    double quotes, LF or CRLF, blank lines skipped, no comment lines, and
    numpy's float spellings only (Python's ``1_000`` is malformed)."""
    if not path.exists():
        raise DataError(f"missing file: {path}")
    header = list(axes) + columns
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
    sizes = tuple(axes.values())
    out = np.full(sizes + (len(columns),), np.nan)
    seen = np.zeros(sizes, dtype=bool)
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
    """Load and validate a dataset from its manifest; numpy's C reader parses each CSV
    (see :func:`_load_keyed`)."""
    manifest_path = Path(manifest_path)
    if manifest_path.is_dir():
        manifest_path = manifest_path / MANIFEST_NAME
    if not manifest_path.exists():
        raise DataError(f"missing file: {manifest_path}")
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        rows, cols, periods = int(manifest["M"]), int(manifest["N"]), int(manifest["T"])
        d_t, d_s, d_st = int(manifest["d_t"]), int(manifest["d_s"]), int(manifest["d_st"])
        paths = {name: manifest_path.parent / manifest["files"][name] for name in _AXES}
        normalization = dict(manifest.get("normalization", {}))
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise DataError(f"malformed manifest {manifest_path}: {exc!r}") from None

    sizes = {"row": rows, "col": cols, "t": periods}

    def load(name: str, width: int) -> np.ndarray:
        axes = {axis: sizes[axis] for axis in _AXES[name]}
        return _load_keyed(paths[name], name, axes, _columns(name, width))

    temporal = load("f_t", d_t)
    spatial = load("f_s", d_s)
    st = load("f_st", d_st)
    risk = load("y", 1)[:, :, :, 0]

    grid = StGrid(rows=rows, cols=cols, periods=periods, temporal=temporal,
                  spatial=spatial, spatiotemporal=st, risk=risk,
                  normalization=normalization)
    return grid.validate()
