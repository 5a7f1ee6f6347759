"""Cross-K spatial correlation between predicted and true event locations.

For each radius d the statistic counts (true, prediction) pairs within d
and normalizes by the prediction intensity and the number of true
events, so a curve above the complete-spatial-randomness envelope means
predictions cluster around real events. Distances are Euclidean between
cell centers in cell units; pairs from the two different sets are always
counted, including cell-coincident ones. Points are grid cells, so
``cross_k`` counts the curve and every simulation of its envelope from
histograms of integer squared distances.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .grid import cell_coordinates
from .metrics import descending_order

ENVELOPE_METHODS = ("minmax", "quantile")


@dataclass
class CrossKCurve:
    distances: np.ndarray
    values: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    n_sim: int = 0

    def validate(self) -> "CrossKCurve":
        if np.any(np.diff(self.values) < -1e-9):
            raise DataError("cross-K values must be non-decreasing in distance")
        if np.any(self.lo > self.hi + 1e-12):
            raise DataError("envelope lo exceeds hi")
        return self


def cross_k(pred_points: np.ndarray, true_points: np.ndarray,
            distances: np.ndarray, area: float) -> np.ndarray:
    """K(d) for each entry of ``distances``, for one set of predictions
    or for each of many sets of one size.

    pred_points: (n, 2) cells, giving one curve, or (m, n, 2), giving an
    (m, len(distances)) array of curves; true_points: (t, 2) cells. K(d) =
    (area / |pred|) * #{(i in true, j in pred): dist(i, j) <= d} / |true|.

    Each set is counted from integer squared distances v: a pair lies
    within d exactly when sqrt(v) <= d, so one histogram of v per set
    times that 0/1 table gives every count. Values above floor(max d^2) +
    1 share one bin that no d reaches. Integer points are used as given;
    float points must hold integers. Sets are counted one at a time, so
    beyond the m sets themselves the count holds one (t, n) array.
    """
    pred_points = np.asarray(pred_points)
    true_points = np.asarray(true_points).reshape(-1, 2)
    if pred_points.size == 0 or true_points.shape[0] == 0:
        raise DataError("cross-K needs non-empty point sets (skip this day)")
    if area <= 0:
        raise DataError(f"area must be positive, got {area}")
    cells = [points.astype(np.int64, copy=False) for points in (true_points, pred_points)]
    for points, cell in zip((true_points, pred_points), cells):
        if points.dtype.kind != "i" and not np.array_equal(cell, points):
            raise DataError("points must be grid cells with integer (row, col)")
    truths, sets = cells[0], cells[1].reshape(-1, *pred_points.shape[-2:])
    distances = np.asarray(distances, dtype=np.float64)
    reach = float(np.max(distances[distances >= 0.0], initial=0.0))
    low = np.minimum(truths.min(axis=0), sets.min(axis=(0, 1)))
    span = np.maximum(truths.max(axis=0), sets.max(axis=(0, 1))) - low
    top = int(min(np.floor(reach * reach) + 1.0, (span * span).sum()))
    per_value = np.empty((sets.shape[0], top + 2), dtype=np.int64)
    for i, pred in enumerate(sets):
        sq = (truths[:, 0, None] - pred[:, 0]) ** 2 + (truths[:, 1, None] - pred[:, 1]) ** 2
        np.minimum(sq, top + 1, out=sq)
        per_value[i] = np.bincount(sq.reshape(-1), minlength=top + 2)
    counts = per_value[:, :top + 1] @ (np.sqrt(np.arange(top + 1))[:, None] <= distances)
    curves = counts / truths.shape[0] / (sets.shape[1] / area)
    return curves.reshape(*pred_points.shape[:-2], -1)


def csr_envelope(n_pred: int, true_points: np.ndarray, distances: np.ndarray,
                 shape: tuple[int, int], n_sim: int = 99, seed: int = 0,
                 method: str = "minmax",
                 quantiles: tuple[float, float] = (0.025, 0.975)) -> tuple[np.ndarray, np.ndarray]:
    """Envelope of K(d) under uniform-random prediction placement.

    Simulates ``n_sim`` draws of ``n_pred`` uniform random cells, holds
    them as one (n_sim, n_pred, 2) integer array, scores them against the
    true points (grid cells) with one :func:`cross_k` call, and returns
    the pointwise min/max (default) or quantile band. Deterministic for a
    fixed seed: simulation i is row i of one (n_sim, n_pred) draw from
    ``np.random.default_rng(seed)``.
    """
    if n_sim < 1:
        raise DataError(f"n_sim must be >= 1, got {n_sim}")
    if method not in ENVELOPE_METHODS:
        raise DataError(f"envelope method must be one of {ENVELOPE_METHODS}")
    if n_pred < 1:
        raise DataError("cross-K needs non-empty point sets (skip this day)")
    rows, cols = shape
    draws = np.random.default_rng(seed).integers(0, rows * cols, size=(n_sim, n_pred))
    curves = cross_k(np.stack(np.divmod(draws, cols), axis=-1), true_points, distances, float(rows * cols))
    if method == "minmax":
        return curves.min(axis=0), curves.max(axis=0)
    return np.quantile(curves, quantiles[0], axis=0), np.quantile(curves, quantiles[1], axis=0)


def event_cells(day_risk: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """(n, 2) cells with positive risk on one day."""
    return cell_coordinates(*shape)[np.flatnonzero(np.asarray(day_risk) > 0)]


def top_k_cells(scores: np.ndarray, k: int, shape: tuple[int, int]) -> np.ndarray:
    """(k, 2) cells of the k highest scores (ties by ascending location)."""
    return cell_coordinates(*shape)[descending_order(np.asarray(scores))[:k]]


def daily_average_curve(actual: np.ndarray, predicted: np.ndarray, k: int,
                        distances: np.ndarray, shape: tuple[int, int],
                        n_sim: int = 99, seed: int = 0,
                        method: str = "minmax") -> CrossKCurve:
    """Pointwise day-average of per-day curves and their CSR envelopes.

    ``actual``/``predicted`` are (days, S); days without events are
    skipped. Per-day envelope seeds derive from ``seed`` + day index.
    """
    distances = np.asarray(distances, dtype=np.float64)
    rows, cols = shape
    area = float(rows * cols)
    value_rows, lo_rows, hi_rows = [], [], []
    for d in range(actual.shape[0]):
        truths = event_cells(actual[d], shape)
        if truths.shape[0] == 0:
            continue
        preds = top_k_cells(predicted[d], k, shape)
        value_rows.append(cross_k(preds, truths, distances, area))
        lo, hi = csr_envelope(k, truths, distances, shape, n_sim=n_sim,
                              seed=seed + d, method=method)
        lo_rows.append(lo)
        hi_rows.append(hi)
    if not value_rows:
        raise DataError("no day with events; cross-K undefined")
    return CrossKCurve(distances=distances,
                       values=np.mean(value_rows, axis=0),
                       lo=np.mean(lo_rows, axis=0),
                       hi=np.mean(hi_rows, axis=0),
                       n_sim=n_sim).validate()


def write_curve_csv(curve: CrossKCurve, path) -> Path:
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["d", "khat", "csr_lo", "csr_hi"])
        for i, d in enumerate(curve.distances):
            writer.writerow([repr(float(v)) for v in (d, curve.values[i], curve.lo[i], curve.hi[i])])
    return path
