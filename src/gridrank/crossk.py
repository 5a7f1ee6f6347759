"""Cross-K spatial correlation between predicted and true event locations.

For each radius d the statistic counts (true, prediction) pairs within d
and normalizes by the prediction intensity and the number of true
events, so a curve above the complete-spatial-randomness envelope means
predictions cluster around real events. Distances are Euclidean between
cell centers in cell units; pairs from the two different sets are always
counted, including cell-coincident ones.
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
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None
    n_sim: int = 0

    def validate(self) -> "CrossKCurve":
        if np.any(np.diff(self.values) < -1e-9):
            raise DataError("cross-K values must be non-decreasing in distance")
        if self.lo is not None and self.hi is not None and np.any(self.lo > self.hi + 1e-12):
            raise DataError("envelope lo exceeds hi")
        return self


def cross_k(pred_points: np.ndarray, true_points: np.ndarray,
            distances: np.ndarray, area: float) -> np.ndarray:
    """K(d) values for each entry of ``distances``.

    pred_points/true_points: (n, 2) arrays of (row, col) cells. K(d) =
    (area / |pred|) * #{(i in true, j in pred): dist(i, j) <= d} / |true|.
    """
    pred_points = np.asarray(pred_points, dtype=np.float64).reshape(-1, 2)
    true_points = np.asarray(true_points, dtype=np.float64).reshape(-1, 2)
    if pred_points.shape[0] == 0 or true_points.shape[0] == 0:
        raise DataError("cross-K needs non-empty point sets (skip this day)")
    if area <= 0:
        raise DataError(f"area must be positive, got {area}")
    diff = true_points[:, None, :] - pred_points[None, :, :]
    pairwise = np.sqrt((diff * diff).sum(axis=2))
    intensity = pred_points.shape[0] / area
    counts = np.array([(pairwise <= d).sum() for d in np.asarray(distances, dtype=np.float64)])
    return counts / true_points.shape[0] / intensity


def csr_envelope(n_pred: int, true_points: np.ndarray, distances: np.ndarray,
                 shape: tuple[int, int], n_sim: int = 99, seed: int = 0,
                 method: str = "minmax",
                 quantiles: tuple[float, float] = (0.025, 0.975)) -> tuple[np.ndarray, np.ndarray]:
    """Envelope of K(d) under uniform-random prediction placement.

    Simulates ``n_sim`` draws of ``n_pred`` uniform random cells, scores
    each against the true points (grid cells), and returns the pointwise
    min/max (default) or quantile band. Deterministic for a fixed seed;
    per-simulation generators are spawned so the reduction order does not
    matter.

    Each simulation is counted from integer squared distances v: a pair
    lies within d exactly when sqrt(v) <= d, as in :func:`cross_k`, so one
    histogram of v per simulation times that 0/1 table gives every count.
    Values above floor(max d^2) + 1 share one bin that no d reaches. Memory
    stays O(true points * n_pred) whatever ``n_sim`` is.
    """
    if n_sim < 1:
        raise DataError(f"n_sim must be >= 1, got {n_sim}")
    if method not in ENVELOPE_METHODS:
        raise DataError(f"envelope method must be one of {ENVELOPE_METHODS}")
    true_points = np.asarray(true_points, dtype=np.float64).reshape(-1, 2)
    if n_pred < 1 or true_points.shape[0] == 0:
        raise DataError("cross-K needs non-empty point sets (skip this day)")
    cells = true_points.astype(np.int64)
    if not np.array_equal(cells, true_points):
        raise DataError("true points must be grid cells with integer (row, col)")
    distances = np.asarray(distances, dtype=np.float64)
    rows, cols = shape
    reach = float(np.max(distances[distances >= 0.0], initial=0.0))
    far = np.maximum(np.abs(cells), np.abs(cells - (rows - 1, cols - 1)))
    top = int(min(np.floor(reach * reach) + 1.0, (far * far).sum(axis=1).max()))
    per_value = np.empty((n_sim, top + 2), dtype=np.int64)
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(n_sim)):
        draw = np.random.default_rng(child).integers(0, rows * cols, size=n_pred)
        pred_rows, pred_cols = np.divmod(draw, cols)
        sq = (cells[:, 0, None] - pred_rows) ** 2 + (cells[:, 1, None] - pred_cols) ** 2
        np.minimum(sq, top + 1, out=sq)
        per_value[i] = np.bincount(sq.reshape(-1), minlength=top + 2)
    counts = per_value[:, :top + 1] @ (np.sqrt(np.arange(top + 1))[:, None] <= distances)
    curves = counts / true_points.shape[0] / (n_pred / float(rows * cols))
    if method == "minmax":
        return curves.min(axis=0), curves.max(axis=0)
    lo = np.quantile(curves, quantiles[0], axis=0)
    hi = np.quantile(curves, quantiles[1], axis=0)
    return lo, hi


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
            lo = "" if curve.lo is None else repr(float(curve.lo[i]))
            hi = "" if curve.hi is None else repr(float(curve.hi[i]))
            writer.writerow([repr(float(d)), repr(float(curve.values[i])), lo, hi])
    return path
