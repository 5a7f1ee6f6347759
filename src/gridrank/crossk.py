"""Cross-K spatial correlation between predicted and true event locations.

For each radius d the statistic counts (true, prediction) pairs within d
and normalizes by the prediction intensity and the number of true
events, so a curve above the complete-spatial-randomness envelope means
predictions cluster around real events. Distances are Euclidean between
cell centers in cell units; pairs from the two different sets are always
counted, including cell-coincident ones. Points are grid cells, so the
curve and every simulation of its envelope are counted per integer
squared distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .grid import save_csv
from .metrics import descending_order

ENVELOPE_METHODS = ("minmax", "quantile")
# The pointwise band of the "quantile" envelope.
ENVELOPE_QUANTILES = (0.025, 0.975)


@dataclass
class CrossKCurve:
    distances: np.ndarray
    values: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def validate(self) -> "CrossKCurve":
        if np.any(np.diff(self.values) < -1e-9):
            raise DataError("cross-K values must be non-decreasing in distance")
        if np.any(self.lo > self.hi + 1e-12):
            raise DataError("envelope lo exceeds hi")
        return self


def _cells(points: np.ndarray) -> np.ndarray:
    """A non-empty set of points as (n, 2) int64 cells; float points must hold integers."""
    points = np.asarray(points).reshape(-1, 2)
    if points.shape[0] == 0:
        raise DataError("cross-K needs non-empty point sets (skip this day)")
    cells = points.astype(np.int64, copy=False)
    if points.dtype.kind != "i" and not np.array_equal(cells, points):
        raise DataError("points must be grid cells with integer (row, col)")
    return cells


def _counted_values(distances: np.ndarray, points: np.ndarray) -> int:
    """The largest squared distance v that any d of ``distances`` can count
    (sqrt(v) <= d), capped at the squared diagonal of the box that holds
    ``points``, which no pair among them exceeds.

    A pair lies within d exactly when sqrt(v) <= d, which holds for no v
    above floor(max d^2) + 1, and that v itself only when its square root
    rounds to at most max d."""
    reach = float(np.max(distances[distances >= 0.0], initial=0.0))
    span = points.max(axis=0) - points.min(axis=0)
    top = int(min(np.floor(reach * reach) + 1.0, (span * span).sum()))
    return top - int(np.sqrt(top) > reach)


def cross_k(pred_points: np.ndarray, true_points: np.ndarray,
            distances: np.ndarray, area: float) -> np.ndarray:
    """K(d) for each entry of ``distances``.

    pred_points: (n, 2) cells; true_points: (t, 2) cells. K(d) = (area /
    |pred|) * #{(i in true, j in pred): dist(i, j) <= d} / |true|.

    Counted from integer squared distances v: a pair lies within d exactly
    when sqrt(v) <= d, so one histogram of v times that 0/1 table gives
    every count. Integer points are used as given; float points must hold
    integers. The count holds one (t, n) array.
    """
    if area <= 0:
        raise DataError(f"area must be positive, got {area}")
    truths, pred = _cells(true_points), _cells(pred_points)
    distances = np.asarray(distances, dtype=np.float64)
    top = _counted_values(distances, np.concatenate([truths, pred]))
    sq = (truths[:, 0, None] - pred[:, 0]) ** 2 + (truths[:, 1, None] - pred[:, 1]) ** 2
    within = np.sqrt(np.arange(top + 1))[:, None] <= distances
    counts = np.bincount(sq[sq <= top], minlength=top + 1) @ within
    return counts / truths.shape[0] / (pred.shape[0] / area)


def csr_envelope(n_pred: int, true_points: np.ndarray, distances: np.ndarray,
                 shape: tuple[int, int], n_sim: int = 99, seed: int = 0,
                 method: str = "minmax") -> tuple[np.ndarray, np.ndarray]:
    """Envelope of K(d) under uniform-random prediction placement.

    Simulates ``n_sim`` draws of ``n_pred`` uniform random cells and
    returns the pointwise min/max (default) or ``ENVELOPE_QUANTILES`` band
    of their :func:`cross_k` curves against the true points (integer
    cells, on the grid or off it). Deterministic for a fixed seed:
    simulation i is row i of one (n_sim, n_pred) draw from
    ``np.random.default_rng(seed)``.

    The true points are counted once, into a table T[c, g]: how many lie
    from cell c at a squared distance v in group g. The v from 0 to the
    largest one a distance can count (top) fall into groups of
    consecutive values that every distance counts alike, so T is S x G
    int64 with G at most one more than the number of distinct distances:
    8 columns, 64 KB at S = 1024 with distances 0, 0.5, ..., 4. T adds
    the grid of event counts shifted by every offset (dr, dc) with dr^2 +
    dc^2 <= top (49 offsets there) into the offset's group. A
    simulation's counts are the sum of its cells' rows, added one
    prediction at a time, so the simulations hold one (n_sim, G) array
    beside T. Each K(d) count is that row times the 0/1 table of
    sqrt(v) <= d per group, exact in integers.
    """
    if n_sim < 1:
        raise DataError(f"n_sim must be >= 1, got {n_sim}")
    if method not in ENVELOPE_METHODS:
        raise DataError(f"envelope method must be one of {ENVELOPE_METHODS}")
    if n_pred < 1:
        raise DataError("cross-K needs non-empty point sets (skip this day)")
    rows, cols = shape
    truths = _cells(true_points)
    distances = np.asarray(distances, dtype=np.float64)
    top = _counted_values(distances, np.concatenate([truths, [(0, 0), (rows - 1, cols - 1)]]))
    within = np.sqrt(np.arange(top + 1))[:, None] <= distances
    group = np.concatenate([[0], np.cumsum(np.any(within[1:] != within[:-1], axis=1))])
    reach = math.isqrt(top)
    # event counts on the grid widened by ``reach`` on every side; events
    # beyond it lie farther than sqrt(top) from every cell
    wide = (rows + 2 * reach, cols + 2 * reach)
    near = truths[np.all((truths >= -reach) & (truths < np.array(shape) + reach), axis=1)] + reach
    events = np.bincount(near[:, 0] * wide[1] + near[:, 1], minlength=wide[0] * wide[1]).reshape(wide)
    table = np.zeros((group[-1] + 1, rows, cols), dtype=np.int64)
    for dr in range(-reach, reach + 1):
        for dc in range(-reach, reach + 1):
            if dr * dr + dc * dc <= top:
                table[group[dr * dr + dc * dc]] += events[reach + dr:reach + dr + rows,
                                                          reach + dc:reach + dc + cols]
    table = table.reshape(group[-1] + 1, rows * cols).T.copy()
    draws = np.random.default_rng(seed).integers(0, rows * cols, size=(n_sim, n_pred))
    per_group = np.zeros((n_sim, table.shape[1]), dtype=np.int64)
    for cells in draws.T:
        per_group += table[cells]
    counts = per_group @ within[np.flatnonzero(np.diff(group, prepend=-1))]
    curves = counts / truths.shape[0] / (n_pred / float(rows * cols))
    if method == "minmax":
        return curves.min(axis=0), curves.max(axis=0)
    return tuple(np.quantile(curves, q, axis=0) for q in ENVELOPE_QUANTILES)


def event_cells(day_risk: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """(n, 2) cells with positive risk on one day."""
    return np.stack(np.divmod(np.flatnonzero(np.asarray(day_risk) > 0), shape[1]), axis=1)


def top_k_cells(scores: np.ndarray, k: int, shape: tuple[int, int]) -> np.ndarray:
    """(k, 2) cells of the k highest scores (ties by ascending location)."""
    return np.stack(np.divmod(descending_order(np.asarray(scores))[:k], shape[1]), axis=1)


def daily_average_curve(actual: np.ndarray, predicted: np.ndarray, k: int,
                        distances: np.ndarray, shape: tuple[int, int],
                        n_sim: int = 99, seed: int = 0,
                        method: str = "minmax") -> CrossKCurve:
    """Pointwise day-average of per-day curves and their CSR envelopes.

    ``actual``/``predicted`` are (days, S); days without events are
    skipped. Per-day envelope seeds derive from ``seed`` + day index.
    ``distances`` must be finite, non-negative and non-decreasing, since a
    curve is read in order of distance.
    """
    distances = np.asarray(distances, dtype=np.float64)
    if not (np.all(np.isfinite(distances)) and np.all(distances >= 0.0) and np.all(np.diff(distances) >= 0.0)):
        raise DataError(f"cross-K distances must be finite, non-negative and non-decreasing, "
                        f"got {distances.tolist()}")
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
                       hi=np.mean(hi_rows, axis=0)).validate()


def write_curve_csv(curve: CrossKCurve, path) -> Path:
    return save_csv(Path(path), ["d", "khat", "csr_lo", "csr_hi"],
                    zip(curve.distances, curve.values, curve.lo, curve.hi))
