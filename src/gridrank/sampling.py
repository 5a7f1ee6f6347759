"""Importance distribution over locations, refreshed once per epoch.

Each location's raw importance combines its prediction error with the
priority of its true rank: mean over days of (2^|y - yhat| - 1) /
log2(1 + true_rank). The raw scores are smoothed with an untruncated
Gaussian kernel over cell-center distances (no wrap-around), then
normalized into a probability vector; an all-zero score vector (perfect
predictions) falls back to the uniform distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError
from .metrics import ranks


@dataclass
class ImportanceDist:
    """Per-location sampling probabilities (sum to 1)."""

    probs: np.ndarray

    def validate(self) -> "ImportanceDist":
        if np.any(self.probs < 0):
            raise DataError("importance probabilities must be non-negative")
        if not abs(self.probs.sum() - 1.0) <= 1e-9:  # NaN fails too
            raise DataError(f"importance probabilities sum to {float(self.probs.sum())!r}, expected 1")
        return self


def uniform_distribution(n_locations: int) -> ImportanceDist:
    return ImportanceDist(probs=np.full(n_locations, 1.0 / n_locations))


def importance_scores(actual: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    """Raw per-location importance over a set of days.

    ``actual`` and ``predicted`` are (days, S). Zero exactly where the
    prediction is exact on every day; larger for bigger errors at
    higher-true-rank locations.
    """
    actual = np.asarray(actual, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    n_days = actual.shape[0]
    scores = np.zeros(actual.shape[1])
    for d in range(n_days):
        true_rank = ranks(actual[d])
        gap = np.abs(actual[d] - predicted[d])
        scores += (np.exp2(gap) - 1.0) / np.log2(1.0 + true_rank)
    return scores / n_days


def _axis_kernel(n: int, bandwidth: float) -> np.ndarray:
    offsets = np.arange(n, dtype=np.float64)
    scaled = (offsets[:, None] - offsets[None, :]) / bandwidth
    return np.exp(-scaled * scaled / 2.0)


def gaussian_smooth(scores: np.ndarray, bandwidth: float, shape: tuple[int, int]) -> np.ndarray:
    """Full-kernel Gaussian smoothing over the grid (no truncation).

    ``scores`` is a flat, row-major vector over a ``shape = (rows, cols)``
    grid. Returns ``K @ scores`` for the S x S kernel
    ``K[i, j] = exp(-(d_ij / b)^2 / 2)``, where ``d_ij`` is the Euclidean
    distance between the centers of cells ``i`` and ``j`` and ``b`` is
    ``bandwidth``. The Gaussian density's factor 1 / (2 pi b^2) is left
    out: ``normalize`` cancels it, and it overflows at tiny bandwidths, so
    every finite positive bandwidth works. The kernel is not truncated and
    does not wrap around the grid edges. It factorizes over the two axes,
    so the product is computed as ``K_rows @ X @ K_cols`` on the
    (rows, cols) grid ``X``, with ``K_rows[r, r'] = exp(-((r - r') / b)^2 / 2)``
    and likewise ``K_cols``; no S x S matrix is built. Two consequences of
    the kernel:

    - mirror-symmetric input gives mirror-symmetric output, because ``d_ij``
      is unchanged when both cells are reflected across the grid's axis;
    - below b of about 0.026 the off-diagonal entries are exactly 0.0 in
      float64 (``(1 / b)^2 / 2`` exceeds about 745), so ``K`` is ``I`` and
      the normalized result is the normalized raw scores
      ``scores / scores.sum()``, not a one-hot vector.
    """
    scores = np.asarray(scores, dtype=np.float64)
    rows, cols = shape
    smoothed = _axis_kernel(rows, bandwidth) @ scores.reshape(rows, cols) @ _axis_kernel(cols, bandwidth)
    return smoothed.reshape(-1)


def normalize(smoothed: np.ndarray) -> ImportanceDist:
    """Scale smoothed scores into probabilities; uniform fallback at zero."""
    smoothed = np.asarray(smoothed, dtype=np.float64)
    total = smoothed.sum()
    if total <= 0.0:
        return uniform_distribution(smoothed.size)
    return ImportanceDist(probs=smoothed / total).validate()


def refresh(actual: np.ndarray, predicted: np.ndarray, bandwidth: float,
            shape: tuple[int, int]) -> ImportanceDist:
    """One full update: score, smooth, normalize. Smoothed scores whose sum
    overflows float64, as 2^|risk - score| does from a gap of 1024, are a
    NumericalError naming the largest gap."""
    smoothed = gaussian_smooth(importance_scores(actual, predicted), bandwidth, shape)
    if not np.isfinite(smoothed.sum()):
        gap = float(np.max(np.abs(np.asarray(actual, dtype=np.float64) - predicted)))
        raise NumericalError(f"importance 2^|risk - score| - 1 overflows float64 (largest |risk - score| {gap:g})")
    return normalize(smoothed)
