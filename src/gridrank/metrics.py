"""Exact (non-differentiable) ranking quality measures.

Gains are 2^y - 1 with a log2 position discount. Ties in scores are
always broken by ascending location index, which keeps every metric
deterministic. Days whose relevance is all zero carry no ranking
information and evaluate to ``None`` (excluded from averages).

The local variant evaluates an independent ranking inside each
location's circular neighborhood (cell-center Euclidean distance <=
radius) and averages over all locations whose neighborhood has positive
ideal gain.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError
from .grid import neighbourhood_stencil

EVAL_RADIUS = 2.0  # local-NDCG radius of reports and the training log unless eval.radius differs


def descending_order(scores: np.ndarray) -> np.ndarray:
    """Locations sorted by score descending, ties by ascending index."""
    scores = np.asarray(scores, dtype=np.float64)
    return np.lexsort((np.arange(scores.size), -scores))


def ranks(scores: np.ndarray) -> np.ndarray:
    """1-based rank of every location under the descending-score order."""
    order = descending_order(scores)
    out = np.empty(order.size, dtype=np.int64)
    out[order] = np.arange(1, order.size + 1)
    return out


def _discounted(gains_in_rank_order: np.ndarray) -> np.ndarray:
    positions = np.arange(gains_in_rank_order.shape[-1], dtype=np.float64)
    return (gains_in_rank_order / np.log2(positions + 2.0)).sum(axis=-1)


def ideal_dcg(relevance: np.ndarray, k: int) -> float | np.ndarray:
    """Best achievable cumulative gain with a cutoff of k, per row of a (B, m) input."""
    gains = np.exp2(np.asarray(relevance, dtype=np.float64)) - 1.0
    return _discounted(-np.sort(-gains, axis=-1)[..., :k])


def _ndcg_rows(relevance: np.ndarray, scores: np.ndarray, k: int, valid: np.ndarray) -> np.ndarray:
    """NDCG@min(k, m) of each row of (B, m) candidate lists.

    Row b holds one list in ascending location order; ``valid`` marks its
    members, the rest is padding that ranks last and carries no gain. Each
    list is ranked by score descending, ties by ascending location. NaN
    where the list's ideal gain is zero.
    """
    relevance = np.where(valid, relevance, 0.0)
    position = np.broadcast_to(np.arange(relevance.shape[1]), relevance.shape)
    top = np.lexsort((position, -scores, ~valid), axis=-1)[:, :k]
    z = ideal_dcg(relevance, k)
    dcg = _discounted(np.exp2(np.take_along_axis(relevance, top, axis=-1)) - 1.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(z > 0.0, dcg / z, np.nan)


def _day_list(relevance: np.ndarray, scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """One day's relevance and scores as float arrays, checked against each other and k."""
    relevance = np.asarray(relevance, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if relevance.shape != scores.shape:
        raise DataError(f"length mismatch: relevance {relevance.shape} vs scores {scores.shape}")
    if k < 1 or k > relevance.size:
        raise DataError(f"cutoff k={k} outside [1, {relevance.size}]")
    return relevance, scores


def ndcg_at_k(relevance: np.ndarray, scores: np.ndarray, k: int) -> float | None:
    """Normalized cumulative gain of the top-k scored locations.

    Returns ``None`` when all relevance is zero (undefined day). Use
    k = S for the cutoff-free variant.
    """
    relevance, scores = _day_list(relevance, scores, k)
    value = _ndcg_rows(relevance[None], scores[None], k, np.ones((1, relevance.size), dtype=bool))[0]
    return None if np.isnan(value) else float(value)


def precision_at_k(relevance: np.ndarray, scores: np.ndarray, k: int) -> float:
    """Fraction of the top-k scored locations that have positive relevance."""
    relevance, scores = _day_list(relevance, scores, k)
    top = descending_order(scores)[:k]
    return float((relevance[top] > 0).sum() / k)


def l_ndcg(relevance: np.ndarray, scores: np.ndarray, radius: float,
           shape: tuple[int, int], k: int | None = None) -> float | None:
    """Mean per-neighborhood ranking quality.

    For every location, rank its neighborhood members by score and
    normalize against the neighborhood's ideal gain; neighborhoods with
    zero ideal gain are skipped. ``None`` when every neighborhood is
    skipped. ``k`` optionally truncates each local list (default: no
    cutoff).
    """
    relevance = np.asarray(relevance, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    rows, cols = shape
    if relevance.shape != scores.shape or relevance.size != rows * cols:
        raise DataError(f"shape mismatch: relevance {relevance.shape}, scores {scores.shape}, grid {shape}")
    if radius < 0:
        raise DataError(f"radius must be non-negative, got {radius}")
    if k is not None and k < 1:
        raise DataError(f"cutoff k={k} must be >= 1")
    members, valid = neighbourhood_stencil(rows, cols, float(radius))
    cutoff = members.shape[1] if k is None else k
    values = _ndcg_rows(relevance[members], scores[members], cutoff, valid)
    values = values[~np.isnan(values)]
    if values.size == 0:
        return None
    return float(np.mean(values))


# ---------------------------------------------------------------------------
# evaluation reports


@dataclass
class MetricSummary:
    metric: str
    k: int
    mean: float | None
    std: float | None
    per_day: list[float | None] = field(repr=False, default_factory=list)


@dataclass
class RankingReport:
    """Per-day metric table over an evaluation split."""

    day_periods: list[int]
    summaries: list[MetricSummary]

    def lookup(self, metric: str, k: int) -> MetricSummary:
        for summary in self.summaries:
            if summary.metric == metric and summary.k == k:
                return summary
        raise KeyError(f"no summary for metric={metric!r} k={k}")

    def to_json_dict(self) -> dict:
        return {
            "days": self.day_periods,
            "metrics": [
                {"metric": s.metric, "K": s.k, "mean": s.mean, "std": s.std, "per_day": s.per_day}
                for s in self.summaries
            ],
        }

    def write_json(self, path) -> Path:
        path = Path(path)
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")
        return path

    def write_csv(self, path) -> Path:
        path = Path(path)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["metric", "K", "mean", "std"])
            for s in self.summaries:
                writer.writerow([s.metric, s.k,
                                 "" if s.mean is None else repr(s.mean),
                                 "" if s.std is None else repr(s.std)])
        return path


def _summarize(metric: str, k: int, per_day: list[float | None]) -> MetricSummary:
    defined = [v for v in per_day if v is not None]
    if defined:
        mean = float(np.mean(defined))
        std = float(np.std(defined))
    else:
        mean = std = None
    return MetricSummary(metric=metric, k=k, mean=mean, std=std, per_day=per_day)


def metric_report(actual: np.ndarray, predicted: np.ndarray, ks: list[int],
                  shape: tuple[int, int], radius: float = EVAL_RADIUS,
                  day_periods: list[int] | None = None) -> RankingReport:
    """Ranking quality table over days: ndcg/prec/local ndcg at each cutoff.

    ``actual`` and ``predicted`` are (days, S). Undefined days are kept
    as ``None`` in per-day lists and excluded from means.
    """
    actual = np.asarray(actual, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    if actual.shape != predicted.shape:
        raise DataError(f"split mismatch: actual {actual.shape} vs predicted {predicted.shape}")
    n_days, n_locations = actual.shape
    for k in ks:
        if k < 1 or k > n_locations:
            raise DataError(f"cutoff k={k} outside [1, {n_locations}]")
    if day_periods is None:
        day_periods = list(range(n_days))

    summaries = []
    for k in ks:
        ndcg_days = [ndcg_at_k(actual[d], predicted[d], k) for d in range(n_days)]
        prec_days = [precision_at_k(actual[d], predicted[d], k) for d in range(n_days)]
        local_days = [l_ndcg(actual[d], predicted[d], radius, shape, k=k) for d in range(n_days)]
        summaries.append(_summarize("ndcg", k, ndcg_days))
        summaries.append(_summarize("prec", k, prec_days))
        summaries.append(_summarize("lndcg", k, local_days))
    return RankingReport(day_periods=list(day_periods), summaries=summaries)
