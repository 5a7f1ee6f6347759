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

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError
from .grid import neighbourhood_stencil, save_csv, save_json

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


def _ndcg_by_cutoff(ordered: np.ndarray, best: np.ndarray, ks: list[int]) -> list[np.ndarray]:
    """NDCG@min(k, m) of each row of (B, m) gain lists, for every k of ``ks``.

    ``ordered`` holds each list's gains in ranked order and ``best`` the
    same gains sorted descending, so every cutoff is a prefix of both. NaN
    where a list's ideal gain is zero.
    """
    values = []
    with np.errstate(invalid="ignore", divide="ignore"):
        for k in ks:
            z = _discounted(best[:, :k])
            values.append(np.where(z > 0.0, _discounted(ordered[:, :k]) / z, np.nan))
    return values


def _day(relevance: np.ndarray, scores: np.ndarray, ks: list[int],
         stencil: tuple[np.ndarray, np.ndarray] | None = None) -> tuple[list, list, list | None]:
    """One day's ndcg@k and prec@k at every k of ``ks``, and its local ndcg@k
    over the (members, mask) lists of ``stencil`` when one is given.

    The day is ranked once. Each neighbourhood lists its members in
    ascending location order, and ties break by ascending location, so a
    member's place in its local ranking is its place in the day's ranking:
    sorting the members' global ranks, padding last, ranks every list.
    """
    order = descending_order(scores)
    gains = np.exp2(relevance) - 1.0
    positive = relevance[order] > 0
    ndcg = [None if np.isnan(v[0]) else float(v[0])
            for v in _ndcg_by_cutoff(gains[order][None], -np.sort(-gains)[None], ks)]
    prec = [float(positive[:k].sum() / k) for k in ks]
    if stencil is None:
        return ndcg, prec, None
    members, valid = stencil
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    local_order = np.argsort(np.where(valid, rank[members], order.size), axis=1)
    local_gains = np.where(valid, gains[members], 0.0)
    local = []
    for values in _ndcg_by_cutoff(np.take_along_axis(local_gains, local_order, axis=1),
                                  -np.sort(-local_gains, axis=1), ks):
        values = values[~np.isnan(values)]
        local.append(float(np.mean(values)) if values.size else None)
    return ndcg, prec, local


def _day_list(relevance: np.ndarray, scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """One day's relevance and scores as float arrays, checked against each other and k."""
    relevance = np.asarray(relevance, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if relevance.shape != scores.shape:
        raise DataError(f"length mismatch: relevance {relevance.shape} vs scores {scores.shape}")
    if k < 1 or k > relevance.size:
        raise DataError(f"cutoff k={k} outside [1, {relevance.size}]")
    return relevance, scores


def _stencil(relevance_shape: tuple, scores_shape: tuple, radius: float,
             shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The neighbourhood lists of a day's locations on ``shape``, checked against them and the radius."""
    rows, cols = shape
    if relevance_shape != scores_shape or math.prod(relevance_shape) != rows * cols:
        raise DataError(f"shape mismatch: relevance {relevance_shape}, scores {scores_shape}, grid {shape}")
    if radius < 0:
        raise DataError(f"radius must be non-negative, got {radius}")
    return neighbourhood_stencil(rows, cols, float(radius))


def ndcg_at_k(relevance: np.ndarray, scores: np.ndarray, k: int) -> float | None:
    """Normalized cumulative gain of the top-k scored locations.

    Returns ``None`` when all relevance is zero (undefined day). Use
    k = S for the cutoff-free variant.
    """
    return _day(*_day_list(relevance, scores, k), [k])[0][0]


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
    stencil = _stencil(relevance.shape, scores.shape, radius, shape)
    if k is not None and k < 1:
        raise DataError(f"cutoff k={k} must be >= 1")
    return _day(relevance, scores, [stencil[0].shape[1] if k is None else k], stencil)[2][0]


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
        return save_json(Path(path), self.to_json_dict())

    def write_csv(self, path) -> Path:
        return save_csv(Path(path), ["metric", "K", "mean", "std"],
                        [(s.metric, s.k, s.mean, s.std) for s in self.summaries])


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
    as ``None`` in per-day lists and excluded from means. Each day is
    ranked once for every cutoff.
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
    elif len(day_periods) != n_days:
        raise DataError(f"day_periods has {len(day_periods)} entries for {n_days} days")
    stencil = _stencil(actual.shape[1:], predicted.shape[1:], radius, shape)
    days = [_day(actual[d], predicted[d], ks, stencil) for d in range(n_days)]
    summaries = []
    for i, k in enumerate(ks):
        for j, metric in enumerate(("ndcg", "prec", "lndcg")):
            summaries.append(_summarize(metric, k, [day[j][i] for day in days]))
    return RankingReport(day_periods=list(day_periods), summaries=summaries)
