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

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

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
         stencil: tuple[np.ndarray, np.ndarray]) -> tuple[list, list, list]:
    """One day's ndcg@k, prec@k and local ndcg@k at every k of ``ks``, the
    local lists being the (members, mask) rows of ``stencil``.

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

    ``actual`` and ``predicted`` are (days, S) on the ``shape`` grid, each
    k of ``ks`` lies in [1, S], ``radius`` is non-negative and
    ``day_periods`` names every day; the callers build them so, from a
    checked grid and config. Undefined days are kept as ``None`` in
    per-day lists and excluded from means. Each day is ranked once for
    every cutoff.
    """
    actual = np.asarray(actual, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    n_days = actual.shape[0]
    if day_periods is None:
        day_periods = list(range(n_days))
    stencil = neighbourhood_stencil(*shape, float(radius))
    days = [_day(actual[d], predicted[d], ks, stencil) for d in range(n_days)]
    summaries = []
    for i, k in enumerate(ks):
        for j, metric in enumerate(("ndcg", "prec", "lndcg")):
            summaries.append(_summarize(metric, k, [day[j][i] for day in days]))
    return RankingReport(day_periods=list(day_periods), summaries=summaries)


def ndcg_at_k(relevance: np.ndarray, scores: np.ndarray, k: int) -> float | None:
    """``metric_report``'s ndcg@k of one day, ``None`` when all relevance
    is zero; k = S is the cutoff-free variant. Kept for the benchmark's
    tracer, which spans it."""
    relevance = np.asarray(relevance, dtype=np.float64)
    report = metric_report(relevance[None], np.asarray(scores)[None], [k], (1, relevance.size), 0.0)
    return report.lookup("ndcg", k).per_day[0]


def l_ndcg(relevance: np.ndarray, scores: np.ndarray, radius: float,
           shape: tuple[int, int], k: int | None = None) -> float | None:
    """``metric_report``'s local ndcg@k of one day: the mean over locations
    of the ranking quality inside each neighbourhood, ``None`` when every
    neighbourhood has zero ideal gain. A k of None or above S means no
    cutoff. Kept for the benchmark's tracer, which spans it."""
    relevance = np.asarray(relevance, dtype=np.float64)
    k = relevance.size if k is None else min(k, relevance.size)
    report = metric_report(relevance[None], np.asarray(scores)[None], [k], shape, radius)
    return report.lookup("lndcg", k).per_day[0]
