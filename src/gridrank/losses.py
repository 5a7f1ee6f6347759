"""Differentiable ranking objective built on squared-hinge rank bounds.

The rank of a location is replaced by a smooth over-estimate: the sum of
squared hinges max(0, h(s') - h(s) + margin)^2 over the candidate set,
self term included so that with margin 1 the estimate starts at 1 like a
true rank. Plugging the bound into the gain/discount form yields a
differentiable objective that never exceeds the exact metric.

``hybrid_objective`` is the one entry point. It mixes a global part, the
bounded gain of every positive in one list of all S cells, and a local
part, the mean over positive centres of the bounded gain inside each
centre's neighbourhood (local ranks, local ideal gain). It is one tape
node (``_bounded_gain``) over groups of (B, q) candidate lists with a
hand-written backward: the global list and one padded neighbourhood list
per active centre. With local weight 0 or 1 it is the global or the
local objective alone.

The objective is returned as a value to MAXIMIZE; the trainer negates
it. Per-location weights come from the importance distribution: either
soft weights proportional to probability, or a hard without-replacement
sample (weight 1 for drawn locations, 0 otherwise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import metrics
from .autodiff import Tensor
from .errors import ConfigError
from .grid import neighbourhood_stencil
from .sampling import ImportanceDist

_LN2 = math.log(2.0)
WEIGHT_MODES = ("weight", "sample")


@dataclass
class SurrogateConfig:
    """Knobs shared by the surrogate objectives.

    margin: hinge offset c > 0 (1 makes the rank bound tight at the top; when
        1 + c^2 rounds to 1, as at 0 or 1e-8, the top location's discount
        log2(1 + c^2) is 0 and divides by 0);
    local_weight: mix of the neighborhood objective in [0, 1];
    radius: neighborhood radius in cells;
    weight_mode: "weight" (soft) or "sample" (hard subset);
    sample_fraction: drawn fraction of the positive set in sample mode.

    Both objectives use the gain 2^y - 1 of the float relevance.
    """

    margin: float = 1.0
    local_weight: float = 0.1
    radius: float = 2.0
    weight_mode: str = "sample"
    sample_fraction: float = 0.5

    def validate(self) -> "SurrogateConfig":
        if not self.margin > 0:
            raise ConfigError(f"margin must be > 0, got {self.margin}")
        if 1.0 + self.margin * self.margin == 1.0:  # not **, which overflows to an error at 1e308
            raise ConfigError(f"margin must leave 1 + margin^2 > 1 in float64, got {self.margin}")
        if not 0.0 <= self.local_weight <= 1.0:
            raise ConfigError(f"local_weight must be in [0, 1], got {self.local_weight}")
        if self.radius < 0:
            raise ConfigError(f"radius must be >= 0, got {self.radius}")
        if self.weight_mode not in WEIGHT_MODES:
            raise ConfigError(f"weight_mode must be one of {WEIGHT_MODES}, got {self.weight_mode!r}")
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ConfigError(f"sample_fraction must be in (0, 1], got {self.sample_fraction}")
        return self


def positive_locations(relevance: np.ndarray) -> np.ndarray:
    """Indices with strictly positive relevance, ascending."""
    return np.flatnonzero(np.asarray(relevance) > 0.0)


def _rank_bounds(values: np.ndarray, targets: np.ndarray, margin: float,
                 valid: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Hinges and (B, t) rank over-estimates of ``targets`` within (B, q) lists.

    ``hinge[b, j, i]`` is max(0, values[b, j] - values[b, targets[b, i]] +
    margin) for the valid candidates j of list b (default: all) and 0 for
    the rest; ``bounds[b, i]`` sums its squares over j, self term included.
    A padded target's own self term is kept, so every bound is at least
    margin^2.
    """
    q = values.shape[1]
    hinge = values[:, :, None] - np.take_along_axis(values, targets, axis=1)[:, None, :]
    hinge += margin
    np.maximum(hinge, 0.0, out=hinge)
    if valid is not None:
        hinge *= valid[:, :, None] | (np.arange(q)[None, :, None] == targets[:, None, :])
    return hinge, (hinge * hinge).sum(axis=1)


def _bounded_gain(scores: Tensor, groups: list[tuple | None], margin: float) -> Tensor:
    """Sum of coeff / log2(1 + bound) over groups of candidate lists as one
    tape node: the gain/discount form with rank bounds. Groups that are
    None are skipped, and with none left the sum is a constant 0.

    Each group is (lists, targets, coeff, valid): ``lists`` (B, q) holds
    locations of ``scores``, ``targets`` and ``coeff`` are (B, t), ``valid``
    is a (B, q) mask or None, and bound[b, i] is the :func:`_rank_bounds`
    of position targets[b, i] in list b. With hinge h, a = 1 + bound and
    u[b, i] = -g coeff[b, i] / (ln 2 a log2(a)^2), the output gradient g
    reaches list position j of list b as 2 sum_i h[b, j, i] u[b, i], and
    each target position once more as -2 u[b, i] sum_j h[b, j, i] (its self
    term cancels between the two). One bincount per group adds the
    positions into the locations, and the groups' values and gradients
    are summed in order. The kinks, the masks 1[h > 0], are built only
    while a kink trace is installed.
    """
    groups = [group for group in groups if group is not None]
    if not groups:
        return ad.constant(0.0)
    parts = []
    for lists, targets, coeff, valid in groups:
        hinge, bounds = _rank_bounds(scores.data[lists], targets, margin, valid)
        shifted = bounds + 1.0
        parts.append((lists, targets, coeff, hinge, shifted, np.log2(shifted)))

    def grads(g):
        total = 0.0
        for lists, targets, coeff, hinge, shifted, discount in parts:
            u = (-2.0 * g / _LN2) * coeff / (shifted * discount * discount)
            along = np.matmul(hinge, u[:, :, None])[:, :, 0]
            own = -u * hinge.sum(axis=1)
            located = np.concatenate([lists.reshape(-1), np.take_along_axis(lists, targets, axis=1).reshape(-1)])
            total = total + np.bincount(located, np.concatenate([along.reshape(-1), own.reshape(-1)]),
                                        minlength=scores.size)
        return (total.reshape(scores.shape),)

    value = sum((coeff / discount).sum() for _, _, coeff, _, _, discount in parts)
    kinks = [hinge > 0.0 for _, _, _, hinge, _, _ in parts] if ad.tracing_kinks() else ()
    return ad.fused("bounded_gain", np.asarray(value), (scores,), grads, kinks=kinks)


def _global_group(positives: np.ndarray, weights: np.ndarray, relevance: np.ndarray) -> tuple | None:
    """The global objective's one list of all S cells, or None when no
    positive has a nonzero weight."""
    active = weights > 0
    if not active.any():
        return None
    targets = positives[active]
    coeff = weights[active] * (np.exp2(relevance[targets]) - 1.0) / metrics.ideal_dcg(relevance, relevance.size)
    return np.arange(relevance.size)[None], targets[None], coeff[None], None


def _local_group(positives: np.ndarray, weights: np.ndarray, relevance: np.ndarray, radius: float,
                 shape: tuple[int, int]) -> tuple | None:
    """The local objective's padded neighbourhood lists, one per active
    centre, or None when there is no active centre."""
    members, valid = neighbourhood_stencil(*shape, float(radius))
    local_rel = np.where(valid[positives], relevance[members[positives]], 0.0)
    z = metrics.ideal_dcg(local_rel, local_rel.shape[1])
    active = (weights > 0) & (z > 0)
    if not active.any():
        return None
    centres, q = positives[active], members.shape[1]
    coeff = (weights[active, None] / positives.size) * (np.exp2(local_rel[active]) - 1.0) / z[active, None]
    own = np.broadcast_to(np.arange(q), (centres.size, q))
    return members[centres], own, coeff, valid[centres]


def hybrid_objective(relevance: np.ndarray, scores: Tensor, config: SurrogateConfig,
                     weights: np.ndarray | None = None, shape: tuple[int, int] = (0, 0)) -> Tensor:
    """(1 - local_weight) * global objective + local_weight * local objective.

    ``weights`` holds one non-negative weight per positive, as
    ``apply_importance`` draws them (default 1). Positives are found once
    for both parts, and both use the gain 2^y - 1 of the float relevance. An empty positive set
    or all-zero weights give 0; local neighbourhoods with zero ideal gain
    contribute 0. The mix enters as a factor on the per-positive weights,
    and both parts are list groups of one tape node; a part with mix 0 is
    never built (a purely global objective needs no grid shape). Value to
    maximize.
    """
    relevance = np.asarray(relevance, dtype=np.float64)
    positives = positive_locations(relevance)
    weights = np.ones(positives.size) if weights is None else np.asarray(weights, dtype=np.float64)
    sigma = config.local_weight
    groups = [_global_group(positives, (1.0 - sigma) * weights, relevance)]
    if sigma != 0.0:
        groups.append(_local_group(positives, sigma * weights, relevance, config.radius, shape))
    return _bounded_gain(scores, groups, config.margin)


def apply_importance(positives: np.ndarray, dist: ImportanceDist,
                     config: SurrogateConfig, rng: np.random.Generator) -> np.ndarray:
    """Per-positive weights drawn from the importance distribution ``dist``,
    whose probabilities P are checked where they are made (``normalize``
    validates them; ``uniform_distribution`` is uniform by construction).

    weight mode: w_s = P_s * |positives| / sum(P over positives), so a
    uniform distribution gives weight 1 everywhere. sample mode: draw
    ceil(sample_fraction * |positives|) locations without replacement
    with probability proportional to P restricted to the positives;
    drawn locations get weight 1, the rest 0.
    """
    positives = np.asarray(positives, dtype=np.intp)
    if positives.size == 0:
        return np.zeros(0)
    restricted = dist.probs[positives]
    if config.weight_mode == "weight":
        total = restricted.sum()
        if total <= 0.0:
            return np.ones(positives.size)
        return restricted * positives.size / total
    n_draw = math.ceil(config.sample_fraction * positives.size)
    total = restricted.sum()
    weights = np.zeros(positives.size)
    if total <= 0.0:
        chosen = rng.choice(positives.size, size=min(n_draw, positives.size), replace=False)
    else:
        n_draw = min(n_draw, int(np.count_nonzero(restricted)))
        chosen = rng.choice(positives.size, size=n_draw, replace=False, p=restricted / total)
    weights[chosen] = 1.0
    return weights
