"""Training loop: warm-up regression, importance-weighted surrogate
optimization, Adam updates, best-checkpoint tracking.

One epoch = shuffled mini-batches of target days. During warm-up the
objective is a pointwise regression (mean squared error by default,
optional occurrence cross-entropy) and the importance distribution stays
uniform. Afterwards each day contributes the negated hybrid surrogate
with weights drawn from the current importance distribution; the
distribution is refreshed from full-training-split predictions at the
end of every epoch.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import losses, metrics, sampling
from .adjacency import pearson_static
from .autodiff import Tensor
from .errors import ConfigError, DataError, NumericalError
from .grid import StGrid, Window
from .losses import SurrogateConfig
from .model import ModelConfig, ModelParams, forward, init_params, predictions_for

WARMUP_MODES = ("mse", "bce")


@dataclass(frozen=True)
class Splits:
    """Chronological partition: train periods [0, train_end), validation rest."""

    train_end: int

    def validate(self, periods: int) -> "Splits":
        if not 0 < self.train_end < periods:
            raise DataError(f"train_end {self.train_end} must lie in (0, {periods})")
        return self


@dataclass
class TrainConfig:
    epochs: int = 100
    warmup_epochs: int = 20
    lr_warmup: float = 1e-3
    lr_main: float = 1e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 64
    local_weight: float = 0.1
    margin: float = 1.0
    radius: float = 2.0
    bandwidth: float = 1.0
    weight_mode: str = "sample"
    sample_fraction: float = 0.5
    gain_cap: float | None = None
    warmup_mode: str = "mse"
    use_importance: bool = True
    eval_k: int = 10
    early_stop_patience: int | None = None
    seed: int = 0

    def surrogate_config(self) -> SurrogateConfig:
        return SurrogateConfig(margin=self.margin, local_weight=self.local_weight,
                               radius=self.radius, weight_mode=self.weight_mode,
                               sample_fraction=self.sample_fraction,
                               gain_cap=self.gain_cap).validate()

    def validate(self) -> "TrainConfig":
        if self.epochs < 0 or self.warmup_epochs < 0:
            raise ConfigError("epoch counts must be non-negative")
        if self.warmup_epochs > self.epochs:
            raise ConfigError(f"warmup_epochs {self.warmup_epochs} exceeds epochs {self.epochs}")
        if self.lr_warmup <= 0 or self.lr_main <= 0:
            raise ConfigError("learning rates must be positive")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.bandwidth <= 0:
            raise ConfigError("bandwidth must be positive")
        if self.warmup_mode not in WARMUP_MODES:
            raise ConfigError(f"warmup_mode must be one of {WARMUP_MODES}")
        if self.eval_k < 1:
            raise ConfigError("eval_k must be >= 1")
        self.surrogate_config()
        return self


@dataclass
class AdamState:
    """First/second moment buffers per named tensor plus the step count."""

    first: dict[str, np.ndarray]
    second: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        first = {name: np.zeros_like(t.data) for name, t in params.named_tensors()}
        second = {name: np.zeros_like(t.data) for name, t in params.named_tensors()}
        return cls(first=first, second=second)


def adam_step(params: ModelParams, state: AdamState, grads: dict[str, np.ndarray],
              lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    """Standard bias-corrected Adam update, in place on the parameters."""
    state.step += 1
    t = state.step
    for name, tensor in params.named_tensors():
        grad = grads.get(name)
        if grad is None:
            grad = np.zeros_like(tensor.data)
        if grad.shape != tensor.data.shape:
            raise DataError(f"gradient shape {grad.shape} does not match parameter {name} {tensor.data.shape}")
        m = state.first[name]
        v = state.second[name]
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * grad * grad
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        tensor.data = tensor.data - lr * m_hat / (np.sqrt(v_hat) + eps)
    return state


def warmup_loss(relevance: np.ndarray, scores: Tensor, mode: str = "mse") -> Tensor:
    """Pointwise regression objective minimized during warm-up.

    mse: mean squared error against the raw risk. bce: occurrence
    cross-entropy in nats against 1[y > 0] with the scores as logits.
    """
    relevance = np.asarray(relevance, dtype=np.float64)
    if relevance.size != scores.size:
        raise DataError(f"length mismatch: relevance {relevance.size} vs scores {scores.size}")
    if mode == "mse":
        diff = ad.sub(scores, ad.constant(relevance))
        return ad.mean_(ad.square(diff))
    if mode == "bce":
        target = (relevance > 0).astype(np.float64)
        pos = ad.mul(ad.softplus(ad.neg(scores)), ad.constant(target))
        neg = ad.mul(ad.softplus(scores), ad.constant(1.0 - target))
        return ad.mean_(ad.add(pos, neg))
    raise ConfigError(f"unknown warmup mode {mode!r}")


def split_windows(grid: StGrid, splits: Splits, length: int) -> tuple[list[Window], list[Window]]:
    """Training windows (targets before train_end) and validation windows."""
    splits.validate(grid.periods)
    if length >= grid.periods:
        raise DataError(f"window length {length} must be shorter than the study period {grid.periods}")
    train = [Window(t, length) for t in range(length, min(splits.train_end, grid.periods))]
    val = [Window(t, length) for t in range(max(length, splits.train_end), grid.periods)]
    if not train:
        raise DataError("empty training split: no feasible windows before train_end")
    if not val:
        raise DataError("empty validation split: no windows at or after train_end")
    return train, val


def historical_average(grid: StGrid, splits: Splits) -> np.ndarray:
    """Per-location mean risk over the training periods (constant forecast)."""
    splits.validate(grid.periods)
    return grid.risk_by_location()[:, :splits.train_end].mean(axis=1)


@dataclass
class TrainState:
    params: ModelParams
    adam: AdamState
    epochs_run: int
    importance: sampling.ImportanceDist
    best_epoch: int | None = None
    best_metric: float | None = None
    best_snapshot: dict[str, np.ndarray] | None = field(default=None, repr=False)
    log: list[dict] = field(default_factory=list, repr=False)

    def best_params(self) -> ModelParams:
        """Parameters of the best validation epoch (current if none logged)."""
        if self.best_snapshot is None:
            return self.params
        restored = init_params(self.params.config,
                               seed=self.params.config.seed if self.params.config.seed is not None else 0)
        restored.load_snapshot(self.best_snapshot)
        return restored


def train(grid: StGrid, splits: Splits, model_config: ModelConfig,
          train_config: TrainConfig) -> TrainState:
    """Run the full epoch loop and return the final state with its log."""
    model_config.validate()
    train_config.validate()
    shape = (grid.rows, grid.cols)
    surrogate = train_config.surrogate_config()

    if train_config.eval_k > grid.n_locations:
        raise ConfigError(f"train.eval_k={train_config.eval_k} exceeds the grid's "
                          f"{grid.n_locations} locations")
    train_windows, val_windows = split_windows(grid, splits, model_config.window)
    risk = grid.risk_by_location()
    if not np.any(risk[:, :splits.train_end] > 0):
        raise DataError("training split has no positive risk; dataset rejected")
    train_days = np.array([w.target for w in train_windows])
    val_days = np.array([w.target for w in val_windows])
    y_train = risk[:, train_days].T.copy()
    y_val = risk[:, val_days].T.copy()

    seed = model_config.seed if model_config.seed is not None else train_config.seed
    params = init_params(model_config, seed=seed)
    params.static_graph = pearson_static(grid.risk[:, :, :splits.train_end]).matrix
    adam = AdamState.for_params(params)
    importance = sampling.uniform_distribution(grid.n_locations, train_config.bandwidth)
    rng = np.random.default_rng(train_config.seed)

    state = TrainState(params=params, adam=adam, epochs_run=0, importance=importance)
    stale = 0
    for epoch in range(train_config.epochs):
        started = time.perf_counter()
        warm = epoch < train_config.warmup_epochs
        lr = train_config.lr_warmup if warm else train_config.lr_main

        order = rng.permutation(len(train_windows))
        epoch_loss = 0.0
        seen = 0
        for start in range(0, len(order), train_config.batch_size):
            batch = order[start:start + train_config.batch_size]
            ad.zero_grads(params.tensors())
            for index in batch:
                window = train_windows[index]
                day_risk = risk[:, window.target]
                scores = forward(params, grid, window)
                if warm:
                    loss = warmup_loss(day_risk, scores, train_config.warmup_mode)
                else:
                    positives = losses.positive_locations(day_risk)
                    weights = None
                    if train_config.use_importance and positives.size:
                        weights = losses.apply_importance(positives, state.importance.probs,
                                                          surrogate, rng)
                    loss = ad.neg(losses.hybrid_objective(day_risk, scores, surrogate,
                                                          weights, shape))
                value = loss.item()
                if not np.isfinite(value):
                    raise NumericalError(f"training diverged: non-finite loss at epoch {epoch}")
                ad.backward(loss)
                del scores, loss  # free this window's graph before the next one is built
                epoch_loss += value
                seen += 1
            grads = {}
            for name, tensor in params.named_tensors():
                if tensor.grad is not None:
                    grads[name] = tensor.grad / len(batch)
            adam_step(params, adam, grads, lr, train_config.adam_beta1,
                      train_config.adam_beta2, train_config.adam_eps)

        if not warm and train_config.use_importance:
            predicted = predictions_for(params, grid, train_windows)
            state.importance = sampling.refresh(y_train, predicted, train_config.bandwidth,
                                                shape, epoch + 1)

        report = metrics.metric_report(y_val, predictions_for(params, grid, val_windows),
                                       [train_config.eval_k], shape, train_config.radius)
        val_ndcg, val_local, val_prec = (report.lookup(name, train_config.eval_k).mean
                                         for name in ("ndcg", "lndcg", "prec"))
        elapsed = time.perf_counter() - started
        state.log.append({
            "epoch": epoch,
            "train_obj": epoch_loss / max(seen, 1),
            f"val_ndcg@{train_config.eval_k}": val_ndcg,
            f"val_lndcg@{train_config.eval_k}": val_local,
            f"val_prec@{train_config.eval_k}": val_prec,
            "wall_time_s": elapsed,
        })
        state.epochs_run = epoch + 1

        candidate = -np.inf if val_ndcg is None else val_ndcg
        if state.best_metric is None or candidate > state.best_metric:
            state.best_metric = candidate
            state.best_epoch = epoch
            state.best_snapshot = params.snapshot()
            stale = 0
        else:
            stale += 1
            if (train_config.early_stop_patience is not None
                    and stale >= train_config.early_stop_patience):
                break
    return state


def write_training_log(state: TrainState, path) -> Path:
    """CSV log, one row per epoch under the log's own keys; empty when no epoch ran."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if state.log:
            writer.writerow(state.log[0])
        for row in state.log:
            writer.writerow(["" if value is None else (repr(value) if isinstance(value, float) else value)
                             for value in row.values()])
    return path


def evaluate_split(params: ModelParams, grid: StGrid, splits: Splits, ks: list[int],
                   radius: float = 2.0) -> metrics.RankingReport:
    """Metric report of the model over the validation split."""
    _, val_windows = split_windows(grid, splits, params.config.window)
    risk = grid.risk_by_location()
    val_days = [w.target for w in val_windows]
    actual = risk[:, val_days].T.copy()
    predicted = predictions_for(params, grid, val_windows)
    return metrics.metric_report(actual, predicted, ks, (grid.rows, grid.cols),
                                 radius=radius, day_periods=val_days)


def baseline_report(grid: StGrid, splits: Splits, window_length: int, ks: list[int],
                    radius: float = 2.0) -> metrics.RankingReport:
    """Metric report of the historical-average forecast over the validation split."""
    splits.validate(grid.periods)
    risk = grid.risk_by_location()
    val_days = [t for t in range(max(window_length, splits.train_end), grid.periods)]
    if not val_days:
        raise DataError("empty validation split")
    actual = risk[:, val_days].T.copy()
    constant = historical_average(grid, splits)
    predicted = np.tile(constant, (len(val_days), 1))
    return metrics.metric_report(actual, predicted, ks, (grid.rows, grid.cols),
                                 radius=radius, day_periods=val_days)
