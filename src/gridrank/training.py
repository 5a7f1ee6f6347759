"""Training loop: warm-up regression, importance-weighted surrogate
optimization, Adam updates, best-checkpoint tracking.

One epoch = mini-batches of consecutive target days in a random order
(``contiguous_batches``), so a batch of B windows of length L builds
B + L - 1 input periods: 14 at B = 8, L = 7, against about 42 for 8 of
the default grid's 83 training windows drawn at random. During warm-up
the objective is the mean squared error against the raw risk and the
importance distribution stays uniform. Afterwards each day contributes
the negated hybrid surrogate with weights drawn from the current
importance distribution. At the end of each such epoch the distribution
is refreshed from the scores each training window got in its batch's
gradient step, which ``batch_backward`` returns, so no training window is
scored twice; they lag the parameters by up to one epoch, as in online
batch selection (Loshchilov and Hutter 2015). The first surrogate epoch
draws from the uniform distribution.

Each mini-batch's gradient comes from ``model.batch_backward``: every
distinct input period's graph block is built once without gradients,
each window's loss is backpropagated through its recurrent pass (one tape
node: the LSTM steps and the score head) to those periods' outputs, and
each period is then rebuilt once to carry its gradient into the graph
parameters. Windows are not stacked into one recurrent pass, and period
tapes are not kept, because both raised peak memory beyond the
benchmark's bound (figures in the ``model`` docstring). From S = 256 the
builds without gradients, the windows' recurrent passes and backwards,
the rebuilds with gradients and the window scoring of each epoch's
validation ``predictions_for`` run on two threads, each build with one
S x S buffer. A batch's importance weights are drawn from the epoch's
generator in window order before ``batch_backward`` runs, so the loss
each window gets is a pure function of the window and its scores and may
run on any thread, in any order; the gradients are added in the serial
order, so a run's bits do not depend on the thread count.

The gradient step runs in float32 (``_COMPUTE_DTYPE``), the standard
mixed-precision split (Micikevicius et al., "Mixed Precision Training",
ICLR 2018): each batch's ``batch_backward`` runs on a float32 copy of
the float64 master parameters, and the copy's gradients are cast up to
float64 for the Adam update, whose moments stay float64 with the
masters. The losses, the per-epoch validation and the checkpoints are
float64: each epoch's validation is ``evaluate_split``'s report of the
masters. The importance refresh reads the float32 copy's scores, which
``batch_backward`` hands back as float64 arrays.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import losses, metrics, sampling
from .adjacency import pearson_static
from .autodiff import Tensor
from .errors import ConfigError, DataError, NumericalError
from .grid import StGrid, Window, save_csv
from .losses import SurrogateConfig
from .model import ModelConfig, ModelParams, batch_backward, init_params, predictions_for

# The dtype of each batch's gradient step; the master parameters are float64.
_COMPUTE_DTYPE = np.float32


@dataclass(frozen=True)
class Splits:
    """Chronological partition: train periods [0, train_end), validation rest."""

    train_end: int

    def validate(self, periods: int) -> "Splits":
        if not 0 < self.train_end < periods:
            raise DataError(f"train_end {self.train_end} must lie in (0, {periods})")
        return self


@dataclass
class TrainConfig(SurrogateConfig):
    """The ``train`` section of a run config: the surrogate's fields
    (margin, local_weight, radius, weight_mode, sample_fraction) plus the
    optimisation schedule. Warm-up epochs minimize the mean squared error
    (``warmup_loss``), the rest the negated hybrid surrogate. ``bandwidth``
    is the importance filter's b, and any positive value works (see
    ``sampling.gaussian_smooth``)."""

    epochs: int = 100
    warmup_epochs: int = 20
    lr_warmup: float = 1e-3
    lr_main: float = 1e-4
    batch_size: int = 64
    bandwidth: float = 1.0
    use_importance: bool = True
    eval_k: int = 10
    early_stop_patience: int | None = None
    seed: int = 0

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
        if self.eval_k < 1:
            raise ConfigError("eval_k must be >= 1")
        if self.early_stop_patience is not None and self.early_stop_patience < 1:
            raise ConfigError(f"train.early_stop_patience must be >= 1 or null, got {self.early_stop_patience}")
        if self.seed < 0:
            raise ConfigError(f"train.seed must be >= 0, got {self.seed}")
        super().validate()
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


def warmup_loss(relevance: np.ndarray, scores: Tensor) -> Tensor:
    """Mean squared error against the raw risk, the objective minimized
    during warm-up, as one tape node: cell i's gradient is
    2 (s_i - y_i) / n."""
    relevance = np.asarray(relevance, dtype=np.float64)
    if relevance.shape != scores.shape:
        raise DataError(f"shape mismatch: relevance {relevance.shape} vs scores {scores.shape}")
    diff = scores.data - relevance
    slope = 2.0 * diff
    count = diff.size
    return ad.fused("warmup_mse", np.asarray((diff * diff).mean()), (scores,), lambda g: ((g / count) * slope,))


def split_windows(grid: StGrid, splits: Splits, length: int) -> tuple[list[Window], list[Window]]:
    """Training windows (targets before train_end) and validation windows.
    The training side may be empty, since evaluation scores only the
    validation side; ``train`` rejects an empty one itself."""
    splits.validate(grid.periods)
    if length >= grid.periods:
        raise DataError(f"window length {length} must be shorter than the study period {grid.periods}")
    train = [Window(t, length) for t in range(length, min(splits.train_end, grid.periods))]
    val = [Window(t, length) for t in range(max(length, splits.train_end), grid.periods)]
    if not val:
        raise DataError("empty validation split: no windows at or after train_end")
    return train, val


def contiguous_batches(n: int, batch_size: int, rng: np.random.Generator) -> list[range]:
    """One epoch's batches over windows 0..n-1: runs of consecutive
    windows starting at 0 and at offset + k * batch_size, the offset drawn
    in [0, batch_size) when n > batch_size, in a random order. The leading
    and trailing runs may be short."""
    offset = int(rng.integers(batch_size)) if n > batch_size else 0
    bounds = sorted({0, *range(offset, n, batch_size), n})
    runs = [range(a, b) for a, b in zip(bounds, bounds[1:])]
    return [runs[i] for i in rng.permutation(len(runs))]


def historical_average(grid: StGrid, splits: Splits) -> np.ndarray:
    """Per-location mean risk over the training periods (constant forecast)."""
    splits.validate(grid.periods)
    return grid.risk_by_location()[:, :splits.train_end].mean(axis=1)


@dataclass
class TrainState:
    params: ModelParams
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
        return self.params.restore(self.best_snapshot)


def _static_graph(grid: StGrid, train_end: int) -> np.ndarray:
    """The correlation graph of the grid's periods [0, train_end), read-only:
    it is never trained, so snapshots share it, and it is computed once per
    grid and ``train_end`` (memoized on the grid, as the model's per-period
    inputs are), so successive ``train`` runs on one grid share it too."""
    cache = grid.attrs.setdefault("_static_graph", {})
    if train_end not in cache:
        cache[train_end] = pearson_static(grid.risk[:, :, :train_end])
        cache[train_end].setflags(write=False)
    return cache[train_end]


def train(grid: StGrid, splits: Splits, model_config: ModelConfig,
          train_config: TrainConfig, eval_radius: float = metrics.EVAL_RADIUS) -> TrainState:
    """Run the full epoch loop and return the final state with its log.
    Each epoch logs ``evaluate_split``'s report of the float64 parameters
    at ``train.eval_k`` and ``eval_radius``, so the logged validation
    metrics are what ``evaluate`` reports for them. Each epoch's batches
    are ``contiguous_batches`` from the training seed's generator:
    consecutive windows share their input periods, and the offset drawn
    per epoch moves the runs' boundaries."""
    model_config.validate()
    train_config.validate()
    shape = (grid.rows, grid.cols)

    if train_config.eval_k > grid.n_locations:
        raise ConfigError(f"train.eval_k={train_config.eval_k} exceeds the grid's "
                          f"{grid.n_locations} locations")
    train_windows, _ = split_windows(grid, splits, model_config.window)
    if not train_windows:
        raise DataError("empty training split: no feasible windows before train_end")
    risk = grid.risk_by_location()
    if not np.any(risk[:, :splits.train_end] > 0):
        raise DataError("training split has no positive risk; dataset rejected")
    y_train = risk[:, [w.target for w in train_windows]].T.copy()

    params = init_params(model_config, seed=train_config.seed)
    params.static_graph = _static_graph(grid, splits.train_end)
    adam = AdamState.for_params(params)
    importance = sampling.uniform_distribution(grid.n_locations)
    rng = np.random.default_rng(train_config.seed)
    compute = params.cast(_COMPUTE_DTYPE)  # each batch's copy of the masters; its static graph is cast once
    train_scores = np.empty_like(y_train)  # each training window's scores from its batch, in window order

    state = TrainState(params=params, epochs_run=0, importance=importance)
    stale = 0
    for epoch in range(train_config.epochs):
        started = time.perf_counter()
        warm = epoch < train_config.warmup_epochs
        lr = train_config.lr_warmup if warm else train_config.lr_main

        def loss_of(window: Window, scores: Tensor) -> Tensor:
            day_risk = risk[:, window.target]
            if warm:
                loss = warmup_loss(day_risk, scores)
            else:
                weights = drawn.get(window.target)  # drawn before the batch, so loss_of draws nothing
                objective = losses.hybrid_objective(day_risk, scores, train_config, weights, shape)
                loss = ad.fused("neg", -objective.data, (objective,), lambda g: (-g,))
            if not np.isfinite(loss.item()):
                raise NumericalError(f"training diverged: non-finite loss at epoch {epoch}")
            return loss

        epoch_loss = 0.0
        seen = 0
        for batch in contiguous_batches(len(train_windows), train_config.batch_size, rng):
            windows = [train_windows[i] for i in batch]
            drawn = {}  # each positive window's importance weights, drawn in window order
            if not warm and train_config.use_importance:
                for window in windows:
                    positives = losses.positive_locations(risk[:, window.target])
                    if positives.size:
                        drawn[window.target] = losses.apply_importance(positives, state.importance, train_config, rng)
            for (_, copy), (_, master) in zip(compute.named_tensors(), params.named_tensors()):
                copy.data = master.data.astype(_COMPUTE_DTYPE)
            ad.zero_grads(compute.tensors())
            values, scores = batch_backward(compute, grid, windows, loss_of)
            train_scores[batch.start:batch.stop] = scores
            epoch_loss = sum(values, epoch_loss)
            seen += len(values)
            grads = {name: tensor.grad.astype(np.float64) / len(batch)
                     for name, tensor in compute.named_tensors() if tensor.grad is not None}
            adam_step(params, adam, grads, lr)

        if not warm and train_config.use_importance:
            state.importance = sampling.refresh(y_train, train_scores, train_config.bandwidth, shape)

        report = evaluate_split(params, grid, splits, [train_config.eval_k], eval_radius)
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
    return save_csv(Path(path), list(state.log[0]) if state.log else [], [row.values() for row in state.log])


def scored_split(grid: StGrid, splits: Splits, length: int,
                 params: ModelParams | None = None) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The validation split's target days, their (days, S) risk and the
    model's (days, S) scores, or the historical average when ``params``
    is None."""
    _, windows = split_windows(grid, splits, length)
    days = [w.target for w in windows]
    actual = grid.risk_by_location()[:, days].T.copy()
    if params is None:
        return days, actual, np.tile(historical_average(grid, splits), (len(days), 1))
    return days, actual, predictions_for(params, grid, windows)


def evaluate_split(params: ModelParams, grid: StGrid, splits: Splits, ks: list[int],
                   radius: float = metrics.EVAL_RADIUS) -> metrics.RankingReport:
    """Metric report of the model over the validation split."""
    days, actual, predicted = scored_split(grid, splits, params.config.window, params)
    return metrics.metric_report(actual, predicted, ks, (grid.rows, grid.cols),
                                 radius=radius, day_periods=days)


def baseline_report(grid: StGrid, splits: Splits, window_length: int, ks: list[int],
                    radius: float = metrics.EVAL_RADIUS) -> metrics.RankingReport:
    """Metric report of the historical-average forecast over the validation split."""
    days, actual, predicted = scored_split(grid, splits, window_length)
    return metrics.metric_report(actual, predicted, ks, (grid.rows, grid.cols),
                                 radius=radius, day_periods=days)
