"""Forecasting network: per-period graph convolutions over the blended
adjacency, a recurrent cell shared across locations, and a linear score
head.

A forward pass has two parts. The per-period step (``_period_step``, one
fused tape node) depends only on the parameters and the period t: it
builds t's graph (dynamic adjacency, gate blend, D^-1 (A + I)
normalization) and passes the node features (static spatial channels
concatenated with t's spatiotemporal channels) through the graph-conv
layers H <- relu(A_hat H W). The degree is |row sum| + 1e-6: the static
graph holds negative correlations, so a row sum can be zero or negative
(signed message passing). The conv output, concatenated with t's
temporal features, is the input of one recurrent step. The recurrent part
(``_recurrent``) runs an LSTM-style cell over the window's steps in order,
one fused tape node per step, and maps its final state linearly to one
unbounded score per location; ranking objectives are argsort-invariant,
so no output activation is applied.

``forward`` builds every step of its window. ``predictions_for`` scores
many overlapping windows without gradients, so it builds each distinct
period's step once per call and reuses it in every window that contains
it; the cache lives for that call only, since parameters change between
calls. A build without gradients holds one S x S buffer and a row block
of at most ``adjacency._BLOCK_ENTRIES`` entries; the rebuilds of
``batch_backward`` share two S x S buffers and a row block.

From S x S = ``_POOL_MIN_ENTRIES`` = 2^16 entries (S = 256),
``predictions_for`` and stage (1) of ``batch_backward`` build their periods,
and ``predictions_for`` scores its windows, on min(``_POOL_WORKERS`` = 2,
CPUs available) threads: the calling thread and threads started for the
call. Each has its own buffers, made by the calling thread, so two hold two
S x S buffers, as many as one build held before, and each result goes into
its own slot, so outputs equal the serial ones bit for bit. The pooled to
serial time of ``predictions_for`` (2-vCPU VM, one BLAS thread) was 1.24 at
S = 64, 1.02 at S = 144, 0.82 at S = 256 and 0.53 at S = 1024. Before the
first thread starts, glibc's ``mallopt(M_ARENA_MAX, 1)`` makes every thread
allocate from the main arena: per-thread arenas took eval-32x32's peak RSS
from 185 to 236 MB. Stage (3) stays serial; run in parallel it would need a
fixed-order gradient sum and one more set of S x S buffers per thread.

``batch_backward`` is one mini-batch's training step, checkpointed at
the period boundary (Chen et al. 2016): (1) without gradients, each
distinct input period's step is built once and held as a detached leaf;
(2) per window, the recurrent part runs over its leaves and its loss is
backpropagated into them and into the recurrent and head weights; (3) in
ascending order, each period whose leaf got a gradient is rebuilt with
gradients and that gradient seeds its backward. At most one window's
recurrent tape and one period's S x S tape are alive at a time, and the
gradients equal the per-window sum up to summation order. Keeping the
period tapes, or stacking the windows into one (B S)-row recurrent pass,
costs memory: prototypes on the benchmark workloads (2-vCPU VM, one BLAS
thread) peaked at 59.1 against 49.6 MB on train-8x8 when keeping tapes,
and at 886 against 330 MB on train-32x32 (67-92 MB on train-8x8) when
stacking; stacking in ``predictions_for`` took eval-32x32 from 196 to
255 MB. Stacking a call's periods on a leading axis does not pay at
S = 64: 42 periods took 8.2 against 6.9 ms without gradients and 24.1
against 16.2 ms with them.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import operator
import os
import threading
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import adjacency
from . import autodiff as ad
from .adjacency import DynamicAdjacencyParams, init_adjacency_params
from .autodiff import Tensor
from .errors import ConfigError, DataError
from .grid import StGrid, Window


@dataclass
class ModelSection:
    """The model's hyperparameters: the ``model`` section of a run config."""

    hidden: int = 32
    recurrent_hidden: int = 32
    conv_layers: int = 2
    window: int = 7
    embed_dim: int = 16
    saturation: float = 3.0
    fixed_gate: float | None = None

    def validate(self) -> "ModelSection":
        sizes = {"hidden": self.hidden, "recurrent_hidden": self.recurrent_hidden,
                 "conv_layers": self.conv_layers, "window": self.window, "embed_dim": self.embed_dim}
        for name, value in sizes.items():
            if value < 1:
                raise ConfigError(f"{name} must be positive, got {value}")
        if self.saturation <= 0:
            raise ConfigError(f"saturation must be positive, got {self.saturation}")
        if self.fixed_gate is not None and not 0.0 <= self.fixed_gate <= 1.0:
            raise ConfigError(f"fixed_gate must be in [0, 1], got {self.fixed_gate}")
        return self


@dataclass(kw_only=True)
class ModelConfig(ModelSection):
    """The hyperparameters plus the grid's size and feature widths."""

    rows: int
    cols: int
    d_t: int
    d_s: int
    d_st: int

    @classmethod
    def for_grid(cls, grid: StGrid, **overrides) -> "ModelConfig":
        return cls(rows=grid.rows, cols=grid.cols, d_t=grid.d_t, d_s=grid.d_s,
                   d_st=grid.d_st, **overrides).validate()

    @property
    def n_locations(self) -> int:
        return self.rows * self.cols

    def validate(self) -> "ModelConfig":
        sizes = {"rows": self.rows, "cols": self.cols, "d_t": self.d_t, "d_s": self.d_s, "d_st": self.d_st}
        for name, value in sizes.items():
            if value < 1:
                raise ConfigError(f"{name} must be positive, got {value}")
        super().validate()
        return self


@dataclass
class ModelParams:
    """All learnable tensors plus the precomputed static graph buffer."""

    config: ModelConfig
    adjacency: DynamicAdjacencyParams
    conv_weights: list[Tensor]
    lstm_wx: Tensor
    lstm_wh: Tensor
    lstm_bias: Tensor
    head_weight: Tensor
    head_bias: Tensor
    static_graph: np.ndarray = field(repr=False, default=None)

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        named = self.adjacency.named_tensors()
        named += [(f"conv.{i}", w) for i, w in enumerate(self.conv_weights)]
        named += [("lstm.wx", self.lstm_wx), ("lstm.wh", self.lstm_wh), ("lstm.bias", self.lstm_bias),
                  ("head.weight", self.head_weight), ("head.bias", self.head_bias)]
        return named

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self.named_tensors()]

    def snapshot(self) -> dict[str, np.ndarray]:
        """Copies of the learnable tensors; the static graph, which training
        never changes (``training.train`` makes it read-only), is shared."""
        state = {name: t.data.copy() for name, t in self.named_tensors()}
        state["static_graph"] = self.static_graph
        return state

    def load_snapshot(self, state: dict[str, np.ndarray]) -> None:
        for name, t in self.named_tensors():
            t.data = np.array(state[name], dtype=np.float64)
        self.static_graph = None  # free the old S x S graph before copying the new one
        self.static_graph = np.array(state["static_graph"], dtype=np.float64)


def init_params(config: ModelConfig, seed: int = 0) -> ModelParams:
    """Deterministic initialization: uniform(-k, k) with k = sqrt(1/fan_in),
    embeddings standard normal scaled by 0.1, static graph zeros until the
    trainer supplies the correlation graph. ``seed`` alone seeds the draw;
    ``training.train`` passes ``train.seed``."""
    config.validate()
    rng = np.random.default_rng(seed)
    s = config.n_locations

    adj = init_adjacency_params(s, config.d_t, config.d_st, config.embed_dim,
                                config.saturation, rng)

    d_in = config.d_s + config.d_st
    conv_weights = []
    width_in = d_in
    for _ in range(config.conv_layers):
        conv_weights.append(ad.uniform_parameter(rng, (width_in, config.hidden), width_in))
        width_in = config.hidden

    step_width = config.hidden + config.d_t
    hr = config.recurrent_hidden
    return ModelParams(
        config=config,
        adjacency=adj,
        conv_weights=conv_weights,
        lstm_wx=ad.uniform_parameter(rng, (step_width, 4 * hr), step_width),
        lstm_wh=ad.uniform_parameter(rng, (hr, 4 * hr), hr),
        lstm_bias=ad.uniform_parameter(rng, (1, 4 * hr), hr),
        head_weight=ad.uniform_parameter(rng, (hr, 1), hr),
        head_bias=ad.uniform_parameter(rng, (1, 1), hr),
        static_graph=np.zeros((s, s)),
    )


def _period_inputs(grid: StGrid, t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-period constant inputs, memoized on the grid (windows overlap)."""
    cache = grid.attrs.setdefault("_period_inputs", {})
    entry = cache.get(t)
    if entry is None:
        st_t = grid.spatiotemporal_at(t)
        node_features = np.concatenate([grid.spatial_flat(), st_t], axis=1)
        temporal_tiled = np.broadcast_to(grid.temporal[t], (grid.n_locations, grid.d_t))
        entry = (st_t, node_features, temporal_tiled)
        cache[t] = entry
    return entry


def _check_window(params: ModelParams, grid: StGrid, window: Window) -> None:
    cfg = params.config
    if (grid.rows, grid.cols) != (cfg.rows, cfg.cols):
        raise DataError(f"grid {grid.rows}x{grid.cols} does not match model {cfg.rows}x{cfg.cols}")
    if window.target >= grid.periods:
        raise DataError(f"window target {window.target} outside study period {grid.periods}")


def _buffer(work: dict[str, np.ndarray] | None, name: str, rows: int, s: int) -> np.ndarray:
    """The (rows, S) array ``work[name]``, made on first use; a fresh one
    when there is no ``work``."""
    if work is None:
        return np.empty((rows, s))
    if name not in work:
        work[name] = np.empty((rows, s))
    return work[name]


def _no_grad_buffers(s: int) -> dict[str, np.ndarray]:
    """The ``work`` of builds without gradients: A's S x S array and a row
    block of at most ``adjacency._BLOCK_ENTRIES`` entries."""
    return {"graph": np.empty((s, s)), "block": np.empty((adjacency._block_rows(s), s))}


def _normalize(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D^-1 (A + I) in place, d_i = |r_i| + 1e-6 for the row sums r_i of
    A + I; returns the (S, 1) degrees and sign(r), the row factor s of the
    gradient."""
    matrix.flat[::matrix.shape[0] + 1] += 1.0
    row_sums = matrix.sum(axis=1, keepdims=True)
    denom = np.abs(row_sums) + 1e-6
    matrix /= denom
    return denom, np.sign(row_sums)


def _period_step(params: ModelParams, grid: StGrid, t: int,
                 work: dict[str, np.ndarray] | None = None) -> Tensor:
    """Input period t's graph, its graph convolutions and its temporal
    features: the (S, hidden + d_t) input of one recurrent step, as one
    tape node.

    Its parents are emb1, emb2, mix1, mix2, feature_proj, time_gate (when
    the gate is learned) and the conv weights. The forward is
    ``adjacency.dynamic_adjacency``, ``adjacency.blend``, ``_normalize``
    and the convolutions, in that order and with the arithmetic of the
    separate nodes they replace. Both builds subtract z2 z1^T and add
    (1 - g) A_static a row block at a time through one row-block scratch,
    so their outputs are equal bit for bit. With gradients the S x S
    arrays are A and A_hat, and the node keeps them and the (S, width) H_l
    and Q_l = A_hat H_l; the backward writes dB over A_hat once its last
    use is past. Without, A's one S x S array is all (the blend and the
    normalization run in place in it), and no mask is built unless a kink
    trace is installed. The arrays come from ``work`` when given
    (``_no_grad_buffers`` without gradients), so the builds of one call
    share them, and a build with gradients must then be backpropagated
    before the next one is made.

    Backward, for output gradient G: per layer from the top,
    dP_l = dH_{l+1} * 1[P_l > 0], dW_l = Q_l^T dP_l, dQ_l = dP_l W_l^T and
    dH_l = (dQ_l^T A_hat)^T (the cheaper order for the transposed
    product: 1.9 against 3.1 ms for A_hat^T dQ_l at S = 1024). Then
    dA_hat = sum_l dQ_l H_l^T is never formed: the normalization's
    gradient dB = (dA_hat - s m) / d, with s, d from ``_normalize``, needs
    m = rowsum(dA_hat * A_hat) = sum_l rowsum(dQ_l * Q_l), so dB is one
    S x S product U V^T with U = [dQ_0 | ... | dQ_{L-1} | -s m] / d and
    V = [H_0 | ... | H_{L-1} | 1]. The gate gets
    dg = <dB, A> - <dB, A_static> (two vdots), and the dynamic graph
    g dB (``adjacency.dynamic_adjacency_grads``). The kinks reported are
    1[A > 0], 1[r > 0] for the row sums r of A + I, and each layer's
    1[P_l > 0].
    """
    st_t, node_features, temporal_tiled = _period_inputs(grid, t)
    adj, s = params.adjacency, params.config.n_locations
    with_grads = ad.grad_enabled()
    block = _buffer(work, "block", adjacency._block_rows(s), s)
    graph = adjacency.dynamic_adjacency(adj, st_t, out=_buffer(work, "graph", s, s), scratch=block)
    static = params.static_graph
    blended = adjacency.blend(graph.matrix, static, grid.temporal[t], adj.time_gate,
                              params.config.fixed_gate,
                              out=_buffer(work, "normalized", s, s) if with_grads else graph.matrix,
                              scratch=block)
    a_hat, gate = blended.matrix, blended.gate
    denom, slope = _normalize(a_hat)
    layers = [node_features]
    products = []
    for conv in params.conv_weights:
        products.append(a_hat @ layers[-1])
        layers.append(np.maximum(products[-1] @ conv.data, 0.0))
    out = np.concatenate([layers[-1], temporal_tiled], axis=1)
    kinks = ()
    if graph.active is not None:  # a kink trace is installed
        kinks = [graph.active, slope > 0.0] + [h > 0.0 for h in layers[1:]]

    learned = params.config.fixed_gate is None
    parents = (adj.emb1, adj.emb2, adj.mix1, adj.mix2, adj.feature_proj) + ((adj.time_gate,) if learned else ())

    def grads(g):
        d_h = g[:, :params.config.hidden]
        d_q, d_w = [None] * len(products), [None] * len(products)
        for l in reversed(range(len(products))):
            d_p = d_h * (layers[l + 1] > 0.0)
            d_w[l] = products[l].T @ d_p
            d_q[l] = d_p @ params.conv_weights[l].data.T
            if l:
                d_h = (d_q[l].T @ a_hat).T
        inner = sum(np.einsum("ij,ij->i", dq, q) for dq, q in zip(d_q, products))[:, None]
        u = np.concatenate(d_q + [-slope * inner], axis=1)
        u /= denom
        v = np.concatenate(layers[:-1] + [np.ones((s, 1))], axis=1)
        g_b = np.matmul(u, v.T, out=a_hat)  # A_hat's last use was the loop above
        g_gate = ()
        if learned:
            d_gate = np.vdot(g_b, graph.matrix) - np.vdot(g_b, static)
            g_gate = (grid.temporal[t].reshape(-1, 1) * (d_gate * gate * (1.0 - gate)),)
        g_dynamic = adjacency.dynamic_adjacency_grads(adj, st_t, graph, g_b, gate)
        return g_dynamic + g_gate + tuple(d_w)

    return ad.fused("period_step", out, parents + tuple(params.conv_weights), grads, kinks=kinks)


def _lstm_step(params: ModelParams, step_in: Tensor, state: Tensor) -> Tensor:
    """One recurrent step as one tape node: the (R, 2h) state [h | c] and
    the step input x give the next state [h' | c'].

    Forward, with sigmoid(z) = (1 + tanh(z / 2)) / 2:
    z = x Wx + h Wh + b, split into four h-wide blocks (i, f, g, o);
    i, f, o = sigmoid of their blocks, g = tanh of its block;
    c' = f * c + i * g, h' = o * tanh(c').

    Backward, for the output gradient [dh' | dc'] (dc' is the part that
    reaches c' directly): dC = dc' + dh' * o * (1 - tanh(c')^2);
    do = dh' * tanh(c'), di = dC * g, df = dC * c, dg = dC * i;
    dz = [di * i (1 - i), df * f (1 - f), dg (1 - g^2), do * o (1 - o)];
    dx = dz Wx^T, dWx = x^T dz, dWh = h^T dz, db = column sums of dz,
    d[h | c] = [dz Wh^T | dC * f]. Only the (R, 4h) activations
    [i, f, g, o] and tanh(c') are kept for it. dz is built in one (R, 4h)
    array with few numpy calls, which is what counts at S = 64:
    a (1 - a) over all four blocks, the g block overwritten with 1 - g^2,
    then times [g | c | i | tanh(c')] and [dC | dC | dC | dh'].
    """
    hr = params.config.recurrent_hidden
    x, wx, wh = step_in.data, params.lstm_wx.data, params.lstm_wh.data
    h, c = state.data[:, :hr], state.data[:, hr:]
    act = x @ wx
    act += h @ wh
    act += params.lstm_bias.data
    scale = np.repeat([0.5, 0.5, 1.0, 0.5], hr)  # sigmoid(z) = 0.5 + 0.5 tanh(z / 2)
    act *= scale
    np.tanh(act, out=act)
    act *= scale
    act += 1.0 - scale
    i, f, g, o = act[:, :hr], act[:, hr:2 * hr], act[:, 2 * hr:3 * hr], act[:, 3 * hr:]
    out = np.empty((act.shape[0], 2 * hr))
    c_next = np.multiply(f, c, out=out[:, hr:])
    c_next += i * g
    tanh_c = np.tanh(c_next)
    np.multiply(o, tanh_c, out=out[:, :hr])

    def grads(grad):
        dh, dc = grad[:, :hr], grad[:, hr:]
        d_cell = np.multiply(tanh_c, tanh_c)
        np.subtract(1.0, d_cell, out=d_cell)
        d_cell *= o
        d_cell *= dh
        d_cell += dc
        dz = np.subtract(1.0, act)
        dz *= act
        d_g = dz[:, 2 * hr:3 * hr]
        np.multiply(g, g, out=d_g)
        np.subtract(1.0, d_g, out=d_g)
        dz *= np.concatenate([g, c, i, tanh_c], axis=1)
        blocks = dz.reshape(-1, 4, hr)
        blocks[:, :3] *= d_cell[:, None, :]
        blocks[:, 3] *= dh
        d_state = np.concatenate([dz @ wh.T, d_cell * f], axis=1) if state.requires_grad else None
        return (dz @ wx.T if step_in.requires_grad else None, d_state,
                x.T @ dz, h.T @ dz, dz.sum(axis=0, keepdims=True))

    return ad.fused("lstm_step", out, (step_in, state, params.lstm_wx, params.lstm_wh, params.lstm_bias),
                    grads)


def _head(params: ModelParams, state: Tensor) -> Tensor:
    """Scores h W + b of the final state [h | c] as one (S,) tape node."""
    hr = params.config.recurrent_hidden
    h, w = state.data[:, :hr], params.head_weight.data
    scores = (h @ w + params.head_bias.data).reshape(-1)

    def grads(g):
        col = g.reshape(-1, 1)
        d_state = np.zeros_like(state.data)
        np.matmul(col, w.T, out=d_state[:, :hr])
        return d_state, h.T @ col, col.sum(axis=0, keepdims=True)

    return ad.fused("score_head", scores, (state, params.head_weight, params.head_bias), grads)


def _recurrent(params: ModelParams, steps: list[Tensor]) -> Tensor:
    """The recurrent cell over the period steps in order, then the head."""
    state = ad.constant(np.zeros((params.config.n_locations, 2 * params.config.recurrent_hidden)))
    for step_in in steps:
        state = _lstm_step(params, step_in, state)
    return _head(params, state)


def forward(params: ModelParams, grid: StGrid, window: Window) -> Tensor:
    """Scores for every location at the window's target period."""
    _check_window(params, grid, window)
    return _recurrent(params, [_period_step(params, grid, t) for t in window.inputs()])


# The thread rule of ``_pool_workers`` (S >= 256); the module docstring
# gives the timings behind it.
_POOL_MIN_ENTRIES = 1 << 16
_POOL_WORKERS = 2


def _pool_workers(s: int) -> int:
    """Threads for the builds and windows of one call: one below
    ``_POOL_MIN_ENTRIES`` or while a kink trace is installed (its masks
    would arrive in thread order), else min(``_POOL_WORKERS``, CPUs
    available to the process)."""
    if s * s < _POOL_MIN_ENTRIES or ad.tracing_kinks():
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(_POOL_WORKERS, cpus)


@functools.cache
def _one_malloc_arena() -> None:
    """Have every thread allocate from glibc's main arena:
    mallopt(M_ARENA_MAX, 1), with M_ARENA_MAX = -8 from malloc.h. Per-thread
    arenas took eval-32x32's peak RSS from 185 to 236 MB. A no-op where
    the C library has no ``mallopt``."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-8, 1)


def _in_parallel(workers: int, items: int, job: Callable[[int, int], None]) -> None:
    """Run ``job(k, i)`` for every item i in [0, items): worker k = 0 is the
    calling thread and each other one a thread started for this call, and
    each worker claims the next unclaimed item until none is left, so a
    worker slowed by a busy CPU takes fewer. A worker stops at its first
    failure; once all have stopped, the failure of the lowest item is
    raised in the calling thread."""
    claims = iter(range(items))
    lock = threading.Lock()
    failures: dict[int, BaseException] = {}

    def run(k: int) -> None:
        while True:
            with lock:
                i = next(claims, None)
            if i is None:
                return
            try:
                job(k, i)
            except BaseException as exc:  # re-raised below, in the calling thread
                failures[i] = exc
                return

    if workers > 1:
        _one_malloc_arena()
    threads = [threading.Thread(target=run, args=(k,)) for k in range(1, workers)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    if failures:
        raise failures[min(failures)]


def _shared_steps(params: ModelParams, grid: StGrid, windows: list[Window]) -> dict[int, Tensor]:
    """Each distinct input period's step of ``windows``, built once and
    without gradients, keyed in order of first use. Each period goes into
    its own slot, built by one of ``_pool_workers`` threads with that
    worker's buffers, which the calling thread makes; the threads see the
    caller's ``no_grad``, which is process-wide."""
    for window in windows:
        _check_window(params, grid, window)
    periods = list(dict.fromkeys(t for window in windows for t in window.inputs()))
    workers = _pool_workers(params.config.n_locations)
    buffers = [_no_grad_buffers(params.config.n_locations) for _ in range(workers)]
    built: list[Tensor | None] = [None] * len(periods)

    def build(k: int, i: int) -> None:
        built[i] = _period_step(params, grid, periods[i], buffers[k])

    with ad.no_grad():
        _in_parallel(workers, len(periods), build)
    return dict(zip(periods, built))


def predictions_for(params: ModelParams, grid: StGrid, windows: list[Window]) -> np.ndarray:
    """(days, S) score matrix for a list of windows, gradient-free.

    Each distinct input period's step is computed once per call and reused
    by every window that contains it; the values equal ``forward``'s. The
    windows are scored on ``_pool_workers`` threads, each into its own row.
    """
    out = np.empty((len(windows), params.config.n_locations))
    steps = _shared_steps(params, grid, windows)

    def score(k: int, i: int) -> None:
        out[i] = _recurrent(params, [steps[t] for t in windows[i].inputs()]).data

    with ad.no_grad():
        _in_parallel(_pool_workers(params.config.n_locations), len(windows), score)
    return out


def batch_backward(params: ModelParams, grid: StGrid, windows: list[Window],
                   loss_of: Callable[[Window, Tensor], Tensor]) -> list[float]:
    """Accumulate the gradient of the summed window losses into the
    parameters' ``.grad`` and return each window's loss value, in order.

    ``loss_of(window, scores)`` gives one window's scalar loss; it may
    raise to abort the batch. The three stages are described in the module
    docstring.
    """
    leaves = {t: ad.parameter(step.data) for t, step in _shared_steps(params, grid, windows).items()}
    values = []
    for window in windows:
        loss = loss_of(window, _recurrent(params, [leaves[t] for t in window.inputs()]))
        values.append(loss.item())
        ad.backward(loss)
        del loss  # free this window's tape before the next one is built
    seeds = {t: leaves[t].grad for t in sorted(leaves) if leaves[t].grad is not None}
    del leaves  # stage (3) needs the leaves' gradients only, not their values
    work: dict[str, np.ndarray] = {}
    for t in list(seeds):
        ad.backward(_period_step(params, grid, t, work), seeds.pop(t))
    return values


# ---------------------------------------------------------------------------
# checkpoints: JSON manifest (with the blob's sha256) + raw little-endian
# float64 blob

CHECKPOINT_JSON = "checkpoint.json"
CHECKPOINT_BLOB = "checkpoint.bin"


def save_checkpoint(directory, params: ModelParams) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    blob = bytearray()
    items = params.named_tensors() + [("static_graph", None)]
    for name, tensor in items:
        array = params.static_graph if tensor is None else tensor.data
        raw = np.ascontiguousarray(array, dtype="<f8").tobytes()
        entries.append({"name": name, "shape": list(array.shape), "offset": len(blob),
                        "trainable": tensor is not None})
        blob.extend(raw)
    manifest = {"config": asdict(params.config), "dtype": "<f8", "tensors": entries,
                "sha256": hashlib.sha256(blob).hexdigest()}
    with open(directory / CHECKPOINT_BLOB, "wb") as fh:
        fh.write(bytes(blob))
    path = directory / CHECKPOINT_JSON
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return path


def load_checkpoint(directory) -> ModelParams:
    directory = Path(directory)
    manifest_path = directory / CHECKPOINT_JSON if directory.is_dir() else directory
    if not manifest_path.exists():
        raise DataError(f"missing file: {manifest_path}")
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        config = ModelConfig(**manifest["config"]).validate()
        entries = {entry["name"]: (tuple(map(operator.index, entry["shape"])), operator.index(entry["offset"]))
                   for entry in manifest["tensors"]}
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise DataError(f"malformed checkpoint manifest {manifest_path}: {exc!r}") from None
    blob_path = manifest_path.parent / CHECKPOINT_BLOB
    if not blob_path.exists():
        raise DataError(f"missing file: {blob_path}")
    blob = blob_path.read_bytes()
    params = init_params(config)
    expected = {name: t.shape for name, t in params.named_tensors()}
    expected["static_graph"] = (config.n_locations, config.n_locations)
    arrays = {}
    for name, (shape, start) in entries.items():
        if name not in expected:
            raise DataError(f"checkpoint entry {name!r} is not a tensor of this model")
        if shape != expected[name]:
            raise DataError(f"checkpoint entry {name} has shape {shape}, the config needs {expected[name]}")
        count = math.prod(shape)
        if start < 0 or start + 8 * count > len(blob):
            raise DataError(f"checkpoint entry {name} needs bytes [{start}, {start + 8 * count}) "
                            f"but {blob_path.name} holds {len(blob)}")
        arrays[name] = np.frombuffer(blob, dtype="<f8", count=count, offset=start).reshape(shape)
    missing = sorted(expected.keys() - arrays.keys())
    if missing:
        raise DataError(f"checkpoint lacks entries {missing}")
    if manifest.get("sha256") != hashlib.sha256(blob).hexdigest():
        raise DataError(f"{blob_path.name} does not match the sha256 digest in {manifest_path.name}")
    params.load_snapshot(arrays)
    return params
