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
(``_recurrent``, one fused tape node per window) runs an LSTM-style cell
over the window's steps in order and maps its final h linearly to one
unbounded score per location; ranking objectives are argsort-invariant,
so no output activation is applied.

The learned tensors are one table, ``ModelParams.table``. ``_shapes``
alone declares their names, shapes and order, the order in which
``init_params`` draws them, checkpoints store them and training walks
them. ``_period_step`` and ``_recurrent`` look up the tensors they read
once per call, and ``adjacency`` gets plain arrays.

``forward`` builds every step of its window. ``predictions_for`` scores
many overlapping windows without gradients, so it builds each distinct
period's step once per call and reuses it in every window that contains
it; the cache lives for that call only, since parameters change between
calls. A build, with or without gradients, runs in one
``adjacency.workspace``, whose module docstring describes it. Keeping A
for the backward took a second S x S array per build: two threads
rebuilding at once with two each peaked at 119.5 against 106 MB on
train-32x32.

``batch_backward`` is one mini-batch's training step, checkpointed at
the period boundary (Chen et al. 2016): (1) without gradients, each
distinct input period's step is built once and held as a detached leaf:
``training`` batches consecutive windows, so a batch of B windows of
length L builds B + L - 1 periods (14 for B = 8, L = 7);
(2) per window, the recurrent part runs over its leaves to the window's
(S,) float64 scores, ``loss_of`` gives its loss from them and
``autodiff.backward_pairs`` its (leaf, gradient) pairs for the period
leaves and the recurrent and head weights; the loss values and the
scores are returned in window order, and ``training`` refreshes its
importance distribution from those scores instead of scoring the
training windows again; (3) in
ascending order, each period whose leaf got a gradient is rebuilt with
gradients, one tape node whose parents are all parameters, so one
``autodiff.vjp`` call with that gradient gives its parameter gradients.
Every stage runs its jobs on the call's pool (``pool`` module: threads
from S = 256, a helper process below it during training), and the
calling thread adds each window's and each period's pairs to ``.grad``
as it takes them, in job order, so each ``.grad`` sums its terms in the
serial order, bit for bit, whichever job finishes first. ``loss_of``
must be a pure function of the window and its scores: it may run on any
thread or in the helper, in any order (``training`` draws the importance
weights before the batch). A failure raises the first failing job's
error in the calling thread; the pairs taken before it stay, and the
caller drops the batch. Each backward frees its activations as it goes.
The gradients equal the per-window sum up to summation order. Keeping
the period tapes, or stacking the windows into one (B S)-row recurrent
pass, costs memory: prototypes on the benchmark workloads peaked at 59.1
against 49.6 MB on train-8x8 when keeping tapes, and at 886 against 330
MB on train-32x32 (67-92 MB on train-8x8) when stacking; stacking in
``predictions_for`` took eval-32x32 from 196 to 255 MB. Stacking a
call's periods on a leading axis does not pay at S = 64: 42 periods took
8.2 against 6.9 ms without gradients and 24.1 against 16.2 ms with them.

Every build and window computes in the dtype of the parameters it is
given (``ModelParams.dtype``): workspaces, period inputs, activations and
gradients all take it, and only the (S,) scores are float64 whatever the
parameters hold. ``training`` runs ``batch_backward`` on a float32 copy
of its float64 master weights (``ModelParams.cast``), so the scores it
returns, and the importance refresh that reads them, are computed in
float32; evaluation,
``predictions_for`` on the masters or on a loaded checkpoint, and the
checkpoints themselves are float64. A float32 copy of a period's inputs
(``_period_inputs``) has every entry of magnitude below 2^-64 set to 0.
The generator's Gaussian-bump spatial channels reach 1e-120: on a 32 x 32
grid a fifth of f_s lies below 2^-64, and 151 entries cast to float32
subnormals. Their products, in A_hat H and in the backward's U V^T (where
entries above the subnormal range still underflow against small
gradients), ran OpenBLAS's float32 kernels through subnormal assists. At
S = 1024 (2-vCPU VM, one BLAS thread) A_hat @ node_features took 3.5 ms
on the cast features, 1.1 ms with the subnormals zeroed and 0.8 ms with
the 2^-64 rule; one rebuild and its vjp took 24-26 against 17-18 ms. The
rule changes a bit only where such an entry's product reaches the last
bit of a sum it enters; on the 8 x 8, 16 x 16 and 32 x 32 grids
training's outputs kept every bit. Float64 inputs hold the grid's values.

``forward`` and ``_shared_steps`` (so ``predictions_for`` and
``batch_backward`` too) check a grid against the parameters once per call
(``_check_inputs``). The per-period build then trusts shapes and dtypes,
and the step computes the blend gate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import adjacency, pool
from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DataError, read_json
from .grid import StGrid, TensorIndex, Window, read_tensors, save_json, write_tensors


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
    _sizes = ("hidden", "recurrent_hidden", "conv_layers", "window", "embed_dim")  # each must be >= 1

    def validate(self) -> "ModelSection":
        for name in self._sizes:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
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
    _sizes = ("rows", "cols", "d_t", "d_s", "d_st") + ModelSection._sizes

    @classmethod
    def for_grid(cls, grid: StGrid, **overrides) -> "ModelConfig":
        return cls(rows=grid.rows, cols=grid.cols, d_t=grid.d_t, d_s=grid.d_s,
                   d_st=grid.d_st, **overrides).validate()

    @property
    def n_locations(self) -> int:
        return self.rows * self.cols


@dataclass
class ModelParams:
    """The config, the learnable tensors in ``table``, keyed and ordered as
    ``_shapes(config)``, and the static graph, a buffer that nothing trains."""

    config: ModelConfig
    table: dict[str, Tensor]
    static_graph: np.ndarray = field(repr=False, default=None)

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        return list(self.table.items())

    def tensors(self) -> list[Tensor]:
        return list(self.table.values())

    @property
    def dtype(self) -> np.dtype:
        """The dtype of the tensors, which every build and window computes in."""
        return self.table["lstm.wx"].data.dtype

    @classmethod
    def from_arrays(cls, config: ModelConfig, arrays: dict[str, np.ndarray]) -> "ModelParams":
        """Parameters whose tensors are fresh leaves holding ``arrays``,
        keyed as ``_shapes`` and ``static_graph``; nothing is drawn."""
        return cls(config, {name: ad.parameter(arrays[name]) for name in _shapes(config)}, arrays["static_graph"])

    def cast(self, dtype) -> "ModelParams":
        """A copy whose tensors and static graph are new ``dtype`` arrays,
        fresh leaves without gradients."""
        return self.restore(self.snapshot(), dtype)

    def snapshot(self) -> dict[str, np.ndarray]:
        """Copies of the learnable tensors; the static graph, which training
        never changes (``training.train`` makes it read-only), is shared."""
        state = {name: t.data.copy() for name, t in self.named_tensors()}
        state["static_graph"] = self.static_graph
        return state

    def __reduce__(self):
        """Pickled as its config and arrays (a helper process gets it so);
        the copy's tensors are fresh leaves without gradients."""
        return ModelParams.from_arrays, (self.config, {**{n: t.data for n, t in self.named_tensors()},
                                                       "static_graph": self.static_graph})

    def restore(self, state: dict[str, np.ndarray], dtype=np.float64) -> "ModelParams":
        """New parameters of this config holding ``dtype`` copies of a
        ``snapshot``'s arrays."""
        return ModelParams.from_arrays(self.config, {name: np.array(a, dtype=dtype) for name, a in state.items()})


def _shapes(config: ModelConfig) -> dict[str, tuple[int, int]]:
    """Each learnable tensor's shape by name, in the order of the draw, the
    checkpoint and ``ModelParams.table``: the one parameter declaration."""
    d_e, hr = config.embed_dim, config.recurrent_hidden
    widths = [config.d_s + config.d_st] + [config.hidden] * config.conv_layers
    return {"adjacency.emb1": (config.n_locations, d_e), "adjacency.emb2": (config.n_locations, d_e),
            "adjacency.mix1": (d_e, d_e), "adjacency.mix2": (d_e, d_e), "adjacency.time_gate": (config.d_t, 1),
            "adjacency.feature_proj": (config.d_st, d_e),
            **{f"conv.{i}": (widths[i], widths[i + 1]) for i in range(config.conv_layers)},
            "lstm.wx": (config.hidden + config.d_t, 4 * hr), "lstm.wh": (hr, 4 * hr), "lstm.bias": (1, 4 * hr),
            "head.weight": (hr, 1), "head.bias": (1, 1)}


def init_params(config: ModelConfig, seed: int = 0) -> ModelParams:
    """Deterministic initialization, drawn in ``_shapes`` order:
    uniform(-k, k) with k = sqrt(1/fan_in), where fan_in is a weight's
    input width and a bias's recurrent_hidden, embeddings standard normal
    scaled by 0.1, and a read-only zero static graph that allocates
    nothing (``np.broadcast_to``) until the trainer supplies the
    correlation graph. ``seed`` alone seeds the draw; ``training.train``
    passes ``train.seed``."""
    rng = np.random.default_rng(seed)
    arrays = {}
    for name, shape in _shapes(config).items():
        if name in ("adjacency.emb1", "adjacency.emb2"):
            arrays[name] = rng.normal(size=shape) * 0.1
        else:
            k = np.sqrt(1.0 / (config.recurrent_hidden if name.endswith("bias") else shape[0]))
            arrays[name] = rng.uniform(-k, k, size=shape)
    arrays["static_graph"] = np.broadcast_to(0.0, (config.n_locations, config.n_locations))
    return ModelParams.from_arrays(config, arrays)


# Below this magnitude a float32 period input is set to 0 (the module
# docstring says why).
_FLOAT32_FLOOR = 2.0 ** -64


def _period_inputs(grid: StGrid, t: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Period t's constant inputs in ``dtype``: its spatiotemporal slice,
    the node features and the (S, d_t) temporal features, memoized on the
    grid per period and dtype (windows overlap). A float32 copy has every
    entry of magnitude below ``_FLOAT32_FLOOR`` set to 0; float64 inputs
    hold the grid's values."""
    cache = grid.attrs.setdefault("_period_inputs", {})
    key = (t, dtype)
    entry = cache.get(key)
    if entry is None:
        st_t = grid.spatiotemporal_at(t).astype(dtype, copy=False)
        node_features = np.concatenate([grid.spatial_flat(), st_t], axis=1, dtype=dtype)
        temporal = grid.temporal[t].astype(dtype)
        if dtype == np.float32:  # new arrays: a float32 grid's st_t is a view of it
            st_t, node_features, temporal = (np.where(np.abs(a) < _FLOAT32_FLOOR, 0.0, a)
                                             for a in (st_t, node_features, temporal))
        entry = cache[key] = (st_t, node_features, np.broadcast_to(temporal, (grid.n_locations, grid.d_t)))
    return entry


def _check_inputs(params: ModelParams, grid: StGrid, windows: list[Window]) -> None:
    """What every build of a call trusts: the grid has the model's size and
    feature widths (one DataError names each field that differs), and each
    window's target lies inside the study period."""
    differ = [f"{name} {getattr(grid, name)} (model {getattr(params.config, name)})"
              for name in ("rows", "cols", "d_t", "d_s", "d_st") if getattr(grid, name) != getattr(params.config, name)]
    if differ:
        raise DataError(f"dataset does not match the model: {', '.join(differ)}")
    late = [window.target for window in windows if window.target >= grid.periods]
    if late:
        raise DataError(f"window target {late[0]} outside study period {grid.periods}")


def _normalize(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D^-1 (A + I) in place, d_i = |r_i| + 1e-6 for the row sums r_i of
    A + I; returns the (S, 1) degrees and sign(r), the row factor s of the
    gradient."""
    matrix.flat[::matrix.shape[0] + 1] += 1.0
    row_sums = matrix.sum(axis=1, keepdims=True)
    denom = np.abs(row_sums) + 1e-6
    matrix /= denom
    return denom, np.sign(row_sums)


def _period_step(params: ModelParams, grid: StGrid, t: int, work: dict[str, np.ndarray]) -> Tensor:
    """Input period t's graph, its graph convolutions and its temporal
    features: the (S, hidden + d_t) input of one recurrent step, as one
    tape node.

    Its parents are emb1, emb2, mix1, mix2, feature_proj, time_gate (when
    the gate is learned) and the conv weights. The forward is the gate
    g = sigmoid(f_t time_gate), or ``fixed_gate`` when the config sets one,
    ``adjacency.dynamic_adjacency``, ``adjacency.blend`` with g,
    ``_normalize`` and the convolutions, in that order and with the
    arithmetic of the separate nodes they replace, in the
    ``adjacency.workspace`` ``work``, whose ``graph`` ends as A_hat. A
    build with gradients also keeps the (S, d_e) z1, z2, e1, e2 and the
    (S, width) H_l and Q_l = A_hat H_l; no mask is built unless a kink
    trace is installed. It computes in the parameters' dtype, and so does
    its backward.

    Backward, for output gradient G: per layer from the top,
    dP_l = dH_{l+1} * 1[P_l > 0], dW_l = Q_l^T dP_l, dQ_l = dP_l W_l^T and
    dH_l = (dQ_l^T A_hat)^T (the cheaper order for the transposed
    product: 1.9 against 3.1 ms for A_hat^T dQ_l at S = 1024). Then
    dA_hat = sum_l dQ_l H_l^T is never formed: the normalization's
    gradient dB = (dA_hat - s m) / d, with s, d from ``_normalize``, needs
    m = rowsum(dA_hat * A_hat) = sum_l rowsum(dQ_l * Q_l), so dB is one
    S x S product U V^T with U = [dQ_0 | ... | dQ_{L-1} | -s m] / d and
    V = [H_0 | ... | H_{L-1} | 1], written over A_hat, whose last use is
    past. The gate gets dg = <dB, A> - <dB, A_static>: the first term is
    summed a row block at a time, from the last block up, by
    ``adjacency.dynamic_adjacency_grads``, which rebuilds each of A's row
    blocks but the last from z1 and z2 (recompute instead of store, as
    ``batch_backward`` does at the period boundary), and passes g dB to
    the dynamic graph. So at S > 181 the gate's gradient differs from a
    single vdot in the last bits. The kinks reported are 1[A > 0], 1[r > 0]
    for the row sums r of A + I, and each layer's 1[P_l > 0].
    """
    st_t, node_features, temporal_tiled = _period_inputs(grid, t, params.dtype)
    config, table, static = params.config, params.table, params.static_graph
    dynamic = [table[f"adjacency.{name}"] for name in ("emb1", "emb2", "mix1", "mix2", "feature_proj")]
    time_gate, convs = table["adjacency.time_gate"], [table[f"conv.{l}"] for l in range(config.conv_layers)]
    weights, s, learned = [p.data for p in dynamic], config.n_locations, config.fixed_gate is None
    gate = (ad._stable_sigmoid(temporal_tiled[0].reshape(1, -1) @ time_gate.data)[0, 0] if learned
            else float(config.fixed_gate))
    graph = adjacency.dynamic_adjacency(weights, config.saturation, st_t, work=work)
    a_hat = work["graph"]
    adjacency.blend(a_hat, static, gate, work["mix"])
    denom, slope = _normalize(a_hat)
    layers = [node_features]
    products = []
    for conv in convs:
        products.append(a_hat @ layers[-1])
        layers.append(np.maximum(products[-1] @ conv.data, 0.0))
    out = np.concatenate([layers[-1], temporal_tiled], axis=1)
    kinks = ()
    if graph.active is not None:  # a kink trace is installed
        kinks = [graph.active, slope > 0.0] + [h > 0.0 for h in layers[1:]]

    def grads(g):
        d_h = g[:, :config.hidden]
        d_q, d_w = [None] * len(products), [None] * len(products)
        for l in reversed(range(len(products))):
            d_p = d_h * (layers[l + 1] > 0.0)
            d_w[l] = products[l].T @ d_p
            d_q[l] = d_p @ convs[l].data.T
            if l:
                d_h = (d_q[l].T @ a_hat).T
        inner = sum(np.einsum("ij,ij->i", dq, q) for dq, q in zip(d_q, products))[:, None]
        u = np.concatenate(d_q + [-slope * inner], axis=1)
        u /= denom
        v = np.concatenate(layers[:-1] + [np.ones((s, 1), a_hat.dtype)], axis=1)
        g_b = np.matmul(u, v.T, out=a_hat)  # A_hat's last use was the loop above
        del d_h, d_p, d_q, u, v  # two builds can be in their backward at once: keep each small
        g_static = np.vdot(g_b, static) if learned else 0.0
        *g_dynamic, g_a = adjacency.dynamic_adjacency_grads(weights, config.saturation, st_t, graph, g_b, gate,
                                                            work)
        g_gate = ()
        if learned:
            g_gate = (temporal_tiled[0].reshape(-1, 1) * ((g_a - g_static) * gate * (1.0 - gate)),)
        return tuple(g_dynamic) + g_gate + tuple(d_w)

    parents = dynamic + ([time_gate] if learned else []) + convs
    return ad.fused("period_step", out, tuple(parents), grads, kinks=kinks)


def _recurrent(params: ModelParams, steps: list[Tensor]) -> Tensor:
    """The window's (S,) scores as one tape node: an LSTM cell over the
    period steps in order from h = c = 0, then the head h w + b.

    Forward: z = x Wx + h Wh + b in four h-wide blocks; i, f, o = sigmoid
    and g = tanh of their blocks, c' = f * c + i * g, h' = o * tanh(c').
    With sigmoid(z) = 1/2 + tanh(z / 2) / 2, [i, f, g, o] is
    tanh(z s) s + 1 - s for s = [1/2, 1/2, 1, 1/2] per block, and s is
    folded into copies of Wx, Wh and b: a power of two, so z s has the bits
    of z times s. The first step skips h Wh and f * c and adds + 0.0 in
    their place, so signed zeros are as with them. With gradients each
    step keeps [i, f, g, o], c', tanh(c') and h', 7 S h values; without,
    only h and c outlive a step. The cell and its backward compute in the
    parameters' dtype; the scores are float64, and their gradient is cast
    to the parameters' dtype as the backward takes it, after the head
    bias's gradient, its sum, is taken in float64. The hybrid surrogate
    depends on score differences only, so that sum is zero up to rounding:
    about 1e-17 in float64 but 1e-8 when summed in float32, which Adam
    (eps 1e-8) would turn into steps of the bias that float64 never takes.

    Backward from the head, dropping each step's arrays as it passes:
    dh = G w^T for the scores' gradient G, then per step from the last
    dC = dc' + dh' * o * (1 - tanh(c')^2), do = dh' * tanh(c'),
    di = dC * g, df = dC * c, dg = dC * i,
    dz = [di * i (1 - i), df * f (1 - f), dg (1 - g^2), do * o (1 - o)],
    built in one (S, 4h) array with few numpy calls (what counts at S = 64);
    dx = dz Wx^T, dWx = x^T dz, dWh = h^T dz, db = column sums of dz, and
    the previous step's dh = dz Wh^T, dc = dC * f. The parents are w and b,
    then x, Wx, Wh and b per step from the last, so each ``.grad`` sums its
    terms in that order.
    """
    table, hr = params.table, params.config.recurrent_hidden
    lstm = [table["lstm.wx"], table["lstm.wh"], table["lstm.bias"]]
    head_w, head_b = table["head.weight"], table["head.bias"]
    wx, wh, w = lstm[0].data, lstm[1].data, head_w.data
    scale = np.repeat(np.array([0.5, 0.5, 1.0, 0.5], wx.dtype), hr)
    shift = 1.0 - scale
    wx_s, wh_s, b_s = wx * scale, wh * scale, lstm[2].data * scale
    tape = []  # per step, with gradients: [i, f, g, o], c', tanh(c'), h'
    h = c = None
    for step_in in steps:
        act = step_in.data @ wx_s
        if h is not None:
            act += h @ wh_s
        act += b_s if h is not None else b_s + 0.0  # x Wx s + (b s + 0) has the bits of (x Wx s + 0) + b s
        np.tanh(act, out=act)
        act *= scale
        act += shift
        i, f, g, o = act[:, :hr], act[:, hr:2 * hr], act[:, 2 * hr:3 * hr], act[:, 3 * hr:]
        c = i * g + 0.0 if c is None else f * c + i * g
        tanh_c = np.tanh(c)
        h = o * tanh_c
        if ad._grad_enabled:
            tape.append((act, c, tanh_c, h))
        del act, i, f, g, o, tanh_c  # without gradients only h and c outlive the step
    scores = (h @ w + head_b.data).reshape(-1).astype(np.float64, copy=False)

    def grads(grad):
        col = grad.reshape(-1, 1)
        d_b = col.sum(axis=0, keepdims=True).astype(wx.dtype)  # summed in float64: see the docstring
        col = col.astype(wx.dtype, copy=False)
        out = [tape[-1][3].T @ col, d_b]
        dh, dc = col @ w.T, 0.0  # no gradient reaches the final c directly
        for step_in in reversed(steps):
            act, _, tanh_c, _ = tape.pop()
            c_prev, h_prev = (tape[-1][1], tape[-1][3]) if tape else (np.zeros_like(tanh_c), None)
            i, f, g, o = act[:, :hr], act[:, hr:2 * hr], act[:, 2 * hr:3 * hr], act[:, 3 * hr:]
            d_cell = (1.0 - tanh_c * tanh_c) * o * dh + dc
            dz = np.subtract(1.0, act)
            dz *= act
            d_g = dz[:, 2 * hr:3 * hr]
            np.multiply(g, g, out=d_g)
            np.subtract(1.0, d_g, out=d_g)
            dz *= np.concatenate([g, c_prev, i, tanh_c], axis=1)
            blocks = dz.reshape(-1, 4, hr)
            blocks[:, :3] *= d_cell[:, None, :]
            blocks[:, 3] *= dh
            out += [dz @ wx.T if step_in.requires_grad else None, step_in.data.T @ dz,
                    np.zeros_like(wh) if h_prev is None else h_prev.T @ dz, dz.sum(axis=0, keepdims=True)]
            if tape:
                dh, dc = dz @ wh.T, d_cell * f
        return out

    parents = (head_w, head_b) + tuple(p for x in reversed(steps) for p in (x, *lstm))
    return ad.fused("recurrent", scores, parents, grads)


def forward(params: ModelParams, grid: StGrid, window: Window) -> Tensor:
    """Scores for every location at the window's target period."""
    _check_inputs(params, grid, [window])
    s = params.config.n_locations
    steps = [_period_step(params, grid, t, adjacency.workspace(s, params.dtype)) for t in window.inputs()]
    return _recurrent(params, steps)


def helper_process(grid: StGrid):
    """A context in which the calls on ``grid`` below S = 256 run half their
    jobs on one forked helper process (``pool.Helper``); ``training.train``
    holds one for each run."""
    return pool.Helper.open(grid, _serve)


def _in_workspace(free: list[dict[str, np.ndarray]], build: Callable, *args):
    """``build(*args, work)`` in a workspace taken from ``free`` and put
    back after it returns: ``free`` holds one per worker, so one is free
    for every running job."""
    work = free.pop()
    try:
        return build(*args, work)
    finally:
        free.append(work)


def _in_order(helper: pool.Helper | None, count: int, jobs: list, decode: Callable, ahead: bool = False):
    """Each job's result in job order: split with the helper, whose
    results come through ``decode``, or on ``count`` threads, at most
    ``count`` + 1 of them submitted and not yet taken when ``ahead``."""
    if helper is not None:
        return helper.in_order(jobs, decode)
    return pool.in_order(count, jobs, count + 1 if ahead else None)


def _add_pairs(pairs: list[tuple[Tensor, np.ndarray]]) -> None:
    """Add each pair into its tensor's ``.grad``. A gradient the helper
    sent is a read-only view of its arena, copied when it would become
    ``.grad`` itself."""
    for param, grad in pairs:
        ad._accum(param, grad if param.grad is not None or grad.flags.writeable else grad.copy())


def _packed(pairs: list[tuple[Tensor, np.ndarray]], keys: dict[Tensor, str | int]) -> tuple:
    """``pairs`` as the helper sends them: each tensor's key (a parameter's
    name or a leaf's period), in order, and the gradients end to end in
    one array, so a message carries one array, not one per pair."""
    flat = np.concatenate([grad.reshape(-1) for _, grad in pairs]) if pairs else np.empty(0)
    return tuple(keys[tensor] for tensor, _ in pairs), flat


def _unpacked(packed: tuple, tensors: dict[str | int, Tensor]) -> list[tuple[Tensor, np.ndarray]]:
    """``_packed`` pairs with their tensors again; each gradient is a view
    of the received array and has its tensor's shape."""
    pairs, end = [], 0
    for key in packed[0]:
        tensor = tensors[key]
        start, end = end, end + tensor.data.size
        pairs.append((tensor, packed[1][start:end].reshape(tensor.shape)))
    return pairs


def _shared_steps(params: ModelParams, grid: StGrid, windows: list[Window],
                  helper: pool.Helper | None = None) -> dict[int, Tensor]:
    """Each distinct input period's step of ``windows``, built once and
    without gradients, keyed in order of first use: on ``pool.threads``
    threads with a workspace each (the threads see the caller's
    ``no_grad``, which is process-wide), or, with the helper, half on each
    side, which then both hold every step."""
    _check_inputs(params, grid, windows)
    periods = list(dict.fromkeys(t for window in windows for t in window.inputs()))
    count = 1 if helper is not None else pool.threads(params.config.n_locations)
    free = [adjacency.workspace(params.config.n_locations, params.dtype) for _ in range(count)]
    jobs = [functools.partial(_in_workspace, free, _period_step, params, grid, t) for t in periods]
    with ad.no_grad():
        if helper is not None:
            built = helper.gather(jobs, lambda step: step.data, Tensor)
        else:
            built = list(pool.in_order(count, jobs))  # to the end, so the pool has shut down
    return dict(zip(periods, built))


def predictions_for(params: ModelParams, grid: StGrid, windows: list[Window]) -> np.ndarray:
    """(days, S) score matrix for a list of windows, gradient-free.

    Each distinct input period's step is computed once per call and reused
    by every window that contains it; the values equal ``forward``'s. The
    windows are scored on the call's pool (``pool`` module).
    """
    s = params.config.n_locations
    out = np.empty((len(windows), s))
    with pool.Helper.for_call(s, grid, "predict", params, windows) as helper:
        steps = _shared_steps(params, grid, windows, helper)
        jobs = [functools.partial(_recurrent, params, [steps[t] for t in window.inputs()]) for window in windows]
        with ad.no_grad():
            for i, scores in enumerate(_in_order(helper, pool.threads(s), jobs, Tensor)):
                out[i] = scores.data
    return out


def _window_pass(params: ModelParams, leaves: dict[int, Tensor], loss_of: Callable,
                 window: Window) -> tuple[float, np.ndarray, list]:
    """Stage (2) for one window: its loss value, its scores and its loss's
    (leaf, gradient) pairs; the tape is freed, the pairs are kept."""
    scores = _recurrent(params, [leaves[t] for t in window.inputs()])
    loss = loss_of(window, scores)
    return loss.item(), scores.data, ad.backward_pairs(loss)


def _rebuild(params: ModelParams, grid: StGrid, seeds: dict[int, np.ndarray], t: int,
             work: dict[str, np.ndarray]) -> list:
    """Stage (3) for period t: its parameter pairs for its seed gradient."""
    return ad.vjp(_period_step(params, grid, t, work), seeds.pop(t))  # the vjp still reads the workspace


def batch_backward(params: ModelParams, grid: StGrid, windows: list[Window],
                   loss_of: Callable[[Window, Tensor], Tensor]) -> tuple[list[float], np.ndarray]:
    """Accumulate the gradient of the summed window losses into the
    parameters' ``.grad``; return each window's loss value and the
    (windows, S) float64 scores that stage (2) computed in the parameters'
    dtype and gave ``loss_of``, both in window order.

    ``loss_of(window, scores)`` gives one window's scalar loss; it may
    raise to abort the batch. It must be a pure function of its arguments:
    it may run on any thread, in any order, and with a helper process in
    the helper, which gets it pickled. The three stages are described in
    the module docstring.
    """
    s = params.config.n_locations
    with pool.Helper.for_call(s, grid, "batch", params, windows, loss_of) as helper:
        count = 1 if helper is not None else pool.threads(s)
        leaves = {t: ad.parameter(step.data) for t, step in _shared_steps(params, grid, windows, helper).items()}
        tensors = {**params.table, **leaves}

        def taken(result: tuple) -> tuple:
            value, scores, packed = result
            return value, scores, _unpacked(packed, tensors)

        values, scored = [], np.empty((len(windows), s))
        jobs = [functools.partial(_window_pass, params, leaves, loss_of, window) for window in windows]
        for i, (value, scores, pairs) in enumerate(_in_order(helper, count, jobs, taken, ahead=True)):
            values.append(value)
            scored[i] = scores
            _add_pairs(pairs)
        if count > 1:
            pool.trim_malloc()
        seeds = {t: leaves[t].grad for t in sorted(leaves) if leaves[t].grad is not None}
        del leaves, tensors  # stage (3) needs the leaves' gradients only, not their values
        if helper is not None:
            helper.send(seeds)  # the helper claims its rebuilds as it goes
        free = [adjacency.workspace(s, params.dtype) for _ in range(count)]
        jobs = [functools.partial(_in_workspace, free, _rebuild, params, grid, seeds, t) for t in list(seeds)]
        for pairs in _in_order(helper, count, jobs, lambda packed: _unpacked(packed, params.table), ahead=True):
            _add_pairs(pairs)  # in ascending t, the serial order
    return values, scored


def _serve(helper: pool.Helper, kind: str, params: ModelParams, windows: list[Window],
           loss_of: Callable | None = None) -> None:
    """The helper's half of a ``predictions_for`` ("predict") or
    ``batch_backward`` ("batch") call on its grid: its share of the steps,
    then of the windows and, for a batch, of the rebuilds, whose seeds the
    caller sends once stage (2) is summed. Pairs go back keyed by
    parameter name or period."""
    steps = _shared_steps(params, helper.grid, windows, helper)
    if kind == "predict":
        with ad.no_grad():
            helper.serve_jobs([functools.partial(_recurrent, params, [steps[t] for t in window.inputs()])
                               for window in windows], lambda scores: scores.data)
        return
    leaves = {t: ad.parameter(step.data) for t, step in steps.items()}
    names = {tensor: name for name, tensor in params.table.items()}
    keys = {**names, **{leaf: t for t, leaf in leaves.items()}}
    del steps
    helper.serve_jobs([functools.partial(_window_pass, params, leaves, loss_of, window) for window in windows],
                      lambda result: (*result[:2], _packed(result[2], keys)))
    del leaves, keys
    seeds = helper.receive()
    free = [adjacency.workspace(params.config.n_locations, params.dtype)]
    helper.serve_jobs([functools.partial(_in_workspace, free, _rebuild, params, helper.grid, seeds, t)
                       for t in list(seeds)], lambda pairs: _packed(pairs, names))


# ---------------------------------------------------------------------------
# checkpoints: the config and a ``grid.write_tensors`` index in
# ``checkpoint.json``, the raw float64 blob in ``checkpoint.bin``

CHECKPOINT_JSON = "checkpoint.json"
CHECKPOINT_BLOB = "checkpoint.bin"


class Checkpoint(TensorIndex):  # checkpoint.json
    config: ModelConfig


def save_checkpoint(directory, params: ModelParams) -> Path:
    """Write the parameters, then the static graph, in the tensor-file
    format that ``grid.write_tensors`` writes for checkpoints and datasets
    alike, with the model config beside its index; returns the manifest
    path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    index = write_tensors(directory / CHECKPOINT_BLOB, params.snapshot())
    return save_json(directory / CHECKPOINT_JSON, {"config": asdict(params.config), **index})


def load_checkpoint(directory) -> ModelParams:
    """The parameters in a checkpoint directory (or manifest path), read
    and checked as ``grid.load_grid`` reads a dataset's tensor file. The
    config must hold every field ``save_checkpoint`` writes, and fixes the
    layout; an entry holding a NaN or an infinity is a ``DataError`` too."""
    directory = Path(directory)
    manifest_path = directory / CHECKPOINT_JSON if directory.is_dir() else directory
    label = "checkpoint manifest"
    manifest = read_json(manifest_path, Checkpoint, label)
    config = manifest["config"]
    shapes = {**_shapes(config), "static_graph": (config.n_locations, config.n_locations)}
    arrays = read_tensors(manifest, manifest_path, manifest_path.parent / CHECKPOINT_BLOB, shapes, label)
    for name, array in arrays.items():
        if not (math.isfinite(array.min()) and math.isfinite(array.max())):  # NaN propagates; no S x S mask
            raise DataError(f"checkpoint entry {name} holds a non-finite value")
    return ModelParams.from_arrays(config, arrays)
