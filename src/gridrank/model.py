"""Forecasting network: per-period graph convolutions over the blended
adjacency, a recurrent cell shared across locations, and a linear score
head.

A forward pass has two parts. The per-period step (``_period_step``)
depends only on the parameters and the period t: it builds t's graph
(dynamic adjacency, gate blend, D^-1 (A + I) normalization, one fused
tape node each) and passes the node features (static spatial channels
concatenated with t's spatiotemporal channels) through the graph-conv
layers H <- relu(A_hat H W). When the static graph contributes negative
correlations the degree uses |row sum| + 1e-6 to keep the normalization
finite (signed message passing). The conv output, concatenated with t's
temporal features, is the input of one recurrent step. The recurrent part
(``_recurrent``) runs an LSTM-style cell over the window's steps in order
and maps its final state linearly to one unbounded score per location;
ranking objectives are argsort-invariant, so no output activation is
applied.

``forward`` builds every step of its window. ``predictions_for`` scores
many overlapping windows without gradients, so it builds each distinct
period's step once per call and reuses it in every window that contains
it; the cache lives for that call only, since parameters change between
calls.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import adjacency
from . import autodiff as ad
from .adjacency import DynamicAdjacencyParams, init_adjacency_params
from .autodiff import Tensor
from .errors import ConfigError, DataError, NumericalError
from .grid import StGrid, Window
from .metrics import descending_order


@dataclass
class ModelConfig:
    rows: int
    cols: int
    d_t: int
    d_s: int
    d_st: int
    hidden: int = 32
    recurrent_hidden: int = 32
    conv_layers: int = 2
    window: int = 7
    embed_dim: int = 16
    saturation: float = 3.0
    fixed_gate: float | None = None
    seed: int | None = None

    @classmethod
    def for_grid(cls, grid: StGrid, **overrides) -> "ModelConfig":
        return cls(rows=grid.rows, cols=grid.cols, d_t=grid.d_t, d_s=grid.d_s,
                   d_st=grid.d_st, **overrides).validate()

    @property
    def n_locations(self) -> int:
        return self.rows * self.cols

    def validate(self) -> "ModelConfig":
        sizes = {"rows": self.rows, "cols": self.cols, "d_t": self.d_t, "d_s": self.d_s,
                 "d_st": self.d_st, "hidden": self.hidden, "recurrent_hidden": self.recurrent_hidden,
                 "conv_layers": self.conv_layers, "window": self.window, "embed_dim": self.embed_dim}
        for name, value in sizes.items():
            if value < 1:
                raise ConfigError(f"{name} must be positive, got {value}")
        if self.saturation <= 0:
            raise ConfigError(f"saturation must be positive, got {self.saturation}")
        if self.fixed_gate is not None and not 0.0 <= self.fixed_gate <= 1.0:
            raise ConfigError(f"fixed_gate must be in [0, 1], got {self.fixed_gate}")
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
        state = {name: t.data.copy() for name, t in self.named_tensors()}
        state["static_graph"] = self.static_graph.copy()
        return state

    def load_snapshot(self, state: dict[str, np.ndarray]) -> None:
        for name, t in self.named_tensors():
            t.data = np.array(state[name], dtype=np.float64)
        self.static_graph = np.array(state["static_graph"], dtype=np.float64)


def init_params(config: ModelConfig, seed: int | None = None) -> ModelParams:
    """Deterministic initialization: uniform(-k, k) with k = sqrt(1/fan_in),
    embeddings standard normal scaled by 0.1, static graph zeros until the
    trainer supplies the correlation graph."""
    config.validate()
    if seed is None:
        seed = config.seed if config.seed is not None else 0
    rng = np.random.default_rng(seed)
    s = config.n_locations

    adj = init_adjacency_params(s, config.d_t, config.d_st, config.embed_dim,
                                config.saturation, rng)

    def uniform(shape, fan_in):
        k = np.sqrt(1.0 / fan_in)
        return ad.parameter(rng.uniform(-k, k, size=shape))

    d_in = config.d_s + config.d_st
    conv_weights = []
    width_in = d_in
    for _ in range(config.conv_layers):
        conv_weights.append(uniform((width_in, config.hidden), width_in))
        width_in = config.hidden

    step_width = config.hidden + config.d_t
    hr = config.recurrent_hidden
    return ModelParams(
        config=config,
        adjacency=adj,
        conv_weights=conv_weights,
        lstm_wx=uniform((step_width, 4 * hr), step_width),
        lstm_wh=uniform((hr, 4 * hr), hr),
        lstm_bias=uniform((1, 4 * hr), hr),
        head_weight=uniform((hr, 1), hr),
        head_bias=uniform((1, 1), hr),
        static_graph=np.zeros((s, s)),
    )


def _normalized_adjacency(matrix: Tensor, signed: bool) -> Tensor:
    """A_hat = D^-1 (A + I) as one tape node, d_i = row sum r_i of A + I,
    or |r_i| + 1e-6 when ``signed``.

    Backward, for output gradient G: dA = (G - s * rowsum(G * A_hat)) / d
    with the row factor s = sign(r) when signed (abs'(0) = 0) and 1
    otherwise. The signed case reports 1[r > 0] as a kink; the unsigned
    case rejects a row sum <= 0.
    """
    out = matrix.data.copy()
    out.flat[::out.shape[0] + 1] += 1.0
    row_sums = out.sum(axis=1, keepdims=True)
    kink = None
    if signed:
        kink = row_sums > 0.0
        slope = np.sign(row_sums)
        denom = np.abs(row_sums) + 1e-6
    else:
        if np.any(row_sums <= 0.0):
            raise NumericalError("adjacency row sum <= 0: degenerate graph normalization")
        slope = 1.0
        denom = row_sums
    out /= denom

    def grads(g):
        inner = np.einsum("ij,ij->i", g, out)[:, None]
        g_a = g - inner * slope
        g_a /= denom
        return (g_a,)

    return ad.fused("normalized_adjacency", out, (matrix,), grads, kink=kink)


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


def _period_step(params: ModelParams, grid: StGrid, t: int, signed: bool) -> Tensor:
    """Input period t's graph, its graph convolutions and its temporal
    features: the (S, hidden + d_t) input of one recurrent step."""
    st_t, node_features, temporal_tiled = _period_inputs(grid, t)
    dyn = adjacency.dynamic_adjacency(params.adjacency, st_t)
    blended = adjacency.blend(dyn, params.static_graph, grid.temporal[t],
                              params.adjacency.time_gate, params.config.fixed_gate)
    a_hat = _normalized_adjacency(blended.matrix, signed)
    h = ad.constant(node_features)
    for conv in params.conv_weights:
        h = ad.relu(ad.matmul(ad.matmul(a_hat, h), conv))
    return ad.concat([h, ad.constant(temporal_tiled)], axis=1)


def _recurrent(params: ModelParams, steps: list[Tensor]) -> Tensor:
    """The recurrent cell over the period steps in order, then the head."""
    s = params.config.n_locations
    hr = params.config.recurrent_hidden
    hidden_state = ad.constant(np.zeros((s, hr)))
    cell_state = ad.constant(np.zeros((s, hr)))
    for step_in in steps:
        gates = ad.add(ad.add(ad.matmul(step_in, params.lstm_wx), ad.matmul(hidden_state, params.lstm_wh)),
                       ad.broadcast_to(params.lstm_bias, (s, 4 * hr)))
        in_gate = ad.sigmoid(ad.narrow(gates, 1, 0, hr))
        forget_gate = ad.sigmoid(ad.narrow(gates, 1, hr, hr))
        candidate = ad.tanh(ad.narrow(gates, 1, 2 * hr, hr))
        out_gate = ad.sigmoid(ad.narrow(gates, 1, 3 * hr, hr))
        cell_state = ad.add(ad.mul(forget_gate, cell_state), ad.mul(in_gate, candidate))
        hidden_state = ad.mul(out_gate, ad.tanh(cell_state))

    scores = ad.add(ad.matmul(hidden_state, params.head_weight), ad.broadcast_to(params.head_bias, (s, 1)))
    return ad.reshape(scores, (s,))


def _signed(params: ModelParams) -> bool:
    return bool(np.any(params.static_graph < 0.0))


def forward(params: ModelParams, grid: StGrid, window: Window) -> Tensor:
    """Scores for every location at the window's target period."""
    _check_window(params, grid, window)
    signed = _signed(params)
    return _recurrent(params, [_period_step(params, grid, t, signed) for t in window.inputs()])


def predict_topk(params: ModelParams, grid: StGrid, window: Window, k: int) -> list[tuple[int, float]]:
    """Top-k (location, score) pairs, descending score, ties by index."""
    s = params.config.n_locations
    if k > s:
        raise DataError(f"k={k} exceeds location count {s}")
    with ad.no_grad():
        scores = forward(params, grid, window).data
    order = descending_order(scores)[:k]
    return [(int(loc), float(scores[loc])) for loc in order]


def predictions_for(params: ModelParams, grid: StGrid, windows: list[Window]) -> np.ndarray:
    """(days, S) score matrix for a list of windows, gradient-free.

    Each distinct input period's step is computed once per call and reused
    by every window that contains it; the values equal ``forward``'s.
    """
    out = np.empty((len(windows), params.config.n_locations))
    signed = _signed(params)
    steps: dict[int, Tensor] = {}
    with ad.no_grad():
        for i, window in enumerate(windows):
            _check_window(params, grid, window)
            for t in window.inputs():
                if t not in steps:
                    steps[t] = _period_step(params, grid, t, signed)
            out[i] = _recurrent(params, [steps[t] for t in window.inputs()]).data
    return out


# ---------------------------------------------------------------------------
# checkpoints: JSON manifest + raw little-endian float64 blob

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
    manifest = {"config": asdict(params.config), "dtype": "<f8", "tensors": entries}
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
        entries = manifest["tensors"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise DataError(f"malformed checkpoint manifest {manifest_path}: {exc!r}") from None
    blob_path = manifest_path.parent / CHECKPOINT_BLOB
    if not blob_path.exists():
        raise DataError(f"missing file: {blob_path}")
    blob = blob_path.read_bytes()
    params = init_params(config, seed=config.seed if config.seed is not None else 0)
    expected = {name: t.shape for name, t in params.named_tensors()}
    expected["static_graph"] = (config.n_locations, config.n_locations)
    arrays = {}
    for entry in entries:
        name = entry["name"]
        if name not in expected:
            raise DataError(f"checkpoint entry {name!r} is not a tensor of this model")
        shape = tuple(entry["shape"])
        if shape != expected[name]:
            raise DataError(f"checkpoint entry {name} has shape {shape}, the config needs {expected[name]}")
        count = math.prod(shape)
        start = entry["offset"]
        if start < 0 or start + 8 * count > len(blob):
            raise DataError(f"checkpoint entry {name} needs bytes [{start}, {start + 8 * count}) "
                            f"but {blob_path.name} holds {len(blob)}")
        arrays[name] = np.frombuffer(blob, dtype="<f8", count=count,
                                     offset=start).reshape(shape).astype(np.float64)
    missing = sorted(expected.keys() - arrays.keys())
    if missing:
        raise DataError(f"checkpoint lacks entries {missing}")
    params.load_snapshot(arrays)
    return params
