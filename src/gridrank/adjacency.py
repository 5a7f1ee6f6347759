"""Location graphs: a correlation-based static graph, a learned time-variant
graph, and their per-period blend.

The static graph correlates historical risk series between every pair of
locations. The dynamic graph is produced from learned node embeddings
shifted by the current spatiotemporal features; an antisymmetric
difference under relu(tanh(.)) makes it directed with complementary
sparsity (at most one of the (i, j)/(j, i) entries is nonzero). A
per-period scalar gate computed from the temporal features mixes the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataError, ShapeError


@dataclass
class StaticAdjacency:
    """Symmetric correlation graph over the S = rows * cols locations."""

    matrix: np.ndarray

    @property
    def n_locations(self) -> int:
        return self.matrix.shape[0]


def pearson_static(risk: np.ndarray) -> StaticAdjacency:
    """Pairwise correlation of per-location risk series.

    ``risk`` is (rows, cols, T_train) or (S, T_train), training periods
    only. Zero-variance locations get zero rows/columns (including the
    diagonal); all other diagonal entries are exactly 1.
    """
    if risk.ndim == 3:
        series = risk.reshape(-1, risk.shape[-1])
    elif risk.ndim == 2:
        series = risk
    else:
        raise ShapeError(f"pearson_static expects (rows, cols, T) or (S, T), got {risk.shape}")
    if series.shape[1] < 2:
        raise DataError(f"correlation needs at least 2 training periods, got {series.shape[1]}")
    centered = series - series.mean(axis=1, keepdims=True)
    norms = np.sqrt((centered * centered).sum(axis=1))
    alive = norms > 0
    unit = np.zeros_like(centered)
    unit[alive] = centered[alive] / norms[alive, None]
    matrix = unit @ unit.T
    matrix = (matrix + matrix.T) / 2.0
    matrix[np.arange(len(norms)), np.arange(len(norms))] = np.where(alive, 1.0, 0.0)
    return StaticAdjacency(matrix=matrix)


@dataclass
class DynamicAdjacencyParams:
    """Learnable pieces of the time-variant graph.

    emb1/emb2: (S, d_e) node embeddings; mix1/mix2: (d_e, d_e);
    time_gate: (d_t, 1) maps temporal features to the blend gate;
    feature_proj: (d_st, d_e) lifts current spatiotemporal features into
    embedding space; saturation > 0 sharpens the tanh activations.
    """

    emb1: Tensor
    emb2: Tensor
    mix1: Tensor
    mix2: Tensor
    time_gate: Tensor
    feature_proj: Tensor
    saturation: float

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        return [("adjacency.emb1", self.emb1), ("adjacency.emb2", self.emb2),
                ("adjacency.mix1", self.mix1), ("adjacency.mix2", self.mix2),
                ("adjacency.time_gate", self.time_gate),
                ("adjacency.feature_proj", self.feature_proj)]

    def validate(self) -> "DynamicAdjacencyParams":
        if self.saturation <= 0:
            raise DataError(f"saturation must be positive, got {self.saturation}")
        if self.emb1.shape[1] < 1:
            raise DataError("embedding width must be >= 1")
        return self


def init_adjacency_params(n_locations: int, d_t: int, d_st: int, embed_dim: int,
                          saturation: float, rng: np.random.Generator) -> DynamicAdjacencyParams:
    def uniform(shape, fan_in):
        k = np.sqrt(1.0 / fan_in)
        return ad.parameter(rng.uniform(-k, k, size=shape))

    params = DynamicAdjacencyParams(
        emb1=ad.parameter(rng.normal(size=(n_locations, embed_dim)) * 0.1),
        emb2=ad.parameter(rng.normal(size=(n_locations, embed_dim)) * 0.1),
        mix1=uniform((embed_dim, embed_dim), embed_dim),
        mix2=uniform((embed_dim, embed_dim), embed_dim),
        time_gate=uniform((d_t, 1), d_t),
        feature_proj=uniform((d_st, embed_dim), d_st),
        saturation=saturation,
    )
    return params.validate()


def dynamic_adjacency(params: DynamicAdjacencyParams, st_features_t: np.ndarray) -> Tensor:
    """Directed per-period graph from embeddings + current features.

    Zero diagonal and complementary sparsity hold by construction: the
    pre-activation is antisymmetric and relu keeps one orientation of
    each pair.
    """
    s = params.emb1.shape[0]
    features = np.asarray(st_features_t, dtype=np.float64)
    if features.shape != (s, params.feature_proj.shape[0]):
        raise ShapeError(f"spatiotemporal slice shape {features.shape} does not match "
                         f"(S={s}, d_st={params.feature_proj.shape[0]})")
    alpha = params.saturation
    lifted = ad.matmul(ad.constant(features), params.feature_proj)
    e1 = ad.add(params.emb1, lifted)
    e2 = ad.add(params.emb2, lifted)
    z1 = ad.tanh(ad.mul(ad.matmul(e1, params.mix1), alpha))
    z2 = ad.tanh(ad.mul(ad.matmul(e2, params.mix2), alpha))
    cross = ad.sub(ad.matmul(z1, ad.transpose(z2)), ad.matmul(z2, ad.transpose(z1)))
    return ad.relu(ad.tanh(ad.mul(cross, alpha)))


@dataclass
class BlendedAdjacency:
    """Per-period graph: gate * dynamic + (1 - gate) * static."""

    matrix: Tensor
    gate: Tensor

    @property
    def gate_value(self) -> float:
        return self.gate.item()


def blend(a_dynamic: Tensor, a_static: np.ndarray, temporal_t: np.ndarray,
          time_gate: Tensor, fixed_gate: float | None = None) -> BlendedAdjacency:
    """Mix the dynamic and static graphs with a scalar per-period gate.

    gate = sigmoid(f_t . time_gate); ``fixed_gate`` overrides the learned
    gate with a constant (the fixed-0.5 variant used for ablations).
    """
    s = a_dynamic.shape[0]
    if a_static.shape != (s, s):
        raise ShapeError(f"static graph shape {a_static.shape} does not match dynamic {a_dynamic.shape}")
    if fixed_gate is None:
        f_t = np.asarray(temporal_t, dtype=np.float64).reshape(1, -1)
        if f_t.shape[1] != time_gate.shape[0]:
            raise ShapeError(f"temporal features width {f_t.shape[1]} does not match gate {time_gate.shape}")
        gate = ad.sigmoid(ad.matmul(ad.constant(f_t), time_gate))
    else:
        gate = ad.constant([[float(fixed_gate)]])
    gate_full = ad.broadcast_to(gate, (s, s))
    complement = ad.sub(1.0, gate_full)
    mixed = ad.add(ad.mul(gate_full, a_dynamic), ad.mul(complement, ad.constant(a_static)))
    return BlendedAdjacency(matrix=mixed, gate=gate)
