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

    With F the features, P the feature projection and a the saturation:
    e_i = emb_i + F P, z_i = tanh(a e_i mix_i), C = z1 z2^T - z2 z1^T and
    A = relu(tanh(a C)). Zero diagonal and complementary sparsity hold by
    construction: C is antisymmetric and relu keeps one orientation of
    each pair.

    One tape node with parents emb1, emb2, mix1, mix2 and feature_proj.
    Backward, for output gradient G: G_C = a G * 1[A > 0] * (1 - A^2);
    since C is antisymmetric everything flows through K = G_C - G_C^T, with
    dz1 = K z2 and dz2 = -K z1, computed as G_C Z - G_C^T Z for Z = [z2 | z1]
    so K itself is never formed. Then du_i = a dz_i * (1 - z_i^2),
    dmix_i = e_i^T du_i, demb_i = du_i mix_i^T and dP = F^T (demb1 + demb2).
    The relu mask is reported as a kink.
    """
    s = params.emb1.shape[0]
    features = np.asarray(st_features_t, dtype=np.float64)
    if features.shape != (s, params.feature_proj.shape[0]):
        raise ShapeError(f"spatiotemporal slice shape {features.shape} does not match "
                         f"(S={s}, d_st={params.feature_proj.shape[0]})")
    alpha = params.saturation
    mix1, mix2 = params.mix1.data, params.mix2.data
    lifted = features @ params.feature_proj.data
    e1 = params.emb1.data + lifted
    e2 = params.emb2.data + lifted
    z1 = np.tanh((e1 @ mix1) * alpha)
    z2 = np.tanh((e2 @ mix2) * alpha)
    out = z1 @ z2.T
    out -= z2 @ z1.T
    out *= alpha
    np.tanh(out, out=out)
    np.maximum(out, 0.0, out=out)
    active = out > 0.0

    def grads(g):
        g_c = np.multiply(out, out)
        np.subtract(1.0, g_c, out=g_c)
        g_c *= g
        g_c *= active
        g_c *= alpha
        z = np.concatenate([z2, z1], axis=1)
        k_z = g_c @ z
        k_z -= g_c.T @ z
        del g_c
        d = z1.shape[1]
        g_u1 = k_z[:, :d] * ((1.0 - z1 * z1) * alpha)
        g_u2 = k_z[:, d:] * ((z2 * z2 - 1.0) * alpha)
        g_e1 = g_u1 @ mix1.T
        g_e2 = g_u2 @ mix2.T
        return g_e1, g_e2, e1.T @ g_u1, e2.T @ g_u2, features.T @ (g_e1 + g_e2)

    return ad.fused("dynamic_adjacency", out,
                    (params.emb1, params.emb2, params.mix1, params.mix2, params.feature_proj),
                    grads, kink=active)


@dataclass
class BlendedAdjacency:
    """Per-period graph: gate * dynamic + (1 - gate) * static."""

    matrix: Tensor
    gate: Tensor


def blend(a_dynamic: Tensor, a_static: np.ndarray, temporal_t: np.ndarray,
          time_gate: Tensor, fixed_gate: float | None = None) -> BlendedAdjacency:
    """Mix the dynamic and static graphs with a scalar per-period gate.

    gate = sigmoid(f_t . time_gate); ``fixed_gate`` overrides the learned
    gate with a constant (the fixed-0.5 variant used for ablations).

    The mix g A_dyn + (1 - g) A_static is one tape node with parents
    A_dyn and the (1, 1) gate. Backward, for output gradient G:
    dA_dyn = g G and dg = <G, A_dyn> - <G, A_static>.
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
    weight = gate.data[0, 0]
    dynamic = a_dynamic.data
    mixed = dynamic * weight
    mixed += a_static * (1.0 - weight)

    def grads(g):
        g_gate = None
        if gate.requires_grad:
            g_gate = np.full((1, 1), np.vdot(g, dynamic) - np.vdot(g, a_static))
        return g * weight, g_gate

    return BlendedAdjacency(matrix=ad.fused("blend", mixed, (a_dynamic, gate), grads), gate=gate)
