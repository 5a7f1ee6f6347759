"""Location graphs: a correlation-based static graph, a learned time-variant
graph, and their per-period blend.

The static graph correlates historical risk series between every pair of
locations. The dynamic graph is produced from learned node embeddings
shifted by the current spatiotemporal features; an antisymmetric
difference under relu(tanh(.)) makes it directed with complementary
sparsity (at most one of the (i, j)/(j, i) entries is nonzero). A
per-period scalar gate computed from the temporal features mixes the two.

``dynamic_adjacency`` and ``blend`` work on plain arrays and write into
buffers their caller may reuse; they are not tape nodes. The model's
per-period step (``model._period_step``) calls each once per build and
owns the tape node; ``dynamic_adjacency_grads`` is the dynamic graph's
share of its backward, and ``blend`` documents the gate's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataError, ShapeError


def pearson_static(risk: np.ndarray) -> np.ndarray:
    """(S, S) pairwise correlation of per-location risk series.

    ``risk`` is (rows, cols, T_train), training periods only.
    Zero-variance locations get zero rows/columns (including the
    diagonal); all other diagonal entries are exactly 1.
    """
    if risk.ndim != 3:
        raise ShapeError(f"pearson_static expects (rows, cols, T), got {risk.shape}")
    series = risk.reshape(-1, risk.shape[-1])
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
    return matrix


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


def init_adjacency_params(n_locations: int, d_t: int, d_st: int, embed_dim: int,
                          saturation: float, rng: np.random.Generator) -> DynamicAdjacencyParams:
    return DynamicAdjacencyParams(
        emb1=ad.parameter(rng.normal(size=(n_locations, embed_dim)) * 0.1),
        emb2=ad.parameter(rng.normal(size=(n_locations, embed_dim)) * 0.1),
        mix1=ad.uniform_parameter(rng, (embed_dim, embed_dim), embed_dim),
        mix2=ad.uniform_parameter(rng, (embed_dim, embed_dim), embed_dim),
        time_gate=ad.uniform_parameter(rng, (d_t, 1), d_t),
        feature_proj=ad.uniform_parameter(rng, (d_st, embed_dim), d_st),
        saturation=saturation,
    )


# Entries per row block of an elementwise pass over an S x S array, and of
# the row-block scratch of a build without gradients: 256 KB, which timed
# fastest at S = 1024 (one BLAS thread, 2-vCPU VM).
_BLOCK_ENTRIES = 32768


def _block_rows(s: int) -> int:
    """Rows of an S-wide block of at most ``_BLOCK_ENTRIES`` entries (at
    least one row, at most S)."""
    return min(s, max(1, _BLOCK_ENTRIES // s))


def _row_blocks(s: int, scratch: np.ndarray | None):
    """The row blocks of an (S, S) array, ``_block_rows(S)`` rows at a time:
    each block's row slice and the same number of rows of ``scratch``
    (which holds at least that many rows of S, and is allocated when not
    given)."""
    rows = _block_rows(s)
    if scratch is None:
        scratch = np.empty((rows, s))
    for start in range(0, s, rows):
        stop = min(start + rows, s)
        yield slice(start, stop), scratch[:stop - start]


class DynamicGraph(NamedTuple):
    """One period's dynamic graph A and what its gradient needs: the lifted
    embeddings e1, e2 and their activations z1, z2; ``active`` is the relu
    mask 1[A > 0] when a kink trace is installed, None otherwise."""

    matrix: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    active: np.ndarray | None


def dynamic_adjacency(params: DynamicAdjacencyParams, st_features_t: np.ndarray,
                      out: np.ndarray | None = None, scratch: np.ndarray | None = None) -> DynamicGraph:
    """Directed per-period graph from embeddings + current features.

    With F the features, P the feature projection and a the saturation:
    e_i = emb_i + F P, z_i = tanh(a e_i mix_i), C = z1 z2^T - z2 z1^T and
    A = relu(tanh(a C)). Zero diagonal and complementary sparsity hold by
    construction: C is antisymmetric and relu keeps one orientation of
    each pair. A is written into ``out``, an S x S array allocated when not
    given, and z2 z1^T is subtracted a row block at a time through
    ``scratch`` (see :func:`_row_blocks`). The block size follows from S
    alone, so a build that passes a full S x S scratch gives the same bits
    as one that passes a block-sized one: under OpenBLAS a row block of the
    product can differ from the same rows of the full product in the last
    bits (seen for S > 192 not a multiple of 8). The gradient is
    :func:`dynamic_adjacency_grads`; the caller reports ``active`` as a
    kink.
    """
    s = params.emb1.shape[0]
    features = np.asarray(st_features_t, dtype=np.float64)
    if features.shape != (s, params.feature_proj.shape[0]):
        raise ShapeError(f"spatiotemporal slice shape {features.shape} does not match "
                         f"(S={s}, d_st={params.feature_proj.shape[0]})")
    alpha = params.saturation
    lifted = features @ params.feature_proj.data
    e1 = params.emb1.data + lifted
    e2 = params.emb2.data + lifted
    z1 = np.tanh((e1 @ params.mix1.data) * alpha)
    z2 = np.tanh((e2 @ params.mix2.data) * alpha)
    matrix = np.matmul(z1, z2.T, out=out)
    for rows, block in _row_blocks(s, scratch):
        matrix[rows] -= np.matmul(z2[rows], z1.T, out=block)
    matrix *= alpha
    np.tanh(matrix, out=matrix)
    np.maximum(matrix, 0.0, out=matrix)
    return DynamicGraph(matrix, e1, e2, z1, z2, matrix > 0.0 if ad.tracing_kinks() else None)


def dynamic_adjacency_grads(params: DynamicAdjacencyParams, st_features_t: np.ndarray,
                            graph: DynamicGraph, g_graph: np.ndarray, scale: float) -> tuple[np.ndarray, ...]:
    """Gradients of emb1, emb2, mix1, mix2 and feature_proj for the output
    gradient G = scale * ``g_graph`` of :func:`dynamic_adjacency`.

    G_C = a G * 1[A > 0] * (1 - A^2). The mask-and-scale factor
    1[A > 0] (1 - A^2) = 1[A > 0] - A^2 (A is 0 off the mask) is formed
    and multiplied into ``g_graph`` in place, a block of rows at a time:
    no S x S temporary, and each block stays in cache. ``g_graph``'s
    values are lost. Since C is antisymmetric everything flows through
    K = G_C - G_C^T, with dz1 = K z2 and dz2 = -K z1, computed as
    G_C Z - (Z^T G_C)^T for Z = [z2 | z1] so K itself is never formed
    (the transposed product in the cheaper order); the factors a * scale
    of G_C and a of du_i are applied at width 2 d_e. Then
    du_i = a dz_i * (1 - z_i^2), dmix_i = e_i^T du_i,
    demb_i = du_i mix_i^T and dP = F^T (demb1 + demb2).
    """
    a = graph.matrix
    for rows, factor in _row_blocks(a.shape[0], None):
        block = a[rows]
        np.multiply(block, block, out=factor)
        np.subtract(block > 0.0, factor, out=factor)
        g_graph[rows] *= factor
    z = np.concatenate([graph.z2, graph.z1], axis=1)
    k_z = g_graph @ z
    k_z -= (z.T @ g_graph).T
    k_z *= scale * params.saturation * params.saturation
    z1, z2 = graph.z1, graph.z2
    d = z1.shape[1]
    g_u1 = k_z[:, :d] * (1.0 - z1 * z1)
    g_u2 = k_z[:, d:] * (z2 * z2 - 1.0)
    g_e1 = g_u1 @ params.mix1.data.T
    g_e2 = g_u2 @ params.mix2.data.T
    features = np.asarray(st_features_t, dtype=np.float64)
    return g_e1, g_e2, graph.e1.T @ g_u1, graph.e2.T @ g_u2, features.T @ (g_e1 + g_e2)


@dataclass
class BlendedAdjacency:
    """Per-period graph: gate * dynamic + (1 - gate) * static."""

    matrix: np.ndarray
    gate: float


def blend(a_dynamic: np.ndarray, a_static: np.ndarray, temporal_t: np.ndarray,
          time_gate: Tensor, fixed_gate: float | None = None,
          out: np.ndarray | None = None, scratch: np.ndarray | None = None) -> BlendedAdjacency:
    """Mix the dynamic and static graphs with a scalar per-period gate.

    gate = sigmoid(f_t . time_gate); ``fixed_gate`` overrides the learned
    gate with a constant (the fixed-0.5 variant used for ablations). The
    mix g A_dyn + (1 - g) A_static is written into ``out`` (which may be
    ``a_dynamic`` itself), adding (1 - g) A_static a row block at a time
    through ``scratch`` (see :func:`_row_blocks`). Its gradient, for output
    gradient G: dA_dyn = g G and dg = <G, A_dyn> - <G, A_static>.
    """
    s = a_dynamic.shape[0]
    if a_static.shape != (s, s):
        raise ShapeError(f"static graph shape {a_static.shape} does not match dynamic {a_dynamic.shape}")
    if fixed_gate is None:
        f_t = np.asarray(temporal_t, dtype=np.float64).reshape(1, -1)
        if f_t.shape[1] != time_gate.shape[0]:
            raise ShapeError(f"temporal features width {f_t.shape[1]} does not match gate {time_gate.shape}")
        gate = ad._stable_sigmoid(f_t @ time_gate.data)[0, 0]
    else:
        gate = float(fixed_gate)
    mixed = np.multiply(a_dynamic, gate, out=out)
    for rows, block in _row_blocks(s, scratch):
        mixed[rows] += np.multiply(a_static[rows], 1.0 - gate, out=block)
    return BlendedAdjacency(matrix=mixed, gate=gate)
