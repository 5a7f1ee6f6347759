"""Location graphs: a correlation-based static graph, a learned time-variant
graph, and their per-period blend.

The static graph correlates historical risk series between every pair of
locations. The dynamic graph is produced from learned node embeddings
shifted by the current spatiotemporal features; an antisymmetric
difference under relu(tanh(.)) makes it directed with complementary
sparsity (at most one of the (i, j)/(j, i) entries is nonzero). A
per-period scalar gate mixes the two; the model's per-period step
computes it from the temporal features.

One period's graph is built in a workspace (``workspace``), the only
place a build's arrays are allocated: ``graph``, one S x S array, and
two row blocks of at most ``_BLOCK_BYTES`` = 256 KB, ``block`` and
``mix`` (32 rows at S = 1024 in float64, 64 in float32). Every
elementwise pass over ``graph`` runs a row block at a time
(``_row_blocks``), so no other S x S array is made. ``dynamic_adjacency``
writes z1 z2^T into ``graph`` in one product, then turns each row block
into A's rows, which stay in cache for the elementwise passes, with the
block's z2 z1^T formed in ``block``; last, it copies A's last row block
into ``block``. ``blend`` mixes the static graph into ``graph`` in place,
with ``mix`` as scratch, and the model's per-period step
(``model._period_step``) normalizes it there. Neither function is a
tape node: the step owns the node, and ``dynamic_adjacency_grads`` is
the dynamic graph's share of its backward. Since the blend overwrote A,
it gets A back a row block at a time, from the last up: the last from
its copy in ``block``, every other one rebuilt there from the (S, d_e)
activations z1 and z2 (at S <= 181 in float64 and S <= 256 in float32
there is one block and nothing is rebuilt), with ``mix`` as scratch. It
returns the <G, A> term of the gate's gradient, which ``blend``
documents, summed in fixed chunks of a float64 block's rows (at most
32768 entries), from the last chunk up, whatever the block size: a
float32 block holds two chunks, and one sum over it would change the
gate gradient's bits and so the trained parameters. A workspace serves
one build at a time: a build with gradients must be backpropagated
before the next build in its workspace. A build trusts its inputs:
``model._check_inputs`` checks their shapes once per call, and they come
in the parameters' dtype. No function here names a parameter: the step
passes the dynamic graph's five weights as arrays, with the saturation.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import autodiff as ad
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


# Bytes per row block of a workspace: 256 KB, which timed fastest at
# S = 1024 in float64 (one BLAS thread, 2-vCPU VM).
_BLOCK_BYTES = 1 << 18


def _chunk_rows(s: int) -> int:
    """Rows of one chunk of the gate's <G, A> sum: a float64 row block,
    min(S, max(1, ``_BLOCK_BYTES`` // (8 S))) rows (32768 entries at S = 1024)."""
    return min(s, max(1, _BLOCK_BYTES // (8 * s)))


def workspace(s: int, dtype=np.float64) -> dict[str, np.ndarray]:
    """The ``dtype`` arrays of one build on S locations: ``graph`` (S x S)
    and the row blocks ``block`` and ``mix``, each as many whole chunks
    (``_chunk_rows``) of rows of S as fit in ``_BLOCK_BYTES``, at least one
    and at most S rows: one chunk in float64, two in float32 (64 rows at
    S = 1024)."""
    chunk = _chunk_rows(s)
    rows = min(s, chunk * max(1, _BLOCK_BYTES // (chunk * s * np.dtype(dtype).itemsize)))
    return {"graph": np.empty((s, s), dtype), "block": np.empty((rows, s), dtype),
            "mix": np.empty((rows, s), dtype)}


def _row_blocks(scratch: np.ndarray):
    """The row blocks of an S x S array, as many rows at a time as the
    (rows, S) ``scratch`` has: each block's row slice and as many rows of
    ``scratch``."""
    rows, s = scratch.shape
    for start in range(0, s, rows):
        stop = min(start + rows, s)
        yield slice(start, stop), scratch[:stop - start]


class DynamicGraph(NamedTuple):
    """What one period's dynamic graph A leaves for its gradient besides the
    workspace: the lifted embeddings e1, e2 and their activations z1, z2;
    ``active`` is the relu mask 1[A > 0] when a kink trace is installed,
    None otherwise."""

    e1: np.ndarray
    e2: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    active: np.ndarray | None


def _activate_rows(graph: DynamicGraph, alpha: float, rows: slice, first: np.ndarray,
                   block: np.ndarray) -> None:
    """A's rows ``rows`` = relu(tanh(a (z1 z2^T - z2 z1^T))), in place in
    ``first``, which holds those rows of z1 z2^T; ``block`` takes those
    rows of z2 z1^T."""
    first -= np.matmul(graph.z2[rows], graph.z1.T, out=block)
    first *= alpha
    np.tanh(first, out=first)
    np.maximum(first, 0.0, out=first)


def dynamic_adjacency(weights: list[np.ndarray], saturation: float, st_features_t: np.ndarray,
                      work: dict[str, np.ndarray]) -> DynamicGraph:
    """Directed per-period graph A from embeddings + current features, in
    ``work["graph"]``.

    ``weights`` are the (S, d_e) node embeddings emb1 and emb2, the
    (d_e, d_e) mixing matrices mix1 and mix2 and the (d_st, d_e) feature
    projection P, in that order. With F the features and a the
    ``saturation``: e_i = emb_i + F P, z_i = tanh(a e_i mix_i),
    C = z1 z2^T - z2 z1^T and A = relu(tanh(a C)). Zero diagonal and
    complementary sparsity hold by construction: C is antisymmetric and
    relu keeps one orientation of each pair. The module docstring gives
    the passes and the last-block copy. The gradient is
    :func:`dynamic_adjacency_grads`; the caller reports ``active`` as a
    kink.
    """
    emb1, emb2, mix1, mix2, proj = weights
    lifted = st_features_t @ proj
    e1 = emb1 + lifted
    e2 = emb2 + lifted
    z1 = np.tanh((e1 @ mix1) * saturation)
    z2 = np.tanh((e2 @ mix2) * saturation)
    matrix = np.matmul(z1, z2.T, out=work["graph"])
    graph = DynamicGraph(e1, e2, z1, z2, None)
    for rows, block in _row_blocks(work["block"]):
        _activate_rows(graph, saturation, rows, matrix[rows], block)
    np.copyto(block, matrix[rows])
    return graph._replace(active=matrix > 0.0) if ad.tracing_kinks() else graph


def dynamic_adjacency_grads(weights: list[np.ndarray], saturation: float, st_features_t: np.ndarray,
                            graph: DynamicGraph, g_graph: np.ndarray, scale: float,
                            work: dict[str, np.ndarray]) -> tuple[np.ndarray, ...]:
    """Gradients of the five ``weights`` of :func:`dynamic_adjacency`, in
    their order, for its output gradient G = scale * ``g_graph``, followed
    by <``g_graph``, A>, which the blend gate's gradient needs.

    A's row blocks are visited from the last up, as the module docstring
    describes. A rebuilt block's z1 z2^T is a row-block product, so where
    OpenBLAS's row blocks and full product differ (seen for S > 192 not a
    multiple of 8) it can differ from the forward's A in the last bits;
    at S = 256 and 1024 it does not. Each block adds its share of
    <``g_graph``, A>, one ``_chunk_rows`` chunk at a time from its last,
    then forms the mask-and-scale factor 1[A > 0] (1 - A^2) =
    1[A > 0] - A^2 (A is 0 off the mask) in ``work["mix"]`` and multiplies
    it into ``g_graph`` in place: no S x S temporary, and ``g_graph``'s
    values are lost. With it
    G_C = a G * 1[A > 0] * (1 - A^2); since C is antisymmetric
    everything flows through K = G_C - G_C^T, with dz1 = K z2 and
    dz2 = -K z1, computed as G_C Z - (Z^T G_C)^T for Z = [z2 | z1] so K
    itself is never formed (the transposed product in the cheaper order);
    the factors a * scale of G_C and a of du_i are applied at width 2 d_e.
    Then du_i = a dz_i * (1 - z_i^2), dmix_i = e_i^T du_i,
    demb_i = du_i mix_i^T and dP = F^T (demb1 + demb2).
    """
    z1, z2, (_, _, mix1, mix2, _) = graph.z1, graph.z2, weights
    s = z1.shape[0]
    chunk, inner = _chunk_rows(s), 0.0
    for rows, factor in reversed(list(_row_blocks(work["mix"]))):
        a = work["block"][:rows.stop - rows.start]
        if rows.stop < s:
            _activate_rows(graph, saturation, rows, np.matmul(z1[rows], z2.T, out=a), factor)
        g_rows = g_graph[rows]
        for start in reversed(range(0, len(a), chunk)):
            inner += np.vdot(g_rows[start:start + chunk], a[start:start + chunk])
        np.multiply(a, a, out=factor)
        np.subtract(a > 0.0, factor, out=factor)
        g_rows *= factor
    z = np.concatenate([z2, z1], axis=1)
    k_z = g_graph @ z
    k_z -= (z.T @ g_graph).T
    k_z *= scale * saturation * saturation
    d = z1.shape[1]
    g_u1 = k_z[:, :d] * (1.0 - z1 * z1)
    g_u2 = k_z[:, d:] * (z2 * z2 - 1.0)
    g_e1 = g_u1 @ mix1.T
    g_e2 = g_u2 @ mix2.T
    return g_e1, g_e2, graph.e1.T @ g_u1, graph.e2.T @ g_u2, st_features_t.T @ (g_e1 + g_e2), inner


def blend(matrix: np.ndarray, static: np.ndarray, gate: float, scratch: np.ndarray) -> None:
    """Mix the static graph into the dynamic graph ``matrix``, in place,
    with the period's scalar gate g: ``matrix`` becomes
    g A_dyn + (1 - g) A_static a row block at a time, with
    (1 - g) A_static formed in the row block ``scratch``. The step computes
    g (``model._period_step``). The blend's gradient, for output gradient
    G: dA_dyn = g G and dg = <G, A_dyn> - <G, A_static>.
    """
    for rows, block in _row_blocks(scratch):
        matrix[rows] *= gate
        matrix[rows] += np.multiply(static[rows], 1.0 - gate, out=block)
