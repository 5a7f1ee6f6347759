"""The fused per-period step against its three-node and generic-op
compositions, the reference nodes against finite differences, and the
once-per-period sharing in ``predictions_for``."""

import contextlib

import numpy as np
import pytest

from gridrank import adjacency, autodiff as ad
from gridrank import grid as griddata
from gridrank import model
from gridrank.adjacency import pearson_static

from oracles import (blend_node, dynamic_adjacency_node, generic_graph_block, node_period_step,
                     mul, normalized_node, sum_)

D_T, D_S, D_ST, T = 3, 2, 2, 2


def step_case(rows, cols, negative, fixed_gate, seed=0, conv_layers=2):
    """A random grid and model whose step has non-trivial values: dense
    embeddings, a symmetric static graph (|.| of it unless ``negative``), and
    output weights for a scalar objective."""
    s = rows * cols
    rng = np.random.default_rng(seed)
    grid = griddata.StGrid(temporal=rng.normal(size=(T + 1, D_T)),
                           spatial=rng.uniform(0, 1, size=(rows, cols, D_S)),
                           spatiotemporal=rng.uniform(0, 1, size=(rows, cols, T + 1, D_ST)),
                           risk=np.ones((rows, cols, T + 1))).validate()
    config = model.ModelConfig.for_grid(grid, hidden=4, recurrent_hidden=3, conv_layers=conv_layers,
                                        window=T, embed_dim=4, fixed_gate=fixed_gate)
    params = model.init_params(config, seed=seed)
    for name in ("adjacency.emb1", "adjacency.emb2"):
        params.table[name].data = rng.normal(size=params.table[name].shape)
    static = rng.uniform(-1, 1, size=(s, s))
    static = (static + static.T) / 2.0
    params.static_graph = static if negative else np.abs(static)
    weights = rng.normal(size=(s, config.hidden + D_T))
    return params, grid, weights


def graph_tensors(params):
    return [t for name, t in params.named_tensors() if name.startswith(("adjacency.", "conv."))]


def fused_step(params, grid, t):
    """``model._period_step`` in a fresh workspace."""
    return model._period_step(params, grid, t, adjacency.workspace(grid.n_locations))


def step_gradients(build, params, grid, weights):
    """Output bytes and per-tensor gradients of sum(step * weights)."""
    ad.zero_grads(params.tensors())
    step = build(params, grid, T)
    ad.backward(sum_(mul(step, ad.constant(weights))))
    return step.data.tobytes(), {name: None if t.grad is None else t.grad.copy()
                                 for name, t in params.named_tensors()}


def assert_gradients_agree(got, want, floor=0.0):
    """Each tensor within 1e-12 of the reference's largest entry (or of
    ``floor``), and None exactly where the reference has none."""
    for name, reference in want.items():
        if reference is None:
            assert got[name] is None, name
            continue
        scale = max(np.abs(reference).max(), floor)
        assert np.abs(got[name] - reference).max() <= 1e-12 * scale, name


CASES = [(rows, cols, negative, fixed_gate)
         for rows, cols in [(1, 1), (3, 5), (4, 4)]
         for negative in (True, False)
         for fixed_gate in (None, 0.3)]


@pytest.mark.parametrize("rows,cols,negative,fixed_gate", CASES)
def test_fused_block_matches_generic_ops(rows, cols, negative, fixed_gate):
    params, grid, weights = step_case(rows, cols, negative, fixed_gate, seed=rows * 10 + cols)
    fused_bytes, fused = step_gradients(fused_step, params, grid, weights)
    generic_bytes, generic = step_gradients(
        lambda p, g, t: node_period_step(p, g, t, block=generic_graph_block), params, grid, weights)
    assert fused_bytes == generic_bytes
    # At S = 1 and negative, A_hat = r / (|r| + 1e-6) is 1 - O(1e-6): both
    # paths get its gradient as a difference of two terms of the incoming
    # gradient's size, so that size is the scale of their rounding.
    floor = np.abs(weights).max() if rows * cols == 1 and negative else 0.0
    assert_gradients_agree(fused, generic, floor)


@pytest.mark.parametrize("negative", [True, False])
@pytest.mark.parametrize("fixed_gate", [None, 0.0, 0.5, 1.0])
@pytest.mark.parametrize("block_entries", [None, 120])
def test_fused_step_matches_three_node_oracle(negative, fixed_gate, block_entries, monkeypatch):
    """On a 4 x 6 grid; with blocks of 120 float64 entries the 24 rows of
    the mask-and-scale pass run as blocks of 5, 5, 5, 5 and 4."""
    if block_entries is not None:
        monkeypatch.setattr(adjacency, "_BLOCK_BYTES", 8 * block_entries)
    params, grid, weights = step_case(4, 6, negative, fixed_gate, seed=5)
    fused_bytes, fused = step_gradients(fused_step, params, grid, weights)
    oracle_bytes, oracle = step_gradients(node_period_step, params, grid, weights)
    assert fused_bytes == oracle_bytes
    assert_gradients_agree(fused, oracle)
    with ad.no_grad():
        assert fused_step(params, grid, T).data.tobytes() == fused_bytes


@pytest.mark.parametrize("negative,fixed_gate,block_entries", [
    pytest.param(negative, fixed_gate, entries, id=f"{fixed_gate}-{negative}" + (f"-blocks{entries}" if entries else ""))
    for entries in (None, 60) for fixed_gate in (None, 0.5) for negative in (True, False)])
def test_fused_step_grad_check_and_kinks(negative, fixed_gate, block_entries, monkeypatch):
    """With blocks of 60 float64 entries the 12 rows of A run as blocks of
    5, 5 and 2, and the backward rebuilds the first two: their relu masks
    and the blockwise sum of the gate's <dB, A> must pass the check."""
    if block_entries is not None:
        monkeypatch.setattr(adjacency, "_BLOCK_BYTES", 8 * block_entries)
    params, grid, weights = step_case(3, 4, negative, fixed_gate, seed=7, conv_layers=3)
    tensors = graph_tensors(params)
    report = ad.grad_check(lambda: sum_(mul(fused_step(params, grid, T),
                                               ad.constant(weights))),
                           tensors, eps=1e-6, tol=1e-6)
    assert report.passed, report.max_rel_error
    # The fused node reports the masks of the three nodes and the conv
    # relus, in their order, with and without gradients.
    with ad._kink_tracing() as oracle_trace:
        node_period_step(params, grid, T)
    for context in (ad.no_grad, contextlib.nullcontext):
        with context(), ad._kink_tracing() as trace:
            fused_step(params, grid, T)
        assert len(trace) == 1 + 1 + 3
        assert all(np.array_equal(a, b) for a, b in zip(trace, oracle_trace, strict=True))


@pytest.mark.parametrize("negative,fixed_gate", [
    pytest.param(negative, fixed_gate, id=f"{fixed_gate}-{negative}-blocks60-float32")
    for fixed_gate in (None, 0.5) for negative in (True, False)])
def test_float32_fused_step_follows_float64_in_byte_sized_blocks(negative, fixed_gate, monkeypatch):
    """The float32 case of the check above: with the same 480 bytes per
    block, float32 runs A's 12 rows as blocks of 10 and 2 and rebuilds the
    first. Its gradients are within 1e-4 of the float64 ones, which the
    check above holds against finite differences, and it reports the same
    five kinks with and without gradients."""
    monkeypatch.setattr(adjacency, "_BLOCK_BYTES", 8 * 60)
    params, grid, weights = step_case(3, 4, negative, fixed_gate, seed=7, conv_layers=3)
    narrow = params.cast(np.float32)
    work = adjacency.workspace(12, np.float32)
    assert work["block"].shape == work["mix"].shape == (10, 12)
    want = ad.vjp(model._period_step(params, grid, T, adjacency.workspace(12)), weights)
    got = ad.vjp(model._period_step(narrow, grid, T, work), weights.astype(np.float32))
    assert len(got) == len(want) == len(graph_tensors(params)) - (fixed_gate is not None)
    for (_, grad), (_, reference) in zip(got, want):
        assert grad.dtype == np.float32
        assert np.linalg.norm(grad - reference) <= 1e-4 * np.linalg.norm(reference)
    for context in (ad.no_grad, contextlib.nullcontext):
        with context(), ad._kink_tracing() as trace:
            model._period_step(narrow, grid, T, work)
        assert len(trace) == 1 + 1 + 3


def test_dynamic_adjacency_grad_check_and_kink_trace():
    params, grid, _ = step_case(3, 4, True, None, seed=1)
    features, saturation = grid.spatiotemporal_at(T), params.config.saturation
    tensors = [params.table[f"adjacency.{name}"] for name in ("emb1", "emb2", "mix1", "mix2", "feature_proj")]
    weights = np.random.default_rng(1).normal(size=(12, 12))

    def objective():
        return sum_(mul(dynamic_adjacency_node(params, features), ad.constant(weights)))

    report = ad.grad_check(objective, tensors, eps=1e-6, tol=1e-6)
    assert report.passed, report.max_rel_error
    with ad._kink_tracing() as trace:
        node = dynamic_adjacency_node(params, features)
        work = adjacency.workspace(12)
        graph = adjacency.dynamic_adjacency([t.data for t in tensors], saturation, features, work)
    assert work["graph"].tobytes() == node.data.tobytes()
    assert len(trace) == 1 and np.array_equal(trace[0], node.data > 0.0)
    assert np.array_equal(graph.active, trace[0])
    assert adjacency.dynamic_adjacency([t.data for t in tensors], saturation, features, work).active is None


@pytest.mark.parametrize("fixed_gate", [None, 0.3])
def test_blend_grad_check(fixed_gate):
    params, _, _ = step_case(3, 4, True, fixed_gate, seed=2)
    static, temporal = params.static_graph, np.array([0.4, -1.2, 0.7])
    time_gate = params.table["adjacency.time_gate"]
    dynamic = ad.parameter(np.abs(np.random.default_rng(3).normal(size=static.shape)))
    weights = np.random.default_rng(4).normal(size=static.shape)

    def objective():
        return sum_(mul(blend_node(dynamic, static, temporal, time_gate, fixed_gate)[1], ad.constant(weights)))

    report = ad.grad_check(objective, [dynamic, time_gate], eps=1e-6, tol=1e-6)
    assert report.passed, report.max_rel_error
    gate, node = blend_node(dynamic, static, temporal, time_gate, fixed_gate)
    mixed = dynamic.data.copy()
    # the gate as model._period_step computes it
    step_gate = (ad._stable_sigmoid(temporal.reshape(1, -1) @ time_gate.data)[0, 0]
                 if fixed_gate is None else float(fixed_gate))
    adjacency.blend(mixed, static, step_gate, adjacency.workspace(12)["mix"])
    assert mixed.tobytes() == node.data.tobytes() and step_gate == gate.item()


@pytest.mark.parametrize("negative", [True, False])
def test_normalized_adjacency_grad_check_and_kink_trace(negative):
    rng = np.random.default_rng(4)
    matrix = ad.parameter(rng.uniform(-1, 1, size=(5, 5)) if negative else rng.uniform(0, 1, size=(5, 5)))
    weights = rng.normal(size=(5, 5))

    def objective():
        return sum_(mul(normalized_node(matrix), ad.constant(weights)))

    report = ad.grad_check(objective, [matrix], eps=1e-6, tol=1e-6)
    assert report.passed, report.max_rel_error
    with ad._kink_tracing() as trace:
        node = normalized_node(matrix)
    row_sums = (matrix.data + np.eye(5)).sum(axis=1, keepdims=True)
    assert [t.tolist() for t in trace] == [(row_sums > 0.0).tolist()]
    in_place = matrix.data.copy()
    _, slope = model._normalize(in_place)
    assert in_place.tobytes() == node.data.tobytes()
    assert np.array_equal(slope, np.sign(row_sums))


def test_period_step_is_one_tape_node():
    params, grid, _ = step_case(3, 4, True, None, seed=3)
    step = fused_step(params, grid, T)
    assert set(map(id, step._parents)) == set(map(id, graph_tensors(params)))
    assert all(not p._parents for p in step._parents)


@pytest.mark.parametrize("fixed_gate", [None, 0.5])
def test_predictions_share_each_period_once(fixed_gate, monkeypatch):
    data = griddata.generate_synthetic(3, 4, 5, 30, 2)
    config = model.ModelConfig.for_grid(data, hidden=5, recurrent_hidden=4, window=4,
                                        embed_dim=3, fixed_gate=fixed_gate)
    params = model.init_params(config, seed=1)
    params.static_graph = pearson_static(data.risk[:, :, :20])
    windows = [griddata.Window(t, 4) for t in (20, 9, 21, 22, 11, 23)]
    with ad.no_grad():
        stacked = np.stack([model.forward(params, data, w).data for w in windows])

    built = []
    original = adjacency.dynamic_adjacency

    def spy(weights, saturation, features, **buffers):
        built.append(features)
        return original(weights, saturation, features, **buffers)

    monkeypatch.setattr(adjacency, "dynamic_adjacency", spy)
    shared = model.predictions_for(params, data, windows)
    assert shared.tobytes() == stacked.tobytes()
    distinct = {t for w in windows for t in w.inputs()}
    assert len(built) == len(distinct)
