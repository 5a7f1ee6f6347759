"""The fused per-period graph block against its generic-op composition, and
the once-per-period sharing in ``predictions_for``."""

import numpy as np
import pytest

from gridrank import adjacency, autodiff as ad
from gridrank import grid as griddata
from gridrank import model
from gridrank.adjacency import pearson_static
from gridrank.errors import NumericalError

from oracles import generic_graph_block, sum_

D_T, D_ST = 3, 2


def block_inputs(rows, cols, signed, seed=0):
    s = rows * cols
    rng = np.random.default_rng(seed)
    params = adjacency.init_adjacency_params(s, D_T, D_ST, 4, 3.0, rng)
    params.emb1.data = rng.normal(size=params.emb1.shape)
    params.emb2.data = rng.normal(size=params.emb2.shape)
    features = rng.uniform(0, 1, size=(s, D_ST))
    static = rng.uniform(-1, 1, size=(s, s))
    static = (static + static.T) / 2.0
    if not signed:
        static = np.abs(static)
    temporal = rng.normal(size=D_T)
    weights = rng.normal(size=(s, s))
    return params, features, static, temporal, weights


def fused_graph_block(params, features, static, temporal, fixed_gate, signed):
    dynamic = adjacency.dynamic_adjacency(params, features)
    blended = adjacency.blend(dynamic, static, temporal, params.time_gate, fixed_gate)
    return dynamic, blended.gate, blended.matrix, model._normalized_adjacency(blended.matrix, signed)


def gradients(build, params, inputs, weights):
    ad.zero_grads([t for _, t in params.named_tensors()])
    normalized = build(params, *inputs)[-1]
    ad.backward(sum_(ad.mul(normalized, ad.constant(weights))))
    return {name: None if t.grad is None else t.grad.copy() for name, t in params.named_tensors()}


CASES = [(rows, cols, signed, fixed_gate)
         for rows, cols in [(1, 1), (3, 5), (4, 4)]
         for signed in (True, False)
         for fixed_gate in (None, 0.3)]


@pytest.mark.parametrize("rows,cols,signed,fixed_gate", CASES)
def test_fused_block_matches_generic_ops(rows, cols, signed, fixed_gate):
    params, features, static, temporal, weights = block_inputs(rows, cols, signed, seed=rows * 10 + cols)
    inputs = (features, static, temporal, fixed_gate, signed)
    for fused, reference in zip(fused_graph_block(params, *inputs), generic_graph_block(params, *inputs)):
        assert fused.shape == reference.shape
        assert fused.data.tobytes() == reference.data.tobytes()

    fused_grads = gradients(fused_graph_block, params, inputs, weights)
    reference_grads = gradients(generic_graph_block, params, inputs, weights)
    for name, reference in reference_grads.items():
        fused = fused_grads[name]
        if reference is None:
            assert fused is None, name
            continue
        scale = np.abs(reference).max()
        if rows * cols == 1 and signed:
            # A_hat = r / (|r| + 1e-6) is 1 - O(1e-6): both paths get its
            # gradient as a difference of two terms of the incoming
            # gradient's size, so that size is the scale of their rounding.
            scale = max(scale, np.abs(weights).max())
        assert np.abs(fused - reference).max() <= 1e-12 * scale, name


def test_dynamic_adjacency_grad_check_and_kink_trace():
    params, features, _, _, weights = block_inputs(3, 4, signed=True, seed=1)
    tensors = [params.emb1, params.emb2, params.mix1, params.mix2, params.feature_proj]

    def objective():
        return sum_(ad.mul(adjacency.dynamic_adjacency(params, features), ad.constant(weights)))

    report = ad.grad_check(objective, tensors, eps=1e-6, tol=1e-6)
    assert report.passed, report.max_rel_error
    with ad._kink_tracing() as trace:
        out = adjacency.dynamic_adjacency(params, features)
    assert len(trace) == 1 and np.array_equal(trace[0], out.data > 0.0)


@pytest.mark.parametrize("fixed_gate", [None, 0.3])
def test_blend_grad_check(fixed_gate):
    params, _, static, temporal, weights = block_inputs(3, 4, signed=True, seed=2)
    dynamic = ad.parameter(np.abs(np.random.default_rng(3).normal(size=static.shape)))

    def objective():
        blended = adjacency.blend(dynamic, static, temporal, params.time_gate, fixed_gate)
        return sum_(ad.mul(blended.matrix, ad.constant(weights)))

    report = ad.grad_check(objective, [dynamic, params.time_gate], eps=1e-6, tol=1e-6)
    assert report.passed, report.max_rel_error


@pytest.mark.parametrize("signed", [True, False])
def test_normalized_adjacency_grad_check_and_kink_trace(signed):
    rng = np.random.default_rng(4)
    matrix = ad.parameter(rng.uniform(-1, 1, size=(5, 5)) if signed else rng.uniform(0, 1, size=(5, 5)))
    weights = rng.normal(size=(5, 5))

    def objective():
        return sum_(ad.mul(model._normalized_adjacency(matrix, signed), ad.constant(weights)))

    report = ad.grad_check(objective, [matrix], eps=1e-6, tol=1e-6)
    assert report.passed, report.max_rel_error
    with ad._kink_tracing() as trace:
        model._normalized_adjacency(matrix, signed)
    row_sums = (matrix.data + np.eye(5)).sum(axis=1, keepdims=True)
    assert [t.tolist() for t in trace] == ([(row_sums > 0.0).tolist()] if signed else [])


def test_unsigned_normalization_rejects_degenerate_rows():
    matrix = ad.constant(np.array([[0.5, 0.0], [0.0, -1.0]]))
    with pytest.raises(NumericalError, match="degenerate"):
        model._normalized_adjacency(matrix, signed=False)


@pytest.mark.parametrize("fixed_gate", [None, 0.5])
def test_predictions_share_each_period_once(fixed_gate, monkeypatch):
    data = griddata.generate_synthetic(3, 4, 5, 30, 2)
    config = model.ModelConfig.for_grid(data, hidden=5, recurrent_hidden=4, window=4,
                                        embed_dim=3, fixed_gate=fixed_gate)
    params = model.init_params(config, seed=1)
    params.static_graph = pearson_static(data.risk[:, :, :20]).matrix
    windows = [griddata.Window(t, 4) for t in (20, 9, 21, 22, 11, 23)]
    with ad.no_grad():
        stacked = np.stack([model.forward(params, data, w).data for w in windows])

    built = []
    original = adjacency.dynamic_adjacency

    def spy(p, features):
        built.append(features)
        return original(p, features)

    monkeypatch.setattr(adjacency, "dynamic_adjacency", spy)
    shared = model.predictions_for(params, data, windows)
    assert shared.tobytes() == stacked.tobytes()
    distinct = {t for w in windows for t in w.inputs()}
    assert len(built) == len(distinct)
