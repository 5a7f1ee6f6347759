"""The fused LSTM step and score head against their generic-op chain, and
the once-per-batch training step against the per-window oracle."""

import numpy as np
import pytest

from gridrank import autodiff as ad
from gridrank import grid as griddata
from gridrank import losses, model, training
from gridrank.adjacency import pearson_static
from gridrank.errors import ShapeError
from gridrank.grid import Window

from oracles import generic_recurrent, matmul, mul, neg, per_window_gradients, sum_, tanh

ROWS, COLS, WINDOW = 4, 6, 3


@pytest.fixture(scope="module")
def data():
    return griddata.generate_synthetic(3, ROWS, COLS, 30, 2)


def small_params(data, seed=0):
    config = model.ModelConfig.for_grid(data, hidden=4, recurrent_hidden=3, window=WINDOW, embed_dim=3)
    params = model.init_params(config, seed=seed)
    params.static_graph = pearson_static(data.risk[:, :, :22])
    return params


def relative_gap(got, want):
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


def named_grads(params):
    return {name: None if t.grad is None else t.grad.copy() for name, t in params.named_tensors()}


def recurrent_case(data, seed):
    """Parameters with non-trivial gate values and three leaf step inputs."""
    rng = np.random.default_rng(seed)
    params = small_params(data, seed=seed)
    for tensor in (params.lstm_wx, params.lstm_wh, params.lstm_bias):
        tensor.data = rng.normal(size=tensor.shape)
    width = params.config.hidden + params.config.d_t
    steps = [ad.parameter(rng.normal(size=(data.n_locations, width))) for _ in range(WINDOW)]
    weights = rng.normal(size=data.n_locations)
    return params, steps, weights


def recurrent_grads(build, params, steps, weights):
    ad.zero_grads(params.tensors() + steps)
    scores = build(params, steps)
    ad.backward(sum_(mul(scores, ad.constant(weights))))
    return scores.data, named_grads(params), [s.grad.copy() for s in steps]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fused_lstm_matches_generic_chain(data, seed):
    params, steps, weights = recurrent_case(data, seed)
    fused = recurrent_grads(model._recurrent, params, steps, weights)
    generic = recurrent_grads(generic_recurrent, params, steps, weights)
    assert relative_gap(fused[0], generic[0]) <= 1e-14
    for name, grad in generic[1].items():
        if grad is None:
            assert fused[1][name] is None
        else:
            assert relative_gap(fused[1][name], grad) <= 1e-12, name
    for got, want in zip(fused[2], generic[2]):
        assert relative_gap(got, want) <= 1e-12


def test_fused_lstm_and_head_pass_grad_check(data):
    params, steps, weights = recurrent_case(data, 4)
    state = ad.parameter(np.random.default_rng(5).normal(size=(data.n_locations, 6)))
    step_weights = np.random.default_rng(6).normal(size=(data.n_locations, 6))
    report = ad.grad_check(
        lambda: sum_(mul(model._lstm_step(params, steps[0], state), ad.constant(step_weights))),
        [steps[0], state, params.lstm_wx, params.lstm_wh, params.lstm_bias], tol=1e-7)
    assert report.passed and report.kinks == 0, report.max_rel_error
    report = ad.grad_check(lambda: sum_(mul(model._recurrent(params, steps), ad.constant(weights))),
                           steps + [params.lstm_wx, params.lstm_wh, params.lstm_bias,
                                    params.head_weight, params.head_bias], tol=1e-7)
    assert report.passed and report.kinks == 0, report.max_rel_error


def test_sigmoid_form_is_finite_at_extremes():
    x = np.array([-1e308, -800.0, -40.0, 0.0, 40.0, 800.0, 1e308])
    assert np.array_equal(ad._stable_sigmoid(x), [0.0, 0.0, 0.5 * (1.0 + np.tanh(-20.0)), 0.5, 1.0, 1.0, 1.0])


def loss_maker(kind, data):
    risk = data.risk_by_location()
    surrogate = losses.SurrogateConfig(margin=1.0, local_weight=0.5, radius=1.5).validate()

    def loss_of(window, scores):
        day_risk = risk[:, window.target]
        if kind == "mse":
            return training.warmup_loss(day_risk, scores)
        positives = losses.positive_locations(day_risk)
        weights = np.linspace(0.5, 1.5, positives.size)
        return neg(losses.hybrid_objective(day_risk, scores, surrogate, weights, (data.rows, data.cols)))

    return loss_of


BATCHES = {"overlapping": [5, 6, 7, 9, 20], "disjoint": [4, 8, 12, 21], "repeated": [10, 10]}


@pytest.mark.parametrize("kind", ["mse", "hybrid"])
@pytest.mark.parametrize("batch", sorted(BATCHES))
def test_batch_step_matches_per_window_oracle(data, kind, batch):
    params = small_params(data)
    windows = [Window(t, WINDOW) for t in BATCHES[batch]]
    loss_of = loss_maker(kind, data)
    want_values, want = per_window_gradients(params, data, windows, loss_of)
    ad.zero_grads(params.tensors())
    values = model.batch_backward(params, data, windows, loss_of)
    assert values == want_values
    for name, grad in want.items():
        assert grad is not None, name
        assert relative_gap(dict(params.named_tensors())[name].grad, grad) <= 1e-12, name


def test_batch_step_builds_each_period_once_per_stage(data, monkeypatch):
    params = small_params(data)
    windows = [Window(t, WINDOW) for t in BATCHES["overlapping"]]
    built, seeded = [], []
    original_step, original_backward = model._period_step, ad.backward

    def spy_step(params, grid, t, work=None):
        built.append((t, ad._grad_enabled))
        return original_step(params, grid, t, work)

    def spy_backward(root, grad=None):
        seeded.append(grad is not None)
        return original_backward(root, grad)

    monkeypatch.setattr(model, "_period_step", spy_step)
    monkeypatch.setattr(ad, "backward", spy_backward)
    model.batch_backward(params, data, windows, loss_maker("mse", data))
    periods = sorted({t for w in windows for t in w.inputs()})
    assert sorted(t for t, grad in built if not grad) == periods
    assert [t for t, grad in built if grad] == periods
    assert seeded == [False] * len(windows) + [True] * len(periods)


def test_seeded_backward_equals_weighted_sum():
    w = ad.parameter(np.array([[1.0, -2.0], [0.5, 3.0]]))
    seed = np.array([[0.3, -1.0], [2.0, 0.25]])
    ad.backward(tanh(matmul(w, w)), seed)
    seeded = w.grad.copy()
    ad.zero_grads([w])
    ad.backward(sum_(mul(tanh(matmul(w, w)), ad.constant(seed))))
    assert np.array_equal(seeded, w.grad)
    with pytest.raises(ShapeError, match="seed gradient shape"):
        ad.backward(tanh(w), np.ones(3))
