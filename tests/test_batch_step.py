"""The fused recurrent node (LSTM cell and score head) against its
generic-op chain, and the once-per-batch training step against the
per-window oracle."""

import threading
import tracemalloc

import numpy as np
import pytest

from gridrank import autodiff as ad
from gridrank import grid as griddata
from gridrank import losses, model, pool, training
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


def recurrent_case(data, seed, length=WINDOW):
    """Parameters with non-trivial gate values and ``length`` leaf step
    inputs."""
    rng = np.random.default_rng(seed)
    params = small_params(data, seed=seed)
    for tensor in (params.table["lstm.wx"], params.table["lstm.wh"], params.table["lstm.bias"]):
        tensor.data = rng.normal(size=tensor.shape)
    width = params.config.hidden + params.config.d_t
    steps = [ad.parameter(rng.normal(size=(data.n_locations, width))) for _ in range(length)]
    weights = rng.normal(size=data.n_locations)
    return params, steps, weights


def recurrent_grads(build, params, steps, weights):
    ad.zero_grads(params.tensors() + steps)
    scores = build(params, steps)
    ad.backward(sum_(mul(scores, ad.constant(weights))))
    return scores.data, named_grads(params), [s.grad.copy() for s in steps]


# full windows keep the ids [0], [1], [2]; one-step windows, the first
# step's path without h Wh and f * c, are [0-one-step] to [2-one-step]
@pytest.mark.parametrize("seed, length", [
    pytest.param(seed, length, id=str(seed) if length == WINDOW else f"{seed}-one-step")
    for length in (WINDOW, 1) for seed in (0, 1, 2)])
def test_fused_lstm_matches_generic_chain(data, seed, length):
    params, steps, weights = recurrent_case(data, seed, length)
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
    """A one-step window, the first step's path without h Wh and f * c, and
    a full window."""
    params, steps, weights = recurrent_case(data, 4)
    for window in (steps[:1], steps):
        report = ad.grad_check(lambda: sum_(mul(model._recurrent(params, window), ad.constant(weights))),
                               window + [params.table[name] for name in ("lstm.wx", "lstm.wh", "lstm.bias",
                                                                          "head.weight", "head.bias")], tol=1e-7)
        assert report.passed and report.kinks == 0, report.max_rel_error


def test_recurrent_node_frees_each_step_as_it_goes():
    """At S = 256 a step's arrays ([i, f, g, o], c', tanh(c'), h') are
    7 S h values. Without gradients only h and c outlive a step, so a
    seven-step window peaks below two steps' arrays; with them the forward
    keeps every step's arrays, and the backward drops each step as it walks
    past it, so it peaks below what the forward kept plus two steps'."""
    config = model.ModelConfig(rows=16, cols=16, d_t=4, d_s=6, d_st=3, hidden=64, recurrent_hidden=32,
                               window=7, embed_dim=3)
    params = model.init_params(config)
    rng = np.random.default_rng(0)
    steps = [ad.parameter(rng.normal(size=(256, 68))) for _ in range(7)]
    step_bytes = 7 * 256 * 32 * 8
    tracemalloc.start()
    try:
        with ad.no_grad():
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            model._recurrent(params, steps)
            assert tracemalloc.get_traced_memory()[1] - base < 2 * step_bytes
        base = tracemalloc.get_traced_memory()[0]
        scores = model._recurrent(params, steps)
        kept = tracemalloc.get_traced_memory()[0] - base
        assert kept >= 7 * step_bytes
        tracemalloc.reset_peak()
        ad.vjp(scores, rng.normal(size=256))
        assert tracemalloc.get_traced_memory()[1] - base < kept + 2 * step_bytes
    finally:
        tracemalloc.stop()


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
    values, _ = model.batch_backward(params, data, windows, loss_of)
    assert values == want_values
    for name, grad in want.items():
        assert grad is not None, name
        assert relative_gap(dict(params.named_tensors())[name].grad, grad) <= 1e-12, name


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("size", [(ROWS, COLS), (16, 16)], ids=["serial", "pooled-S256"])
def test_batch_step_returns_the_scores_of_its_recurrent_passes(size, dtype, monkeypatch):
    """The (windows, S) scores ``batch_backward`` returns, in window order,
    are those of ``_recurrent`` on the same parameters and stage-(1)
    leaves, bit for bit: serially, and on two threads at S = 256."""
    grid = griddata.generate_synthetic(3, *size, 30, 2)
    params = small_params(grid).cast(dtype)
    windows = [Window(t, WINDOW) for t in BATCHES["overlapping"]]
    with ad.no_grad():
        leaves = {t: ad.parameter(step.data) for t, step in model._shared_steps(params, grid, windows).items()}
        want = [model._recurrent(params, [leaves[t] for t in w.inputs()]).data for w in windows]
    threads, both, recurrent = set(), threading.Event(), model._recurrent
    pooled = size != (ROWS, COLS)

    def spy_recurrent(params, steps):
        threads.add(threading.get_ident())
        if len(threads) == 2:
            both.set()
        if pooled:  # hold each pass until a second thread has begun one, whatever the timing
            both.wait(timeout=10)
        return recurrent(params, steps)

    monkeypatch.setattr(pool, "workers", lambda: 2 if pooled else 1)
    monkeypatch.setattr(model, "_recurrent", spy_recurrent)
    values, scores = model.batch_backward(params, grid, windows, loss_maker("hybrid", grid))
    assert len(threads) == (2 if pooled else 1) and (threading.get_ident() in threads) != pooled
    assert len(values) == len(windows)
    assert scores.shape == (len(windows), grid.n_locations) and scores.dtype == np.float64
    assert [row.tobytes() for row in scores] == [s.tobytes() for s in want]


def test_batch_step_builds_each_period_once_per_stage(data, monkeypatch):
    """Stage (1) builds each period without gradients, stage (2) takes one
    ``backward_pairs`` of each window's loss, in window order, and calls
    no ``backward``, and stage (3) rebuilds each period with gradients and
    takes one ``vjp`` of it."""
    params = small_params(data)
    windows = [Window(t, WINDOW) for t in BATCHES["overlapping"]]
    built, roots, rebuilt = [], [], []
    original_step, original_pairs, original_vjp = model._period_step, ad.backward_pairs, ad.vjp
    in_backward = []

    def spy_step(params, grid, t, work=None):
        built.append((t, ad._grad_enabled))
        return original_step(params, grid, t, work)

    def spy_pairs(root):
        roots.append(root.data.shape)
        in_backward.append(True)
        try:
            return original_pairs(root)
        finally:
            in_backward.pop()

    def spy_vjp(node, g):
        if not in_backward:
            rebuilt.append(node.data.shape)
        return original_vjp(node, g)

    def no_backward(root):
        raise AssertionError("batch_backward called autodiff.backward")

    targets = []
    loss_of = loss_maker("mse", data)

    def ordered_loss(window, scores):
        targets.append(window.target)
        return loss_of(window, scores)

    monkeypatch.setattr(model, "_period_step", spy_step)
    monkeypatch.setattr(ad, "backward_pairs", spy_pairs)
    monkeypatch.setattr(ad, "backward", no_backward)
    monkeypatch.setattr(ad, "vjp", spy_vjp)
    model.batch_backward(params, data, windows, ordered_loss)
    periods = sorted({t for w in windows for t in w.inputs()})
    assert sorted(t for t, grad in built if not grad) == periods
    assert [t for t, grad in built if grad] == periods
    assert roots == [()] * len(windows)
    assert targets == [w.target for w in windows]
    assert rebuilt == [(data.n_locations, params.config.hidden + data.d_t)] * len(periods)


def test_vjp_pairs_equal_the_weighted_sum_gradient():
    """``vjp`` gives one pair per parent that requires grad, in parent
    order, each equal bit for bit to that parent's gradient of
    sum(node * g) taken through ``backward``, and changes no ``.grad``."""
    w = ad.parameter([[1.0, -2.0], [0.5, 3.0]])
    v = ad.parameter([[2.0, 0.1], [-0.7, 0.4]])
    x = ad.constant([[0.3, 1.0], [-1.5, 2.0]])
    g = np.array([[0.3, -1.0], [2.0, 0.25]])
    for node, parents in ((matmul(w, v), [w, v]), (mul(w, x), [w])):
        pairs = ad.vjp(node, g)
        assert [parent for parent, _ in pairs] == parents
        assert w.grad is v.grad is x.grad is node.grad is None
        ad.backward(sum_(mul(node, ad.constant(g))))
        assert [grad.tobytes() for _, grad in pairs] == [parent.grad.tobytes() for parent in parents]
        ad.zero_grads([w, v])
    with pytest.raises(ShapeError, match="scalar loss"):
        ad.backward(tanh(w))
