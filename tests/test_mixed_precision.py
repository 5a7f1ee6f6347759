"""The float32 gradient step behind float64 master weights: every array of
a build and a window follows the parameters' dtype, the float32 gradient
matches the float64 one, and training hands back float64 parameters,
scores and checkpoints. Float32 inputs hold no entry below 2^-64, and
float32 gradients do not depend on the row-block size."""

import json

import numpy as np
import pytest

from gridrank import adjacency, autodiff as ad, grid as griddata, losses, model, training
from gridrank.adjacency import pearson_static
from gridrank.grid import Window

from test_graph_block import T, step_case

WINDOW = 3
WINDOWS = [Window(t, WINDOW) for t in (5, 6, 7, 9, 20)]


@pytest.fixture(scope="module")
def dataset():
    return griddata.generate_synthetic(3, 4, 4, 30, 2)


def make_params(dataset):
    config = model.ModelConfig.for_grid(dataset, hidden=5, recurrent_hidden=4, conv_layers=2, window=WINDOW,
                                        embed_dim=3)
    params = model.init_params(config)
    params.static_graph = pearson_static(dataset.risk[:, :, :20])
    return params


def loss_maker(kind, dataset):
    risk = dataset.risk_by_location()
    surrogate = losses.SurrogateConfig(margin=1.0, local_weight=0.5, radius=1.5).validate()

    def loss_of(window, scores):
        assert scores.data.dtype == np.float64
        day_risk = risk[:, window.target]
        if kind == "mse":
            return training.warmup_loss(day_risk, scores)
        weights = np.linspace(0.5, 1.5, losses.positive_locations(day_risk).size)
        objective = losses.hybrid_objective(day_risk, scores, surrogate, weights, (dataset.rows, dataset.cols))
        return ad.fused("neg", -objective.data, (objective,), lambda g: (-g,))

    return loss_of


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_every_array_of_the_gradient_step_keeps_the_parameters_dtype(dataset, dtype):
    params = make_params(dataset).cast(dtype)
    assert params.dtype == dtype and params.static_graph.dtype == dtype
    work = adjacency.workspace(dataset.n_locations, params.dtype)
    assert [a.dtype for a in work.values()] == [np.dtype(dtype)] * 3
    with ad.no_grad():
        steps = [ad.parameter(model._period_step(params, dataset, t, work).data) for t in WINDOWS[0].inputs()]
    assert [s.data.dtype for s in steps] == [np.dtype(dtype)] * WINDOW

    scores = model._recurrent(params, steps)
    assert scores.data.dtype == np.float64
    pairs = ad.vjp(scores, np.linspace(-1.0, 1.0, dataset.n_locations))
    assert {id(s) for s in steps} <= {id(parent) for parent, _ in pairs}
    assert [grad.dtype for _, grad in pairs] == [np.dtype(dtype)] * len(pairs)

    model.batch_backward(params, dataset, WINDOWS, loss_maker("hybrid", dataset))
    assert [(name, t.grad.dtype) for name, t in params.named_tensors()] == \
        [(name, np.dtype(dtype)) for name, _ in params.named_tensors()]


@pytest.mark.parametrize("kind", ["mse", "hybrid"])
def test_float32_batch_gradient_matches_float64(dataset, kind):
    """Per named tensor, ||g32 - g64|| <= 1e-4 ||g64||. The surrogate
    depends on score differences only, so its head-bias gradient (the sum
    of the scores' gradient) is zero up to rounding on both sides. It is
    summed in float64 on both, and held to 1e-12 of the whole gradient's
    norm instead: summed in float32 it read 4.7e-9, near Adam's eps."""
    loss_of = loss_maker(kind, dataset)
    wide, narrow = make_params(dataset), make_params(dataset).cast(np.float32)
    want_values, want_scores = model.batch_backward(wide, dataset, WINDOWS, loss_of)
    values, scores = model.batch_backward(narrow, dataset, WINDOWS, loss_of)
    assert values == pytest.approx(want_values, rel=1e-4)
    assert scores.dtype == np.float64 and np.allclose(scores, want_scores, rtol=1e-4, atol=1e-5)
    whole = np.sqrt(sum(np.vdot(t.grad, t.grad) for t in wide.tensors()))
    for (name, want), (_, got) in zip(wide.named_tensors(), narrow.named_tensors()):
        bound = 1e-12 * whole if (kind, name) == ("hybrid", "head.bias") else 1e-4 * np.linalg.norm(want.grad)
        assert np.linalg.norm(got.grad - want.grad) <= bound, name


def small_train(dataset):
    config = model.ModelConfig.for_grid(dataset, hidden=4, recurrent_hidden=4, window=WINDOW, embed_dim=3)
    return training.train(dataset, training.Splits(22), config,
                          training.TrainConfig(epochs=2, warmup_epochs=1, batch_size=4, eval_k=3,
                                               lr_warmup=1e-2, lr_main=3e-3))


def test_training_keeps_float64_masters_scores_and_checkpoints(dataset, tmp_path):
    state = small_train(dataset)
    assert {t.data.dtype for t in state.params.tensors()} == {np.dtype(np.float64)}
    assert state.params.static_graph.dtype == np.float64
    model.save_checkpoint(tmp_path, state.best_params())
    assert json.loads((tmp_path / model.CHECKPOINT_JSON).read_text())["dtype"] == "<f8"
    loaded = model.load_checkpoint(tmp_path)
    assert loaded.dtype == np.float64
    assert model.predictions_for(loaded, dataset, WINDOWS).dtype == np.float64


def test_a_float64_compute_copy_changes_no_bit_of_training(dataset, monkeypatch):
    """With the compute dtype float64 the copy holds the masters' values,
    so training runs as it does on the masters themselves, bit for bit."""
    monkeypatch.setattr(training, "_COMPUTE_DTYPE", np.float64)
    copied = small_train(dataset)

    def masters(params, dtype):  # the masters themselves, their gradients cleared as a fresh copy's are
        ad.zero_grads(params.tensors())
        return params

    monkeypatch.setattr(model.ModelParams, "cast", masters)
    bypassed = small_train(dataset)
    assert [{k: v for k, v in row.items() if k != "wall_time_s"} for row in copied.log] == \
        [{k: v for k, v in row.items() if k != "wall_time_s"} for row in bypassed.log]
    assert all(np.array_equal(copied.params.snapshot()[name], array)
               for name, array in bypassed.params.snapshot().items())


def test_float32_inputs_hold_no_entry_below_the_floor():
    """The 32 x 32 grid's Gaussian-bump channels reach far below 2^-64: a
    float32 copy sets those entries to 0, so its conv products run no
    float32 subnormal. The float64 inputs keep the grid's values, bit for
    bit."""
    grid = griddata.generate_synthetic(7, 32, 32, 32)
    assert np.any((grid.spatial != 0) & (np.abs(grid.spatial) < 2.0 ** -64))
    for t in (0, 17, 31):
        narrow = model._period_inputs(grid, t, np.dtype(np.float32))
        assert [a.dtype for a in narrow] == [np.dtype(np.float32)] * 3
        assert not any(np.any((a != 0) & (np.abs(a) < 2.0 ** -64)) for a in narrow)
        st_t, node_features, temporal = model._period_inputs(grid, t, np.dtype(np.float64))
        assert st_t.tobytes() == grid.spatiotemporal[:, :, t, :].tobytes()
        assert node_features.tobytes() == np.concatenate([grid.spatial.reshape(1024, -1), st_t], axis=1).tobytes()
        assert temporal.tobytes() == np.tile(grid.temporal[t], (1024, 1)).tobytes()


@pytest.mark.parametrize("rows,cols", [(32, 32), (24, 25)])
def test_float32_gradients_do_not_depend_on_the_block_size(rows, cols):
    """At S = 1024 and S = 600 a float32 workspace holds twice a float64
    one's rows (64 against 32, 108 against 54). A float32 build and its
    ``vjp`` in it give the bytes they give in float32 arrays of the float64
    workspace's shapes: the gate's <G, A> is summed in the same chunks of
    rows either way. The static graph is zero, so the gate's gradient is
    that sum alone and shows its last bit."""
    params, grid, weights = step_case(rows, cols, True, None, seed=3)
    s = rows * cols
    params.static_graph = np.zeros((s, s))
    params, weights = params.cast(np.float32), weights.astype(np.float32)
    narrow = {name: np.empty(a.shape, np.float32) for name, a in adjacency.workspace(s).items()}
    work = adjacency.workspace(s, np.float32)
    assert work["block"].shape[0] == 2 * narrow["block"].shape[0] < s
    pairs = [ad.vjp(model._period_step(params, grid, T, w), weights) for w in (narrow, work)]
    assert [p for p, _ in pairs[0]] == [p for p, _ in pairs[1]]
    assert [g.tobytes() for _, g in pairs[0]] == [g.tobytes() for _, g in pairs[1]]
