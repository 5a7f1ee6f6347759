import csv
import math
from types import SimpleNamespace

import numpy as np
import pytest

from gridrank import adjacency, autodiff as ad, grid, losses, metrics, model, sampling, training
from gridrank.adjacency import pearson_static
from gridrank.errors import ConfigError
from gridrank.model import ModelConfig, init_params, predictions_for

from oracles import generic_warmup_loss, per_window_gradients

SPLITS = training.Splits(train_end=22)


@pytest.fixture(scope="module")
def data():
    return grid.generate_synthetic(7, 5, 5, 30, 2)


def small_model(data):
    return ModelConfig.for_grid(data, hidden=4, recurrent_hidden=4, window=3, embed_dim=3)


def run(data, **fields):
    config = training.TrainConfig(**{"batch_size": 8, "eval_k": 3, **fields})
    return training.train(data, SPLITS, small_model(data), config)


def test_logged_local_ndcg_applies_the_cutoff(data):
    state = run(data, epochs=1, warmup_epochs=0)
    report = training.evaluate_split(state.params, data, SPLITS, [3], training.TrainConfig().radius)
    logged = state.log[-1]
    assert logged["val_lndcg@3"] == pytest.approx(report.lookup("lndcg", 3).mean, abs=1e-12)
    assert logged["val_ndcg@3"] == pytest.approx(report.lookup("ndcg", 3).mean, abs=1e-12)
    # the surrogate's radius is not the logged metric's radius
    state = run(data, epochs=1, warmup_epochs=0, radius=1.0)
    logged = state.log[-1]["val_lndcg@3"]
    at = {r: training.evaluate_split(state.params, data, SPLITS, [3], r).lookup("lndcg", 3).mean for r in (2.0, 1.0)}
    assert logged == pytest.approx(at[2.0], abs=1e-12) and logged != pytest.approx(at[1.0], abs=1e-12)


def test_scored_split_scores_the_validation_days(data):
    params = run(data, epochs=0, warmup_epochs=0).params
    _, windows = training.split_windows(data, SPLITS, 3)
    days, actual, predicted = training.scored_split(data, SPLITS, 3, params)
    assert days == [w.target for w in windows] == list(range(22, 30))
    np.testing.assert_array_equal(actual, data.risk_by_location()[:, 22:].T)
    np.testing.assert_array_equal(predicted, predictions_for(params, data, windows))
    _, _, constant = training.scored_split(data, SPLITS, 3)
    np.testing.assert_array_equal(constant, np.tile(training.historical_average(data, SPLITS), (8, 1)))


def scripted_validation(monkeypatch, values):
    """Make the per-epoch validation report read ``values`` in turn."""
    script = iter(values)

    def report(*args, **kwargs):
        value = next(script)
        return SimpleNamespace(lookup=lambda name, k: SimpleNamespace(mean=value))

    monkeypatch.setattr(metrics, "metric_report", report)


def test_early_stopping_after_patience_epochs_without_gain(data, monkeypatch):
    scripted_validation(monkeypatch, [0.1, 0.3, 0.2, 0.25, 0.5, 0.6])
    state = run(data, epochs=6, warmup_epochs=1, early_stop_patience=2)
    assert state.epochs_run == 4 and len(state.log) == 4
    assert state.best_epoch == 1 and state.best_metric == 0.3


def test_best_params_restore_the_best_validation_epoch(data, monkeypatch):
    scripted_validation(monkeypatch, [0.1, 0.3, 0.2, 0.25])
    state = run(data, epochs=4, warmup_epochs=1)
    best = state.best_params().snapshot()
    monkeypatch.undo()
    two_epochs = run(data, epochs=2, warmup_epochs=1).params.snapshot()
    last = state.params.snapshot()
    assert all(np.array_equal(best[name], two_epochs[name]) for name in best)
    assert not all(np.array_equal(best[name], last[name]) for name in best)


def warmup_instances(rng, trials):
    for trial in range(trials):
        n = int(rng.choice([1, 37, 64, 1024]))
        y = rng.poisson(0.7, size=n).astype(float) * rng.uniform(0.5, 2.0, size=n)
        yield y, rng.normal(scale=rng.choice([0.1, 3.0, 40.0]), size=n)


def warmup_value_and_gradient(loss_fn, y, scores):
    tensor = ad.parameter(scores.copy())
    loss = loss_fn(y, tensor)
    ad.backward(loss)
    return loss.item(), tensor.grad


def test_mse_warmup_is_bit_equal_to_the_generic_chain(rng):
    for y, scores in warmup_instances(rng, 60):
        fused, fused_grad = warmup_value_and_gradient(training.warmup_loss, y, scores)
        chain, chain_grad = warmup_value_and_gradient(generic_warmup_loss, y, scores)
        assert fused == chain and fused_grad.tobytes() == chain_grad.tobytes()


def test_warmup_grad_check(rng):
    y = rng.poisson(0.8, size=12).astype(float)
    scores = ad.parameter(rng.normal(size=12))
    report = ad.grad_check(lambda: training.warmup_loss(y, scores), [scores], eps=1e-6, tol=1e-8)
    assert report.passed and report.checked == 12, report.max_rel_error


def test_window_losses_put_one_node_in_warm_up_and_two_after(data, monkeypatch):
    """The loss above the scores is the warm-up node, or the hybrid node
    and its negation."""
    nodes = []

    def spy(params, grid, windows, loss_of):
        def counted(window, scores):
            loss = loss_of(window, scores)
            nodes.append(len(ad._toposort(loss_of(window, ad.parameter(scores.data)))) - 1)
            return loss

        return model.batch_backward(params, grid, windows, counted)

    monkeypatch.setattr(training, "batch_backward", spy)
    run(data, epochs=2, warmup_epochs=1, batch_size=64)
    half = len(nodes) // 2
    assert nodes == [1] * half + [2] * half


def test_warmup_epoch_matches_the_per_window_oracle(data, monkeypatch):
    """Every batch of the epoch, in the order ``contiguous_batches`` draws
    from the training seed, replayed as per-window gradients and one Adam
    step per batch: one batch of all 19 windows, then batches of 4. The
    gradient step runs in float64 here, as the oracle does: in float32 the
    summation order alone moves the parameters by about 1e-9."""
    monkeypatch.setattr(training, "_COMPUTE_DTYPE", np.float64)
    windows, _ = training.split_windows(data, SPLITS, 3)
    risk = data.risk_by_location()
    config = training.TrainConfig(lr_warmup=1e-2)
    for batch_size in (64, 4):
        state = run(data, epochs=1, warmup_epochs=1, batch_size=batch_size, lr_warmup=1e-2)

        params = init_params(small_model(data), seed=config.seed)
        params.static_graph = pearson_static(data.risk[:, :, :SPLITS.train_end])
        adam = training.AdamState.for_params(params)
        batches = training.contiguous_batches(len(windows), batch_size, np.random.default_rng(config.seed))
        values = []
        for batch in batches:
            batch_values, grads = per_window_gradients(
                params, data, [windows[i] for i in batch],
                lambda window, scores: training.warmup_loss(risk[:, window.target], scores))
            values += batch_values
            training.adam_step(params, adam, {name: grad / len(batch) for name, grad in grads.items()},
                               config.lr_warmup)

        assert (len(batches) > 1) == (batch_size < len(windows))
        assert state.log[0]["train_obj"] == pytest.approx(np.mean(values), rel=1e-12)
        want = params.snapshot()
        for name, got in state.params.snapshot().items():
            assert np.allclose(got, want[name], rtol=0.0, atol=1e-12), (batch_size, name)


def test_contiguous_batches_cover_every_window_once_in_runs():
    draw = np.random.default_rng(23)
    for _ in range(400):
        n, batch_size = int(draw.integers(1, 150)), int(draw.integers(1, 40))
        seed = int(draw.integers(2 ** 32))
        rng, again = np.random.default_rng(seed), np.random.default_rng(seed)
        epochs = [training.contiguous_batches(n, batch_size, rng) for _ in range(20)]
        assert epochs == [training.contiguous_batches(n, batch_size, again) for _ in range(20)]
        offsets = set()
        for batches in epochs:
            assert sorted(i for batch in batches for i in batch) == list(range(n))
            for batch in batches:
                assert 1 <= len(batch) <= batch_size and list(batch) == list(range(batch[0], batch[-1] + 1))
            assert len(batches) <= math.ceil(n / batch_size) + 1
            assert sum(len(batch) < batch_size for batch in batches) <= 2
            offsets.add(len(next(batch for batch in batches if batch[0] == 0)) % batch_size)
        if n > batch_size >= 2:
            assert len(offsets) > 1, (n, batch_size, seed)


def test_each_batch_builds_its_run_of_input_periods_once(data, monkeypatch):
    """Stage (1) of a batch of consecutive targets a..b builds periods
    a - window .. b - 1, each once."""
    built, batches = [], []
    period_step, batch_backward = model._period_step, model.batch_backward

    def spy_step(params, grid, t, work):
        built.append((t, ad._grad_enabled))
        return period_step(params, grid, t, work)

    def spy_batch(params, grid, windows, loss_of):
        built.clear()
        values = batch_backward(params, grid, windows, loss_of)
        batches.append(([w.target for w in windows], [t for t, with_grad in built if not with_grad]))
        return values

    monkeypatch.setattr(model, "_period_step", spy_step)
    monkeypatch.setattr(training, "batch_backward", spy_batch)
    run(data, epochs=2, warmup_epochs=1)
    assert sum(len(targets) for targets, _ in batches) == 2 * len(training.split_windows(data, SPLITS, 3)[0])
    for targets, stage_one in batches:
        assert targets == list(range(targets[0], targets[-1] + 1))
        assert len(stage_one) == targets[-1] - targets[0] + 3
        assert sorted(stage_one) == list(range(targets[0] - 3, targets[-1]))


def test_each_batch_draws_its_weights_in_window_order_before_its_windows_run(data, monkeypatch):
    """Every positive window of a batch gets its importance weights from
    ``losses.apply_importance`` in batch order, all of them before the
    batch's first recurrent pass."""
    events, risk = [], data.risk_by_location()
    apply_importance, batch_backward, recurrent = losses.apply_importance, training.batch_backward, model._recurrent

    def spy_apply(positives, *args):
        events.append(("draw", positives.tolist()))
        return apply_importance(positives, *args)

    def spy_batch(params, grid, windows, loss_of):
        events.append(("batch", [w.target for w in windows]))
        return batch_backward(params, grid, windows, loss_of)

    def spy_recurrent(params, steps):
        events.append(("recurrent", None))
        return recurrent(params, steps)

    monkeypatch.setattr(losses, "apply_importance", spy_apply)
    monkeypatch.setattr(training, "batch_backward", spy_batch)
    monkeypatch.setattr(model, "_recurrent", spy_recurrent)
    run(data, epochs=2, warmup_epochs=0, weight_mode="sample", sample_fraction=0.5)
    batches = [i for i, (kind, _) in enumerate(events) if kind == "batch"]
    assert len(batches) > 2
    for previous, start in zip([-1] + batches, batches):
        since = events[previous + 1:start]
        kinds = [kind for kind, _ in since]
        drawn = [positives for kind, positives in since if kind == "draw"]
        positive = [losses.positive_locations(risk[:, t]).tolist() for t in events[start][1]]
        assert drawn == [p for p in positive if p] and any(drawn)
        assert kinds == sorted(kinds, key="draw".__eq__)  # every draw after the previous batch's passes
        assert events[start + 1][0] == "recurrent"


@pytest.mark.parametrize("patience", [0, -3])
def test_early_stop_patience_below_one_is_rejected(patience):
    with pytest.raises(ConfigError, match=f"^early_stop_patience must be >= 1 or null, got {patience}$"):
        training.TrainConfig(early_stop_patience=patience).validate()
    for accepted in (None, 1):
        assert training.TrainConfig(early_stop_patience=accepted).validate().early_stop_patience == accepted


def test_each_epoch_draws_from_the_previous_refresh(data, monkeypatch):
    events = []
    apply_importance, refresh = losses.apply_importance, sampling.refresh

    def spy_apply(positives, dist, *args):
        events.append(("draw", dist.probs))
        return apply_importance(positives, dist, *args)

    def spy_refresh(*args):
        dist = refresh(*args)
        events.append(("refresh", dist.probs))
        return dist

    monkeypatch.setattr(losses, "apply_importance", spy_apply)
    monkeypatch.setattr(sampling, "refresh", spy_refresh)
    state = run(data, epochs=3, warmup_epochs=0)

    kinds = [kind for kind, _ in events]
    assert kinds.count("refresh") == 3 and kinds[0] == "draw" and kinds[-1] == "refresh"
    assert all(kinds[i - 1] == "draw" for i, kind in enumerate(kinds) if kind == "refresh")
    current = None
    for kind, probs in events:
        if kind == "refresh":
            current = probs
        elif current is None:
            assert np.array_equal(probs, np.full(data.n_locations, 1.0 / data.n_locations))
        else:
            assert probs is current
    assert state.importance.probs is current


def test_training_log_has_one_header_and_one_row_per_epoch(data, tmp_path):
    state = run(data, epochs=2, warmup_epochs=1)
    path = training.write_training_log(state, tmp_path / "log.csv")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(state.log[0]) and len(rows) == 1 + len(state.log) == 3
    for row, logged in zip(rows[1:], state.log):
        assert int(row[0]) == logged["epoch"]
        assert [float(value) for value in row[1:]] == list(logged.values())[1:]


def test_refresh_reads_the_batch_scores_and_validation_alone_is_scored(data, monkeypatch):
    """Each epoch's ``predictions_for`` call scores the validation windows
    alone and builds only their periods; each refresh reads the scores
    ``batch_backward`` returned that epoch, stacked in training-window
    order; the logged metrics are those of the final parameters."""
    builds, calls, inside, batch_scores, refreshed = [], [], [], {}, []
    dynamic_adjacency, predictions_for = adjacency.dynamic_adjacency, training.predictions_for
    batch_backward, refresh = training.batch_backward, sampling.refresh

    def spy_dynamic(weights, saturation, features, **buffers):
        builds.append(len(calls) if inside else 0)  # the call a build of predictions_for belongs to
        return dynamic_adjacency(weights, saturation, features, **buffers)

    def spy_predictions(params, grid, windows):
        calls.append(windows)
        inside.append(True)
        try:
            return predictions_for(params, grid, windows)
        finally:
            inside.pop()

    def spy_batch(params, grid, windows, loss_of):
        values, scores = batch_backward(params, grid, windows, loss_of)
        batch_scores.update(zip([w.target for w in windows], scores.copy()))
        return values, scores

    def spy_refresh(actual, predicted, *args):
        refreshed.append(predicted.copy())
        return refresh(actual, predicted, *args)

    monkeypatch.setattr(adjacency, "dynamic_adjacency", spy_dynamic)
    monkeypatch.setattr(training, "predictions_for", spy_predictions)
    monkeypatch.setattr(training, "batch_backward", spy_batch)
    monkeypatch.setattr(sampling, "refresh", spy_refresh)
    state = run(data, epochs=3, warmup_epochs=1)
    monkeypatch.undo()

    train_windows, val_windows = training.split_windows(data, SPLITS, 3)
    val_periods = {t for w in val_windows for t in w.inputs()}
    assert calls == [val_windows] * 3
    assert [builds.count(i) for i in range(1, 4)] == [len(val_periods)] * 3
    assert len(refreshed) == 2 and refreshed[0].tobytes() != refreshed[1].tobytes()
    stacked = np.stack([batch_scores[w.target] for w in train_windows])
    assert refreshed[-1].tobytes() == stacked.tobytes()
    risk = data.risk_by_location()
    shape = (data.rows, data.cols)
    y_train = risk[:, [w.target for w in train_windows]].T
    y_val = risk[:, [w.target for w in val_windows]].T
    want = sampling.refresh(y_train, stacked, training.TrainConfig().bandwidth, shape)
    assert state.importance.probs.tobytes() == want.probs.tobytes()
    report = metrics.metric_report(y_val, predictions_for(state.params, data, val_windows), [3], shape,
                                   training.TrainConfig().radius)
    for name in ("ndcg", "lndcg", "prec"):
        assert state.log[-1][f"val_{name}@3"] == report.lookup(name, 3).mean


def test_runs_on_one_grid_and_split_share_one_static_graph(data):
    first, second = run(data, epochs=0, warmup_epochs=0), run(data, epochs=0, warmup_epochs=0)
    assert first.params.static_graph is second.params.static_graph
    assert first.params.static_graph.tobytes() == pearson_static(data.risk[:, :, :22]).tobytes()
    other = training.train(data, training.Splits(train_end=20), small_model(data),
                           training.TrainConfig(epochs=0, warmup_epochs=0, eval_k=3)).params.static_graph
    assert other.tobytes() == pearson_static(data.risk[:, :, :20]).tobytes() and not other.flags.writeable


def test_snapshots_share_the_read_only_static_graph(data):
    state = run(data, epochs=2, warmup_epochs=1)
    static = state.params.static_graph
    assert state.best_snapshot["static_graph"] is static
    assert state.params.snapshot()["static_graph"] is static
    with pytest.raises(ValueError, match="read-only"):
        static[0, 0] = 2.0
    restored = state.best_params()
    assert restored.static_graph is not static and restored.static_graph.flags.writeable
    for name, array in state.best_snapshot.items():
        assert restored.snapshot()[name].tobytes() == array.tobytes(), name
