import json

import numpy as np
import pytest

from gridrank import autodiff as ad
from gridrank import grid as griddata
from gridrank import model
from gridrank.adjacency import pearson_static
from gridrank.errors import ConfigError, DataError


@pytest.fixture(scope="module")
def dataset():
    return griddata.generate_synthetic(3, 4, 4, 30, 2)


@pytest.fixture(scope="module")
def tiny_config(dataset):
    return model.ModelConfig.for_grid(dataset, hidden=5, recurrent_hidden=4,
                                      conv_layers=2, window=3, embed_dim=3)


def make_params(config, dataset, seed=0):
    params = model.init_params(config, seed=seed)
    params.static_graph = pearson_static(dataset.risk[:, :, :20]).matrix
    return params


class TestInit:
    def test_same_seed_identical(self, tiny_config):
        a = model.init_params(tiny_config, seed=5)
        b = model.init_params(tiny_config, seed=5)
        for (name, ta), (_, tb) in zip(a.named_tensors(), b.named_tensors()):
            assert np.array_equal(ta.data, tb.data), name

    def test_different_seeds_differ(self, tiny_config):
        a = model.init_params(tiny_config, seed=5)
        b = model.init_params(tiny_config, seed=6)
        assert any(not np.array_equal(ta.data, tb.data)
                   for (_, ta), (_, tb) in zip(a.named_tensors(), b.named_tensors()))

    def test_fan_in_bound(self, dataset):
        config = model.ModelConfig.for_grid(dataset, hidden=100, recurrent_hidden=100,
                                            conv_layers=2, window=3, embed_dim=3)
        params = model.init_params(config, seed=0)
        # second conv layer has fan_in 100 -> |w| <= 0.1
        assert np.abs(params.conv_weights[1].data).max() <= 0.1

    def test_config_validation(self, dataset):
        with pytest.raises(ConfigError):
            model.ModelConfig.for_grid(dataset, hidden=0)
        with pytest.raises(ConfigError):
            model.ModelConfig.for_grid(dataset, fixed_gate=1.5)


class TestForward:
    def test_zero_head_gives_zero_scores(self, tiny_config, dataset):
        params = make_params(tiny_config, dataset)
        params.head_weight.data = np.zeros_like(params.head_weight.data)
        params.head_bias.data = np.zeros_like(params.head_bias.data)
        scores = model.forward(params, dataset, griddata.Window(10, 3))
        assert np.array_equal(scores.data, np.zeros(16))

    def test_deterministic(self, tiny_config, dataset):
        params = make_params(tiny_config, dataset)
        window = griddata.Window(12, 3)
        a = model.forward(params, dataset, window).data
        b = model.forward(params, dataset, window).data
        assert np.array_equal(a, b)

    def test_finite_on_random_instances(self, tiny_config, dataset, rng):
        for seed in range(10):
            params = make_params(tiny_config, dataset, seed=seed)
            window = griddata.Window(int(rng.integers(3, dataset.periods)), 3)
            scores = model.forward(params, dataset, window).data
            assert np.all(np.isfinite(scores))

    def test_location_permutation_equivariance(self, dataset):
        """Swapping two locations everywhere permutes the two scores."""
        config = model.ModelConfig.for_grid(dataset, hidden=4, recurrent_hidden=3,
                                            conv_layers=2, window=2, embed_dim=3)
        params = make_params(config, dataset, seed=7)
        window = griddata.Window(8, 2)
        base = model.forward(params, dataset, window).data

        i, j = 2, 9  # location ids to swap
        perm = np.arange(16)
        perm[[i, j]] = [j, i]

        swapped = griddata.StGrid(
            rows=dataset.rows, cols=dataset.cols, periods=dataset.periods,
            temporal=dataset.temporal.copy(),
            spatial=dataset.spatial.reshape(16, -1)[perm].reshape(dataset.spatial.shape),
            spatiotemporal=dataset.spatiotemporal.reshape(16, dataset.periods, -1)[perm]
            .reshape(dataset.spatiotemporal.shape),
            risk=dataset.risk.reshape(16, -1)[perm].reshape(dataset.risk.shape),
        )
        params_swapped = make_params(config, dataset, seed=7)
        params_swapped.adjacency.emb1.data = params.adjacency.emb1.data[perm]
        params_swapped.adjacency.emb2.data = params.adjacency.emb2.data[perm]
        params_swapped.static_graph = params.static_graph[np.ix_(perm, perm)]
        permuted = model.forward(params_swapped, swapped, window).data
        assert np.allclose(permuted, base[perm], atol=1e-12)

    def test_normalized_rows_sum_to_one_for_nonnegative_graph(self, tiny_config, dataset):
        params = make_params(tiny_config, dataset)
        params.static_graph = np.abs(params.static_graph)
        window = griddata.Window(5, 3)
        captured = {}
        original = model._normalized_adjacency

        def spy(matrix, signed):
            out = original(matrix, signed)
            captured.setdefault("row_sums", out.data.sum(axis=1))
            assert not signed
            return out

        model._normalized_adjacency = spy
        try:
            model.forward(params, dataset, window)
        finally:
            model._normalized_adjacency = original
        assert np.allclose(captured["row_sums"], 1.0, atol=1e-12)

    def test_gradients_full_model(self, dataset):
        config = model.ModelConfig.for_grid(dataset, hidden=3, recurrent_hidden=3,
                                            conv_layers=2, window=2, embed_dim=2)
        params = make_params(config, dataset, seed=1)
        window = griddata.Window(6, 2)
        report = ad.grad_check(lambda: ad.mean_(model.forward(params, dataset, window)),
                               params.tensors(), eps=1e-5, tol=1e-4, max_coords=120,
                               rng=np.random.default_rng(0))
        assert report.passed, report.max_rel_error


class TestPredictTopk:
    def test_full_permutation(self, tiny_config, dataset):
        params = make_params(tiny_config, dataset)
        ranked = model.predict_topk(params, dataset, griddata.Window(9, 3), 16)
        assert sorted(loc for loc, _ in ranked) == list(range(16))
        values = [s for _, s in ranked]
        assert values == sorted(values, reverse=True)

    def test_duplicate_scores_order_by_index(self, tiny_config, dataset):
        params = make_params(tiny_config, dataset)
        params.head_weight.data = np.zeros_like(params.head_weight.data)
        params.head_bias.data = np.zeros_like(params.head_bias.data)
        ranked = model.predict_topk(params, dataset, griddata.Window(9, 3), 5)
        assert [loc for loc, _ in ranked] == [0, 1, 2, 3, 4]

    def test_k_above_s_is_error(self, tiny_config, dataset):
        params = make_params(tiny_config, dataset)
        with pytest.raises(DataError, match="exceeds"):
            model.predict_topk(params, dataset, griddata.Window(9, 3), 17)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tiny_config, dataset, tmp_path):
        params = make_params(tiny_config, dataset, seed=11)
        model.save_checkpoint(tmp_path / "ckpt", params)
        loaded = model.load_checkpoint(tmp_path / "ckpt")
        for (name, original), (_, restored) in zip(params.named_tensors(), loaded.named_tensors()):
            assert np.array_equal(original.data, restored.data), name
        assert np.array_equal(params.static_graph, loaded.static_graph)
        window = griddata.Window(10, 3)
        assert np.array_equal(model.forward(params, dataset, window).data,
                              model.forward(loaded, dataset, window).data)

    def test_missing_checkpoint(self, tmp_path):
        with pytest.raises(DataError, match="missing file"):
            model.load_checkpoint(tmp_path / "nothing")

    def test_save_is_byte_stable(self, tiny_config, dataset, tmp_path):
        params = make_params(tiny_config, dataset, seed=2)
        model.save_checkpoint(tmp_path / "a", params)
        model.save_checkpoint(tmp_path / "b", params)
        assert (tmp_path / "a" / "checkpoint.bin").read_bytes() == \
               (tmp_path / "b" / "checkpoint.bin").read_bytes()
        assert (tmp_path / "a" / "checkpoint.json").read_text() == \
               (tmp_path / "b" / "checkpoint.json").read_text()

    def test_truncated_blob_is_a_data_error(self, tiny_config, dataset, tmp_path):
        model.save_checkpoint(tmp_path / "ckpt", make_params(tiny_config, dataset))
        blob = tmp_path / "ckpt" / model.CHECKPOINT_BLOB
        blob.write_bytes(blob.read_bytes()[:blob.stat().st_size // 2])
        with pytest.raises(DataError, match="checkpoint.bin holds"):
            model.load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.parametrize("edit,message", [
        (lambda entries: entries[0].update(name="adjacency.emb9"), "not a tensor of this model"),
        (lambda entries: entries[0].update(shape=[3, 16]), "the config needs"),
        (lambda entries: entries.pop(), "lacks entries"),
    ], ids=["unknown-name", "wrong-shape", "missing-entry"])
    def test_manifest_entries_checked_against_config(self, tiny_config, dataset, tmp_path, edit, message):
        path = model.save_checkpoint(tmp_path / "ckpt", make_params(tiny_config, dataset))
        manifest = json.loads(path.read_text())
        edit(manifest["tensors"])
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match=message):
            model.load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.parametrize("text", [
        '{"config": ',
        '{"tensors": []}',
        '{"config": {"rows": 4, "depth": 2}, "tensors": []}',
    ], ids=["truncated-json", "no-config", "unknown-config-key"])
    def test_malformed_manifest_is_a_data_error(self, tiny_config, dataset, tmp_path, text):
        path = model.save_checkpoint(tmp_path / "ckpt", make_params(tiny_config, dataset))
        path.write_text(text)
        with pytest.raises(DataError, match="malformed checkpoint manifest"):
            model.load_checkpoint(tmp_path / "ckpt")
