import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest

from gridrank import autodiff as ad
from gridrank import grid as griddata
from gridrank import model
from gridrank.adjacency import pearson_static
from gridrank.errors import ConfigError, DataError

from oracles import mean_


@pytest.fixture(scope="module")
def dataset():
    return griddata.generate_synthetic(3, 4, 4, 30, 2)


@pytest.fixture(scope="module")
def tiny_config(dataset):
    return model.ModelConfig.for_grid(dataset, hidden=5, recurrent_hidden=4,
                                      conv_layers=2, window=3, embed_dim=3)


def make_params(config, dataset, seed=0):
    params = model.init_params(config, seed=seed)
    params.static_graph = pearson_static(dataset.risk[:, :, :20])
    return params


class TestInit:
    def test_same_seed_identical(self, tiny_config):
        a = model.init_params(tiny_config, seed=5)
        b = model.init_params(tiny_config, seed=5)
        for (name, ta), (_, tb) in zip(a.named_tensors(), b.named_tensors()):
            assert np.array_equal(ta.data, tb.data), name

    def test_draws_are_pinned(self, dataset):
        """The sha256 of every tensor's name and bytes, in ``named_tensors``
        order, as the draws have been since training first ran."""
        config = model.ModelConfig.for_grid(dataset, hidden=5, recurrent_hidden=4, conv_layers=3, window=3,
                                            embed_dim=3)
        digest = hashlib.sha256()
        for name, t in model.init_params(config, seed=7).named_tensors():
            digest.update(name.encode())
            digest.update(t.data.tobytes())
        assert digest.hexdigest() == "2dd72f615a0f20909ca24c32f00df48e10217fb93f3d4911f28c1c8317d6280a"

    def test_loading_casting_and_restoring_draw_nothing(self, tiny_config, dataset, tmp_path, monkeypatch):
        params = make_params(tiny_config, dataset, seed=3)
        model.save_checkpoint(tmp_path / "ckpt", params)

        def no_draw(*args):
            raise AssertionError("a generator was made")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        loaded = model.load_checkpoint(tmp_path / "ckpt")
        narrow = loaded.cast(np.float32)
        restored = loaded.restore(params.snapshot())
        for (name, want), *others in zip(params.named_tensors(), loaded.named_tensors(),
                                         narrow.named_tensors(), restored.named_tensors()):
            assert [t.data.tobytes() for _, t in others] == \
                [want.data.tobytes(), want.data.astype(np.float32).tobytes(), want.data.tobytes()], name
        assert narrow.static_graph.dtype == np.float32 and restored.static_graph.dtype == np.float64

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
        assert np.abs(params.table["conv.1"].data).max() <= 0.1

    def test_config_validation(self, dataset):
        with pytest.raises(ConfigError):
            model.ModelConfig.for_grid(dataset, hidden=0)
        with pytest.raises(ConfigError):
            model.ModelConfig.for_grid(dataset, fixed_gate=1.5)


class TestForward:
    def test_zero_head_gives_zero_scores(self, tiny_config, dataset):
        params = make_params(tiny_config, dataset)
        for name in ("head.weight", "head.bias"):
            params.table[name].data = np.zeros_like(params.table[name].data)
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
            temporal=dataset.temporal.copy(),
            spatial=dataset.spatial.reshape(16, -1)[perm].reshape(dataset.spatial.shape),
            spatiotemporal=dataset.spatiotemporal.reshape(16, dataset.periods, -1)[perm]
            .reshape(dataset.spatiotemporal.shape),
            risk=dataset.risk.reshape(16, -1)[perm].reshape(dataset.risk.shape),
        )
        params_swapped = make_params(config, dataset, seed=7)
        for name in ("adjacency.emb1", "adjacency.emb2"):
            params_swapped.table[name].data = params.table[name].data[perm]
        params_swapped.static_graph = params.static_graph[np.ix_(perm, perm)]
        permuted = model.forward(params_swapped, swapped, window).data
        assert np.allclose(permuted, base[perm], atol=1e-12)

    def test_normalize_divides_each_row_by_its_absolute_sum(self, dataset):
        """One degree rule for a nonnegative and a signed static graph:
        row i of A + I over |r_i| + 1e-6, and sign(r) as the gradient's row
        factor."""
        static = pearson_static(dataset.risk[:, :, :20])
        assert np.any(static < 0.0)
        for graph in (np.abs(static), static):
            normalized = graph.copy()
            denom, slope = model._normalize(normalized)
            for i, row in enumerate(graph + np.eye(len(graph))):
                degree = abs(row.sum()) + 1e-6
                assert normalized[i].tobytes() == (row / degree).tobytes()
                assert denom[i, 0] == degree and slope[i, 0] == np.sign(row.sum())

    def test_gradients_full_model(self, dataset):
        config = model.ModelConfig.for_grid(dataset, hidden=3, recurrent_hidden=3,
                                            conv_layers=2, window=2, embed_dim=2)
        params = make_params(config, dataset, seed=1)
        window = griddata.Window(6, 2)
        report = ad.grad_check(lambda: mean_(model.forward(params, dataset, window)),
                               params.tensors(), eps=1e-5, tol=1e-4, max_coords=120,
                               rng=np.random.default_rng(0))
        assert report.passed, report.max_rel_error

    def test_gradients_full_model_unsigned_fixed_gate(self, dataset):
        config = model.ModelConfig.for_grid(dataset, hidden=3, recurrent_hidden=3, conv_layers=2,
                                            window=2, embed_dim=2, fixed_gate=0.5)
        params = make_params(config, dataset, seed=2)
        params.static_graph = np.abs(params.static_graph)
        window = griddata.Window(9, 2)
        report = ad.grad_check(lambda: mean_(model.forward(params, dataset, window)),
                               params.tensors(), eps=1e-5, tol=1e-4, max_coords=120,
                               rng=np.random.default_rng(1))
        assert report.passed, report.max_rel_error


class TestInputContract:
    """``forward``, ``predictions_for`` and ``batch_backward`` check a grid
    against the parameters once per call, before any build."""

    @staticmethod
    def entry_points(params, grid, window):
        return [lambda: model.forward(params, grid, window),
                lambda: model.predictions_for(params, grid, [window]),
                lambda: model.batch_backward(params, grid, [window], lambda w, s: mean_(s))]

    @pytest.mark.parametrize("field", ["rows", "cols", "d_t", "d_s", "d_st"])
    def test_a_grid_that_differs_in_one_field_is_a_data_error_naming_it(self, tiny_config, dataset, field,
                                                                         monkeypatch):
        sizes = {"rows": 4, "cols": 4, "d_t": dataset.d_t, "d_s": dataset.d_s, "d_st": dataset.d_st}
        sizes[field] += 1
        other = griddata.generate_synthetic(3, sizes["rows"], sizes["cols"], 30, 2, d_t=sizes["d_t"],
                                            d_s=sizes["d_s"], d_st=sizes["d_st"])
        params = make_params(tiny_config, dataset)
        monkeypatch.setattr(model, "_period_step", lambda *args: pytest.fail("a build ran"))
        message = f"^dataset does not match the model: {field} {sizes[field]} \\(model {sizes[field] - 1}\\)$"
        for call in self.entry_points(params, other, griddata.Window(10, 3)):
            with pytest.raises(DataError, match=message):
                call()
        assert all(t.grad is None for t in params.tensors())

    def test_every_field_that_differs_is_named_with_both_values(self, tiny_config, dataset):
        other = griddata.generate_synthetic(3, 4, 4, 30, 2, d_s=2, d_st=5)
        with pytest.raises(DataError, match=r"^dataset does not match the model: d_s 2 \(model 6\), "
                                            r"d_st 5 \(model 3\)$"):
            model.predictions_for(make_params(tiny_config, dataset), other, [griddata.Window(10, 3)])

    def test_a_target_past_the_study_period_is_a_data_error(self, tiny_config, dataset):
        params = make_params(tiny_config, dataset)
        for call in self.entry_points(params, dataset, griddata.Window(30, 3)):
            with pytest.raises(DataError, match=r"^window target 30 outside study period 30$"):
                call()


class TestCheckpoint:
    def test_the_table_and_the_checkpoint_follow_shapes(self, tiny_config, dataset, tmp_path):
        """``model._shapes`` is the one declaration of the parameters: the
        table's names, order and shapes and the checkpoint's entries, with
        the static graph after them, all follow it."""
        params = make_params(tiny_config, dataset)
        shapes = model._shapes(tiny_config)
        assert [name for name, _ in params.named_tensors()] == list(shapes)
        assert [t.shape for t in params.tensors()] == list(shapes.values())
        manifest = json.loads(model.save_checkpoint(tmp_path / "ckpt", params).read_text())
        assert [entry["name"] for entry in manifest["tensors"]] == list(shapes) + ["static_graph"]

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

    def test_an_entry_with_the_former_trainable_field_loads_to_the_same_bits(self, tiny_config, dataset,
                                                                             tmp_path):
        """Checkpoints used to mark each entry ``trainable``; nothing read it."""
        params = make_params(tiny_config, dataset, seed=5)
        path = model.save_checkpoint(tmp_path / "ckpt", params)
        manifest = json.loads(path.read_text())
        assert all("trainable" not in entry for entry in manifest["tensors"])
        for entry in manifest["tensors"]:
            entry["trainable"] = entry["name"] != "static_graph"
        path.write_text(json.dumps(manifest, indent=2) + "\n")
        loaded = model.load_checkpoint(tmp_path / "ckpt")
        for (name, original), (_, restored) in zip(params.named_tensors(), loaded.named_tensors()):
            assert original.data.tobytes() == restored.data.tobytes(), name
        assert params.static_graph.tobytes() == loaded.static_graph.tobytes()

    def test_a_config_missing_a_key_is_a_data_error(self, dataset, tmp_path):
        """Not the default: a checkpoint saved with saturation 1.5 would load as 3.0."""
        config = model.ModelConfig.for_grid(dataset, hidden=5, recurrent_hidden=4, window=3, embed_dim=3,
                                            saturation=1.5)
        path = model.save_checkpoint(tmp_path / "ckpt", make_params(config, dataset))
        manifest = json.loads(path.read_text())
        del manifest["config"]["saturation"], manifest["config"]["rows"]
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match=r"malformed checkpoint manifest .*checkpoint\.json: "
                                            r"config lacks keys \['rows', 'saturation'\]$"):
            model.load_checkpoint(tmp_path / "ckpt")

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

    def test_flipped_blob_byte_is_a_data_error(self, tiny_config, dataset, tmp_path):
        model.save_checkpoint(tmp_path / "ckpt", make_params(tiny_config, dataset))
        blob = tmp_path / "ckpt" / model.CHECKPOINT_BLOB
        raw = bytearray(blob.read_bytes())
        raw[len(raw) // 3] ^= 0x01
        blob.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="sha256"):
            model.load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.parametrize("digest", [None, "0" * 64], ids=["missing", "wrong"])
    def test_manifest_digest_checked(self, tiny_config, dataset, tmp_path, digest):
        path = model.save_checkpoint(tmp_path / "ckpt", make_params(tiny_config, dataset))
        manifest = json.loads(path.read_text())
        manifest.pop("sha256")
        if digest is not None:
            manifest["sha256"] = digest
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="sha256"):
            model.load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.parametrize("edit,message", [
        (lambda entries: entries[0].update(name="adjacency.emb9"),
         "tensors[0] must be {'name': 'adjacency.emb1', 'shape': [16, 3], 'offset': 0}, "
         "got {'name': 'adjacency.emb9', 'shape': [16, 3], 'offset': 0}"),
        (lambda entries: entries[0].update(shape=[3, 16]),
         "tensors[0] must be {'name': 'adjacency.emb1', 'shape': [16, 3], 'offset': 0}, "
         "got {'name': 'adjacency.emb1', 'shape': [3, 16], 'offset': 0}"),
        (lambda entries: entries.pop(),
         "tensors[13] must be {'name': 'static_graph', 'shape': [16, 16], 'offset': 3408}, got absent"),
        (lambda entries: entries[1].update(offset=entries[0]["offset"] + 8),
         "tensors[1] must be {'name': 'adjacency.emb2', 'shape': [16, 3], 'offset': 384}, "
         "got {'name': 'adjacency.emb2', 'shape': [16, 3], 'offset': 8}"),
    ], ids=["unknown-name", "wrong-shape", "missing-entry", "overlapping-entries"])
    def test_manifest_entries_checked_against_config(self, tiny_config, dataset, tmp_path, edit, message):
        """The index must list the one layout the config gives: each
        message names the first entry out of place and the entry it must
        be."""
        path = model.save_checkpoint(tmp_path / "ckpt", make_params(tiny_config, dataset))
        manifest = json.loads(path.read_text())
        edit(manifest["tensors"])
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError) as raised:
            model.load_checkpoint(tmp_path / "ckpt")
        assert str(raised.value) == f"malformed checkpoint manifest {path}: {message}"

    @pytest.mark.parametrize("key,value,message", [
        ("hidden", 32.5, "config.hidden must be of type int, got 32.5"),
        ("rows", 4.0, "config.rows must be of type int, got 4.0"),
        ("window", True, "config.window must be of type int, got True"),
        ("saturation", "3", "config.saturation must be of type float, got '3'"),
        ("fixed_gate", float("nan"), "config.fixed_gate must be a finite number, got nan"),
        ("hidden", 0, "config.hidden must be positive, got 0"),
    ], ids=["hidden-float", "rows-float", "window-bool", "saturation-string", "fixed-gate-nan", "hidden-zero"])
    def test_manifest_config_values_are_config_errors(self, tiny_config, dataset, tmp_path, key, value, message):
        """The config error a run config would give for the value, raised as
        a DataError naming the manifest: the program wrote the file, so a bad
        value in it is the file's fault, not the user's config."""
        path = model.save_checkpoint(tmp_path / "ckpt", make_params(tiny_config, dataset))
        manifest = json.loads(path.read_text())
        manifest["config"][key] = value
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError) as raised:
            model.load_checkpoint(tmp_path / "ckpt")
        assert str(raised.value) == f"malformed checkpoint manifest {path}: {message}"

    def test_an_integer_saturation_loads_as_a_float(self, tiny_config, dataset, tmp_path):
        path = model.save_checkpoint(tmp_path / "ckpt", make_params(tiny_config, dataset))
        manifest = json.loads(path.read_text())
        manifest["config"]["saturation"] = 3
        path.write_text(json.dumps(manifest))
        saturation = model.load_checkpoint(tmp_path / "ckpt").config.saturation
        assert saturation == 3.0 and type(saturation) is float

    def test_repeated_entries_are_a_data_error(self, tiny_config, dataset, tmp_path):
        """A second entry of a name lies past the layout's last entry."""
        path = model.save_checkpoint(tmp_path / "ckpt", make_params(tiny_config, dataset))
        manifest = json.loads(path.read_text())
        named = {entry["name"]: entry for entry in manifest["tensors"]}
        manifest["tensors"] += [dict(named["lstm.wx"], offset=0), dict(named["lstm.bias"])]
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match=r"tensors\[14\] must be absent, got \{'name': 'lstm.wx'"):
            model.load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.parametrize("flipped", [None, 4, -1], ids=["intact", "gap-byte", "tail-byte"])
    def test_gaps_and_tail_are_hashed(self, tiny_config, dataset, tmp_path, flipped):
        """A blob with 8 bytes before its first entry and 3 after its last
        is not the layout ``write_tensors`` writes: the index is refused
        before a byte is hashed, whether the digest covers the gap and the
        tail (intact) or one of their bytes then changes."""
        params = make_params(tiny_config, dataset, seed=4)
        path = model.save_checkpoint(tmp_path / "ckpt", params)
        blob = tmp_path / "ckpt" / model.CHECKPOINT_BLOB
        raw = bytearray(b"\x01" * 8 + blob.read_bytes() + b"end")
        manifest = json.loads(path.read_text())
        for entry in manifest["tensors"]:
            entry["offset"] += 8
        manifest["sha256"] = hashlib.sha256(raw).hexdigest()
        path.write_text(json.dumps(manifest))
        if flipped is not None:
            raw[flipped] ^= 0x01
        blob.write_bytes(bytes(raw))
        with pytest.raises(DataError, match=re.escape("tensors[0] must be {'name': 'adjacency.emb1', "
                                                      "'shape': [16, 3], 'offset': 0}, got {'name': "
                                                      "'adjacency.emb1', 'shape': [16, 3], 'offset': 8}")):
            model.load_checkpoint(tmp_path / "ckpt")

    def test_load_holds_no_copy_of_the_blob(self, tmp_path):
        """At S = 1024 the static graph is 8 MB: the load's traced peak stays
        within 1 MB of what the loaded parameters keep."""
        config = model.ModelConfig(rows=32, cols=32, d_t=2, d_s=2, d_st=2, hidden=4, recurrent_hidden=4,
                                   embed_dim=4)
        params = model.init_params(config, seed=1)
        params.static_graph = np.random.default_rng(1).uniform(-1, 1, size=(1024, 1024))
        model.save_checkpoint(tmp_path / "ckpt", params)
        del params
        tracemalloc.start()
        try:
            loaded = model.load_checkpoint(tmp_path / "ckpt")
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.static_graph.nbytes == 8 << 20 and retained >= 8 << 20
        assert peak <= retained + (1 << 20)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_entry_is_a_data_error(self, tiny_config, dataset, tmp_path, value):
        params = make_params(tiny_config, dataset)
        params.table["conv.1"].data[2, 3] = value
        model.save_checkpoint(tmp_path / "ckpt", params)  # with a digest that matches
        with pytest.raises(DataError, match=r"^checkpoint entry conv.1 holds a non-finite value$"):
            model.load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.parametrize("dtype,message", [
        ("<f4", "dtype must be '<f8', got '<f4'"),
        (">f8", "dtype must be '<f8', got '>f8'"),
        (None, "dtype must be of type str, got None"),
    ], ids=["<f4", ">f8", "None"])
    def test_dtype_other_than_little_endian_float64_is_a_data_error(self, tiny_config, dataset, tmp_path, dtype,
                                                                     message):
        path = model.save_checkpoint(tmp_path / "ckpt", make_params(tiny_config, dataset))
        manifest = json.loads(path.read_text())
        manifest["dtype"] = dtype
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError) as raised:
            model.load_checkpoint(tmp_path / "ckpt")
        assert str(raised.value) == f"malformed checkpoint manifest {path}: {message}"

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
