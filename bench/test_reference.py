"""Hand-worked cases for the benchmark's reference code.

    python3 -m pytest -q bench
"""

import json
import math

import numpy as np
import pytest

import reference


def tiny_model(static):
    """A 1x2 grid whose scores can be worked by hand: zero embeddings make
    the dynamic graph 0, a zero gate weight makes the gate 1/2, and only the
    candidate block of the LSTM sees the conv output."""
    config = {"saturation": 1.0, "recurrent_hidden": 1, "conv_layers": 1, "window": 1, "fixed_gate": None}
    wx = np.zeros((2, 4))
    wx[0, 2] = 1.0
    arrays = {
        "adjacency.emb1": np.zeros((2, 1)), "adjacency.emb2": np.zeros((2, 1)),
        "adjacency.mix1": np.zeros((1, 1)), "adjacency.mix2": np.zeros((1, 1)),
        "adjacency.time_gate": np.zeros((1, 1)), "adjacency.feature_proj": np.zeros((1, 1)),
        "conv.0": np.array([[1.0], [-1.0]]),
        "lstm.wx": wx, "lstm.wh": np.zeros((1, 4)), "lstm.bias": np.zeros((1, 4)),
        "head.weight": np.array([[2.0]]), "head.bias": np.array([[0.25]]),
        "static_graph": np.array(static, dtype=float),
    }
    temporal = np.zeros((2, 1))
    spatial = np.array([[[3.0], [0.5]]])
    spatiotemporal = np.array([[[[1.0], [9.0]], [[2.0], [9.0]]]])   # (1, 2, T=2, 1)
    return config, arrays, temporal, spatial, spatiotemporal


def expected_score(h):
    # i = f = o = 1/2, candidate tanh(h): c = tanh(h)/2, state = tanh(c)/2, score = 2 state + 1/4
    return math.tanh(0.5 * math.tanh(h)) + 0.25


class TestReferenceScores:
    def test_identity_normalized_graph(self):
        # A = I/2, so D^-1 (A + I) = I and H = relu(spatial - spatiotemporal) = [2, 0]
        config, arrays, *inputs = tiny_model([[1.0, 0.0], [0.0, 1.0]])
        got = reference.reference_scores(config, arrays, *inputs, target=1)
        assert got == pytest.approx([expected_score(2.0), expected_score(0.0)], abs=1e-15)

    def test_signed_static_graph_uses_absolute_degree(self):
        # A + I = [[1.5, -0.5], [-0.5, 1.5]], row sums 1 -> divide by 1 + 1e-6;
        # A_hat X W = [3.75, -3.25] / (1 + 1e-6), relu keeps the first.
        config, arrays, *inputs = tiny_model([[1.0, -1.0], [-1.0, 1.0]])
        got = reference.reference_scores(config, arrays, *inputs, target=1)
        assert got == pytest.approx([expected_score(3.75 / (1.0 + 1e-6)), expected_score(0.0)], abs=1e-15)

    def test_fixed_gate_keeps_only_the_dynamic_graph(self):
        # gate 1: A = 0 and A + I = I, but the static graph's negative entry
        # still selects the signed degree |1| + 1e-6
        config, arrays, *inputs = tiny_model([[1.0, -1.0], [-1.0, 1.0]])
        config["fixed_gate"] = 1.0
        got = reference.reference_scores(config, arrays, *inputs, target=1)
        assert got == pytest.approx([expected_score(2.0 / (1.0 + 1e-6)), expected_score(0.0)], abs=1e-15)

    def test_read_checkpoint_reads_offsets_and_shapes(self, tmp_path):
        a, b = np.arange(6.0).reshape(2, 3), np.array([[7.5]])
        (tmp_path / "checkpoint.bin").write_bytes(a.astype("<f8").tobytes() + b.astype("<f8").tobytes())
        manifest = {"config": {"window": 3}, "dtype": "<f8", "tensors": [
            {"name": "a", "shape": [2, 3], "offset": 0, "trainable": True},
            {"name": "b", "shape": [1, 1], "offset": 48, "trainable": False}]}
        (tmp_path / "checkpoint.json").write_text(json.dumps(manifest))
        config, arrays = reference.read_checkpoint(tmp_path)
        assert config == {"window": 3}
        assert np.array_equal(arrays["a"], a) and np.array_equal(arrays["b"], b)


class TestRankingMetrics:
    def test_ndcg_by_hand(self):
        # top 2 by score: locations 1 (gain 0) and 2 (gain 1); ideal gains 7, 1
        value = reference.ndcg_at_k([3.0, 0.0, 1.0], [0.1, 0.9, 0.5], 2)
        assert value == pytest.approx((1.0 / math.log2(3.0)) / (7.0 + 1.0 / math.log2(3.0)), abs=1e-15)

    def test_ties_go_to_the_lower_index(self):
        assert reference.descending([1.0, 2.0, 2.0, 0.0]) == [1, 2, 0, 3]
        assert reference.ndcg_at_k([0.0, 1.0], [5.0, 5.0], 1) == 0.0

    def test_all_zero_relevance_is_undefined(self):
        assert reference.ndcg_at_k([0.0, 0.0], [1.0, 2.0], 2) is None

    def test_precision_by_hand(self):
        assert reference.precision_at_k([3.0, 0.0, 1.0], [0.1, 0.9, 0.5], 2) == 0.5

    def test_neighbourhoods_on_a_3x3_grid(self):
        members = reference.neighbourhoods(3, 3, 1.0)
        assert members[4] == [1, 3, 4, 5, 7]
        assert members[0] == [0, 1, 3]
        assert reference.neighbourhoods(3, 3, 1.5)[0] == [0, 1, 3, 4]

    def test_local_ndcg_by_hand(self):
        # 2x2 grid, radius 1: {0,1,2}, {0,1,3}, {0,2,3}, {1,2,3}; only location 0 is relevant.
        members = reference.neighbourhoods(2, 2, 1.0)
        assert members == [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
        relevance = [1.0, 0.0, 0.0, 0.0]
        # location 1 outscores 0 in the first two discs; the third is all ties; the fourth is undefined
        value = reference.local_ndcg(relevance, [0.0, 1.0, 0.0, 0.0], members, None)
        assert value == pytest.approx((2.0 / math.log2(3.0) + 1.0) / 3.0, abs=1e-15)
        # a cutoff of 1 drops location 0 from the first two lists
        assert reference.local_ndcg(relevance, [0.0, 1.0, 0.0, 0.0], members, 1) == pytest.approx(1.0 / 3.0)

    def test_mean_skips_undefined_days(self):
        assert reference.mean_defined([None, 0.5, 1.0]) == 0.75
        assert reference.mean_defined([None]) is None


class TestCrossK:
    def test_pair_counts_by_hand(self):
        # distances from (0,0): 1 to (0,1), sqrt(8) to (2,2)
        assert reference.cross_k_counts([(0, 0)], [(0, 1), (2, 2)], [0.0, 1.0, 2.5, 3.0]) == [0, 1, 1, 2]

    def test_coincident_cells_count(self):
        assert reference.cross_k_counts([(1, 1)], [(1, 1)], [0.0]) == [1]

    def test_k_by_hand(self):
        # K = (area / |pred|) * count / |true| = 9 * count / 2
        assert reference.cross_k([(0, 0)], [(0, 1), (2, 2)], [0.0, 1.0, 3.0], 9.0) == [0.0, 4.5, 9.0]

    def test_daily_average_skips_days_without_events(self):
        actual = [[0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]
        predicted = [[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]
        # day 2: top-1 cell (0,0), event at (0,1); area 4 on a 2x2 grid
        assert reference.daily_average_cross_k(actual, predicted, 1, [0.0, 1.0], 2, 2) == [0.0, 4.0]
