import numpy as np
import pytest

from gridrank import adjacency, autodiff as ad
from gridrank import grid as griddata
from gridrank import model
from gridrank.errors import DataError, ShapeError

from oracles import mean_


def random_params(seed, n_locations=9, d_t=3, d_st=2, embed_dim=4, saturation=3.0):
    rng = np.random.default_rng(seed)
    return adjacency.init_adjacency_params(n_locations, d_t, d_st, embed_dim, saturation, rng)


class TestPearsonStatic:
    def test_identical_series_correlate_fully(self):
        series = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        static = adjacency.pearson_static(series[:, None])
        assert static[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_perfect_anticorrelation(self):
        series = np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
        static = adjacency.pearson_static(series[:, None])
        assert static[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal_deviations_give_zero(self):
        series = np.array([[1.0, 0.0, 2.0, 1.0], [0.0, 1.0, 1.0, 2.0]])
        static = adjacency.pearson_static(series[:, None])
        assert static[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_zero_variance_rows_zeroed(self):
        series = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]])
        static = adjacency.pearson_static(series[:, None])
        assert static[0, 0] == 0.0
        assert static[0, 1] == 0.0
        assert static[1, 1] == 1.0

    def test_symmetric_and_bounded(self, rng):
        series = rng.poisson(1.5, size=(25, 40)).astype(float)
        matrix = adjacency.pearson_static(series[:, None])
        assert np.array_equal(matrix, matrix.T)
        assert np.abs(matrix).max() <= 1.0 + 1e-12

    def test_accepts_grid_tensor(self, rng):
        risk = rng.poisson(1.0, size=(3, 4, 10)).astype(float)
        assert adjacency.pearson_static(risk).shape == (12, 12)
        with pytest.raises(ShapeError, match=r"expects \(rows, cols, T\)"):
            adjacency.pearson_static(risk.reshape(12, 10))

    def test_needs_two_periods(self):
        with pytest.raises(DataError, match="at least 2"):
            adjacency.pearson_static(np.ones((4, 1, 1)))


class TestDynamicAdjacency:
    @pytest.mark.parametrize("seed", range(20))
    def test_structural_invariants(self, seed):
        params = random_params(seed)
        rng = np.random.default_rng(1000 + seed)
        features = rng.uniform(0, 1, size=(9, 2))
        matrix = adjacency.dynamic_adjacency(params, features).matrix
        assert np.all(np.diag(matrix) == 0.0)
        assert np.all(np.minimum(matrix, matrix.T) == 0.0)
        assert matrix.min() >= 0.0 and matrix.max() < 1.0

    def test_saturation_drives_entries_to_zero_or_one(self):
        rng = np.random.default_rng(5)
        emb1 = rng.normal(size=(6, 4))
        emb2 = rng.normal(size=(6, 4))
        mix = rng.normal(size=(4, 4))
        features = np.zeros((6, 2))
        maxima = []
        middles = []
        for alpha in (1.0, 10.0, 100.0):
            params = random_params(5, n_locations=6)
            params.emb1.data = emb1.copy()
            params.emb2.data = emb2.copy()
            params.mix1.data = mix.copy()
            params.mix2.data = mix.copy()
            params.feature_proj.data = np.zeros_like(params.feature_proj.data)
            params.saturation = alpha
            matrix = adjacency.dynamic_adjacency(params, features).matrix
            off_diag = matrix[~np.eye(6, dtype=bool)]
            maxima.append(matrix.max())
            middles.append(int(((off_diag > 0.01) & (off_diag < 0.99)).sum()))
        assert maxima[0] < maxima[1] <= maxima[2]
        # saturation: ever fewer entries stay between "off" and "fully on"
        assert middles[0] > middles[1] >= middles[2]
        assert middles[2] <= 0.2 * off_diag.size

    def test_shape_mismatch(self):
        params = random_params(0)
        with pytest.raises(ShapeError):
            adjacency.dynamic_adjacency(params, np.zeros((9, 5)))

    def test_nan_feature_propagates_with_a_zero_active_mask(self):
        ad.set_debug(False)  # the finiteness check would stop the forward
        features = np.random.default_rng(4).uniform(0, 1, size=(9, 2))
        features[3, 1] = np.nan
        with ad._kink_tracing():
            graph = adjacency.dynamic_adjacency(random_params(1), features)
        touched = np.zeros((9, 9), dtype=bool)
        touched[3, :] = touched[:, 3] = True
        assert np.array_equal(np.isnan(graph.matrix), touched)
        assert not graph.active[touched].any()
        assert np.array_equal(graph.active, graph.matrix > 0.0)

    def test_gradients_reach_every_parameter(self):
        params = random_params(2)
        features = np.random.default_rng(9).uniform(0.2, 0.8, size=(9, 2))
        tensors = [t for _, t in params.named_tensors() if t is not params.time_gate]

        def objective():
            # dynamic_adjacency and its gradient helper as one tape node
            graph = adjacency.dynamic_adjacency(params, features)
            node = ad.fused("dynamic_adjacency", graph.matrix, tuple(tensors),
                            lambda g: adjacency.dynamic_adjacency_grads(params, features, graph, g.copy(), 1.0))
            return mean_(node)

        report = ad.grad_check(objective, tensors, eps=1e-5, tol=1e-4, max_coords=60)
        assert report.passed, report.max_rel_error
        ad.zero_grads(tensors)
        ad.backward(objective())
        assert all(np.any(t.grad != 0.0) for t in tensors)


class TestBlend:
    def test_equal_matrices_blend_to_themselves(self):
        params = random_params(3)
        features = np.random.default_rng(4).uniform(size=(9, 2))
        dyn = adjacency.dynamic_adjacency(params, features).matrix
        static = dyn.copy()
        blended = adjacency.blend(dyn, static, np.array([0.3, -0.2, 0.9]), params.time_gate)
        assert np.allclose(blended.matrix, static, atol=1e-12)

    def test_zero_gate_weights_mean(self):
        params = random_params(6)
        params.time_gate.data = np.zeros_like(params.time_gate.data)
        features = np.random.default_rng(7).uniform(size=(9, 2))
        dyn = adjacency.dynamic_adjacency(params, features).matrix
        static = np.random.default_rng(8).uniform(-1, 1, size=(9, 9))
        blended = adjacency.blend(dyn, static, np.ones(3), params.time_gate)
        assert blended.gate == pytest.approx(0.5, abs=0.0)
        assert np.allclose(blended.matrix, (dyn + static) / 2.0, atol=1e-15)

    def test_fixed_gate_override_matches_half_mix(self):
        params = random_params(10)
        features = np.random.default_rng(11).uniform(size=(9, 2))
        dyn = adjacency.dynamic_adjacency(params, features).matrix
        static = np.random.default_rng(12).uniform(-1, 1, size=(9, 9))
        fixed = adjacency.blend(dyn, static, np.ones(3), params.time_gate, fixed_gate=0.5)
        assert fixed.gate == 0.5
        assert np.allclose(fixed.matrix, 0.5 * dyn + 0.5 * static, atol=1e-15)

    def test_blend_definition_holds_elementwise(self):
        params = random_params(13)
        features = np.random.default_rng(14).uniform(size=(9, 2))
        dyn = adjacency.dynamic_adjacency(params, features).matrix
        static = np.random.default_rng(15).uniform(-1, 1, size=(9, 9))
        temporal = np.array([0.4, 0.1, -0.7])
        blended = adjacency.blend(dyn, static, temporal, params.time_gate)
        gate = blended.gate
        assert 0.0 < gate < 1.0
        expected = gate * dyn + (1 - gate) * static
        assert np.allclose(blended.matrix, expected, atol=1e-12)

    def test_gate_gradient(self):
        """The gate's gradient, through the period step that applies the blend."""
        rng = np.random.default_rng(17)
        data = griddata.StGrid(rows=3, cols=3, periods=2, temporal=np.array([[0.5, 1.0, -0.5]] * 2),
                               spatial=rng.uniform(size=(3, 3, 2)), spatiotemporal=rng.uniform(size=(3, 3, 2, 2)),
                               risk=np.ones((3, 3, 2))).validate()
        params = model.init_params(model.ModelConfig.for_grid(data, hidden=3, embed_dim=4, window=1), seed=16)
        params.static_graph = np.random.default_rng(18).uniform(-1, 1, size=(9, 9))
        tensors = [t for _, t in params.adjacency.named_tensors()]
        report = ad.grad_check(lambda: mean_(model._period_step(params, data, 1)), tensors,
                               eps=1e-5, tol=1e-4)
        assert report.passed, report.max_rel_error
        assert np.all(params.adjacency.time_gate.grad != 0.0)

    def test_static_shape_mismatch(self):
        params = random_params(19)
        features = np.random.default_rng(20).uniform(size=(9, 2))
        dyn = adjacency.dynamic_adjacency(params, features).matrix
        with pytest.raises(ShapeError):
            adjacency.blend(dyn, np.zeros((4, 4)), np.ones(3), params.time_gate)
