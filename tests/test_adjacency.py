import numpy as np
import pytest

from gridrank import adjacency, autodiff as ad
from gridrank import grid as griddata
from gridrank import model
from gridrank.errors import DataError

from oracles import mean_


# The dynamic graph's weights, in the order ``adjacency.dynamic_adjacency`` takes them.
DYNAMIC = ("emb1", "emb2", "mix1", "mix2", "feature_proj")


def random_params(seed, n_locations=9, d_t=3, d_st=2, embed_dim=4):
    """The graph's tensors by short name: embeddings standard normal
    scaled by 0.1, the rest uniform(-k, k) with k = sqrt(1/fan_in), drawn
    in the model's order as ``model.init_params`` draws them."""
    rng = np.random.default_rng(seed)

    def uniform(shape):
        k = np.sqrt(1.0 / shape[0])
        return ad.parameter(rng.uniform(-k, k, size=shape))

    return dict(emb1=ad.parameter(rng.normal(size=(n_locations, embed_dim)) * 0.1),
                emb2=ad.parameter(rng.normal(size=(n_locations, embed_dim)) * 0.1),
                mix1=uniform((embed_dim, embed_dim)), mix2=uniform((embed_dim, embed_dim)),
                time_gate=uniform((d_t, 1)), feature_proj=uniform((d_st, embed_dim)))


def weights(params):
    """The arrays ``adjacency.dynamic_adjacency`` takes, from ``random_params``."""
    return [params[name].data for name in DYNAMIC]


def dynamic(params, features, saturation=3.0):
    """The dynamic graph A of ``features``, built in a fresh workspace."""
    work = adjacency.workspace(params["emb1"].shape[0])
    adjacency.dynamic_adjacency(weights(params), saturation, features, work)
    return work["graph"]


def blended(dyn, static, temporal, time_gate, fixed_gate=None):
    """The gate, computed as ``model._period_step`` computes it, and
    ``blend`` of a copy of ``dyn`` with it."""
    if fixed_gate is None:
        gate = ad._stable_sigmoid(np.reshape(temporal, (1, -1)) @ time_gate.data)[0, 0]
    else:
        gate = float(fixed_gate)
    mixed = dyn.copy()
    adjacency.blend(mixed, static, gate, adjacency.workspace(len(dyn))["mix"])
    return gate, mixed


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

    def test_needs_two_periods(self):
        with pytest.raises(DataError, match="at least 2"):
            adjacency.pearson_static(np.ones((4, 1, 1)))


class TestDynamicAdjacency:
    @pytest.mark.parametrize("seed", range(20))
    def test_structural_invariants(self, seed):
        params = random_params(seed)
        rng = np.random.default_rng(1000 + seed)
        features = rng.uniform(0, 1, size=(9, 2))
        matrix = dynamic(params, features)
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
            params["emb1"].data = emb1.copy()
            params["emb2"].data = emb2.copy()
            params["mix1"].data = mix.copy()
            params["mix2"].data = mix.copy()
            params["feature_proj"].data = np.zeros_like(params["feature_proj"].data)
            matrix = dynamic(params, features, saturation=alpha)
            off_diag = matrix[~np.eye(6, dtype=bool)]
            maxima.append(matrix.max())
            middles.append(int(((off_diag > 0.01) & (off_diag < 0.99)).sum()))
        assert maxima[0] < maxima[1] <= maxima[2]
        # saturation: ever fewer entries stay between "off" and "fully on"
        assert middles[0] > middles[1] >= middles[2]
        assert middles[2] <= 0.2 * off_diag.size

    def test_nan_feature_propagates_with_a_zero_active_mask(self):
        ad.set_debug(False)  # the finiteness check would stop the forward
        features = np.random.default_rng(4).uniform(0, 1, size=(9, 2))
        features[3, 1] = np.nan
        work = adjacency.workspace(9)
        with ad._kink_tracing():
            graph = adjacency.dynamic_adjacency(weights(random_params(1)), 3.0, features, work)
        touched = np.zeros((9, 9), dtype=bool)
        touched[3, :] = touched[:, 3] = True
        assert np.array_equal(np.isnan(work["graph"]), touched)
        assert not graph.active[touched].any()
        assert np.array_equal(graph.active, work["graph"] > 0.0)

    def test_gradients_reach_every_parameter(self):
        params = random_params(2)
        features = np.random.default_rng(9).uniform(0.2, 0.8, size=(9, 2))
        tensors = [params[name] for name in DYNAMIC]

        def objective():
            # dynamic_adjacency and its gradient helper as one tape node
            work = adjacency.workspace(9)
            graph = adjacency.dynamic_adjacency(weights(params), 3.0, features, work)
            node = ad.fused("dynamic_adjacency", work["graph"], tuple(tensors),
                            lambda g: adjacency.dynamic_adjacency_grads(weights(params), 3.0, features, graph,
                                                                        g.copy(), 1.0, work)[:5])
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
        dyn = dynamic(params, features)
        static = dyn.copy()
        _, mixed = blended(dyn, static, np.array([0.3, -0.2, 0.9]), params["time_gate"])
        assert np.allclose(mixed, static, atol=1e-12)

    def test_zero_gate_weights_mean(self):
        params = random_params(6)
        params["time_gate"].data = np.zeros_like(params["time_gate"].data)
        features = np.random.default_rng(7).uniform(size=(9, 2))
        dyn = dynamic(params, features)
        static = np.random.default_rng(8).uniform(-1, 1, size=(9, 9))
        gate, mixed = blended(dyn, static, np.ones(3), params["time_gate"])
        assert gate == pytest.approx(0.5, abs=0.0)
        assert np.allclose(mixed, (dyn + static) / 2.0, atol=1e-15)

    def test_fixed_gate_override_matches_half_mix(self):
        params = random_params(10)
        features = np.random.default_rng(11).uniform(size=(9, 2))
        dyn = dynamic(params, features)
        static = np.random.default_rng(12).uniform(-1, 1, size=(9, 9))
        gate, mixed = blended(dyn, static, np.ones(3), params["time_gate"], fixed_gate=0.5)
        assert gate == 0.5
        assert np.allclose(mixed, 0.5 * dyn + 0.5 * static, atol=1e-15)

    def test_blend_definition_holds_elementwise(self):
        params = random_params(13)
        features = np.random.default_rng(14).uniform(size=(9, 2))
        dyn = dynamic(params, features)
        static = np.random.default_rng(15).uniform(-1, 1, size=(9, 9))
        temporal = np.array([0.4, 0.1, -0.7])
        gate, mixed = blended(dyn, static, temporal, params["time_gate"])
        assert 0.0 < gate < 1.0
        expected = gate * dyn + (1 - gate) * static
        assert np.allclose(mixed, expected, atol=1e-12)

    def test_gate_gradient(self):
        """The gate's gradient, through the period step that applies the blend."""
        rng = np.random.default_rng(17)
        data = griddata.StGrid(rows=3, cols=3, periods=2, temporal=np.array([[0.5, 1.0, -0.5]] * 2),
                               spatial=rng.uniform(size=(3, 3, 2)), spatiotemporal=rng.uniform(size=(3, 3, 2, 2)),
                               risk=np.ones((3, 3, 2))).validate()
        params = model.init_params(model.ModelConfig.for_grid(data, hidden=3, embed_dim=4, window=1), seed=16)
        params.static_graph = np.random.default_rng(18).uniform(-1, 1, size=(9, 9))
        tensors = [t for name, t in params.named_tensors() if name.startswith("adjacency.")]
        report = ad.grad_check(lambda: mean_(model._period_step(params, data, 1, adjacency.workspace(9))), tensors,
                               eps=1e-5, tol=1e-4)
        assert report.passed, report.max_rel_error
        assert np.all(params.table["adjacency.time_gate"].grad != 0.0)
