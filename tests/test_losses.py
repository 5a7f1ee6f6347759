import math

import numpy as np
import pytest

from gridrank import autodiff as ad
from gridrank import losses, metrics
from gridrank.errors import ConfigError, DataError
from oracles import (add, brute_l_ndcg_surrogate, brute_ndcg_surrogate, brute_surrogate_rank,
                     generic_bounded_gain, neg)


def random_instance(rng, n=None, rate=0.8):
    n = n or int(rng.integers(2, 26))
    y = rng.poisson(rate, size=n).astype(float)
    scores = rng.normal(size=n)
    return y, scores


def global_objective(y, scores, weights=None, *, margin=1.0):
    """The hybrid objective at local weight 0: the global surrogate alone."""
    config = losses.SurrogateConfig(margin=margin, local_weight=0.0)
    return losses.hybrid_objective(y, scores, config, weights)


def local_objective(y, scores, weights=None, *, margin=1.0, radius=2.0, shape=(0, 0)):
    """The hybrid objective at local weight 1: the local surrogate alone."""
    config = losses.SurrogateConfig(margin=margin, local_weight=1.0, radius=radius)
    return losses.hybrid_objective(y, scores, config, weights, shape)


def rank_bound(scores, position, margin=1.0):
    """Rank bound of one position in a single unpadded candidate list."""
    return losses._rank_bounds(np.array([scores], dtype=float), np.array([[position]]), margin)[1].item()


class TestSurrogateRank:
    def test_single_item_equals_margin_squared(self):
        bound = rank_bound([4.2], 0, margin=1.0)
        assert bound == pytest.approx(1.0)
        assert math.log2(bound + 1.0) == pytest.approx(1.0)

    def test_two_equal_scores(self):
        for position in (0, 1):
            assert rank_bound([2.0, 2.0], position, 1.0) == pytest.approx(2.0)

    def test_hinge_boundary_contributes_zero(self):
        # other item sits exactly margin below
        assert rank_bound([1.0, 0.0], 0, 1.0) == pytest.approx(1.0)

    def test_position_outside_set(self):
        with pytest.raises(DataError, match="outside"):
            rank_bound([1.0], 1)

    def test_matches_brute_force(self, rng):
        for _ in range(30):
            scores = rng.normal(size=7)
            margin = float(rng.uniform(0.0, 2.0))
            position = int(rng.integers(0, 7))
            got = rank_bound(scores, position, margin)
            assert got == pytest.approx(brute_surrogate_rank(scores.tolist(), position, margin), abs=1e-12)

    def test_overestimates_true_rank_at_unit_margin(self, rng):
        for _ in range(50):
            scores = rng.normal(size=9)
            for location in range(9):
                bound = rank_bound(scores, location, 1.0)
                assert bound >= metrics.ranks(scores)[location] - 1e-12

    def test_batched_lists_leave_padding_out(self, rng):
        scores = rng.normal(size=(4, 6))
        valid = np.arange(6) < np.array([[6], [4], [1], [3]])
        targets = np.tile(np.arange(6), (4, 1))
        bounds = losses._rank_bounds(scores, targets, 0.7, valid)[1]
        for b in range(4):
            kept = scores[b, valid[b]].tolist()
            for position in range(6):
                if valid[b, position]:
                    expected = brute_surrogate_rank(kept, position, 0.7)
                else:  # padding ranks against the valid members plus its own self term
                    expected = brute_surrogate_rank(kept + [scores[b, position]], len(kept), 0.7)
                assert bounds[b, position] == pytest.approx(expected, abs=1e-12)


class TestFusedSurrogate:
    """``losses._bounded_gain`` against the generic-op chain it replaces."""

    @staticmethod
    def value_and_gradient(objective, scores, monkeypatch, node):
        monkeypatch.setattr(losses, "_bounded_gain", node)
        tensor = ad.parameter(scores.copy())
        value = objective(tensor)
        if value.requires_grad:
            ad.backward(value)
        monkeypatch.undo()
        return value.item(), np.zeros_like(scores) if tensor.grad is None else tensor.grad

    def assert_matches_chain(self, objective, scores, monkeypatch):
        fused, fused_grad = self.value_and_gradient(objective, scores, monkeypatch, losses._bounded_gain)
        chain, chain_grad = self.value_and_gradient(objective, scores, monkeypatch, generic_bounded_gain)
        assert fused == chain
        np.testing.assert_allclose(fused_grad, chain_grad, rtol=1e-12, atol=1e-12 * np.abs(chain_grad).max())

    def instances(self, rng, trials):
        for trial in range(trials):
            rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            y = rng.poisson(0.8, size=rows * cols).astype(float)
            y[[0, -1]] = np.maximum(y[[0, -1]], 1.0)  # corner centres are always positive
            scores = rng.normal(size=rows * cols)
            if trial % 3 == 0:
                scores = np.round(scores)  # ties
            weights = rng.choice([0.0, 0.5, 1.0, 2.0], size=int((y > 0).sum()))
            yield rows, cols, y, scores, weights

    def test_global_list(self, rng, monkeypatch):
        for _, _, y, scores, weights in self.instances(rng, 40):
            self.assert_matches_chain(lambda s: global_objective(y, s, weights, margin=0.9), scores, monkeypatch)

    @pytest.mark.parametrize("radius", [0.0, 1.0, 1.5, 2.0, 3.0, 9.0])
    def test_padded_local_lists(self, radius, rng, monkeypatch):
        for rows, cols, y, scores, weights in self.instances(rng, 20):
            self.assert_matches_chain(
                lambda s: local_objective(y, s, weights, margin=0.9, radius=radius, shape=(rows, cols)),
                scores, monkeypatch)

    def test_hybrid_is_one_node_on_the_tape(self, rng, monkeypatch):
        cfg = losses.SurrogateConfig(local_weight=0.3).validate()
        for rows, cols, y, scores, weights in self.instances(rng, 10):
            self.assert_matches_chain(lambda s: losses.hybrid_objective(y, s, cfg, weights, (rows, cols)),
                                      scores, monkeypatch)
        y, scores = np.array([2.0, 0.0, 1.0, 3.0]), ad.parameter(rng.normal(size=4))
        loss = neg(losses.hybrid_objective(y, scores, cfg, None, (2, 2)))
        assert len(ad._toposort(loss)) - 1 == 2  # the hybrid and the negation; the leaf is not a node

    def test_hybrid_is_bit_equal_to_the_sum_of_its_parts(self, rng):
        """One node over both list groups gives the values and gradients of
        a global node and a local node added and negated by generic ops."""
        cfg = losses.SurrogateConfig(local_weight=0.3).validate()
        for rows, cols, y, scores, weights in self.instances(rng, 40):
            fused_scores, parts_scores = ad.parameter(scores.copy()), ad.parameter(scores.copy())
            fused = neg(losses.hybrid_objective(y, fused_scores, cfg, weights, (rows, cols)))
            parts = neg(add(
                global_objective(y, parts_scores, (1.0 - cfg.local_weight) * weights, margin=cfg.margin),
                local_objective(y, parts_scores, cfg.local_weight * weights, margin=cfg.margin,
                                radius=cfg.radius, shape=(rows, cols))))
            assert fused.data.tobytes() == parts.data.tobytes()
            if fused.requires_grad:
                ad.backward(fused)
                ad.backward(parts)
                assert fused_scores.grad.tobytes() == parts_scores.grad.tobytes()
            else:
                assert not parts.requires_grad

    def test_gradient_against_finite_differences(self, rng):
        lists = rng.integers(0, 7, size=(3, 5))
        targets = np.array([[0, 2], [1, 4], [3, 3]])
        valid = np.array([[1, 1, 1, 1, 1], [1, 1, 0, 1, 1], [1, 0, 0, 1, 0]], dtype=bool)
        coeff = rng.uniform(0.0, 2.0, size=(3, 2))
        full = (np.arange(7)[None], np.array([[1, 5, 6]]), rng.uniform(0.0, 2.0, size=(1, 3)), None)
        scores = ad.parameter(rng.normal(size=7))
        for groups in ([(lists, targets, coeff, valid)], [full, (lists, targets, coeff, valid)]):
            report = ad.grad_check(lambda: losses._bounded_gain(scores, groups, 0.8),
                                   [scores], eps=1e-6, tol=1e-7)
            assert report.passed and report.checked - report.kinks >= 5, report.max_rel_error


class TestNdcgSurrogate:
    def test_separated_single_positive_is_exact(self):
        y = np.zeros(5)
        y[2] = 3.0
        scores = np.array([0.0, 0.5, 4.0, -1.0, 0.2])  # top by margin > 1
        value = global_objective(y, ad.constant(scores), margin=1.0)
        assert value.item() == pytest.approx(1.0, abs=1e-12)

    def test_uniform_weights_match_default(self, rng):
        y, scores = random_instance(rng)
        positives = losses.positive_locations(y)
        if positives.size == 0:
            y[0] = 1.0
            positives = losses.positive_locations(y)
        a = global_objective(y, ad.constant(scores)).item()
        b = global_objective(y, ad.constant(scores), np.ones(positives.size)).item()
        assert a == pytest.approx(b, abs=1e-15)

    def test_matches_brute_force(self, rng):
        for _ in range(30):
            y, scores = random_instance(rng, n=10)
            if not (y > 0).any():
                continue
            ours = global_objective(y, ad.constant(scores), margin=1.0).item()
            assert ours == pytest.approx(brute_ndcg_surrogate(y.tolist(), scores.tolist(), 1.0), abs=1e-12)

    def test_bounded_by_exact_metric(self, rng):
        checked = 0
        for _ in range(50):
            y, scores = random_instance(rng)
            exact = metrics.ndcg_at_k(y, scores, y.size)
            if exact is None:
                continue
            surrogate = global_objective(y, ad.constant(scores), margin=1.0).item()
            assert surrogate <= exact + 1e-12
            checked += 1
        assert checked > 30

    def test_translation_invariance(self, rng):
        y, scores = random_instance(rng)
        y[0] = max(y[0], 1.0)
        a = global_objective(y, ad.constant(scores)).item()
        b = global_objective(y, ad.constant(scores + 123.0)).item()
        assert a == pytest.approx(b, rel=1e-9)

    def test_empty_positive_set_contributes_zero(self):
        value = global_objective(np.zeros(4), ad.constant(np.ones(4)))
        assert value.item() == 0.0

    def test_large_relevance_gives_a_finite_objective(self):
        y = np.array([20.0, 0.0])
        value = global_objective(y, ad.constant([1.0, 0.0])).item()
        assert np.isfinite(value) and value == 1.0  # single positive ranked first: gain cancels against Z


class TestLocalSurrogate:
    def test_zero_radius_perfect_value(self, rng):
        y = rng.poisson(1.0, size=16).astype(float)
        y[3] = max(y[3], 1.0)
        scores = rng.normal(size=16)
        value = local_objective(y, ad.constant(scores), margin=1.0,
                                radius=0.0, shape=(4, 4))
        assert value.item() == pytest.approx(1.0, abs=1e-12)

    def test_wide_radius_single_positive_matches_global(self, rng):
        y = np.zeros(16)
        y[5] = 2.0
        scores = rng.normal(size=16)
        local = local_objective(y, ad.constant(scores), margin=1.0,
                                radius=10.0, shape=(4, 4)).item()
        global_ = global_objective(y, ad.constant(scores), margin=1.0).item()
        assert local == pytest.approx(global_, abs=1e-12)

    def test_all_zero_day(self):
        value = local_objective(np.zeros(9), ad.constant(np.zeros(9)),
                                margin=1.0, radius=2.0, shape=(3, 3))
        assert value.item() == 0.0

    def test_zero_weight_positives_skipped(self, rng):
        y = rng.poisson(1.0, size=9).astype(float)
        y[[0, 4]] = [2.0, 3.0]
        scores = rng.normal(size=9)
        positives = losses.positive_locations(y)
        weights = np.zeros(positives.size)
        weights[0] = 1.0
        kept = local_objective(y, ad.constant(scores), margin=1.0, radius=1.0, shape=(3, 3))
        masked = local_objective(y, ad.constant(scores), weights=weights,
                                 margin=1.0, radius=1.0, shape=(3, 3))
        assert masked.item() != pytest.approx(kept.item())
        assert np.isfinite(masked.item())


    def test_matches_brute_force(self, rng):
        for trial in range(40):
            rows, cols = int(rng.integers(1, 6)), int(rng.integers(2, 6))
            radius = float(rng.choice([0.0, 1.0, 1.5, 2.0, 9.0]))
            margin = float(rng.uniform(0.5, 1.5))
            y = rng.poisson(0.8, size=rows * cols).astype(float)
            y[0] = max(y[0], 1.0)  # a corner center is always among the positives
            scores = rng.normal(size=rows * cols)
            if trial % 2:
                scores = np.round(scores)  # ties
            weights = rng.choice([0.0, 0.5, 1.0, 2.0], size=int((y > 0).sum()))
            ours = local_objective(y, ad.constant(scores), weights, margin=margin,
                                   radius=radius, shape=(rows, cols)).item()
            reference = brute_l_ndcg_surrogate(y.tolist(), scores.tolist(), weights.tolist(),
                                               margin, radius, rows, cols)
            assert ours == pytest.approx(reference, abs=1e-12)


class TestHybrid:
    def test_extremes_reduce_to_parts(self, rng):
        y, scores = random_instance(rng, n=16)
        y[0] = max(y[0], 1.0)
        tensor = ad.constant(scores)
        cfg0 = losses.SurrogateConfig(local_weight=0.0).validate()
        cfg1 = losses.SurrogateConfig(local_weight=1.0).validate()
        assert losses.hybrid_objective(y, tensor, cfg0).item() == pytest.approx(  # no grid shape needed
            brute_ndcg_surrogate(y.tolist(), scores.tolist(), cfg0.margin))
        assert losses.hybrid_objective(y, tensor, cfg1, shape=(4, 4)).item() == pytest.approx(
            brute_l_ndcg_surrogate(y.tolist(), scores.tolist(), [1.0] * int((y > 0).sum()), 1.0, 2.0, 4, 4))

    def test_linear_in_mix_weight(self, rng):
        y, scores = random_instance(rng, n=16)
        y[0] = max(y[0], 1.0)
        tensor = ad.constant(scores)
        a = global_objective(y, tensor, margin=1.0).item()
        b = local_objective(y, tensor, margin=1.0, radius=2.0, shape=(4, 4)).item()
        cfg = losses.SurrogateConfig(local_weight=0.1).validate()
        mixed = losses.hybrid_objective(y, tensor, cfg, shape=(4, 4)).item()
        assert mixed == pytest.approx(0.9 * a + 0.1 * b, rel=1e-12)

    def test_gradient_against_finite_differences(self, rng):
        cfg = losses.SurrogateConfig(local_weight=0.3).validate()
        checked = 0
        for _ in range(8):
            y = rng.poisson(0.8, size=9).astype(float)
            if not (y > 0).any():
                y[int(rng.integers(0, 9))] = 1.0
            scores = ad.parameter(rng.normal(size=9))
            report = ad.grad_check(lambda: losses.hybrid_objective(y, scores, cfg, shape=(3, 3)),
                                   [scores], eps=1e-5, tol=1e-4)
            assert report.passed, report.max_rel_error
            checked += report.checked - report.kinks
        assert checked >= 60


class TestApplyImportance:
    def test_uniform_distribution_gives_unit_weights(self, rng):
        cfg = losses.SurrogateConfig(weight_mode="weight").validate()
        positives = np.array([2, 5, 11])
        probs = np.full(16, 1.0 / 16)
        weights = losses.apply_importance(positives, probs, cfg, rng)
        assert np.allclose(weights, 1.0)

    def test_point_mass_always_sampled(self, rng):
        cfg = losses.SurrogateConfig(weight_mode="sample", sample_fraction=0.1).validate()
        probs = np.zeros(16)
        probs[5] = 1.0
        for _ in range(20):
            weights = losses.apply_importance(np.array([3, 5, 9]), probs, cfg, rng)
            assert weights[1] == 1.0 and weights.sum() == 1.0

    def test_weight_mode_normalization(self, rng):
        cfg = losses.SurrogateConfig(weight_mode="weight").validate()
        probs = np.array([0.5, 0.25, 0.125, 0.125])
        weights = losses.apply_importance(np.array([0, 1]), probs, cfg, rng)
        expected = probs[:2] * 2 / probs[:2].sum()
        assert np.allclose(weights, expected)

    def test_invalid_distribution_rejected(self, rng):
        cfg = losses.SurrogateConfig().validate()
        with pytest.raises(DataError, match="sums to"):
            losses.apply_importance(np.array([0]), np.array([0.4, 0.4]), cfg, rng)
        with pytest.raises(DataError, match="sums to nan"):
            losses.apply_importance(np.array([0]), np.array([0.5, np.nan]), cfg, rng)

    def test_sample_inclusion_frequencies_track_distribution(self):
        rng = np.random.default_rng(123)
        cfg = losses.SurrogateConfig(weight_mode="sample", sample_fraction=0.2).validate()
        positives = np.array([1, 4, 7, 9])  # fraction 0.2 of 4 -> single draw
        probs = np.zeros(12)
        probs[positives] = [0.4, 0.3, 0.2, 0.1]
        counts = np.zeros(4)
        draws = 20000
        for _ in range(draws):
            counts += losses.apply_importance(positives, probs, cfg, rng)
        empirical = counts / draws
        assert np.abs(empirical - probs[positives]).sum() <= 0.05

    def test_zero_probability_mass_falls_back(self, rng):
        cfg = losses.SurrogateConfig(weight_mode="weight").validate()
        probs = np.zeros(8)
        probs[7] = 1.0
        weights = losses.apply_importance(np.array([0, 1]), probs, cfg, rng)
        assert np.allclose(weights, 1.0)


def test_surrogate_config_validation():
    for margin in (-0.1, 0.0):
        with pytest.raises(ConfigError, match="margin"):
            losses.SurrogateConfig(margin=margin).validate()
    with pytest.raises(ConfigError):
        losses.SurrogateConfig(local_weight=1.2).validate()
    with pytest.raises(ConfigError):
        losses.SurrogateConfig(weight_mode="other").validate()
    with pytest.raises(ConfigError):
        losses.SurrogateConfig(sample_fraction=0.0).validate()
