import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridrank import grid, metrics
from gridrank.errors import DataError
from oracles import (brute_l_ndcg, brute_ndcg, brute_neighborhood, brute_order, brute_rank,
                     metric_report_per_cutoff)


class TestRankOf:
    def test_highest_score_is_rank_one(self):
        assert metrics.ranks(np.array([5.0, 3.0, 9.0]))[2] == 1

    def test_tie_broken_by_index(self):
        assert metrics.ranks(np.array([5.0, 5.0, 3.0]))[1] == 2

    def test_all_tied(self):
        assert metrics.ranks(np.array([0.0, 0.0, 0.0]))[0] == 1

    def test_matches_brute_force(self, rng):
        for _ in range(50):
            scores = rng.integers(0, 4, size=12).astype(float)
            got = metrics.ranks(scores)
            for location in range(12):
                assert got[location] == brute_rank(scores.tolist(), location)


class TestDescendingOrder:
    def test_full_permutation(self, rng):
        scores = rng.normal(size=16)
        order = metrics.descending_order(scores)
        assert sorted(order.tolist()) == list(range(16))
        assert np.all(np.diff(scores[order]) <= 0.0)

    def test_ties_order_by_index(self, rng):
        assert metrics.descending_order(np.zeros(5)).tolist() == [0, 1, 2, 3, 4]
        for _ in range(20):
            scores = rng.integers(0, 3, size=12).astype(float)
            assert metrics.descending_order(scores).tolist() == brute_order(scores.tolist())


class TestNdcg:
    def test_perfect_ranking(self):
        y = np.array([3.0, 1.0, 0.0, 2.0])
        assert metrics.ndcg_at_k(y, y.copy(), 4) == pytest.approx(1.0)

    def test_two_item_swap_value(self):
        value = metrics.ndcg_at_k(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 2)
        assert value == pytest.approx(1.0 / math.log2(3.0), abs=1e-12)
        assert value == pytest.approx(0.63093, abs=1e-5)

    def test_all_zero_relevance_undefined(self):
        assert metrics.ndcg_at_k(np.zeros(4), np.arange(4.0), 2) is None

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="length mismatch"):
            metrics.ndcg_at_k(np.zeros(3), np.zeros(4), 2)

    def test_cutoff_bounds(self):
        with pytest.raises(DataError):
            metrics.ndcg_at_k(np.ones(3), np.ones(3), 4)

    def test_uncut_matches_brute_force(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 26))
            y = rng.poisson(0.8, size=n).astype(float)
            scores = rng.normal(size=n)
            ours = metrics.ndcg_at_k(y, scores, n)
            reference = brute_ndcg(y.tolist(), scores.tolist(), n)
            if reference is None:
                assert ours is None
            else:
                assert ours == pytest.approx(reference, abs=1e-12)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_argsort_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 15))
        y = rng.poisson(1.0, size=n).astype(float)
        scores = rng.normal(size=n)
        k = int(rng.integers(1, n + 1))
        base = metrics.ndcg_at_k(y, scores, k)
        monotone = metrics.ndcg_at_k(y, 3.0 * scores + 7.0, k)
        if base is None:
            assert monotone is None
        else:
            assert monotone == pytest.approx(base, abs=1e-12)
            assert 0.0 <= base <= 1.0 + 1e-12


class TestLocalNdcg:
    def test_zero_radius_is_one_when_any_event(self):
        y = np.array([0.0, 2.0, 0.0, 1.0])
        scores = np.array([5.0, 1.0, 2.0, 0.0])
        assert metrics.l_ndcg(y, scores, 0.0, (2, 2)) == pytest.approx(1.0)

    def test_uniform_positive_relevance_is_one(self, rng):
        y = np.full(16, 2.0)
        scores = rng.normal(size=16)
        assert metrics.l_ndcg(y, scores, 2.0, (4, 4)) == pytest.approx(1.0)

    def test_all_zero_undefined(self):
        assert metrics.l_ndcg(np.zeros(16), np.ones(16), 2.0, (4, 4)) is None

    def test_matches_brute_force_on_random_grids(self, rng):
        for trial in range(40):
            rows, cols = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            radius = float(rng.choice([0.0, 1.0, 1.5, 2.0]))
            k = [None, 1, 3, 10][trial % 4]
            y = rng.poisson(0.6, size=rows * cols).astype(float)
            scores = rng.normal(size=rows * cols)
            if trial % 8 >= 4:
                scores = np.round(scores)  # ties, broken by ascending location
            ours = metrics.l_ndcg(y, scores, radius, (rows, cols), k=k)
            reference = brute_l_ndcg(y.tolist(), scores.tolist(), radius, rows, cols, k=k)
            if reference is None:
                assert ours is None
            else:
                assert ours == pytest.approx(reference, abs=1e-12)

    def test_radius_covering_grid_equals_global_ndcg(self, rng):
        y = rng.poisson(1.0, size=25).astype(float)
        y[3] = 2.0
        scores = rng.normal(size=25)
        wide = metrics.l_ndcg(y, scores, 10.0, (5, 5))
        assert wide == pytest.approx(metrics.ndcg_at_k(y, scores, 25), abs=1e-12)


def stencil_lists(rows, cols, radius):
    members, mask = grid.neighbourhood_stencil(rows, cols, radius)
    return [row[keep].tolist() for row, keep in zip(members, mask)]


class TestNeighborhoods:
    def test_center_membership_and_symmetry(self):
        hoods = stencil_lists(4, 5, 2.0)
        for center, members in enumerate(hoods):
            assert center in members
            for member in members:
                assert center in hoods[member]

    def test_radius_two_neighborhood_size(self):
        hoods = stencil_lists(5, 5, 2.0)
        assert len(hoods[12]) == 13  # interior cell: 5x5 diamond-with-corners

    @pytest.mark.parametrize("rows,cols", [(1, 1), (1, 6), (4, 5), (7, 3), (6, 6)])
    @pytest.mark.parametrize("radius", [0.0, 1.5, 2.0, 9.0])
    def test_matches_brute_force(self, rows, cols, radius):
        members, mask = grid.neighbourhood_stencil(rows, cols, radius)
        expected = [brute_neighborhood(c, rows, cols, radius) for c in range(rows * cols)]
        assert stencil_lists(rows, cols, radius) == expected  # ascending location order
        assert members.shape[1] == max(len(m) for m in expected)
        assert not members[~mask].any()

    def test_cached_arrays_are_read_only(self):
        members, mask = grid.neighbourhood_stencil(4, 4, 1.0)
        assert grid.neighbourhood_stencil(4, 4, 1.0)[0] is members
        with pytest.raises(ValueError):
            members[0, 0] = 3
        with pytest.raises(ValueError):
            mask[0, 0] = False


def precision(relevance, scores, k):
    """prec@k of one day, from ``metric_report`` on a one-row grid."""
    report = metrics.metric_report(np.atleast_2d(relevance), np.atleast_2d(scores), [k], (1, len(relevance)))
    return report.lookup("prec", k).per_day[0]


def brute_precision(relevance, scores, k):
    """The share of the top-k scored locations with positive relevance."""
    return sum(relevance[location] > 0 for location in brute_order(scores)[:k]) / k


class TestPrecision:
    def test_all_hits(self):
        assert precision(np.array([1.0, 2.0, 0.0]), np.array([3.0, 2.0, 1.0]), 2) == 1.0

    def test_all_zero_relevance(self):
        assert precision(np.zeros(4), np.arange(4.0), 2) == 0.0

    def test_half_hits(self):
        y = np.array([2.0, 0.0, 1.0, 0.0])
        scores = np.array([9.0, 8.0, 7.0, 6.0])
        assert precision(y, scores, 2) == 0.5

    def test_positive_relabeling_invariance(self, rng):
        y = rng.poisson(0.7, size=20).astype(float)
        scores = rng.normal(size=20)
        boosted = np.where(y > 0, y * 13.0 + 1.0, 0.0)
        for k in (1, 5, 20):
            assert precision(y, scores, k) == precision(boosted, scores, k)


class TestMetricReport:
    def test_oracle_predictions_hit_one(self, rng):
        actual = rng.poisson(1.0, size=(6, 16)).astype(float)
        actual[:, 2] += 1.0  # ensure every day has events
        report = metrics.metric_report(actual, actual.copy(), [1, 4, 16], (4, 4))
        for k in (1, 4, 16):
            assert report.lookup("ndcg", k).mean == pytest.approx(1.0)

    def test_constant_predictions_equal_index_order(self, rng):
        actual = rng.poisson(1.0, size=(4, 16)).astype(float)
        actual[:, 5] += 1.0
        constant = np.zeros((4, 16))
        index_order = np.tile(-np.arange(16.0), (4, 1))
        a = metrics.metric_report(actual, constant, [4], (4, 4))
        b = metrics.metric_report(actual, index_order, [4], (4, 4))
        assert a.lookup("ndcg", 4).mean == pytest.approx(b.lookup("ndcg", 4).mean, abs=1e-12)

    def test_cutoff_above_location_count_is_error(self, rng):
        actual = rng.poisson(1.0, size=(2, 16)).astype(float)
        with pytest.raises(DataError, match="outside"):
            metrics.metric_report(actual, actual, [17], (4, 4))

    def test_split_mismatch(self, rng):
        with pytest.raises(DataError, match="split mismatch"):
            metrics.metric_report(np.zeros((3, 16)), np.zeros((2, 16)), [4], (4, 4))

    def test_undefined_days_excluded(self):
        actual = np.zeros((3, 4))
        actual[0] = [1.0, 0.0, 0.0, 2.0]
        predicted = np.random.default_rng(0).normal(size=(3, 4))
        report = metrics.metric_report(actual, predicted, [2], (2, 2))
        ndcg = report.lookup("ndcg", 2)
        assert ndcg.per_day[1] is None and ndcg.per_day[2] is None
        assert ndcg.mean == pytest.approx(ndcg.per_day[0])

    def test_serialization_round_trip(self, rng, tmp_path):
        actual = rng.poisson(1.0, size=(3, 9)).astype(float)
        actual[:, 0] += 1.0
        report = metrics.metric_report(actual, actual + 0.1, [3], (3, 3))
        payload = report.to_json_dict()
        assert {m["metric"] for m in payload["metrics"]} == {"ndcg", "prec", "lndcg"}
        json_path = report.write_json(tmp_path / "r.json")
        csv_path = report.write_csv(tmp_path / "r.csv")
        assert json_path.exists() and csv_path.exists()
        assert csv_path.read_text().splitlines()[0] == "metric,K,mean,std"


def oracle_days(rng, side, days=7):
    """Days of relevance and scores with the cases that ordering can get
    wrong: tied scores, +0.0 beside -0.0, repeated blocks, and a day
    without events."""
    size = side * side
    actual = rng.poisson(0.4, size=(days, size)).astype(float)
    actual[3] = 0.0
    predicted = rng.normal(size=(days, size))
    predicted[1] = np.round(predicted[1])
    predicted[2] = np.where(rng.random(size) < 0.5, 0.0, -0.0)
    predicted[4, size // 2:] = predicted[4, :size - size // 2]
    predicted[5] = 1.0
    return actual, predicted


class TestMetricReportOracle:
    @pytest.mark.parametrize("side", [8, 32])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bits_equal_the_per_cutoff_report(self, side, seed):
        actual, predicted = oracle_days(np.random.default_rng(seed), side)
        ks = [1, 5, 10, 13, 20, side * side]
        for radius in (0.0, 1.5, 2.0, 3.0):
            got = metrics.metric_report(actual, predicted, ks, (side, side), radius)
            assert got.to_json_dict() == metric_report_per_cutoff(actual, predicted, ks, (side, side), radius)

    def test_a_repeated_cutoff_gives_two_summaries_in_order(self, rng):
        actual, predicted = oracle_days(rng, 8)
        report = metrics.metric_report(actual, predicted, [10, 3, 10], (8, 8), day_periods=list(range(5, 12)))
        assert [(s.metric, s.k) for s in report.summaries] == [
            (name, k) for k in (10, 3, 10) for name in ("ndcg", "prec", "lndcg")]
        assert report.to_json_dict() == metric_report_per_cutoff(actual, predicted, [10, 3, 10], (8, 8),
                                                                 metrics.EVAL_RADIUS, list(range(5, 12)))

    def test_single_day_calls_equal_the_report(self, rng):
        actual, predicted = oracle_days(rng, 8)
        report = metrics.metric_report(actual, predicted, [4, 64], (8, 8), 2.0)
        for k in (4, 64):
            for d in range(actual.shape[0]):
                assert metrics.ndcg_at_k(actual[d], predicted[d], k) == report.lookup("ndcg", k).per_day[d]
                assert brute_precision(actual[d], predicted[d], k) == report.lookup("prec", k).per_day[d]
                assert metrics.l_ndcg(actual[d], predicted[d], 2.0, (8, 8), k=k) == \
                    report.lookup("lndcg", k).per_day[d]


class TestMetricReportInputs:
    def test_negative_radius(self, rng):
        with pytest.raises(DataError, match="radius must be non-negative, got -1.0"):
            metrics.metric_report(np.ones((2, 16)), rng.normal(size=(2, 16)), [4], (4, 4), radius=-1.0)

    def test_grid_shape_must_hold_every_location(self, rng):
        with pytest.raises(DataError, match=r"shape mismatch: relevance \(16,\), scores \(16,\), grid \(3, 5\)"):
            metrics.metric_report(np.ones((2, 16)), rng.normal(size=(2, 16)), [4], (3, 5))

    @pytest.mark.parametrize("periods", [[7], [7, 8, 9], []])
    def test_day_periods_must_name_every_day(self, rng, periods):
        with pytest.raises(DataError, match=f"day_periods has {len(periods)} entries for 2 days"):
            metrics.metric_report(np.ones((2, 16)), rng.normal(size=(2, 16)), [4], (4, 4), day_periods=periods)
