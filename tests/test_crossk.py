import math
import tracemalloc

import numpy as np
import pytest

from gridrank import crossk
from gridrank.errors import DataError

from oracles import csr_envelope_loop, pairwise_cross_k

SHAPE = (5, 6)
DISTANCES = np.arange(0.0, 4.01, 0.5)


def brute_cross_k(pred, true, distances, area):
    values = []
    for d in distances:
        pairs = sum(1 for t in true for p in pred if math.dist(t, p) <= d)
        values.append(area / len(pred) * pairs / len(true))
    return values


def day_matrices(rng, days=4):
    actual = rng.poisson(0.4, size=(days, 30)).astype(float)
    actual[:, 7] += 1.0  # every day has events
    return actual, rng.normal(size=(days, 30))


def test_cross_k_matches_brute_force_pair_count(rng):
    for _ in range(20):
        pred = rng.integers(0, 6, size=(int(rng.integers(1, 8)), 2)).astype(float)
        true = rng.integers(0, 6, size=(int(rng.integers(1, 8)), 2)).astype(float)
        ours = crossk.cross_k(pred, true, DISTANCES, 30.0)
        assert ours == pytest.approx(brute_cross_k(pred.tolist(), true.tolist(), DISTANCES, 30.0), abs=1e-12)


def test_cells_follow_row_major_locations():
    risk = np.zeros(30)
    risk[[0, 7, 29]] = 1.0
    assert crossk.event_cells(risk, SHAPE).tolist() == [[0, 0], [1, 1], [4, 5]]
    assert crossk.top_k_cells(-np.arange(30.0), 2, SHAPE).tolist() == [[0, 0], [0, 1]]


def test_envelope_is_deterministic_per_seed_and_ordered(rng):
    true = crossk.event_cells(day_matrices(rng)[0][0], SHAPE)
    first = crossk.csr_envelope(5, true, DISTANCES, SHAPE, n_sim=20, seed=3)
    again = crossk.csr_envelope(5, true, DISTANCES, SHAPE, n_sim=20, seed=3)
    other = crossk.csr_envelope(5, true, DISTANCES, SHAPE, n_sim=20, seed=4)
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not all(np.array_equal(a, b) for a, b in zip(first, other))
    for method in crossk.ENVELOPE_METHODS:
        lo, hi = crossk.csr_envelope(5, true, DISTANCES, SHAPE, n_sim=20, seed=3, method=method)
        assert np.all(lo <= hi)


# unsorted, repeated, 0, off the 0.5 lattice, negative, beyond the 7x9 grid's
# diagonal (10), and square roots of integers with their neighbouring floats.
# np.sqrt(13.0) squares to just under 13, so as the largest distance it
# checks that squared distance floor(max d^2) + 1 is still counted.
ODD_DISTANCES = np.array([2.5, 0.0, 1.3, 1.3, -1.0, 12.0, 3.7, 0.5, 10.0,
                          np.sqrt(3.0), np.nextafter(np.sqrt(3.0), 0.0), np.sqrt(2.0),
                          np.nextafter(np.sqrt(5.0), 0.0), np.sqrt(5.0), np.sqrt(13.0)])


@pytest.mark.parametrize("method", crossk.ENVELOPE_METHODS)
@pytest.mark.parametrize("distances", [DISTANCES, ODD_DISTANCES, np.array([-0.5, 0.9]), np.array([1.0]),
                                       np.array([0.5, np.sqrt(13.0)]), np.array([-2.0]),
                                       np.array([1.0, 15.0, 40.0])],
                         ids=["lattice", "odd", "short", "one", "root-13-largest", "negative-only",
                              "past-the-diagonal"])
def test_envelope_equals_the_per_simulation_loop(rng, method, distances):
    for shape in [(7, 9), (1, 12), (12, 1)]:
        rows, cols = shape
        size = rows * cols
        # the four corners, and the middle cell of the first row and of the first column
        rim = np.isin(np.arange(size), [0, cols - 1, size - cols, size - 1, cols // 2, rows // 2 * cols])
        for n_pred in range(1, 11):
            risk = rng.poisson(0.3, size=size) + (np.arange(size) == n_pred) + rim * (n_pred % 2)
            true = crossk.event_cells(risk, shape)
            got = crossk.csr_envelope(n_pred, true, distances, shape, n_sim=15, seed=n_pred, method=method)
            want = csr_envelope_loop(n_pred, true, distances, shape, n_sim=15, seed=n_pred, method=method)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)


@pytest.mark.parametrize("method", crossk.ENVELOPE_METHODS)
def test_envelope_counts_true_points_off_the_grid(rng, method):
    shape = (6, 8)
    distances = np.array([0.0, 1.0, 1.5, 2.0, 3.0, np.sqrt(13.0), 5.0])
    for n_pred in range(1, 8):
        # beside the grid, within reach of it, and far beyond every distance
        true = np.concatenate([crossk.event_cells(rng.poisson(0.3, size=48), shape),
                               rng.integers(-6, 14, size=(4, 2)), [[-30, 4], [2, 40]]])
        for points in (true, true.astype(float)):
            got = crossk.csr_envelope(n_pred, points, distances, shape, n_sim=15, seed=n_pred, method=method)
            want = csr_envelope_loop(n_pred, points, distances, shape, n_sim=15, seed=n_pred, method=method)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)


@pytest.mark.parametrize("distances", [DISTANCES, ODD_DISTANCES, np.array([-0.5, 0.9]), np.array([1.0]),
                                       np.array([0.5, np.sqrt(13.0)]), np.array([-2.0])],
                         ids=["lattice", "odd", "short", "one", "root-13-largest", "negative-only"])
def test_cross_k_equals_the_float_pairwise_count(rng, distances):
    for n_pred in range(1, 11):
        true = rng.integers(0, 9, size=(int(rng.integers(1, 12)), 2))
        for pred in rng.integers(0, 9, size=(6, n_pred, 2)):
            want = pairwise_cross_k(pred, true, distances, 63.0)
            assert np.array_equal(crossk.cross_k(pred, true, distances, 63.0), want)
            assert np.array_equal(crossk.cross_k(pred.astype(float), true.astype(float), distances, 63.0), want)


def test_large_envelope_matches_the_loop_in_per_simulation_memory(rng):
    shape = (32, 32)
    true = crossk.event_cells(rng.poisson(0.25, size=1024), shape)
    distances = np.arange(0.0, 12.01, 1.0)
    tracemalloc.start()
    try:
        got = crossk.csr_envelope(500, true, distances, shape, n_sim=120, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = csr_envelope_loop(500, true, distances, shape, n_sim=120, seed=4)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    # a few (true, pred) int64 arrays, where all 120 simulations at once would be 120
    assert peak < 8 * true.shape[0] * 500 * 8


def test_event_free_days_are_skipped(rng):
    actual, predicted = day_matrices(rng)
    base = crossk.daily_average_curve(actual, predicted, 5, DISTANCES, SHAPE, n_sim=10)
    padded = crossk.daily_average_curve(np.vstack([actual, np.zeros(30)]),
                                        np.vstack([predicted, rng.normal(size=30)]),
                                        5, DISTANCES, SHAPE, n_sim=10)
    for name in ("values", "lo", "hi"):
        assert np.array_equal(getattr(base, name), getattr(padded, name))


def test_no_day_with_events_is_a_data_error(rng):
    with pytest.raises(DataError, match="no day with events"):
        crossk.daily_average_curve(np.zeros((3, 30)), rng.normal(size=(3, 30)), 5, DISTANCES, SHAPE)


def test_daily_curve_allows_repeated_distances(rng):
    actual, predicted = day_matrices(rng)
    curve = crossk.daily_average_curve(actual, predicted, 5, [0.0, 1.0, 1.0, 2.0], SHAPE, n_sim=10)
    assert curve.values[1] == curve.values[2]
