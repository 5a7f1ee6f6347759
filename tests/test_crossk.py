import math

import numpy as np
import pytest

from gridrank import crossk
from gridrank.errors import DataError

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
