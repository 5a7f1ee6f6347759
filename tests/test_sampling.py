import numpy as np
import pytest

from gridrank import sampling
from gridrank.errors import DataError, NumericalError


class TestImportanceScores:
    def test_exact_predictions_give_zero(self, rng):
        actual = rng.poisson(1.0, size=(5, 12)).astype(float)
        scores = sampling.importance_scores(actual, actual.copy())
        assert np.array_equal(scores, np.zeros(12))

    def test_unit_error_at_top_ranked_location(self):
        actual = np.array([[3.0, 2.0, 1.0, 0.0]])
        predicted = actual.copy()
        predicted[0, 0] -= 1.0  # |gap| = 1 at the true-rank-1 location
        scores = sampling.importance_scores(actual, predicted)
        assert scores[0] == pytest.approx(1.0, abs=1e-12)  # (2^1 - 1) / log2(2)
        assert np.allclose(scores[1:], 0.0)

    def test_same_error_at_rank_three_halves(self):
        actual = np.array([[3.0, 2.0, 1.0, 0.0]])
        predicted = actual.copy()
        predicted[0, 2] += 1.0  # true rank 3 -> discount log2(4) = 2
        scores = sampling.importance_scores(actual, predicted)
        assert scores[2] == pytest.approx(0.5, abs=1e-12)

    def test_day_average(self):
        actual = np.array([[1.0, 0.0], [1.0, 0.0]])
        predicted = np.array([[0.0, 0.0], [1.0, 0.0]])
        scores = sampling.importance_scores(actual, predicted)
        assert scores[0] == pytest.approx(0.5)  # one errored day out of two


class TestGaussianSmooth:
    def test_point_mass_is_radially_symmetric(self):
        scores = np.zeros(25)
        scores[12] = 1.0  # center of a 5x5 grid
        smoothed = sampling.gaussian_smooth(scores, 1.0, (5, 5)).reshape(5, 5)
        assert np.allclose(smoothed, smoothed[::-1, :], atol=1e-15)
        assert np.allclose(smoothed, smoothed[:, ::-1], atol=1e-15)
        assert np.allclose(smoothed, smoothed.T, atol=1e-15)

    def test_mirror_masses_give_mirror_field(self):
        scores = np.zeros(20)
        scores[0] = 1.0
        scores[4] = 1.0  # column 4 mirrors column 0 on a 4x5 grid
        smoothed = sampling.gaussian_smooth(scores, 0.8, (4, 5)).reshape(4, 5)
        assert np.allclose(smoothed, smoothed[:, ::-1], atol=1e-15)

    def test_near_delta_kernel_preserves_argmax(self, rng):
        scores = rng.uniform(0.1, 1.0, size=36)
        smoothed = sampling.gaussian_smooth(scores, 0.01, (6, 6))
        assert np.argmax(smoothed) == np.argmax(scores)
        # Off-diagonal kernel entries are at most exp(-1 / (2 * 0.01**2)) = exp(-5000),
        # which underflows to 0.0 in float64, so the kernel is exactly I.
        dist = smoothed / smoothed.sum()
        assert np.abs(dist - scores / scores.sum()).max() <= 1e-12

    def test_matches_dense_kernel_on_non_square_grid(self, rng):
        rows, cols, bandwidth = 3, 5, 1.3
        scores = rng.uniform(0, 3, size=rows * cols)
        rr, cc = np.divmod(np.arange(rows * cols), cols)
        sq = (rr[:, None] - rr[None, :]) ** 2 + (cc[:, None] - cc[None, :]) ** 2
        dense = np.exp(-sq / (2 * bandwidth ** 2))
        smoothed = sampling.gaussian_smooth(scores, bandwidth, (rows, cols))
        assert np.abs(smoothed - dense @ scores).max() <= 1e-12 * np.abs(dense @ scores).max()


class TestNormalize:
    def test_simple_proportions(self):
        dist = sampling.normalize(np.array([1.0, 1.0, 2.0]))
        assert np.allclose(dist.probs, [0.25, 0.25, 0.5])

    def test_zero_scores_fall_back_to_uniform(self):
        dist = sampling.normalize(np.zeros(8))
        assert np.allclose(dist.probs, 1.0 / 8)

    def test_sums_to_one(self, rng):
        for _ in range(20):
            dist = sampling.normalize(rng.uniform(0, 5, size=30))
            assert abs(dist.probs.sum() - 1.0) <= 1e-12

    def test_negative_entry_rejected(self):
        with pytest.raises(DataError, match="non-negative"):
            sampling.normalize(np.array([1.0, -0.1]))

    def test_nan_entry_rejected(self):
        """A NaN sum fails the check: an overflowing kernel constant once let NaN through."""
        with pytest.raises(DataError, match="sum to nan"):
            sampling.ImportanceDist(probs=np.array([0.5, np.nan])).validate()


class TestPipeline:
    def test_kernel_constant_cancels_under_normalization(self, rng):
        """Same probabilities with or without the kernel's 1/(2 pi b^2) factor."""
        scores = rng.uniform(0, 3, size=16)
        bandwidth = 1.3
        dist = sampling.normalize(sampling.gaussian_smooth(scores, bandwidth, (4, 4)))

        rr, cc = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
        coords = np.stack([rr.reshape(-1), cc.reshape(-1)], axis=1).astype(float)
        sq = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2)
        unnormalized_kernel = np.exp(-sq / (2 * bandwidth ** 2))  # constant dropped
        reference = unnormalized_kernel @ scores
        reference = reference / reference.sum()
        assert np.abs(dist.probs - reference).max() <= 1e-12

    def test_monotone_in_raw_score(self, rng):
        scores = rng.uniform(0.1, 1.0, size=16)
        base = sampling.normalize(sampling.gaussian_smooth(scores, 1.0, (4, 4)))
        bumped_scores = scores.copy()
        bumped_scores[5] += 2.0
        bumped = sampling.normalize(sampling.gaussian_smooth(bumped_scores, 1.0, (4, 4)))
        assert bumped.probs[5] > base.probs[5]

    def test_refresh_is_pure(self, rng):
        actual = rng.poisson(1.0, size=(6, 16)).astype(float)
        predicted = rng.normal(size=(6, 16))
        a = sampling.refresh(actual, predicted, 1.0, (4, 4))
        b = sampling.refresh(actual, predicted, 1.0, (4, 4))
        assert np.array_equal(a.probs, b.probs)

    @pytest.mark.parametrize("gap", [1024.5, 1100.0])
    def test_overflowing_gap_is_a_numerical_error(self, gap):
        actual = np.zeros((2, 16))
        actual[:, 3] = 1.0
        predicted = np.zeros((2, 16))
        predicted[1, 5] = -gap
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match=rf"largest \|risk - score\| {gap:g}\)$"):
            sampling.refresh(actual, predicted, 1.0, (4, 4))
        predicted[1, 5] = -1000.0  # 2^1000 is finite
        assert np.isfinite(sampling.refresh(actual, predicted, 1.0, (4, 4)).probs).all()
