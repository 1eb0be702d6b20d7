"""Weighted samples, importance sampling, ESS and resampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bayescomp.core import (CHUNK_ROWS, DegenerateWeightsError, MvnParams, RngStream,
                            log_sum_exp)
from bayescomp.montecarlo import (
    GaussianProposal,
    WeightedSample,
    ess,
    importance_sample,
    kernel_mixture_logpdf,
    sample_estimates,
    sir_resample,
)


class TestWeightedSample:
    def test_normalised_weights_sum_to_one(self):
        ws = WeightedSample(points=np.zeros((4, 1)),
                            log_weights=np.array([0.0, 1.0, -2.0, 0.5]))
        assert np.sum(ws.normalized_weights()) == pytest.approx(1.0)

    def test_all_degenerate_rejected(self):
        with pytest.raises(DegenerateWeightsError):
            WeightedSample(points=np.zeros((2, 1)),
                           log_weights=np.array([-np.inf, -np.inf]))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            WeightedSample(points=np.zeros((2, 1)),
                           log_weights=np.array([0.0, np.nan]))


class TestEss:
    def test_uniform_weights(self):
        ws = WeightedSample(points=np.zeros((10, 1)), log_weights=np.zeros(10))
        assert ess(ws) == pytest.approx(10.0)

    def test_single_survivor(self):
        lw = np.full(10, -np.inf)
        lw[3] = 0.0
        ws = WeightedSample(points=np.zeros((10, 1)), log_weights=lw)
        assert ess(ws) == pytest.approx(1.0)

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=20),
           st.floats(-100, 100))
    @settings(max_examples=100, deadline=None)
    def test_shift_invariance(self, lw, shift):
        pts = np.zeros((len(lw), 1))
        a = ess(WeightedSample(points=pts, log_weights=np.asarray(lw)))
        b = ess(WeightedSample(points=pts,
                               log_weights=np.asarray(lw) + shift))
        assert a == pytest.approx(b, rel=1e-9)


class TestImportanceSampling:
    def test_gaussian_mean_recovery(self):
        target = GaussianProposal(MvnParams(np.array([1.0]), np.array([[1.0]])))
        proposal = GaussianProposal(MvnParams(np.zeros(1), np.array([[4.0]])))
        ws = importance_sample(target.logpdf_many, proposal.logpdf_many,
                               proposal.draw_many, 20_000, RngStream(1, 0))
        est, se = sample_estimates(["x"], ws.points, ws.normalized_weights())
        assert est["mean_x"] == pytest.approx(1.0, abs=3 * se["mean_x"])

    def test_matched_proposal_unit_weights(self):
        target = GaussianProposal(MvnParams(np.zeros(2), np.eye(2)))
        ws = importance_sample(target.logpdf_many, target.logpdf_many,
                               target.draw_many, 100, RngStream(2, 0))
        assert np.allclose(ws.log_weights, 0.0, atol=1e-12)
        assert ess(ws) == pytest.approx(100.0)

    def test_zero_density_proposal_rejected(self):
        def bad_logpdf(thetas):
            return np.full(len(thetas), -np.inf)

        with pytest.raises(RuntimeError):
            importance_sample(lambda t: np.zeros(len(t)), bad_logpdf,
                              lambda n, rng: rng.uniform((n, 1)),
                              10, RngStream(3, 0))

    def test_plain_draws_clt_error(self):
        draws = RngStream(4, 0).standard_normal(10_000)[:, None]
        est, se = sample_estimates(["x"], draws, n_eff=len(draws))
        assert est["mean_x"] == pytest.approx(0.0, abs=3 * se["mean_x"])
        assert se["mean_x"] == pytest.approx(1.0 / 100.0, rel=0.1)


class TestSampleEstimates:
    # three points under weights 0.2, 0.5 and 0.3
    POINTS = np.array([[1.0, 2.0], [3.0, -1.0], [0.0, 5.0]])
    WEIGHTS = np.array([0.2, 0.5, 0.3])

    def test_weighted_sample_is_the_formulas_by_hand(self):
        # x = (1, 3, 0): m = 1.7, (x - m)^2 = (0.49, 1.69, 2.89);
        # y = (2, -1, 5): m = 1.4, (y - m)^2 = (0.36, 5.76, 12.96)
        est, se = sample_estimates(["x", "y"], self.POINTS, self.WEIGHTS)
        by_hand = {
            "mean_x": 0.2 * 1 + 0.5 * 3 + 0.3 * 0,
            "sd_x": np.sqrt(0.2 * 0.49 + 0.5 * 1.69 + 0.3 * 2.89),
            "mean_y": 0.2 * 2 + 0.5 * -1 + 0.3 * 5,
            "sd_y": np.sqrt(0.2 * 0.36 + 0.5 * 5.76 + 0.3 * 12.96),
        }
        assert est == pytest.approx(by_hand, rel=1e-14)
        assert set(est) == set(by_hand)
        assert se == pytest.approx({
            "mean_x": np.sqrt(0.04 * 0.49 + 0.25 * 1.69 + 0.09 * 2.89),
            "mean_y": np.sqrt(0.04 * 0.36 + 0.25 * 5.76 + 0.09 * 12.96)}, rel=1e-14)
        assert set(se) == {"mean_x", "mean_y"}

    def test_weighted_error_ignores_n_eff(self):
        assert (sample_estimates(["x", "y"], self.POINTS, self.WEIGHTS, n_eff=7)
                == sample_estimates(["x", "y"], self.POINTS, self.WEIGHTS))

    def test_plain_draws_keep_each_columns_own_bits(self):
        # a chain's (n, k) states: each column's own mean and ddof-1 SD,
        # bit for bit, and no error without an effective size
        states = np.cumsum(RngStream(9, 0).standard_normal((1001, 3)), axis=0)
        est, se = sample_estimates(["a", "b", "c"], states)
        assert se == {}
        for i, name in enumerate("abc"):
            assert est[f"mean_{name}"] == float(states[:, i].mean())
            assert est[f"sd_{name}"] == float(states[:, i].std(ddof=1))
        _, se = sample_estimates(["a", "b", "c"], states, n_eff=250)
        assert se == {f"mean_{n}": est[f"sd_{n}"] / np.sqrt(250) for n in "abc"}

    @pytest.mark.parametrize("names,points", [
        (["x"], np.zeros((5, 2))),
        (["x", "y", "z"], np.zeros((5, 2))),
        (["x"], np.zeros(5)),
    ])
    def test_one_name_per_column(self, names, points):
        with pytest.raises(ValueError, match="one name per column"):
            sample_estimates(names, points)


class TestSirResample:
    def test_resampled_frequencies_track_weights(self):
        pts = np.arange(3, dtype=float)[:, None]
        ws = WeightedSample(points=pts,
                            log_weights=np.log([0.2, 0.5, 0.3]))
        out = sir_resample(ws, 100_000, RngStream(5, 0))
        freq = np.bincount(out[:, 0].astype(int), minlength=3) / len(out)
        assert np.allclose(freq, [0.2, 0.5, 0.3], atol=0.01)

    def test_degenerate_warns(self):
        lw = np.array([-np.inf, 0.0])
        ws = WeightedSample(points=np.array([[1.0], [2.0]]), log_weights=lw)
        with pytest.warns(RuntimeWarning):
            out = sir_resample(ws, 50, RngStream(6, 0))
        assert np.all(out == 2.0)


class TestGaussianProposal:
    def test_logpdf_matches_scipy(self):
        cov = np.array([[2.0, 0.3], [0.3, 0.5]])
        mean = np.array([1.0, -2.0])
        prop = GaussianProposal(MvnParams(mean, cov))
        oracle = stats.multivariate_normal(mean, cov).logpdf
        pts = np.array([[0.0, 0.0], [1.0, -2.0], [3.0, 1.0]])
        assert np.allclose(prop.logpdf_many(pts), oracle(pts), rtol=1e-12)
        assert np.allclose(MvnParams(mean, cov).logpdf_many(pts), oracle(pts),
                           rtol=1e-12)

    @pytest.mark.parametrize("n", [1, 20, 300])
    def test_rows_match_one_row_calls(self, n):
        params = MvnParams(np.array([1.0, -2.0, 0.5]),
                           np.array([[2.0, 0.3, 0.1], [0.3, 0.5, 0.05],
                                     [0.1, 0.05, 1.0]]))
        pts = RngStream(8, 0).standard_normal((n, 3))
        singles = [params.logpdf_many(pts[i:i + 1])[0] for i in range(n)]
        np.testing.assert_array_equal(params.logpdf_many(pts), singles)

    def test_singular_covariance_has_no_density(self):
        # rank 2, but with a positive diagonal in its eigendecomposition factor
        cov = np.array([[2.0, -1.0, -2.0], [-1.0, 5.0, 4.0], [-2.0, 4.0, 4.0]])
        params = MvnParams(np.zeros(3), cov)
        with pytest.raises(ValueError, match="singular"):
            params.logpdf_many(np.zeros((1, 3)))
        with pytest.raises(ValueError, match="positive definite"):
            GaussianProposal(params)

    def test_kernel_mixture_matches_direct_sum(self):
        # more points than one evaluation block, against a per-point loop
        rng = RngStream(7, 0)
        points = rng.standard_normal((300, 2))
        centers = rng.standard_normal((40, 2))
        log_w = np.log(rng.uniform(40))
        cov = np.array([[0.5, 0.1], [0.1, 0.3]])
        kernel = GaussianProposal(MvnParams(np.zeros(2), cov))
        oracle = stats.multivariate_normal(np.zeros(2), cov)
        direct = [np.log(np.sum(np.exp(log_w) * oracle.pdf(x - centers)))
                  for x in points]
        assert np.allclose(kernel_mixture_logpdf(points, centers, log_w, kernel),
                           direct, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_kernel_mixture_bits_equal_the_broadcast_form(self, dim):
        # the per-coordinate fold against the (points x centres x dim)
        # table summed over its last axis, on more points than one block
        rng = RngStream(8, dim)
        n = 2 * CHUNK_ROWS + 37
        points = rng.standard_normal((n, dim))
        centers = rng.standard_normal((50, dim))
        log_w = rng.standard_normal(50)
        a = rng.standard_normal((dim, dim))
        kernel = GaussianProposal(MvnParams(rng.standard_normal(dim), a @ a.T + np.eye(dim)))
        u = kernel.params.whiten(points)[:, None, :] - kernel.params.whiten(
            centers + kernel.params.mean)[None, :, :]
        broadcast = log_sum_exp(kernel.params.logpdf_whitened(u) + log_w[None, :], axis=1)
        assert np.array_equal(kernel_mixture_logpdf(points, centers, log_w, kernel), broadcast)

    def test_from_moments_scale(self):
        base = GaussianProposal.from_moments(np.zeros(1), np.eye(1))
        wide = GaussianProposal.from_moments(np.zeros(1), np.eye(1), scale=4.0)
        x = np.array([[2.0]])
        # scale multiplies the covariance, so the wide density is flatter
        assert wide.logpdf_many(x)[0] > base.logpdf_many(x)[0]
