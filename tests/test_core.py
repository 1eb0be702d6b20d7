"""Primitive layer: streams, Gaussian kernels, log-sum-exp, log Phi,
truncated normals, categorical draws."""

import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from bayescomp.core import (
    DegenerateWeightsError,
    MvnParams,
    RngStream,
    categorical_cdf,
    log_ndtr,
    log_sum_exp,
    rowwise,
    sample_categorical_many,
    sample_mvn_many,
    sample_truncated_normal,
    truncated_normal_positive,
    truncated_normal_vector,
    uniform_complements,
)
from bayescomp.probit import ProbitModel, probit_loglik_many


class TestRngStream:
    def test_same_key_same_draws(self):
        a = RngStream(42, 7).uniform(10)
        b = RngStream(42, 7).uniform(10)
        assert np.array_equal(a, b)

    def test_distinct_streams_distinct_draws(self):
        a = RngStream(42, 0).uniform(10)
        b = RngStream(42, 1).uniform(10)
        assert not np.array_equal(a, b)

    def test_child_streams_reproducible_and_disjoint(self):
        parent = RngStream(5, 3)
        kids = [parent.child(i).uniform(5) for i in range(20)]
        again = [RngStream(5, 3).child(i).uniform(5) for i in range(20)]
        for x, y in zip(kids, again):
            assert np.array_equal(x, y)
        flat = np.asarray(kids)
        assert len({tuple(row) for row in flat}) == 20

    def test_seed_bounds(self):
        with pytest.raises(ValueError):
            RngStream(-1, 0)
        with pytest.raises(ValueError):
            RngStream(0, 2**64)

    def test_counter_advances(self):
        s = RngStream(1, 0)
        before = s.counter
        s.uniform(3)
        assert s.counter != before


class TestMvnParams:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            MvnParams(np.zeros(2), np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_moments_of_draws(self):
        cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        draws = sample_mvn_many(MvnParams(np.array([1.0, -1.0]), cov),
                                200_000, RngStream(3, 0))
        assert np.allclose(draws.mean(axis=0), [1.0, -1.0], atol=0.02)
        assert np.allclose(np.cov(draws, rowvar=False), cov, atol=0.03)

    def test_cached_log_norm_gives_the_formula_bits(self):
        cov = np.array([[2.0, 0.6, 0.1], [0.6, 1.0, -0.2], [0.1, -0.2, 0.5]])
        params = MvnParams(np.array([1.0, -1.0, 0.5]), cov)
        thetas = RngStream(5, 0).standard_normal((7, 3))
        u = params.whiten(thetas)
        formula = (-0.5 * (3 * np.log(2.0 * np.pi) + params.log_det)
                   - 0.5 * (u * u).sum(axis=-1))
        assert params.logpdf_many(thetas).tobytes() == formula.tobytes()

    @pytest.mark.parametrize("mean,cov", [
        ([0.0, 0.0], [[np.nan, 0.0], [0.0, 1.0]]),
        ([0.0, 0.0], [[np.inf, 0.0], [0.0, 1.0]]),
        ([np.nan, 0.0], [[1.0, 0.0], [0.0, 1.0]]),
        ([0.0, -np.inf], [[1.0, 0.0], [0.0, 1.0]]),
    ])
    def test_rejects_non_finite_entries(self, mean, cov):
        with pytest.raises(ValueError, match="finite"):
            MvnParams(np.array(mean), np.array(cov))

    def test_singular_covariance_factors(self):
        # rank-1 covariance goes through the eigendecomposition fallback
        cov = np.outer([1.0, 2.0], [1.0, 2.0])
        draws = sample_mvn_many(MvnParams(np.zeros(2), cov), 1000,
                                RngStream(4, 0))
        assert np.allclose(draws[:, 1], 2.0 * draws[:, 0], atol=1e-10)


class TestRowwise:
    @pytest.mark.parametrize("R", [1, 3, 300])
    def test_rows_equal_matrix_vector_products(self, R):
        # every row, stacked or alone, into a buffer or not, is the bits
        # of the one-row matrix @ row
        rng = np.random.default_rng(3)
        matrix = rng.normal(size=(332, 3))
        rows = rng.normal(size=(R, 3))
        out = np.empty((R, 332))
        assert rowwise(rows, matrix, out) is out
        for r, row in enumerate(rows):
            alone = matrix @ row
            assert out[r].tobytes() == alone.tobytes()
            assert rowwise(rows, matrix)[r].tobytes() == alone.tobytes()
            assert rowwise(row, matrix).tobytes() == alone.tobytes()


class TestNormalCdf:
    """The normal log-CDF as the library evaluates it: the log-likelihood
    of one observation with x = 1 is log Phi(beta) for y = 1 and
    log Phi(-beta) for y = 0, so both responses give log Phi(x) at
    beta = x and beta = -x."""

    @staticmethod
    def log_cdfs(xs):
        one = np.ones((1, 1))
        hit = ProbitModel(design=one, response=np.ones(1))
        miss = ProbitModel(design=one, response=np.zeros(1))
        xs = np.asarray(xs, dtype=float)[:, None]
        return probit_loglik_many(hit, xs), probit_loglik_many(miss, -xs)

    @staticmethod
    def oracle(xs):
        with mpmath.workdps(50):
            return np.array([float(mpmath.log(mpmath.ncdf(mpmath.mpf(x))))
                             for x in xs])

    def test_against_mpmath(self):
        xs = np.linspace(-8.0, 6.0, 57)
        for got in self.log_cdfs(xs):
            np.testing.assert_allclose(got, self.oracle(xs), rtol=1e-12, atol=0)

    def test_logcdf_deep_tail(self):
        xs = np.linspace(-40.0, -8.0, 65)
        for got in self.log_cdfs(xs):
            np.testing.assert_allclose(got, self.oracle(xs), rtol=1e-12, atol=0)


class TestLogNdtr:
    """The in-place log Phi kernel every probit likelihood sums."""

    # a grid over [-45, 45] with the ends of the log(ndtr) range, -20 and
    # 3, and their neighbouring doubles
    EDGES = [np.nextafter(e, d) for e in (-20.0, 3.0) for d in (-np.inf, np.inf)]
    GRID = np.unique(np.concatenate([np.linspace(-45.0, 45.0, 9001), [-20.0, 3.0, 20.0],
                                     EDGES, [np.nextafter(20.0, -np.inf),
                                             np.nextafter(20.0, np.inf)]]))

    @staticmethod
    def exact(xs):
        # log1p(-Phi(-x)) above 0, where Phi(x) rounds to 1 at any fixed precision
        def one(x):
            x = mpmath.mpf(float(x))
            return mpmath.log(mpmath.ncdf(x)) if x <= 0 else mpmath.log1p(-mpmath.ncdf(-x))

        with mpmath.workdps(40):
            return np.array([float(one(x)) for x in xs])

    def test_against_mpmath(self):
        xs = self.GRID
        got, exact = log_ndtr(xs.copy()), self.exact(xs)
        neg = xs < 0
        assert np.max(np.abs(got[neg] - exact[neg]) / np.abs(exact[neg])) <= 1e-15
        assert np.max(np.abs(got[~neg] - exact[~neg])) <= 1e-15
        # and relative on the log(ndtr) side, up to 3
        pos = ~neg & (xs <= 3.0)
        assert np.max(np.abs(got[pos] - exact[pos]) / np.abs(exact[pos])) <= 1e-13

    def test_entries_outside_the_range_are_scipys(self):
        # an array with no entry in [-20, 3] goes to special.log_ndtr whole
        xs = np.array([-20.5, -38.0, -45.0, -1e3, -np.inf, 3.5, 8.0, 40.0, 1e3,
                       np.inf, np.nan])
        assert log_ndtr(xs.copy()).tobytes() == special.log_ndtr(xs).tobytes()
        block = np.stack([xs, xs[::-1]])
        assert log_ndtr(block.copy()).tobytes() == special.log_ndtr(block).tobytes()

    def test_mixed_row_matches_entry_by_entry(self):
        # each entry of a row that mixes both ranges keeps the bits of its
        # own one-entry call, which takes one path or the other whole
        xs = np.array([-1e3, -20.5, -20.0, -7.0, 0.0, 2.5, 3.0, 3.5, 40.0,
                       np.inf, -np.inf, np.nan])
        got = log_ndtr(xs.copy())
        for x, value in zip(xs, got):
            assert np.float64(value).tobytes() == log_ndtr(np.array([x])).tobytes()

    def test_nan_stays_nan_and_inf_gives_zero(self):
        got = log_ndtr(np.array([np.nan, np.inf, 0.0]))
        assert np.isnan(got[0]) and got[1] == 0.0 and got[2] == np.log(0.5)

    def test_in_place_and_warning_free(self):
        x = np.array([[-np.inf, -1e3, -40.0, -20.0, 0.0],
                      [1.0, 2.5, 3.0, np.inf, np.nan]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_ndtr(x) is x
        assert np.isneginf(x[0, 0]) and np.isfinite(x[0, 1:]).all()

    def test_rows_match_one_row_calls(self):
        # the path of an entry is its own: a row gives the same bits alone
        # as in a block whose other rows leave the log(ndtr) range
        rows = RngStream(4, 0).standard_normal((64, 50))
        rows[::5] *= 40.0
        block = log_ndtr(rows.copy())
        for r, row in enumerate(rows):
            assert log_ndtr(row.copy()).tobytes() == block[r].tobytes()


class TestLogSumExp:
    def test_known_value(self):
        v = np.array([0.0, np.log(2.0)])
        assert log_sum_exp(v) == pytest.approx(np.log(3.0))

    def test_all_minus_inf(self):
        assert log_sum_exp(np.array([-np.inf, -np.inf])) == -np.inf

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=30),
           st.floats(-1e6, 1e6))
    @settings(max_examples=200, deadline=None)
    def test_shift_invariance(self, values, shift):
        v = np.asarray(values)
        assert log_sum_exp(v + shift) == pytest.approx(
            log_sum_exp(v) + shift, rel=1e-12, abs=1e-9)

    def test_no_overflow(self):
        v = np.array([1000.0, 1000.0])
        assert log_sum_exp(v) == pytest.approx(1000.0 + np.log(2.0))

    def test_axis_matches_each_row(self):
        v = RngStream(12, 0).standard_normal((6, 5)) * 300.0
        v[2] = -np.inf
        v[4, 1:] = -np.inf
        rows = log_sum_exp(v, axis=1)
        assert rows.shape == (6,)
        assert rows[2] == -np.inf
        assert np.array_equal(rows, [log_sum_exp(r) for r in v])
        assert np.array_equal(log_sum_exp(v.T, axis=0), rows)

    def test_argument_is_left_untouched(self):
        v = RngStream(13, 0).standard_normal((5, 7)) * 50.0
        v[1] = -np.inf
        v[3, ::2] = -np.inf
        before = v.copy()
        assert np.isfinite(log_sum_exp(v))
        assert np.array_equal(v, before)
        rows = log_sum_exp(v, axis=1)
        assert np.array_equal(v, before)
        assert rows[1] == -np.inf
        assert np.isfinite(np.delete(rows, 1)).all()


class TestTruncatedNormal:
    @pytest.mark.parametrize("mu", [0.0, 2.0, -8.0])
    def test_positive_side_ks(self, mu):
        rng = RngStream(9, 0)
        draws = np.array([sample_truncated_normal(mu, 1.0, "positive", rng)
                          for _ in range(5000)])
        assert np.all(draws > 0)
        a = -mu  # standardised lower bound
        stat = stats.kstest(draws, stats.truncnorm(a, np.inf, loc=mu).cdf)
        assert stat.pvalue > 1e-3

    def test_negative_side_is_mirror(self):
        rng = RngStream(10, 0)
        draws = np.array([sample_truncated_normal(1.5, 2.0, "negative", rng)
                          for _ in range(5000)])
        assert np.all(draws < 0)
        # -draws is positive-truncated with mean -1.5 and the same sd
        stat = stats.kstest(-draws,
                            stats.truncnorm(1.5 / 2.0, np.inf, loc=-1.5,
                                            scale=2.0).cdf)
        assert stat.pvalue > 1e-3

    def test_vector_signs(self):
        mu = np.linspace(-3, 3, 50)
        positive = np.arange(50) % 2 == 0
        draws = truncated_normal_vector(mu[None, :], positive,
                                        [RngStream(11, 0)])[0]
        assert np.all(draws[positive] > 0)
        assert np.all(draws[~positive] < 0)

    def test_rows_match_one_row_calls(self):
        # rows mix moderate bounds (a <= 5) with tail bounds (a > 5, the
        # log-space path); row 1 has no tail entry and row 2 only tail ones
        positive = np.array([True, False, True, False, True, True])
        mu = np.array([[0.3, 1.2, -6.5, -2.0, -9.0, 1.0],
                       [-1.0, -0.5, 2.0, 0.7, -4.9, 0.0],
                       [-5.5, 7.0, -12.0, 6.1, -5.01, -8.0]])
        rngs = [RngStream(21, r) for r in range(3)]
        draws = truncated_normal_vector(mu, positive, rngs)
        sign = np.where(positive, 1.0, -1.0)
        assert np.all(sign * draws > 0)
        for r, rng in enumerate(rngs):
            alone = RngStream(21, r)
            row = truncated_normal_vector(mu[r:r + 1], positive, [alone])
            assert draws[r].tobytes() == row[0].tobytes()
            assert rng.counter == alone.counter

    def test_one_uniform_per_entry(self):
        # whatever the bounds, an entry is the transform of its own uniform,
        # its bits those of a one-entry call, and drawing the uniforms
        # leaves each stream where n uniforms would
        eta = np.array([[0.3, -6.5, -2.0, -9.0, 1.0, -40.0],
                        [-1.0, -0.5, 2.0, 0.7, -4.9, 0.0],
                        [-5.5, -7.0, -12.0, -6.1, -5.01, -8.0]])
        rngs = [RngStream(22, r) for r in range(3)]
        v = uniform_complements(rngs, eta.shape[1])
        w = truncated_normal_positive(eta, v)
        assert np.all(w > 0)
        for r, rng in enumerate(rngs):
            fresh = RngStream(22, r)
            fresh.generator.random(eta.shape[1])
            assert rng.counter == fresh.counter
            for i in range(eta.shape[1]):
                one = truncated_normal_positive(eta[r:r + 1, i:i + 1], v[r:r + 1, i:i + 1])
                assert one.tobytes() == w[r, i].tobytes()

    def test_one_stream_per_row(self):
        # a row without uniforms of its own would be drawn from another's
        with pytest.raises(ValueError, match="shape"):
            truncated_normal_positive(np.zeros((2, 4)),
                                      uniform_complements([RngStream(27, 0)], 4))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_nan_or_minus_inf_bound_raises(self, bad):
        with pytest.raises(FloatingPointError):
            truncated_normal_positive(np.array([[0.0, -7.0, bad]]),
                                      uniform_complements([RngStream(23, 0)], 3))

    @pytest.mark.parametrize("a", [5.01, 8.0, 20.0])
    def test_tail_ks(self, a):
        # w - eta is the standard normal conditioned above a = -eta
        w = truncated_normal_positive(np.full((1, 200_000), -a),
                                      uniform_complements([RngStream(24, 0)], 200_000))[0]
        assert np.all(w > 0)
        draws = w + a
        assert np.all(draws > a)
        assert stats.kstest(draws, stats.truncnorm(a, np.inf).cdf).pvalue > 1e-3

    @pytest.mark.parametrize("a", [40.0, 200.0])
    def test_far_tail_mean(self, a):
        # the mean of N(0, 1) above a = -eta, the law of w - eta, is the
        # inverse Mills ratio
        w = truncated_normal_positive(np.full((1, 200_000), -a),
                                      uniform_complements([RngStream(25, 0)], 200_000))[0]
        assert np.all(w > 0)
        draws = w + a
        mills = np.exp(stats.norm.logpdf(a) - stats.norm.logsf(a))
        se = draws.std() / np.sqrt(draws.size)
        assert np.all(draws > a)
        assert abs(draws.mean() - mills) < 4.0 * se

    def test_bad_side(self):
        with pytest.raises(ValueError):
            sample_truncated_normal(0.0, 1.0, "sideways", RngStream(0, 0))


class TestCategorical:
    def test_frequencies(self):
        logw = np.log(np.array([0.2, 0.5, 0.3]))
        idx = sample_categorical_many(logw, 100_000, RngStream(12, 0))
        freq = np.bincount(idx, minlength=3) / len(idx)
        assert np.allclose(freq, [0.2, 0.5, 0.3], atol=0.01)

    def test_degenerate_weight(self):
        logw = np.array([-np.inf, 0.0, -np.inf])
        idx = sample_categorical_many(logw, 100, RngStream(13, 0))
        assert np.all(idx == 1)

    def test_matches_normalised_cumsum(self):
        # the reference normalises through log_sum_exp; the sampler must
        # pick the same index from the same uniforms
        gen = np.random.default_rng(14)
        for seed in range(10):
            logw = gen.normal(scale=3.0, size=50)
            logw[gen.random(50) < 0.3] = -np.inf
            idx = sample_categorical_many(logw, 1000, RngStream(seed, 1))
            w = np.exp(logw - log_sum_exp(logw))
            cum = np.cumsum(w)
            cum[-1] = 1.0
            u = RngStream(seed, 1).uniform(1000)
            assert np.array_equal(idx, np.searchsorted(cum, u, side="right"))

    def test_all_zero_weights_raise(self):
        for logw in (np.full(3, -np.inf), np.array([])):
            with pytest.raises(DegenerateWeightsError):
                sample_categorical_many(logw, 5, RngStream(15, 0))

    def test_nan_or_infinite_weight_raises(self):
        # either would make the cumulative sum NaN and every draw land past
        # the last category
        with pytest.raises(DegenerateWeightsError, match="NaN"):
            sample_categorical_many([0.0, np.nan, 0.0], 6, RngStream(2))
        with pytest.raises(DegenerateWeightsError, match="NaN"):
            categorical_cdf([[0.0, 1.0], [np.nan, -np.inf]])
        with pytest.raises(DegenerateWeightsError, match="infinite"):
            categorical_cdf([0.0, np.inf])
