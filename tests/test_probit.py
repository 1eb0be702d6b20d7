"""Probit model: likelihood, g-prior, maximum likelihood, latent
completion.  The MLE oracle is an independent generic optimiser run on
the same log-likelihood."""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, special, stats

from bayescomp.core import MvnParams, RngStream, rowwise, truncated_normal_vector
from bayescomp.datasets import bundled_pima_path, load_pima
from bayescomp.mcmc import rw_metropolis, rw_mh_run
from bayescomp.mixture import MixtureTarget, mixture_bayes_model, simulate_mixture_data
from bayescomp.model import log_posterior
from bayescomp.probit import (
    NonConvergenceError,
    ProbitModel,
    gprior_logpdf_many,
    probit_latent_completion,
    probit_loglik,
    probit_abc_summary,
    probit_loglik_many,
    probit_bayes_model,
    probit_mle,
    probit_simulator,
    probit_summary_whitener,
    sample_gprior,
)

from oracles import probit_mean_map


@pytest.fixture(scope="module")
def pima():
    return load_pima(bundled_pima_path())


@functools.cache
def _pima_model(covariates: int) -> ProbitModel:
    """The pima model on 3 or 2 covariates; the 2-covariate design is the
    non-contiguous view of the first two columns, as the evidence
    comparison builds it."""
    pima = load_pima(bundled_pima_path())
    if covariates == 3:
        return pima
    return ProbitModel(design=pima.design[:, :2], response=pima.response)


@pytest.fixture(scope="module", params=[3, 2], ids=["pima3", "pima2"])
def pima_models(request):
    """Both pima models (`_pima_model`)."""
    return _pima_model(request.param)


def synthetic_model(seed=0, n=200, p=2):
    rng = np.random.default_rng(seed)
    design = rng.normal(size=(n, p))
    beta = np.linspace(0.5, -0.5, p)
    response = (rng.random(n) < stats.norm.cdf(design @ beta)).astype(float)
    return ProbitModel(design=design, response=response)


class TestLoglik:
    def test_matches_direct_formula(self, pima):
        beta = np.array([0.01, -0.02, 0.3])
        eta = pima.design @ beta
        direct = float(np.sum(pima.response * stats.norm.logcdf(eta)
                              + (1 - pima.response) * stats.norm.logcdf(-eta)))
        assert probit_loglik(pima, beta) == pytest.approx(direct, rel=1e-12)

    def test_many_consistent(self, pima):
        betas = np.array([[0.01, -0.02, 0.3], [0.0, 0.0, 0.0]])
        many = probit_loglik_many(pima, betas)
        singles = [probit_loglik(pima, b) for b in betas]
        assert np.allclose(many, singles, rtol=1e-12)

    def test_blocks_match_single_rows(self, pima):
        # more rows than one evaluation block
        betas = RngStream(3, 0).standard_normal((600, 3)) * 0.05
        singles = [probit_loglik(pima, b) for b in betas]
        assert np.allclose(probit_loglik_many(pima, betas), singles,
                           rtol=1e-12, atol=0)

    @pytest.mark.parametrize("R", [1, 20, 64])
    def test_log_posterior_rows_match_one_row_calls(self, pima_models, R):
        # row-stable: a row's value does not depend on the batch around it
        target = probit_bayes_model(pima_models)
        beta, cov = probit_mle(pima_models)
        betas = beta + RngStream(12, R).standard_normal((R, beta.shape[0])) \
            @ np.linalg.cholesky(4.0 * cov).T
        batch = log_posterior(target, betas)
        singles = np.array([log_posterior(target, b[None, :])[0] for b in betas])
        assert batch.tobytes() == singles.tobytes()

    def test_deep_tail_rows_match_one_row_calls(self, pima):
        # a 600-row batch (three evaluation blocks) in which every third row
        # puts entries far outside log_ndtr's log(ndtr) range, so each
        # block mixes both paths; every row keeps its one-row bits
        betas = RngStream(13, 0).standard_normal((600, 3)) * 0.05
        betas[::3] = 50.0 * np.array([1.0, 1.0, 1.0])
        betas[1::6] *= -40.0
        batch = probit_loglik_many(pima, betas)
        singles = np.array([probit_loglik(pima, b) for b in betas])
        assert batch.tobytes() == singles.tobytes()
        assert np.isfinite(batch).all()

    def test_extreme_beta_finite(self, pima):
        # log-cdf path keeps huge linear predictors finite
        assert np.isfinite(probit_loglik(pima, np.array([50.0, 50.0, 50.0])))


def _outcome(fn, *args):
    """The float bits `fn` returns, or the class of what it raises."""
    try:
        return np.float64(fn(*args)).tobytes()
    except Exception as exc:  # compared by class with the other path's
        return type(exc)


# entries of a coefficient row: near the MLE (offsets added there), far
# into either tail of the likelihood, and infinite or NaN
_NEAR = st.floats(-0.05, 0.05)
_FAR = st.one_of(st.floats(-1e6, -30.0), st.floats(30.0, 1e6))
_SPECIAL = st.sampled_from([np.inf, -np.inf, np.nan])


@functools.cache
def _posterior_case(case: str):
    """(target, centre) of a posterior: the pima probit on 3 or 2
    covariates (`_pima_model`) at its MLE, or the two-mean mixture on 500
    points at the means that simulated them."""
    if case == "mixture":
        data = simulate_mixture_data(0.0, 2.5, 0.7, 1.0, 500, RngStream(1, 0))
        return (mixture_bayes_model(MixtureTarget(data, 0.7, 1.0)),
                np.array([0.0, 2.5]))
    model = _pima_model({"pima3": 3, "pima2": 2}[case])
    return probit_bayes_model(model), probit_mle(model)[0]


def _one_row(target):
    """The log-posterior of a (p,) point as a one-row batch."""
    return lambda theta: float(log_posterior(target, theta[None, :])[0])


class TestPosteriorRow:
    # a static method parametrized directly: each parameter is a new test
    # instance, and without hypothesis's pytest plugin a method that takes
    # `self` fails HealthCheck.differing_executors on the second one
    @staticmethod
    @pytest.mark.parametrize("case", ["pima3", "pima2", "mixture"])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_point_is_the_one_row_batch(case, data):
        target, centre = _posterior_case(case)
        kinds = data.draw(st.lists(st.sampled_from(["near", "far", "special"]),
                                   min_size=len(centre), max_size=len(centre)))
        theta = np.array([centre[j] + data.draw(_NEAR) if kind == "near"
                          else data.draw(_FAR if kind == "far" else _SPECIAL)
                          for j, kind in enumerate(kinds)])
        point = _outcome(lambda t: log_posterior(target, t), theta)
        assert point == _outcome(_one_row(target), theta)

    @pytest.mark.parametrize("case", ["pima2", "mixture"])
    @pytest.mark.parametrize("seed", [5, 6])
    def test_point_chain_is_the_one_row_batch_chain(self, case, seed):
        # rw_mh_run against rw_metropolis stepping through the one-row
        # batch, on the same stream: the pima chain at twice the MLE's
        # covariance, the mixture chain at mixture-demo's unit step
        target, centre = _posterior_case(case)
        cov = 2.0 * probit_mle(_pima_model(2))[1] if case == "pima2" else np.eye(2)
        one_row = _one_row(target)
        chain = rw_mh_run(target, cov, centre, 2000, RngStream(seed, 0))
        states, log_posts, (accepts,) = rw_metropolis(
            lambda theta, floor: one_row(theta), cov, centre, one_row(centre), 2000,
            RngStream(seed, 0))
        assert chain.states.tobytes() == states.tobytes()
        assert chain.log_posts.tobytes() == log_posts.tobytes()
        assert chain.accept_count == accepts > 0

    @pytest.mark.parametrize("theta0", [[0.0, 0.0], [0.0] * 4, [[0.0, 0.0, 0.0]],
                                        [np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0],
                                        [0.0, -np.inf, 0.0]])
    def test_bad_starts_raise_alike(self, pima, theta0):
        # the class the one-row batch raises at the start, or ValueError
        # where it returns -inf, outside the support
        target = probit_bayes_model(pima)
        batch = _outcome(_one_row(target), np.asarray(theta0))
        with pytest.raises((ValueError, FloatingPointError)) as err:
            rw_mh_run(target, np.eye(3), theta0, 10, RngStream(7, 0))
        assert err.type is (ValueError if batch == _outcome(lambda: -np.inf) else batch)


class TestGPrior:
    def test_matches_scipy_mvn(self, pima):
        cov = pima.n_obs * np.linalg.inv(pima.design.T @ pima.design)
        oracle = stats.multivariate_normal(np.zeros(3), cov).logpdf
        for beta in (np.zeros(3), np.array([0.01, -0.02, 0.3])):
            assert gprior_logpdf_many(pima, beta[None, :])[0] == pytest.approx(
                float(oracle(beta)), rel=1e-10)

    def test_sample_moments(self, pima):
        draws = sample_gprior(pima, 100_000, RngStream(2, 0))
        cov = pima.n_obs * np.linalg.inv(pima.design.T @ pima.design)
        assert np.allclose(draws.mean(axis=0), 0.0,
                           atol=4 * np.sqrt(np.diag(cov) / 1e5))
        assert np.allclose(np.cov(draws, rowvar=False), cov, rtol=0.05)

    def test_cached_factor_is_the_covariance_factor(self, pima):
        # prior draws scale by the factor MvnParams gives the covariance
        factor = MvnParams(np.zeros(3), pima.prior_covariance()).scale
        np.testing.assert_array_equal(pima.prior.scale, factor)
        z = RngStream(3, 0).standard_normal((5, 3))
        np.testing.assert_array_equal(sample_gprior(pima, 5, RngStream(3, 0)),
                                      z @ factor.T)


class TestMle:
    def test_against_generic_optimizer(self, pima):
        beta_hat, cov = probit_mle(pima)
        res = optimize.minimize(lambda b: -probit_loglik(pima, b),
                                np.zeros(3), method="BFGS",
                                options={"gtol": 1e-10})
        assert np.allclose(beta_hat, res.x, atol=1e-6)

    def test_information_matches_numeric_hessian(self, pima):
        beta_hat, cov = probit_mle(pima)
        eps = 1e-5
        hess = np.empty((3, 3))
        for i in range(3):
            for j in range(3):
                bpp = beta_hat.copy(); bpp[i] += eps; bpp[j] += eps
                bpm = beta_hat.copy(); bpm[i] += eps; bpm[j] -= eps
                bmp = beta_hat.copy(); bmp[i] -= eps; bmp[j] += eps
                bmm = beta_hat.copy(); bmm[i] -= eps; bmm[j] -= eps
                hess[i, j] = (probit_loglik(pima, bpp) - probit_loglik(pima, bpm)
                              - probit_loglik(pima, bmp)
                              + probit_loglik(pima, bmm)) / (4 * eps * eps)
        # expected and observed information agree at the MLE of a probit fit
        assert np.allclose(cov, np.linalg.inv(-hess), rtol=0.15)

    def test_separable_data_raises(self):
        # all successes with positive covariate: the likelihood increases
        # in beta without bound, so scoring cannot converge
        design = np.array([[1.0], [2.0], [3.0], [4.0]])
        response = np.array([1.0, 1.0, 1.0, 1.0])
        with pytest.raises(NonConvergenceError):
            probit_mle(ProbitModel(design=design, response=response))

    def test_prior_predictive_data_converge(self, pima):
        # data set 6 of 200 drawn from the prior predictive of the bundled
        # design (beta from the g-prior, then y ~ Bernoulli(Phi(X beta))),
        # one of 15 whose score stalls at its rounding floor above a
        # gradient-based stopping level, since glu enters unscaled
        rng = RngStream(99, 0).child(6)
        beta = sample_gprior(pima, 1, rng)[0]
        y = (rng.uniform(pima.n_obs) < special.ndtr(pima.design @ beta)).astype(float)
        model = ProbitModel(design=pima.design, response=y)
        beta_hat, cov = probit_mle(model)
        X = model.design

        def nll(b):
            return -float(np.sum(stats.norm.logcdf(model.signs * (X @ b))))

        def grad(b):
            eta = model.signs * (X @ b)
            return -(X.T @ (model.signs * np.exp(stats.norm.logpdf(eta) - stats.norm.logcdf(eta))))

        res = optimize.minimize(nll, np.zeros(3), jac=grad, method="BFGS",
                                options={"gtol": 1e-8})
        oracle = optimize.root(grad, res.x, method="hybr").x
        assert np.max(np.abs(grad(oracle))) < 1e-8
        assert np.allclose(beta_hat, oracle, rtol=0, atol=1e-6)
        assert np.all(np.linalg.eigvalsh(cov) > 0)

    def test_synthetic_recovery(self):
        model = synthetic_model(seed=3, n=5000)
        beta_hat, cov = probit_mle(model)
        assert np.allclose(beta_hat, [0.5, -0.5],
                           atol=4 * np.sqrt(np.diag(cov)))


def _twin_latents(model, betas, rngs):
    """The latents that `sample_latents(betas, ...)` draws, drawn by
    `truncated_normal_vector` on twin streams `rngs`."""
    return truncated_normal_vector(rowwise(betas, model.design),
                                   model.response == 1, rngs)


class TestLatentCompletion:
    def test_latent_signs_match_response(self, pima):
        # the statistic is the mean map of latents with the response's signs
        completion = probit_latent_completion(pima)
        betas = np.array([[0.01, -0.02, 0.3]])
        m = completion.sample_latents(betas, [RngStream(5, 0)])
        z = _twin_latents(pima, betas, [RngStream(5, 0)])
        pos = pima.response == 1.0
        assert np.all(z[0, pos] > 0) and np.all(z[0, ~pos] < 0)
        assert m.tobytes() == rowwise(z, probit_mean_map(pima)).tobytes()

    @pytest.mark.parametrize("R", [1, 3])
    def test_latents_equal_truncated_normal_vector(self, pima_models, R):
        # at six times the MLE some s_i x_i'beta fall below -5, so the
        # log-space tail runs as well as the in-place inverse CDF
        beta, _ = probit_mle(pima_models)
        betas = np.outer([6.0, 1.0, 3.0][:R], beta)
        eta = pima_models.signs * rowwise(betas, pima_models.design)
        assert np.any(eta < -5.0)
        fused = [RngStream(31, r) for r in range(R)]
        direct = [RngStream(31, r) for r in range(R)]
        m = probit_latent_completion(pima_models).sample_latents(betas, fused)
        ref = rowwise(_twin_latents(pima_models, betas, direct), probit_mean_map(pima_models))
        assert m.tobytes() == ref.tobytes()
        assert [r.counter for r in fused] == [r.counter for r in direct]

    def test_param_conditional_is_normalised_gaussian(self, pima):
        completion = probit_latent_completion(pima)
        betas = np.array([[0.01, -0.02, 0.3]])
        m = completion.sample_latents(betas, [RngStream(6, 0)])
        z = _twin_latents(pima, betas, [RngStream(6, 0)])[0]
        n = pima.n_obs
        xtx_inv = np.linalg.inv(pima.design.T @ pima.design)
        shrink = n / (n + 1.0)
        mean = shrink * xtx_inv @ pima.design.T @ z
        cov = shrink * xtx_inv
        oracle = stats.multivariate_normal(mean, cov).logpdf
        for beta in (mean, mean + 0.001):
            assert completion.log_full_conditional_param(beta, m)[0] == \
                pytest.approx(float(oracle(beta)), rel=1e-10)

    def test_param_conditional_batched_over_latents(self, pima):
        completion = probit_latent_completion(pima)
        rng = RngStream(8, 0)
        beta = np.array([0.01, -0.02, 0.3])
        ms = np.array([completion.sample_latents(beta[None, :], [rng])[0]
                       for _ in range(5)])
        ordinate = completion.log_full_conditional_param
        singles = [ordinate(beta, m[None, :])[0] for m in ms]
        assert np.allclose(ordinate(beta, ms), singles, rtol=1e-12, atol=0)

    def test_conditional_draw_moments(self, pima):
        completion = probit_latent_completion(pima)
        rng = RngStream(7, 0)
        betas = np.array([[0.01, -0.02, 0.3]])
        m = completion.sample_latents(betas, [rng])
        z = _twin_latents(pima, betas, [RngStream(7, 0)])[0]
        draws = np.array([completion.sample_params(m, [rng])[0]
                          for _ in range(20_000)])
        n = pima.n_obs
        xtx_inv = np.linalg.inv(pima.design.T @ pima.design)
        mean = (n / (n + 1.0)) * xtx_inv @ pima.design.T @ z
        se = np.sqrt(np.diag((n / (n + 1.0)) * xtx_inv) / 20_000)
        assert np.allclose(draws.mean(axis=0), mean, atol=4 * se)


def _latent_form(model, betas, rng):
    """The pseudo-responses written out in the latent form, allocating."""
    return (rng.standard_normal((len(betas), model.n_obs))
            > -(betas @ model.design.T)).astype(float)


def _peak_bytes(call):
    """Peak bytes traced by tracemalloc while `call()` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAbcSimulation:
    def test_response_frequencies_match_phi(self):
        # x_i'beta = Phi^{-1}(q_i) at beta = (1, 0); the extremes sit in the
        # outermost byte bins, so every 1 of the first response and every 0
        # of the last comes from a refined draw
        q = np.array([1e-4, 1e-3, 0.05, 0.3, 0.5, 0.7, 0.95, 1 - 1e-3, 1 - 1e-4])
        model = ProbitModel(design=np.column_stack([stats.norm.ppf(q), np.ones(len(q))]),
                            response=np.zeros(len(q)))
        simulate, rng = probit_simulator(model), RngStream(10, 0)
        betas = np.tile([1.0, 0.0], (1000, 1))
        blocks = 1000
        counts = sum(simulate(betas, rng).sum(axis=0) for _ in range(blocks))
        for count, prob in zip(counts, q):
            assert stats.binomtest(int(count), 1000 * blocks, prob).pvalue > 1e-3, prob

    def test_responses_inside_their_byte_bin_are_refined(self):
        # with X = I, -X beta is any (B, 2) array: put entry (b, i) at the
        # fraction w of the byte bin its byte k will open, so that every
        # entry draws its double V and is 1 exactly when V > w
        model = ProbitModel(design=np.eye(2), response=np.array([0.0, 1.0]))
        rows = 6000
        twin = RngStream(11, 0)
        k = (twin.generator.bit_generator.random_raw(rows * 2 // 8)
             .view(np.uint8).reshape(rows, 2))
        w = np.resize([0.1, 0.5, 0.9], (rows, 2))
        rng = RngStream(11, 0)
        ys = probit_simulator(model)(-stats.norm.ppf((k + w) / 256), rng)
        twin.generator.random(rows * 2)
        assert rng.counter == twin.counter
        for frac in (0.1, 0.5, 0.9):
            picked = ys[w == frac]
            assert stats.binomtest(int(picked.sum()), picked.size, 1 - frac).pvalue > 1e-3

    def test_summaries_match_the_latent_form(self, pima):
        # X'y* at the MLE, 20,000 draws from the simulator against 20,000
        # from the latent form with normal e: two-sample KS per coordinate
        betas = np.tile(probit_mle(pima)[0], (500, 1))
        simulate, rng, ref_rng = probit_simulator(pima), RngStream(12, 0), RngStream(12, 1)
        ours = np.vstack([simulate(betas, rng) @ pima.design for _ in range(40)])
        ref = np.vstack([_latent_form(pima, betas, ref_rng) @ pima.design for _ in range(40)])
        for j in range(pima.dimension):
            assert stats.ks_2samp(ours[:, j], ref[:, j]).pvalue > 1e-3, j

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficients_raise(self, pima, bad):
        simulate = probit_simulator(pima)
        with pytest.raises(FloatingPointError):
            simulate(np.array([[bad, 0.0, 0.0]]), RngStream(13, 0))
        betas = np.zeros((4, 3))
        betas[2, 1] = bad
        with pytest.raises(FloatingPointError):
            simulate(betas, RngStream(13, 1))

    def test_reused_simulator_equals_one_shot_calls(self, pima):
        # a shorter block after a longer one must carry none of its rows
        simulate = probit_simulator(pima)
        for b, rows in enumerate([256, 100, 0, 300]):
            betas = 2.0 * sample_gprior(pima, rows, RngStream(6, b))
            one_rng, rng = RngStream(7, b), RngStream(7, b)
            ys = simulate(betas, rng)
            assert ys.shape == (rows, pima.n_obs)
            assert np.array_equal(ys, probit_simulator(pima)(betas, one_rng))
            assert rng.counter == one_rng.counter

    def test_reused_simulator_allocates_no_block(self, pima):
        # counts bytes, not seconds: a (256 x n) float block is 680 KB
        betas = sample_gprior(pima, 256, RngStream(8, 0))
        simulate = probit_simulator(pima)
        simulate(betas, RngStream(9, 0))
        assert _peak_bytes(lambda: simulate(betas, RngStream(9, 1))) < 100_000
        assert _peak_bytes(lambda: probit_simulator(pima)(betas, RngStream(9, 2))) >= 1_300_000

    def test_pseudo_data_one_row_per_coefficient_vector(self, pima):
        betas = sample_gprior(pima, 300, RngStream(4, 0))
        ys = probit_simulator(pima)(betas, RngStream(5, 0))
        assert ys.shape == (300, pima.n_obs)
        assert set(np.unique(ys)) <= {0.0, 1.0}
        # a coefficient vector far out on one side makes every response 1
        big = probit_simulator(pima)(np.array([[1e6, 0.0, 0.0]]), RngStream(6, 0))
        assert np.all(big == 1.0)

    def test_summary_rows_match_single_rows(self, pima):
        whitener = probit_summary_whitener(pima, probit_mle(pima)[0])
        ys = probit_simulator(pima)(sample_gprior(pima, 300, RngStream(4, 0)),
                                    RngStream(5, 0))
        batched = probit_abc_summary(pima, ys, whitener)
        assert batched.shape == (300, 3)
        single = np.vstack([probit_abc_summary(pima, ys[i:i + 1], whitener)
                            for i in range(300)])
        # equal up to the summation order of a (B, n) against a (1, n) product
        np.testing.assert_allclose(batched, single, rtol=0,
                                   atol=1e-12 * np.abs(batched).max())
        np.testing.assert_allclose(
            probit_abc_summary(pima, pima.response[None], whitener)[0],
            whitener @ (pima.design.T @ pima.response), rtol=1e-12)


class TestModelValidation:
    def test_rank_deficient_design_rejected(self):
        design = np.column_stack([np.ones(10), np.ones(10)])
        with pytest.raises(ValueError):
            ProbitModel(design=design, response=np.zeros(10))

    def test_nonbinary_response_rejected(self):
        with pytest.raises(ValueError):
            ProbitModel(design=np.eye(3), response=np.array([0.0, 0.5, 1.0]))
