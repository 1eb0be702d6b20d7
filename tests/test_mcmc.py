"""Metropolis-Hastings, Gibbs, hybrid samplers and diagnostics."""

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from bayescomp import mcmc
from bayescomp.core import MvnParams, RngStream, rowwise, truncated_normal_vector
from bayescomp.datasets import bundled_pima_path, load_pima
from bayescomp.mcmc import (
    Chain,
    chain_diagnostics,
    mwg_probit_overparam_run,
    probit_gibbs_groups,
    probit_gibbs_run,
    rw_metropolis,
    rw_mh_run,
)
from bayescomp.model import BayesModel
from bayescomp.probit import (
    ProbitModel,
    probit_bayes_model,
    probit_latent_completion,
    probit_loglik_rows,
    probit_mle,
)

from oracles import probit_mean_map


@pytest.fixture(scope="module")
def pima():
    return load_pima(bundled_pima_path())


def flat_model(dim=1):
    return BayesModel(dim, lambda t: np.zeros(np.shape(t)[:-1]),
                      lambda t: np.zeros(np.shape(t)[:-1]))


class TestMhRun:
    def test_flat_target_accepts_everything(self):
        chain = rw_mh_run(flat_model(2), np.eye(2), np.zeros(2), 500,
                          RngStream(1, 0))
        assert chain.acceptance_rate == 1.0

    def test_correlated_normal_moments(self):
        # stationarity oracle: N(mu, sigma) with sd 1 and 2 and correlation
        # 0.8.  Each mean, variance and the covariance sits within 4 Monte
        # Carlo standard errors of its closed form, the errors inflated by
        # the chain's own IACT of that functional.
        mu = np.array([1.0, -2.0])
        sigma = np.array([[1.0, 1.6], [1.6, 4.0]])
        precision = np.linalg.inv(sigma)

        def log_lik(t):
            d = t - mu
            return -0.5 * np.einsum("...i,ij,...j->...", d, precision, d)

        target = BayesModel(2, lambda t: np.zeros(np.shape(t)[:-1]), log_lik)
        chain = rw_mh_run(target, 2.8 * sigma, mu, 50_000, RngStream(2, 0))
        d = chain.states - mu
        f = np.column_stack([chain.states, d[:, 0] ** 2, d[:, 1] ** 2,
                             d[:, 0] * d[:, 1]])
        expected = np.array([mu[0], mu[1], sigma[0, 0], sigma[1, 1], sigma[0, 1]])
        iact = chain_diagnostics(Chain(f, None, 0, 0))["iact"]
        assert np.all(iact < 50)
        se = np.sqrt(f.var(axis=0) * iact / len(f))
        assert np.all(np.abs(f.mean(axis=0) - expected) < 4 * se)
        assert 0.15 < chain.acceptance_rate < 0.5

    def test_bad_start_rejected(self):
        target = BayesModel(1, lambda t: np.full(np.shape(t)[:-1], -np.inf),
                            lambda t: np.zeros(np.shape(t)[:-1]))
        with pytest.raises(ValueError):
            rw_mh_run(target, np.eye(1), np.zeros(1), 10, RngStream(3, 0))

    def test_rejection_repeats_state_bitwise(self):
        # a huge step on a tight target rejects almost always
        target = BayesModel(1, lambda t: np.zeros(np.shape(t)[:-1]),
                            lambda t: -5e4 * np.sum(t * t, axis=-1))
        chain = rw_mh_run(target, 100.0 * np.eye(1), np.zeros(1), 200,
                          RngStream(4, 0))
        repeats = chain.states[1:][np.diff(chain.states[:, 0]) == 0.0]
        assert len(repeats) > 100  # plenty of rejections happened
        rejected = np.flatnonzero(np.diff(chain.states[:, 0]) == 0.0)
        for t in rejected[:20]:
            assert chain.states[t + 1].tobytes() == chain.states[t].tobytes()

    def test_zero_covariance_constant_chain(self):
        target = BayesModel(1, lambda t: np.zeros(np.shape(t)[:-1]),
                            lambda t: -0.5 * np.sum(t * t, axis=-1))
        chain = rw_mh_run(target, np.zeros((1, 1)), np.array([0.7]), 100,
                          RngStream(5, 0))
        assert chain.acceptance_rate == 1.0
        assert np.all(chain.states == 0.7)

    def test_pima_sigma_hat_acceptance(self, pima):
        model2 = ProbitModel(design=pima.design[:, :2],
                             response=pima.response)
        beta, cov = probit_mle(model2)
        chain = rw_mh_run(probit_bayes_model(model2), cov, beta, 3000,
                          RngStream(6, 0))
        assert 0.35 < chain.acceptance_rate < 0.65


class TestBlockedMetropolis:
    MU = np.array([1.0, -2.0])
    SD = np.array([1.0, 2.0])

    @classmethod
    def log_target(cls, theta, floor=-np.inf):
        # the target ignores its acceptance floor
        return float(-0.5 * np.sum(((theta - cls.MU) / cls.SD) ** 2))

    def test_blocks_match_one_dimensional_runs(self):
        """Blocks [[0], [1]] on N(mu, diag(sd^2)), each coordinate stepped
        at 2.4 sd, 20,000 steps per block: each coordinate's mean, variance
        and block acceptance rate lie within 4 Monte Carlo SEs of the
        difference from a one-dimensional run of 20,000 steps on that
        coordinate's own normal, each SE inflated by its chain's IACT of
        the functional."""
        n = 20_000
        cov = np.diag((2.4 * self.SD) ** 2)
        states, _, accepts = rw_metropolis(self.log_target, cov, self.MU.copy(),
                                           0.0, 2 * n, RngStream(31, 0), [[0], [1]])
        for j in (0, 1):
            x = states[j::2, j]
            moved = np.diff(x, prepend=self.MU[j]) != 0
            assert accepts[j] == moved.sum()

            def log_target_j(t, floor, j=j):
                return float(-0.5 * ((t[0] - self.MU[j]) / self.SD[j]) ** 2)

            alone, _, (accept,) = rw_metropolis(log_target_j, cov[j:j + 1, j:j + 1],
                                                self.MU[j:j + 1], 0.0, n,
                                                RngStream(32, j))
            y = alone[:, 0]
            means, ses = [], []
            for z, hits in ((x, moved), (y, np.diff(y, prepend=self.MU[j]) != 0)):
                f = np.column_stack([z, (z - self.MU[j]) ** 2, hits])
                iact = chain_diagnostics(Chain(f, None, 0, 0))["iact"]
                means.append(f.mean(axis=0))
                ses.append(np.sqrt(f.var(axis=0) * iact / n))
            assert means[1][2] == accept / n
            assert np.all(np.abs(means[0] - means[1]) < 4 * np.hypot(*ses))

    def test_block_step_leaves_the_other_block_bitwise(self):
        """A correlated covariance, off-block entries ignored: every step
        of block 0 leaves coordinate 1 as it was, bit for bit, and every
        step of block 1 coordinate 0."""
        cov = np.array([[1.0, 0.9], [0.9, 4.0]])
        theta = np.array([0.1, -0.3])
        states, _, accepts = rw_metropolis(self.log_target, cov, theta,
                                           self.log_target(theta), 400,
                                           RngStream(33, 0), [[0], [1]])
        before = np.vstack([theta, states[:-1]])
        assert states[0::2, 1].tobytes() == before[0::2, 1].tobytes()
        assert states[1::2, 0].tobytes() == before[1::2, 0].tobytes()
        assert 0 < accepts[0] < 200 and 0 < accepts[1] < 200

    def test_one_block_is_the_plain_loop(self):
        """The default single block of every coordinate is the unblocked
        random walk: L z with L the Cholesky factor of cov, summed in
        coordinate order, z the rows of normals on ``rng.child(1)``, and
        log1p(-u), u the uniforms on ``rng.child(0)``, bit for bit."""
        cov = np.array([[1.0, 0.9], [0.9, 4.0]])
        theta = np.array([0.1, -0.3])
        lp = self.log_target(theta)
        states, log_targets, accepts = rw_metropolis(self.log_target, cov, theta, lp,
                                                     300, RngStream(34, 0))
        rng = RngStream(34, 0)
        log_us = np.log1p(-rng.child(0).uniform(300))
        z = rng.child(1).standard_normal((300, 2))
        scale = np.linalg.cholesky(cov)
        accept = 0
        for t in range(300):
            cand = theta + (z[t, 0] * scale[:, 0] + z[t, 1] * scale[:, 1])
            lp_cand = self.log_target(cand)
            if log_us[t] <= lp_cand - lp:
                theta, lp = cand, lp_cand
                accept += 1
            assert states[t].tobytes() == theta.tobytes()
            assert log_targets[t] == lp
        assert accepts == [accept]

    def test_leaves_its_own_stream_to_the_target(self):
        """Every draw of the walk is on a child stream: a target that draws
        nothing leaves `rng`'s own counter where it was."""
        rng = RngStream(35, 0)
        before = rng.counter
        states, _, accepts = rw_metropolis(self.log_target, np.eye(2), self.MU.copy(),
                                           0.0, 2053, rng, [[0], [1]])
        assert rng.counter == before
        assert 0 < accepts[0] and 0 < accepts[1]

    @pytest.mark.parametrize("blocks", [None, [[0], [1]]])
    def test_a_shorter_chain_is_a_prefix(self, blocks):
        """n steps are the first n of 2n + 3 steps on the same stream, bit
        for bit, whatever the blocks."""
        cov = np.array([[1.0, 0.9], [0.9, 4.0]])
        theta = np.array([0.1, -0.3])
        lp = self.log_target(theta)
        n = 1031
        short, short_lps, _ = rw_metropolis(self.log_target, cov, theta, lp, n,
                                            RngStream(36, 0), blocks)
        long, long_lps, _ = rw_metropolis(self.log_target, cov, theta, lp, 2 * n + 3,
                                          RngStream(36, 0), blocks)
        assert short.tobytes() == long[:n].tobytes()
        assert short_lps.tobytes() == long_lps[:n].tobytes()


class TestProbitGibbs:
    def test_latent_signs(self, pima):
        # Gibbs sweeps by the latent completion's two blocks, each sweep's
        # statistic against the mean map of latents drawn on a twin stream
        completion = probit_latent_completion(pima)
        rngs, twins = [RngStream(10, 0)], [RngStream(10, 0)]
        betas = probit_mle(pima)[0][None, :]
        expected = np.where(pima.response == 1.0, 1.0, -1.0)
        proj = probit_mean_map(pima)
        for _ in range(50):
            m = completion.sample_latents(betas, rngs)
            z = truncated_normal_vector(rowwise(betas, pima.design),
                                        pima.response == 1, twins)
            assert np.all(np.sign(z[0]) == expected)
            assert m.tobytes() == rowwise(z, proj).tobytes()
            betas = completion.sample_params(m, rngs)
            completion.sample_params(m, twins)

    def test_cross_sampler_agreement(self, pima):
        gibbs, _ = probit_gibbs_run(pima, 8000, RngStream(11, 0))
        beta, cov = probit_mle(pima)
        rw = rw_mh_run(probit_bayes_model(pima), 2.0 * cov, beta, 20_000,
                       RngStream(12, 0))
        for i in range(3):
            g = gibbs.states[:, i]
            m = rw.states[:, i]
            se = np.sqrt(g.var() * 3 / len(g) + m.var() * 20 / len(m))
            assert g.mean() == pytest.approx(m.mean(), abs=3 * se)

    def test_synthetic_truth_recovery(self):
        rng = np.random.default_rng(1)
        design = rng.normal(size=(1000, 2))
        beta_true = np.array([0.8, -0.4])
        response = (rng.random(1000)
                    < stats.norm.cdf(design @ beta_true)).astype(float)
        model = ProbitModel(design=design, response=response)
        chain, _ = probit_gibbs_run(model, 4000, RngStream(13, 0))
        post_mean = chain.states.mean(axis=0)
        post_sd = chain.states.std(axis=0)
        assert np.all(np.abs(post_mean - beta_true) < 3 * post_sd)


def outlier_model():
    """A strong slope and one response against it: its latent mean sits
    more than five SDs on the wrong side in about half of the sweeps, so
    the truncated normal takes its tail path there."""
    rng = np.random.default_rng(5)
    x = rng.normal(size=300)
    y = (rng.random(300) < stats.norm.cdf(3.0 * x)).astype(float)
    design = np.column_stack([np.ones(301), np.append(x, 3.0)])
    return ProbitModel(design=design, response=np.append(y, 0.0))


class TestLockstepGibbs:
    @pytest.mark.parametrize("n_chains", [1, 3])
    @pytest.mark.parametrize("which", ["pima", "outlier"])
    def test_chains_match_standalone_runs(self, pima, which, n_chains):
        model = pima if which == "pima" else outlier_model()
        rngs = [RngStream(31, r) for r in range(n_chains)]
        (states, means), = probit_gibbs_groups([(model, rngs)], 200)
        assert states.shape == (n_chains, 200, model.dimension)
        assert means.shape == (n_chains, 200, model.dimension)
        for r in range(n_chains):
            alone = RngStream(31, r)
            chain, means_alone = probit_gibbs_run(model, 200, alone)
            assert states[r].tobytes() == chain.states.tobytes()
            assert means[r].tobytes() == means_alone.tobytes()
            assert rngs[r].counter == alone.counter
        if which == "outlier":
            start = np.broadcast_to(probit_mle(model)[0], (n_chains, 1, 2))
            means = np.concatenate([start, states[:, :-1]], axis=1) @ model.design.T
            bound = -(2.0 * model.response - 1.0) * means
            assert np.any(bound > 5.0)

    @pytest.mark.parametrize("sizes", [(1, 1), (3, 2)])
    @pytest.mark.parametrize("which", ["pima", "outlier"])
    def test_groups_match_standalone_runs(self, pima, which, sizes):
        """Two models on one response in one lockstep: pima with 3 and 2
        covariates, or the outlier model with its intercept-only sub-model,
        whose block mixes tail and central latents.  Every chain equals its
        own `probit_gibbs_run`, stream counter included."""
        full = pima if which == "pima" else outlier_model()
        sub = ProbitModel(design=full.design[:, :full.dimension - 1],
                          response=full.response)
        groups = [(model, [RngStream(37, 10 * g + r) for r in range(k)])
                  for g, (model, k) in enumerate(zip((full, sub), sizes))]
        runs = probit_gibbs_groups(groups, 200)
        for (model, rngs), (states, means) in zip(groups, runs):
            assert states.shape == means.shape == (len(rngs), 200, model.dimension)
            for r, rng in enumerate(rngs):
                alone = RngStream(rng.seed, rng.stream_id)
                chain, means_alone = probit_gibbs_run(model, 200, alone)
                assert states[r].tobytes() == chain.states.tobytes()
                assert means[r].tobytes() == means_alone.tobytes()
                assert rng.counter == alone.counter
        if which == "outlier":
            states = runs[0][0]
            start = np.broadcast_to(probit_mle(full)[0], (sizes[0], 1, 2))
            eta = np.concatenate([start, states[:, :-1]], axis=1) @ full.signed_design.T
            assert np.any(eta < -5.0)

    @pytest.mark.parametrize("n_chains", [1, 3])
    def test_a_shorter_run_is_a_prefix(self, pima, n_chains):
        """n sweeps are the first n of 2n + 3 sweeps on the same streams, bit
        for bit, across the block boundaries of both runs; the chains' own
        streams are left where they were."""
        n = 103
        short = probit_gibbs_groups([(pima, [RngStream(45, r) for r in range(n_chains)])], n)
        rngs = [RngStream(45, r) for r in range(n_chains)]
        (states, means), = probit_gibbs_groups([(pima, rngs)], 2 * n + 3)
        assert short[0][0].tobytes() == states[:, :n].tobytes()
        assert short[0][1].tobytes() == means[:, :n].tobytes()
        assert [rng.counter for rng in rngs] == [
            RngStream(45, r).counter for r in range(n_chains)]

    @pytest.mark.parametrize("which", ["pima", "outlier"])
    def test_the_block_size_moves_no_bit(self, pima, which, monkeypatch):
        """Blocks of 1 sweep, 7 sweeps and the default budget's give
        byte-identical states and means, over two groups of 2 and 1 chains."""
        full = pima if which == "pima" else outlier_model()
        sub = ProbitModel(design=full.design[:, :full.dimension - 1],
                          response=full.response)
        sweep_doubles = 3 * full.n_obs
        runs = []
        for budget in (sweep_doubles, 7 * sweep_doubles, mcmc._GIBBS_BLOCK_DOUBLES):
            monkeypatch.setattr(mcmc, "_GIBBS_BLOCK_DOUBLES", budget)
            runs.append(probit_gibbs_groups(
                [(full, [RngStream(46, r) for r in range(2)]), (sub, [RngStream(46, 2)])],
                50))
        for run in runs[1:]:
            for (states, means), (ref_states, ref_means) in zip(run, runs[0]):
                assert states.tobytes() == ref_states.tobytes()
                assert means.tobytes() == ref_means.tobytes()

    def test_nan_eta_in_one_group_fails_the_call(self, pima, monkeypatch):
        sub = ProbitModel(design=pima.design[:, :2], response=pima.response)

        def mle(model):
            beta, cov = probit_mle(model)
            return (np.full_like(beta, np.nan) if model is sub else beta), cov

        monkeypatch.setattr(mcmc, "probit_mle", mle)
        with pytest.raises(FloatingPointError):
            probit_gibbs_groups([(pima, [RngStream(39, 0)]),
                                 (sub, [RngStream(39, 1)])], 10)

    def test_groups_may_have_their_own_responses(self, pima):
        """Groups need only a common n: pima with 3 covariates and its own
        response, and 2 covariates with a response simulated from them, in
        one lockstep.  Every chain equals its own `probit_gibbs_run`."""
        design = pima.design[:, :2]
        beta = probit_mle(ProbitModel(design=design, response=pima.response))[0]
        rng = np.random.default_rng(40)
        simulated = (rng.random(pima.n_obs)
                     < stats.norm.cdf(design @ beta)).astype(float)
        assert not np.array_equal(simulated, pima.response)
        other = ProbitModel(design=design, response=simulated)
        groups = [(pima, [RngStream(40, r) for r in range(2)]),
                  (other, [RngStream(41, r) for r in range(3)])]
        runs = probit_gibbs_groups(groups, 300)
        for (model, rngs), (states, means) in zip(groups, runs):
            for r, rng in enumerate(rngs):
                alone = RngStream(rng.seed, rng.stream_id)
                chain, means_alone = probit_gibbs_run(model, 300, alone)
                assert states[r].tobytes() == chain.states.tobytes()
                assert means[r].tobytes() == means_alone.tobytes()
                assert rng.counter == alone.counter

    def test_groups_must_share_the_number_of_observations(self, pima):
        fewer = ProbitModel(design=pima.design[:-1], response=pima.response[:-1])
        with pytest.raises(ValueError, match="number of observations"):
            probit_gibbs_groups([(pima, [RngStream(40, 0)]),
                                 (fewer, [RngStream(40, 1)])], 10)

    def test_ordinate_from_lockstep_means(self, pima):
        """The full conditional of beta given each sweep's kept mean m, over
        three lockstep chains, is N(m, s (X'X)^{-1}); every row is
        bit-identical to its one-row call."""
        (states, means), = probit_gibbs_groups(
            [(pima, [RngStream(41, r) for r in range(3)])], 20)
        means = means.reshape(-1, pima.dimension)
        beta = states.reshape(-1, pima.dimension).mean(axis=0)
        n = pima.n_obs
        cov = (n / (n + 1.0)) * np.linalg.inv(pima.design.T @ pima.design)
        completion = probit_latent_completion(pima)
        ords = completion.log_full_conditional_param(beta, means)
        oracle = [stats.multivariate_normal(row, cov).logpdf(beta)
                  for row in means]
        np.testing.assert_allclose(ords, oracle, rtol=1e-12, atol=0)
        for i, row in enumerate(means):
            one = completion.log_full_conditional_param(beta, row[None, :])
            assert one.tobytes() == ords[i:i + 1].tobytes()

    def test_kept_mean_centres_the_draw(self, pima):
        """One sweep of three chains: each state is its kept mean plus the
        conditional's scale times normals drawn on a twin stream, bit for
        bit (the float difference beta - m need not round back to them)."""
        completion = probit_latent_completion(pima)
        rngs = [RngStream(43, r) for r in range(3)]
        twins = [RngStream(43, r) for r in range(3)]
        betas = np.outer([1.0, 0.5, 2.0], probit_mle(pima)[0])
        m = completion.sample_latents(betas, rngs)
        beta = completion.sample_params(m, rngs)
        truncated_normal_vector(rowwise(betas, pima.design), pima.response == 1, twins)
        noise = np.array([twin.generator.standard_normal(pima.dimension) for twin in twins])
        g = pima.prior_scale
        cond = MvnParams(np.zeros(pima.dimension), g / (g + 1.0) * np.linalg.inv(pima.xtx))
        assert beta.tobytes() == (m + rowwise(noise, cond.scale)).tobytes()
        assert [r.counter for r in rngs] == [t.counter for t in twins]

    def test_residuals_have_conditional_law(self, pima):
        """Over 3 x 4000 lockstep sweeps the residuals beta_t - m_t are
        draws of N(0, c (X'X)^{-1}): their mean lies within 4 SE of 0 and
        their second moments within 4 SE of c (X'X)^{-1}, with
        Var(e_j e_k) = S_jj S_kk + S_jk^2 for a centred Gaussian."""
        (states, means), = probit_gibbs_groups(
            [(pima, [RngStream(47, r) for r in range(3)])], 4000)
        resid = (states - means).reshape(-1, pima.dimension)
        n = len(resid)
        g = pima.prior_scale
        cov = g / (g + 1.0) * np.linalg.inv(pima.xtx)
        mean_se = np.sqrt(np.diag(cov) / n)
        assert np.all(np.abs(resid.mean(axis=0)) < 4 * mean_se)
        second = resid.T @ resid / n
        second_se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov ** 2) / n)
        assert np.all(np.abs(second - cov) < 4 * second_se)


class TestMwg:
    @pytest.mark.parametrize("steps", [
        {"beta_step_var": -1.0}, {"beta_step_var": 0.0},
        {"logsigma_step_var": np.nan}, {"logsigma_step_var": np.inf},
    ])
    def test_step_variances_must_be_finite_and_positive(self, steps):
        key, = steps
        with pytest.raises(ValueError, match=key):
            mwg_probit_overparam_run(np.ones(5), np.ones(5), 10,
                                     RngStream(14, 0), **steps)

    def test_prior_recovery_with_flat_likelihood(self):
        # zero covariate makes the likelihood constant in (beta, sigma2)
        x = np.zeros(50)
        y = np.ones(50)
        chain = mwg_probit_overparam_run(x, y, 60_000, RngStream(14, 0),
                                         beta_step_var=25.0)
        beta = chain.states[5000:, 0]
        se = np.sqrt(25.0 * 10 / len(beta))  # allow correlation inflation
        assert beta.mean() == pytest.approx(0.0, abs=3 * se)
        assert beta.var() == pytest.approx(25.0, rel=0.15)

    @staticmethod
    def closed_form_log_post(x, y, states):
        """The mwg log-posterior written out: sum_i y_i log Phi(eta_i)
        + (1 - y_i) log Phi(-eta_i) with eta = x beta / sigma, plus
        log of sigma^{-4} exp(-1/sigma^2) exp(-beta^2/50)."""
        out = []
        for beta, sigma2 in states:
            eta = x * beta / np.sqrt(sigma2)
            ll = np.sum(y * special.log_ndtr(eta) + (1.0 - y) * special.log_ndtr(-eta))
            out.append(ll - 2.0 * np.log(sigma2) - 1.0 / sigma2 - beta**2 / 50.0)
        return np.array(out)

    @pytest.mark.parametrize("data", ["simulated", "zero-covariate"])
    def test_log_posts_match_closed_form(self, data):
        rng = np.random.default_rng(4)
        x = rng.normal(size=300) if data == "simulated" else np.zeros(300)
        y = (rng.random(300) < stats.norm.cdf(0.7 * x)).astype(float)
        chain = mwg_probit_overparam_run(x, y, 2000, RngStream(18, 0))
        np.testing.assert_allclose(
            chain.log_posts, self.closed_form_log_post(x, y, chain.states),
            rtol=1e-12, atol=0)

    def test_block_rates_nondegenerate(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=1000)
        y = (rng.random(1000) < stats.norm.cdf(0.8 * x)).astype(float)
        chain = mwg_probit_overparam_run(x, y, 4000, RngStream(15, 0))
        meta = chain.proposal_meta
        assert 0.0 < meta["accept_rate_beta"] < 1.0
        assert 0.0 < meta["accept_rate_sigma2"] < 1.0

    @staticmethod
    def walk_draws(n_iter, rng, beta_step_var, logsigma_step_var):
        """The draws of an mwg run of n_iter (beta, l) pairs on `rng`:
        log1p(-u) of each step's uniform (beta steps even, l steps odd) on
        ``rng.child(0)``, then the beta and l increments on ``rng.child(1)``
        and ``rng.child(2)``."""
        log_us = np.log1p(-rng.child(0).uniform(2 * n_iter))
        beta_steps = np.sqrt(beta_step_var) * rng.child(1).standard_normal(n_iter)
        ell_steps = 2.0 * np.sqrt(logsigma_step_var) * rng.child(2).standard_normal(n_iter)
        return log_us, beta_steps, ell_steps

    @classmethod
    def reference_run(cls, x, y, n_iter, rng, beta_step_var=1.0, logsigma_step_var=0.04):
        """The mwg loop in (beta, l = log sigma^2) coordinates, with each
        log-posterior through the one-row `probit_loglik_rows` call and the
        Jacobian l added to it, as (states, log_posts) in (beta, sigma^2)."""
        signed_design = ((2.0 * y - 1.0) * x)[:, None]

        def log_target(beta, ell):
            sigma2 = math.exp(ell)
            ll = probit_loglik_rows(signed_design, np.array([[beta / math.sqrt(sigma2)]]))[0]
            return float(ll + (-2.0 * math.log(sigma2) - 1.0 / sigma2 - beta * beta / 50.0)) + ell

        log_us, beta_steps, ell_steps = cls.walk_draws(n_iter, rng, beta_step_var,
                                                       logsigma_step_var)
        beta, ell = 0.0, 0.0
        lp = log_target(beta, ell)
        states, log_posts = np.empty((n_iter, 2)), np.empty(n_iter)
        for t in range(n_iter):
            cand = beta + beta_steps[t]
            lp_cand = log_target(cand, ell)
            if log_us[2 * t] <= lp_cand - lp:
                beta, lp = cand, lp_cand
            ell_cand = ell + ell_steps[t]
            lp_cand = log_target(beta, ell_cand)
            if log_us[2 * t + 1] <= lp_cand - lp:
                ell, lp = ell_cand, lp_cand
            states[t] = (beta, np.exp(ell))
            log_posts[t] = lp - ell
        return states, log_posts

    @classmethod
    def sigma2_reference_run(cls, x, y, n_iter, rng, beta_step_var=1.0, logsigma_step_var=0.04):
        """The mwg loop in (beta, sigma^2) coordinates, its sigma^2 move
        multiplicative with the log-normal proposal ratio in the accept
        test, and each log-posterior through the one-row
        `probit_loglik_rows` call, as (states, log_posts)."""
        signed_design = ((2.0 * y - 1.0) * x)[:, None]

        def logpost(beta, sigma2):
            if sigma2 <= 0:
                return -np.inf
            ll = probit_loglik_rows(signed_design, np.array([[beta / np.sqrt(sigma2)]]))[0]
            return float(ll + (-2.0 * np.log(sigma2) - 1.0 / sigma2 - beta**2 / 50.0))

        log_us, beta_steps, ell_steps = cls.walk_draws(n_iter, rng, beta_step_var,
                                                       logsigma_step_var)
        beta, sigma2 = 0.0, 1.0
        lp = logpost(beta, sigma2)
        states, log_posts = np.empty((n_iter, 2)), np.empty(n_iter)
        for t in range(n_iter):
            cand = beta + beta_steps[t]
            lp_cand = logpost(cand, sigma2)
            if log_us[2 * t] <= lp_cand - lp:
                beta, lp = cand, lp_cand
            sigma2_cand = sigma2 * np.exp(ell_steps[t])
            lp_cand = logpost(beta, sigma2_cand)
            if log_us[2 * t + 1] <= lp_cand - lp + np.log(sigma2_cand / sigma2):
                sigma2, lp = sigma2_cand, lp_cand
            states[t] = (beta, sigma2)
            log_posts[t] = lp
        return states, log_posts

    def test_a_shorter_run_is_a_prefix(self):
        """n (beta, l) pairs are the first n of 2n + 3 pairs on the same
        stream, bit for bit."""
        rng = np.random.default_rng(6)
        x = rng.normal(size=300)
        y = (rng.random(300) < stats.norm.cdf(0.7 * x)).astype(float)
        n = 1024
        short = mwg_probit_overparam_run(x, y, n, RngStream(24, 0))
        long = mwg_probit_overparam_run(x, y, 2 * n + 3, RngStream(24, 0))
        assert short.states.tobytes() == long.states[:n].tobytes()
        assert short.log_posts.tobytes() == long.log_posts[:n].tobytes()

    @pytest.mark.parametrize("beta_step_var", [1.0, 1e-3])
    def test_bits_equal_the_one_row_reference(self, beta_step_var):
        rng = np.random.default_rng(6)
        x = rng.normal(size=300)
        y = (rng.random(300) < stats.norm.cdf(0.7 * x)).astype(float)
        for seed in (21, 22, 23):
            chain = mwg_probit_overparam_run(x, y, 2000, RngStream(seed, 0),
                                             beta_step_var=beta_step_var)
            assert 0.0 < chain.proposal_meta["accept_rate_beta"] < 1.0
            assert 0.0 < chain.proposal_meta["accept_rate_sigma2"] < 1.0
            states, log_posts = self.reference_run(x, y, 2000, RngStream(seed, 0),
                                                   beta_step_var=beta_step_var)
            assert chain.states.tobytes() == states.tobytes()
            assert chain.log_posts.tobytes() == log_posts.tobytes()

    @pytest.mark.parametrize("beta_step_var", [1.0, 1e-3])
    def test_same_decisions_as_the_sigma2_reference(self, beta_step_var):
        """The (beta, sigma^2) loop, its proposal ratio in the accept test,
        makes every accept decision of the (beta, log sigma^2) chain: beta
        is bit-identical, each block's accept count equal (read off where
        the reference's coordinate moved), and sigma^2 agrees to rounding,
        1e-12 relative."""
        rng = np.random.default_rng(6)
        x = rng.normal(size=300)
        y = (rng.random(300) < stats.norm.cdf(0.7 * x)).astype(float)
        for seed in (21, 22, 23):
            chain = mwg_probit_overparam_run(x, y, 2000, RngStream(seed, 0),
                                             beta_step_var=beta_step_var)
            states, _ = self.sigma2_reference_run(x, y, 2000, RngStream(seed, 0),
                                                  beta_step_var=beta_step_var)
            assert chain.states[:, 0].tobytes() == states[:, 0].tobytes()
            moved = np.diff(states, axis=0, prepend=[[0.0, 1.0]]) != 0
            assert chain.proposal_meta["accept_rate_beta"] == moved[:, 0].sum() / 2000
            assert chain.proposal_meta["accept_rate_sigma2"] == moved[:, 1].sum() / 2000
            np.testing.assert_allclose(chain.states[:, 1], states[:, 1], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("logsigma_step_var", [1e4, 1e6])
    def test_huge_logsigma_steps_stay_in_range(self, logsigma_step_var):
        """log sigma^2 proposals hundreds to thousands of units away make
        e^l underflow or overflow; the target is -inf there, with no
        warning (warnings are errors here), so the chain never leaves
        finite positive sigma^2."""
        rng = np.random.default_rng(6)
        x = rng.normal(size=300)
        y = (rng.random(300) < stats.norm.cdf(0.7 * x)).astype(float)
        for seed in (21, 22, 23):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                chain = mwg_probit_overparam_run(x, y, 2000, RngStream(seed, 0),
                                                 logsigma_step_var=logsigma_step_var)
            sigma2 = chain.states[:, 1]
            assert np.all(np.isfinite(sigma2) & (sigma2 > 0))
            for rate in ("accept_rate_beta", "accept_rate_sigma2"):
                assert 0.0 <= chain.proposal_meta[rate] <= 1.0

    def test_identified_ratio_seed_stable(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=500)
        y = (rng.random(500) < stats.norm.cdf(0.6 * x)).astype(float)
        ratios = []
        for seed in (16, 17):
            chain = mwg_probit_overparam_run(x, y, 30_000, RngStream(seed, 0))
            r = chain.states[5000:, 0] / np.sqrt(chain.states[5000:, 1])
            ratios.append((r.mean(), r.std() / np.sqrt(len(r) / 50.0)))
        gap = abs(ratios[0][0] - ratios[1][0])
        assert gap < 3 * np.hypot(ratios[0][1], ratios[1][1])


@functools.cache
def _mwg_case(case):
    """(x, y) of an mwg input: a bundled pima covariate with its response;
    an all-zero covariate, whose likelihood is constant; or separated data,
    every s_i x_i > 0, whose likelihood has no maximum."""
    if case in ("glu", "bp", "ped"):
        pima = load_pima(bundled_pima_path())
        return pima.design[:, ("glu", "bp", "ped").index(case)], pima.response
    x = np.random.default_rng(8).normal(size=300)
    if case == "zero-covariate":
        return np.zeros(300), (x > 0).astype(float)
    return x, (x > 0).astype(float)


def _tangent_points(x, y):
    """Where the mwg envelope touches its likelihood in r = beta / sigma: 0
    and +-s0 4^j, j = 0..5, s0 = (2/pi sum_i x_i^2)^(-1/2), or 0 alone when
    that sum is 0."""
    curvature = 2.0 / math.pi * float(np.sum(np.asarray(x, dtype=float) ** 2))
    if curvature == 0.0:
        return [0.0]
    s0 = 1.0 / math.sqrt(curvature)
    return [0.0] + [sign * s0 * 4.0 ** j for j in range(6) for sign in (-1.0, 1.0)]


class TestMwgEarlyRejection:
    # a static method parametrized directly: each parameter is a new test
    # instance, and without hypothesis's pytest plugin a method that takes
    # `self` fails HealthCheck.differing_executors on the second one
    @staticmethod
    @pytest.mark.parametrize("case", ["glu", "bp", "ped", "zero-covariate", "separated"])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_envelope_is_above_the_target(case, data):
        """The envelope (the tangent bound plus the prior and Jacobian
        terms) is at least the computed target less the slack: with its own
        value as the floor, the target returns that value.  Points lie far
        off (|beta / sigma| 30 to 1e6), within 1e-3 of a tangent point
        (relative where the point exceeds 1 in size), or at special
        (beta, l), l up to where e^l under- or overflows."""
        x, y = _mwg_case(case)
        log_target = mcmc._overparam_probit_target(x, y)
        kind = data.draw(st.sampled_from(["far", "tangent", "special"]))
        if kind == "special":
            beta = data.draw(st.sampled_from([0.0, 5e-324, -1e-300, 1.0, -30.0, 1e3]))
            ell = data.draw(st.sampled_from([-745.0, -700.0, -1e-300, 0.0, 1e-300,
                                             30.0, 700.0, 709.78]))
        else:
            ell = data.draw(st.floats(-50.0, 50.0))
            if kind == "far":
                r = data.draw(st.one_of(st.floats(-1e6, -30.0), st.floats(30.0, 1e6)))
            else:
                point = data.draw(st.sampled_from(_tangent_points(x, y)))
                r = point + max(abs(point), 1.0) * data.draw(st.floats(-1e-3, 1e-3))
            beta = r * math.sqrt(math.exp(ell))
        theta = np.array([beta, ell])
        with np.errstate(over="ignore"):
            value = log_target(theta, -math.inf)
            if math.isfinite(value):
                assert log_target(theta, value) == value

    @pytest.mark.parametrize("beta_step_var", [1.0, 1e-3])
    @pytest.mark.parametrize("covariate", ["glu", "bp", "ped"])
    def test_bits_equal_the_floorless_run(self, covariate, beta_step_var, monkeypatch):
        """mwg on each pima covariate makes the states, log-posteriors and
        accept rates of the same target with its floor ignored (-inf, so it
        rejects nothing early), on the same stream, bit for bit."""
        x, y = _mwg_case(covariate)
        walk = mcmc.rw_metropolis
        for seed in (21, 22, 23):
            chain = mwg_probit_overparam_run(x, y, 2000, RngStream(seed, 0),
                                             beta_step_var=beta_step_var)
            with monkeypatch.context() as m:
                m.setattr(mcmc, "rw_metropolis", lambda log_target, *args: walk(
                    lambda theta, floor: log_target(theta, -math.inf), *args))
                floorless = mwg_probit_overparam_run(x, y, 2000, RngStream(seed, 0),
                                                     beta_step_var=beta_step_var)
            assert chain.states.tobytes() == floorless.states.tobytes()
            assert chain.log_posts.tobytes() == floorless.log_posts.tobytes()
            assert chain.proposal_meta == floorless.proposal_meta

    def test_most_steps_skip_the_likelihood(self, monkeypatch):
        """A 4000-iteration run on pima glu at the default steps evaluates
        its likelihood (one `log_ndtr` row) on fewer than half of its 8000
        steps, the start included."""
        x, y = _mwg_case("glu")
        rows = []
        log_ndtr = mcmc.log_ndtr
        monkeypatch.setattr(mcmc, "log_ndtr", lambda terms: rows.append(1) or log_ndtr(terms))
        mwg_probit_overparam_run(x, y, 4000, RngStream(3000, 0))
        assert 0 < len(rows) < 4000


class TestDiagnostics:
    def test_iid_iact_near_one(self):
        states = RngStream(18, 0).standard_normal(20_000)[:, None]
        chain = Chain(states, np.zeros(20_000), 0, 0, {})
        diag = chain_diagnostics(chain)
        assert diag["iact"][0] == pytest.approx(1.0, abs=0.1)

    def test_ar1_iact(self):
        rho = 0.9
        rng = RngStream(19, 0)
        x = np.empty(200_000)
        x[0] = 0.0
        noise = rng.standard_normal(len(x))
        for t in range(1, len(x)):
            x[t] = rho * x[t - 1] + noise[t]
        chain = Chain(x[:, None], np.zeros(len(x)), 0, 0, {})
        diag = chain_diagnostics(chain)
        assert diag["iact"][0] == pytest.approx((1 + rho) / (1 - rho), abs=2.0)

    def test_constant_chain_flagged_infinite(self):
        # the float mean of 300 states of 0.1 is not 0.1: centring alone
        # leaves the column a variance of about 1e-34
        for value, n in ((1.0, 500), (0.1, 300)):
            chain = Chain(np.full((n, 1), value), np.zeros(n), 0, n, {})
            diag = chain_diagnostics(chain)
            assert np.isinf(diag["iact"][0]) and diag["chain_ess"][0] == 0

    def test_all_rejected_rate_zero(self):
        chain = Chain(np.ones((500, 1)), np.zeros(500), 0, 500, {})
        assert chain.acceptance_rate == 0.0

    def test_short_chain_rejected(self):
        chain = Chain(np.ones((50, 1)), np.zeros(50), 0, 50, {})
        with pytest.raises(ValueError):
            chain_diagnostics(chain)


class TestAutocorrelations:
    @staticmethod
    def _ar1(rho, n, seed):
        noise = RngStream(seed, 0).standard_normal(n)
        x = np.empty(n)
        x[0] = noise[0]
        for t in range(1, n):
            x[t] = rho * x[t - 1] + noise[t]
        return x

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.95])
    @pytest.mark.parametrize("n", [100, 1013, 10_000])
    def test_fft_matches_the_direct_lag_means(self, rho, n):
        # rho = 0 is an i.i.d. chain; the FFT must give, lag by lag, the
        # mean of the n - k lagged products over the variance, up to the
        # largest lag the FFT's zero padding has to keep from wrapping
        x = self._ar1(rho, n, seed=int(100 * rho) + n)
        for max_lag in (min(n - 2, 2 * int(np.sqrt(n)) + 50), n - 2):
            c = x - x.mean()
            var = np.mean(c * c)
            direct = np.array([np.mean(c[:n - k] * c[k:]) / var
                               for k in range(max_lag + 1)])
            acf = mcmc._autocorrelations(x, max_lag)
            np.testing.assert_allclose(acf, direct, rtol=0, atol=1e-12)
            assert mcmc._iact(acf) == pytest.approx(mcmc._iact(direct), rel=1e-12)
