"""Metropolis-Hastings, Gibbs, hybrid samplers and diagnostics."""

import numpy as np
import pytest
from scipy import special, stats

from bayescomp.core import RngStream
from bayescomp.datasets import bundled_pima_path, load_pima
from bayescomp.mcmc import (
    Chain,
    RwProposal,
    chain_diagnostics,
    mh_run,
    mwg_probit_overparam_run,
    probit_gibbs_lockstep,
    probit_gibbs_run,
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


@pytest.fixture(scope="module")
def pima():
    return load_pima(bundled_pima_path())


def flat_model(dim=1):
    return BayesModel(dim, lambda t: np.zeros(len(t)), lambda t: np.zeros(len(t)))


class FlipProposal:
    """Deterministic 0 <-> 1 flip on a single coordinate; symmetric."""

    def draw(self, theta, rng):
        return np.array([1.0 - theta[0]])

    def log_density(self, to, frm):
        return 0.0


class TestMhRun:
    def test_flat_target_accepts_everything(self):
        chain = rw_mh_run(flat_model(2), np.eye(2), np.zeros(2), 500,
                          RngStream(1, 0))
        assert chain.acceptance_rate == 1.0

    def test_two_state_frequencies(self):
        probs = {0.0: 0.3, 1.0: 0.7}
        target = BayesModel(1, lambda t: np.zeros(len(t)),
                            lambda t: np.log([probs[float(x)] for x in t[:, 0]]))
        chain = mh_run(target, FlipProposal(), np.zeros(1), 300_000,
                       RngStream(2, 0))
        freq1 = float(np.mean(chain.states[:, 0]))
        assert freq1 == pytest.approx(0.7, abs=0.01)

    def test_bad_start_rejected(self):
        target = BayesModel(1, lambda t: np.full(len(t), -np.inf),
                            lambda t: np.zeros(len(t)))
        with pytest.raises(ValueError):
            mh_run(target, FlipProposal(), np.zeros(1), 10, RngStream(3, 0))

    def test_rejection_repeats_state_bitwise(self):
        # a huge step on a tight target rejects almost always
        target = BayesModel(1, lambda t: np.zeros(len(t)),
                            lambda t: -5e4 * np.sum(t * t, axis=1))
        chain = rw_mh_run(target, 100.0 * np.eye(1), np.zeros(1), 200,
                          RngStream(4, 0))
        repeats = chain.states[1:][np.diff(chain.states[:, 0]) == 0.0]
        assert len(repeats) > 100  # plenty of rejections happened
        rejected = np.flatnonzero(np.diff(chain.states[:, 0]) == 0.0)
        for t in rejected[:20]:
            assert chain.states[t + 1].tobytes() == chain.states[t].tobytes()

    def test_zero_covariance_constant_chain(self):
        target = BayesModel(1, lambda t: np.zeros(len(t)),
                            lambda t: -0.5 * np.sum(t * t, axis=1))
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


class TestProbitGibbs:
    def test_latent_signs(self, pima):
        # the sweeps of probit_gibbs_run, by hand, so every sweep's latents
        # can be read
        completion = probit_latent_completion(pima)
        rngs = [RngStream(10, 0)]
        betas = probit_mle(pima)[0][None, :]
        expected = np.where(pima.response == 1.0, 1.0, -1.0)
        for _ in range(50):
            z = completion.sample_latents(betas, rngs)
            assert np.all(np.sign(z[0]) == expected)
            betas = completion.sample_params(z, rngs)

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
        states, xtz = probit_gibbs_lockstep(model, 200, rngs, keep_xtz=True)
        assert states.shape == (n_chains, 200, model.dimension)
        assert xtz.shape == (n_chains, 200, model.dimension)
        for r in range(n_chains):
            alone = RngStream(31, r)
            chain, xtz_alone = probit_gibbs_run(model, 200, alone, keep_xtz=True)
            assert states[r].tobytes() == chain.states.tobytes()
            assert xtz[r].tobytes() == xtz_alone.tobytes()
            assert rngs[r].counter == alone.counter
        if which == "outlier":
            start = np.broadcast_to(probit_mle(model)[0], (n_chains, 1, 2))
            means = np.concatenate([start, states[:, :-1]], axis=1) @ model.design.T
            bound = -(2.0 * model.response - 1.0) * means
            assert np.any(bound > 5.0)

    def test_ordinate_from_lockstep_xtz(self, pima):
        """The full conditional of beta given each sweep's X'z, over three
        lockstep chains, is N(s (X'X)^{-1} X'z, s (X'X)^{-1}); every row is
        bit-identical to its one-row call."""
        states, xtz = probit_gibbs_lockstep(
            pima, 20, [RngStream(41, r) for r in range(3)], keep_xtz=True)
        xtz = xtz.reshape(-1, pima.dimension)
        beta = states.reshape(-1, pima.dimension).mean(axis=0)
        n = pima.n_obs
        cov = (n / (n + 1.0)) * np.linalg.inv(pima.design.T @ pima.design)
        completion = probit_latent_completion(pima)
        ords = completion.log_full_conditional_param(beta, xtz)
        oracle = [stats.multivariate_normal(cov @ row, cov).logpdf(beta)
                  for row in xtz]
        np.testing.assert_allclose(ords, oracle, rtol=1e-12, atol=0)
        for i, row in enumerate(xtz):
            one = completion.log_full_conditional_param(beta, row[None, :])
            assert one.tobytes() == ords[i:i + 1].tobytes()


class TestMwg:
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
    def reference_run(x, y, n_iter, rng, beta_step_var=1.0, logsigma_step_var=0.04):
        """The mwg loop with each log-posterior through the one-row
        `probit_loglik_rows` call, as (states, log_posts)."""
        signed_design = ((2.0 * y - 1.0) * x)[:, None]

        def logpost(beta, sigma2):
            if sigma2 <= 0:
                return -np.inf
            ll = probit_loglik_rows(signed_design, np.array([[beta / np.sqrt(sigma2)]]))[0]
            return float(ll + (-2.0 * np.log(sigma2) - 1.0 / sigma2 - beta**2 / 50.0))

        beta, sigma2 = 0.0, 1.0
        lp = logpost(beta, sigma2)
        states, log_posts = np.empty((n_iter, 2)), np.empty(n_iter)
        for t in range(n_iter):
            cand = beta + np.sqrt(beta_step_var) * rng.standard_normal()
            lp_cand = logpost(cand, sigma2)
            if np.log(1.0 - rng.uniform()) <= lp_cand - lp:
                beta, lp = cand, lp_cand
            sigma2_cand = sigma2 * np.exp(2.0 * np.sqrt(logsigma_step_var) * rng.standard_normal())
            lp_cand = logpost(beta, sigma2_cand)
            if np.log(1.0 - rng.uniform()) <= lp_cand - lp + np.log(sigma2_cand / sigma2):
                sigma2, lp = sigma2_cand, lp_cand
            states[t] = (beta, sigma2)
            log_posts[t] = lp
        return states, log_posts

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
        chain = Chain(np.ones((500, 1)), np.zeros(500), 0, 500, {})
        diag = chain_diagnostics(chain)
        assert np.isinf(diag["iact"][0])

    def test_all_rejected_rate_zero(self):
        chain = Chain(np.ones((500, 1)), np.zeros(500), 0, 500, {})
        assert chain.acceptance_rate == 0.0

    def test_short_chain_rejected(self):
        chain = Chain(np.ones((50, 1)), np.zeros(50), 0, 50, {})
        with pytest.raises(ValueError):
            chain_diagnostics(chain)
