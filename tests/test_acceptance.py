"""End-to-end acceptance gate.

Each test pins one headline behaviour of the package on the bundled
dataset or a closed-form toy: maximum-likelihood accuracy, importance
sampling effective sizes, random-walk acceptance rates, cross-method
evidence agreement, ordinate identities, likelihood-free exactness,
mixture-mode trapping, capture-recapture posteriors, and core sampler
correctness.  Tolerances are fixed here and nowhere else."""

import json
import numpy as np
import pytest
from scipy import optimize, special, stats

from bayescomp.abc import abc_mcmc, abc_pmc, abc_reject, probit_abc
from bayescomp.capture import CaptureModel, capture_gibbs_run
from bayescomp.cli import resolve_config, run_experiment
from bayescomp.core import (
    RngStream,
    log_sum_exp,
    truncated_normal_vector,
)
from bayescomp.datasets import bundled_pima_path, load_pima
from bayescomp.evidence import (
    LinearGaussianOmega,
    PhiSpec,
    bf_importance,
    bf_prior_mc,
    bridge_embedded,
    bridge_sampling,
    chib_marginal,
    harmonic_mean_gd,
)
from bayescomp.mcmc import probit_gibbs_chains, probit_gibbs_run, rw_mh_run
from bayescomp.model import BayesModel, LatentCompletion, SimulableModel, log_posterior
from bayescomp.montecarlo import (
    GaussianProposal,
    MvnParams,
    WeightedSample,
    ess,
)
from bayescomp.probit import (
    ProbitModel,
    gprior_logpdf_many,
    probit_bayes_model,
    probit_latent_completion,
    probit_loglik,
    probit_loglik_many,
    probit_mle,
    sample_gprior,
)

from oracles import capture_posterior_oracle


@pytest.fixture(scope="module")
def pima3():
    return load_pima(bundled_pima_path())


@pytest.fixture(scope="module")
def pima2(pima3):
    return ProbitModel(design=pima3.design[:, :2], response=pima3.response)


# ---------------------------------------------------------------------------
# 1. Probit maximum likelihood against an independent optimiser
# ---------------------------------------------------------------------------

class TestMaximumLikelihood:
    def test_mle_matches_independent_oracle(self, pima3):
        """Fisher scoring must land on the same optimum as a BFGS oracle
        built from scratch, to 1e-6 per coefficient."""
        beta_hat, cov = probit_mle(pima3)

        X, y = pima3.design, pima3.response

        def nll(b):
            return -probit_loglik(pima3, b)

        def grad(b):
            eta = X @ b
            r = np.where(
                y == 1.0,
                np.exp(stats.norm.logpdf(eta) - special.log_ndtr(eta)),
                -np.exp(stats.norm.logpdf(eta) - special.log_ndtr(-eta)))
            return -(X.T @ r)

        start = optimize.minimize(nll, np.zeros(3), jac=grad, method="BFGS",
                                  options={"gtol": 1e-8}).x
        oracle = optimize.root(grad, start, method="hybr")
        assert np.max(np.abs(grad(oracle.x))) < 1e-8
        assert nll(oracle.x) <= nll(start) + 1e-9  # a maximum, not a saddle
        assert np.max(np.abs(beta_hat - oracle.x)) < 1e-6

        # reported covariance is the inverse expected information, which we
        # recompute from first principles at the oracle optimum
        eta = X @ oracle.x
        prob = special.ndtr(eta)
        w = np.exp(2 * stats.norm.logpdf(eta)) / (prob * (1.0 - prob))
        info = (X * w[:, None]).T @ X
        assert np.allclose(cov, np.linalg.inv(info), rtol=1e-6, atol=1e-12)

    def test_deviances(self, pima3):
        beta_hat, _ = probit_mle(pima3)
        null_dev = 2.0 * pima3.n_obs * np.log(2.0)
        resid_dev = -2.0 * probit_loglik(pima3, beta_hat)
        assert null_dev == pytest.approx(460.25, abs=0.02)
        assert 0.0 < resid_dev < null_dev

    def test_runtime_under_a_second(self, pima3):
        import time
        start = time.monotonic()
        probit_mle(pima3)
        assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------------------
# 2. Effective sample size contrast of three importance proposals
# ---------------------------------------------------------------------------

class TestEssContrast:
    N = 10_000
    SEEDS = range(20)

    def test_proposal_quality_separates_cleanly(self, pima3):
        """A moment-matched Gaussian at twice the MLE covariance keeps most
        of the nominal sample size; the diffuse conjugate prior keeps
        almost none of it and underflows many weights outright."""
        beta_hat, cov = probit_mle(pima3)
        g = GaussianProposal.from_moments(beta_hat, cov, scale=2.0)

        in_band = gp_small = has_zero = 0
        for seed in self.SEEDS:
            rng = RngStream(seed, 0)
            draws = g.draw_many(self.N, rng.child(0))
            lw = (probit_loglik_many(pima3, draws)
                  + gprior_logpdf_many(pima3, draws)
                  - g.logpdf_many(draws))
            e_mle = ess(WeightedSample(points=draws, log_weights=lw))
            in_band += 5500 <= e_mle <= 7000

            prior_draws = sample_gprior(pima3, self.N, rng.child(1))
            ll = probit_loglik_many(pima3, prior_draws)
            e_gp = ess(WeightedSample(points=prior_draws, log_weights=ll))
            gp_small += e_gp < 100
            has_zero += int(np.sum(np.exp(ll) == 0.0)) > 0

        assert in_band >= 18
        assert gp_small >= 18
        assert has_zero >= 18


# ---------------------------------------------------------------------------
# 3. Random-walk acceptance rates scale with the proposal variance
# ---------------------------------------------------------------------------

class TestRandomWalkAcceptance:
    @pytest.mark.parametrize("multiplier,center,tol", [
        (1.0, 0.50, 0.10),
        (5.0, 0.25, 0.08),
        (10.0, 0.15, 0.06),
    ])
    def test_acceptance_band(self, pima2, multiplier, center, tol):
        beta_hat, cov = probit_mle(pima2)
        target = probit_bayes_model(pima2)
        hits = 0
        for seed in range(20):
            chain = rw_mh_run(target, multiplier * cov, beta_hat, 10_000,
                              RngStream(seed, 0))
            hits += abs(chain.acceptance_rate - center) <= tol
        assert hits >= 18


# ---------------------------------------------------------------------------
# 4. Four evidence routes agree on the same Bayes factor
# ---------------------------------------------------------------------------

class TestEvidenceCrossConsistency:
    N = 10_000
    N_REP = 20
    COVERAGE = 0.9  # keeps the harmonic estimator's variance comparable

    def test_pairwise_agreement_and_variance_ratio(self, pima2, pima3):
        """Log Bayes factor for including the third covariate, by
        importance sampling, the instrumental harmonic mean, the posterior
        ordinate, and the embedded bridge: 20 replicates, all pairwise mean
        gaps within 3 combined replicate standard errors.  The harmonic
        route is not much noisier than importance: the importance/harmonic
        replicate-variance ratio is at least 1/3.  The importance route is
        not inflated either: its median reported standard error over the
        replicate SD of its 20 values lies in [0.5, 2]."""
        m0, m1 = probit_bayes_model(pima2), probit_bayes_model(pima3)
        g0 = GaussianProposal.from_moments(*probit_mle(pima2), scale=2.0)
        g1 = GaussianProposal.from_moments(*probit_mle(pima3), scale=2.0)

        # replicate r's chains run on RngStream(2026, r).child(1) and
        # .child(2); one lockstep call per model advances all of them
        rngs = [RngStream(2026, r) for r in range(self.N_REP)]
        states1, means1 = probit_gibbs_chains(pima3, self.N, [rng.child(1) for rng in rngs])
        states0, means0 = probit_gibbs_chains(pima2, self.N, [rng.child(2) for rng in rngs])

        vals = {"importance": [], "harmonic-gd": [], "chib": [],
                "bridge-embedded": []}
        importance_ses = []
        for r, rng in enumerate(rngs):
            est = bf_importance(m1, m0, g1, g0, self.N, rng.child(0))
            vals["importance"].append(est.log_value)
            importance_ses.append(est.std_error)

            parts = []
            for m, states in ((m1, states1[r]), (m0, states0[r])):
                phi = PhiSpec.from_sample(states, self.COVERAGE)
                parts.append(harmonic_mean_gd(
                    lambda b, m=m: log_posterior(m, b), states, phi))
            vals["harmonic-gd"].append(parts[0].log_value - parts[1].log_value)

            parts = []
            for mp, states, means in ((pima3, states1[r], means1[r]),
                                      (pima2, states0[r], means0[r])):
                parts.append(chib_marginal(
                    probit_bayes_model(mp),
                    probit_latent_completion(mp).log_full_conditional_param,
                    means, states.mean(axis=0)))
            vals["chib"].append(parts[0].log_value - parts[1].log_value)

            omega = LinearGaussianOmega.fit(states1[r][:, :2], states1[r][:, 2])
            est = bridge_embedded(m0, m1, np.zeros(1), omega,
                                  states0[r], states1[r], rng.child(3))
            vals["bridge-embedded"].append(-est.log_value)

        means = {k: np.mean(v) for k, v in vals.items()}
        ses = {k: np.std(v, ddof=1) / np.sqrt(self.N_REP)
               for k, v in vals.items()}
        methods = sorted(vals)
        for i, a in enumerate(methods):
            for b in methods[i + 1:]:
                gap = abs(means[a] - means[b])
                assert gap < 3.0 * np.hypot(ses[a], ses[b]), (
                    f"{a} vs {b}: gap {gap:.4f}, "
                    f"ses {ses[a]:.4f}/{ses[b]:.4f}")

        ratio = np.var(vals["importance"], ddof=1) / \
            np.var(vals["harmonic-gd"], ddof=1)
        assert ratio >= 1.0 / 3.0, f"variance ratio {ratio:.3f}"
        calibration = np.median(importance_ses) / np.std(vals["importance"], ddof=1)
        assert 0.5 <= calibration <= 2.0, f"importance SE / SD {calibration:.3f}"


# ---------------------------------------------------------------------------
# 5. The posterior-ordinate identity
# ---------------------------------------------------------------------------

class TestChibIdentity:
    def test_conjugate_identity_exact_at_five_points(self):
        """On the normal-normal model the identity log m = log lik + log
        prior - log posterior holds to machine precision at any point."""
        tau2, y = 2.0, 0.5
        post_mean = tau2 * y / (tau2 + 1.0)
        post_var = tau2 / (tau2 + 1.0)
        model = BayesModel(
            dimension=1,
            log_prior=lambda th: stats.norm.logpdf(th[..., 0], 0.0,
                                                   np.sqrt(tau2)),
            log_likelihood=lambda th: stats.norm.logpdf(y, th[..., 0], 1.0),
        )
        completion = LatentCompletion(
            sample_latents=lambda th, rng: np.zeros(1),
            sample_params=lambda z, rng: np.array([post_mean]),
            log_full_conditional_param=lambda th, z: np.full(
                len(z), stats.norm.logpdf(th[0], post_mean, np.sqrt(post_var))),
        )
        truth = float(stats.norm.logpdf(y, 0.0, np.sqrt(tau2 + 1.0)))
        for theta_star in (-1.5, -0.2, 0.1, 0.8, 2.0):
            est = chib_marginal(model, completion.log_full_conditional_param,
                                [np.zeros(1)] * 5, np.array([theta_star]))
            assert abs(est.log_value - truth) < 1e-12

    def test_probit_ordinate_insensitive_to_evaluation_point(self, pima2):
        """With Rao-Blackwellised conditionals the estimate cannot depend
        on where the ordinate is evaluated, beyond Monte Carlo error."""
        chain, means = probit_gibbs_run(pima2, 4000, RngStream(77, 0))
        model = probit_bayes_model(pima2)
        log_ordinate = probit_latent_completion(pima2).log_full_conditional_param
        mean = chain.states.mean(axis=0)
        sd = chain.states.std(axis=0, ddof=1)
        a = chib_marginal(model, log_ordinate, means, mean)
        b = chib_marginal(model, log_ordinate, means, mean + 0.25 * sd)
        assert abs(a.log_value - b.log_value) < \
            3.0 * np.hypot(a.std_error, b.std_error) + 1e-3


# ---------------------------------------------------------------------------
# 6. Evidence estimators against a closed-form oracle
# ---------------------------------------------------------------------------

class TestEvidenceOracle:
    N = 10_000
    N_REP = 20
    Y = 0.5

    @staticmethod
    def _model(tau2):
        log_norm = -0.5 * np.log(2 * np.pi * tau2)
        return BayesModel(
            dimension=1,
            log_prior=lambda th: log_norm - 0.5 * th[:, 0] ** 2 / tau2,
            log_likelihood=lambda th, y=TestEvidenceOracle.Y: (
                -0.5 * np.log(2 * np.pi) - 0.5 * (y - th[:, 0]) ** 2),
            sample_prior=lambda n, rng: np.sqrt(tau2) * rng.standard_normal((n, 1)),
        )

    @classmethod
    def _posterior(cls, tau2):
        return GaussianProposal(MvnParams(
            np.array([tau2 * cls.Y / (tau2 + 1.0)]),
            np.array([[tau2 / (tau2 + 1.0)]])))

    @classmethod
    def _log_m(cls, tau2):
        return float(stats.norm.logpdf(cls.Y, 0.0, np.sqrt(tau2 + 1.0)))

    def _replicate_checks(self, estimate_fn, truth):
        bad = 0
        for r in range(self.N_REP):
            est = estimate_fn(RngStream(600 + r, 0))
            se = max(est.std_error, 1e-12)
            bad += abs(est.log_value - truth) >= 3.0 * se
        assert bad <= 1, f"{bad} of {self.N_REP} replicates missed 3 se"

    def test_prior_mc(self):
        m0, m1 = self._model(1.0), self._model(10.0)
        truth = self._log_m(1.0) - self._log_m(10.0)
        self._replicate_checks(
            lambda rng: bf_prior_mc(m0, m1, self.N, rng), truth)

    def test_importance(self):
        m0, m1 = self._model(1.0), self._model(10.0)
        g0 = GaussianProposal(MvnParams(np.zeros(1), np.array([[2.0]])))
        g1 = GaussianProposal(MvnParams(np.zeros(1), np.array([[4.0]])))
        truth = self._log_m(1.0) - self._log_m(10.0)
        self._replicate_checks(
            lambda rng: bf_importance(m0, m1, g0, g1, self.N, rng),
            truth)

    def test_bridge(self):
        m0, m1 = self._model(1.0), self._model(10.0)
        p0, p1 = self._posterior(1.0), self._posterior(10.0)
        truth = self._log_m(1.0) - self._log_m(10.0)

        def run(rng):
            s0 = p0.draw_many(self.N, rng.child(0))
            s1 = p1.draw_many(self.N, rng.child(1))
            return bridge_sampling(lambda th: log_posterior(m0, th),
                                   lambda th: log_posterior(m1, th), s0, s1)

        self._replicate_checks(run, truth)

    def test_harmonic_gd(self):
        model, post = self._model(2.0), self._posterior(2.0)
        truth = self._log_m(2.0)

        def run(rng):
            sample = post.draw_many(self.N, rng)
            phi = PhiSpec.from_sample(sample, coverage=0.25)
            return harmonic_mean_gd(lambda th: log_posterior(model, th),
                                    sample, phi)

        self._replicate_checks(run, truth)


# ---------------------------------------------------------------------------
# 7. Likelihood-free exactness and the probit match
# ---------------------------------------------------------------------------

BERN_OBS = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
BETA_MEAN = 4.0 / 7.0
BETA_SD = np.sqrt(12.0 / 392.0)


def _bernoulli_model():
    def simulate(thetas, rng):
        return (rng.uniform((len(thetas), 5)) < thetas[:, :1]).astype(float)

    return SimulableModel(
        sample_prior=lambda n, rng: rng.uniform((n, 1)),
        simulate=simulate,
        summary=lambda data: np.sum(data, axis=1, keepdims=True),
        log_prior=lambda th: np.where((th[:, 0] >= 0.0) & (th[:, 0] <= 1.0),
                                      0.0, -np.inf),
    )


class TestAbcExactness:
    """At zero tolerance with a sufficient summary, every ABC algorithm
    samples the exact Beta(4, 3) posterior of the Bernoulli toy."""

    def _check(self, mean, sd):
        assert abs(mean - BETA_MEAN) < 0.02 * BETA_MEAN
        assert abs(sd - BETA_SD) < 0.02 * BETA_SD

    def test_rejection(self):
        pop = abc_reject(_bernoulli_model(), BERN_OBS, 6000, RngStream(101, 0),
                         tolerance=0.0)
        draws = pop.points[:, 0]
        self._check(np.mean(draws), np.std(draws, ddof=1))

    def test_mcmc(self):
        chain = abc_mcmc(_bernoulli_model(), BERN_OBS, 0.0,
                         np.array([[0.09]]), n_iter=60_000,
                         rng=RngStream(102, 0))
        draws = chain.states[5000:, 0]
        self._check(np.mean(draws), np.std(draws, ddof=1))

    def test_pmc(self):
        # the distance is integer-valued and the prior hits distance zero
        # about one time in six, so a quarter quantile reaches epsilon = 0
        # by the second generation
        pops = abc_pmc(_bernoulli_model(), BERN_OBS, 4000, 0.25,
                       n_generations=4,
                       rng=RngStream(103, 0))
        final = pops[-1]
        assert final.epsilon == 0.0
        w = final.normalized_weights()
        mean = float(w @ final.points[:, 0])
        sd = float(np.sqrt(w @ (final.points[:, 0] - mean) ** 2))
        self._check(mean, sd)


@pytest.fixture(scope="module")
def abc_probit_runs(pima3):
    chain, _ = probit_gibbs_run(pima3, 10_000, RngStream(0, 0))
    gibbs_mean = chain.states.mean(axis=0)
    gibbs_sd = chain.states.std(axis=0, ddof=1)
    pop = probit_abc(pima3, 2000, 0.1, 10, RngStream(1, 0))
    w = pop.normalized_weights()
    abc_mean = w @ pop.points
    abc_sd = np.sqrt(w @ (pop.points - abc_mean) ** 2)
    return gibbs_mean, gibbs_sd, abc_mean, abc_sd


class TestAbcProbitMatch:
    """Sequential ABC on the probit coefficients versus the latent-variable
    Gibbs posterior (2000 particles, 10 generations, 10% quantile)."""

    def test_means_within_ten_percent(self, abc_probit_runs):
        gibbs_mean, _, abc_mean, _ = abc_probit_runs
        rel = np.abs(abc_mean - gibbs_mean) / np.abs(gibbs_mean)
        assert np.all(rel < 0.10), f"relative mean errors {rel}"

    def test_sds_within_ten_percent(self, abc_probit_runs):
        # the ABC population's spread, not only its centre, is the posterior's
        _, gibbs_sd, _, abc_sd = abc_probit_runs
        rel = np.abs(abc_sd - gibbs_sd) / gibbs_sd
        assert np.all(rel < 0.10), f"relative sd errors {rel}"


# ---------------------------------------------------------------------------
# 8. Mixture-mean posterior: step size decides whether chains escape
# ---------------------------------------------------------------------------

class TestMixtureTrapping:
    def _escape_count(self, tau, iterations):
        config = resolve_config("mixture-demo",
                                {"tau": tau, "iterations": iterations})
        escaped = 0
        for seed in range(20):
            config_seeded = dict(config, seed=seed)
            estimates, _, _, _ = run_experiment("mixture-demo", config_seeded)
            escaped += estimates["escaped"] == 1.0
        return escaped

    def test_unit_step_escapes_the_spurious_mode(self):
        assert self._escape_count(tau=1.0, iterations=1000) >= 16

    def test_small_step_stays_trapped(self):
        assert self._escape_count(tau=0.3, iterations=10_000) <= 2


# ---------------------------------------------------------------------------
# 9. Capture-recapture Gibbs against brute-force enumeration
# ---------------------------------------------------------------------------

class TestCaptureRecapture:
    def test_posterior_means_match_oracle(self):
        model = CaptureModel(n1=22, c2=11, c3=6)
        out = capture_gibbs_run(model, 20_000, RngStream(9, 0))
        oracle = capture_posterior_oracle(22, 11, 6, model.n_max, grid=400)
        for key in ("N", "p", "q"):
            est = float(np.mean(out[key][2000:]))
            assert abs(est - oracle[key]) < 0.05 * abs(oracle[key]), (
                f"{key}: gibbs {est:.4f}, oracle {oracle[key]:.4f}")


# ---------------------------------------------------------------------------
# 10. Sampler correctness fundamentals
# ---------------------------------------------------------------------------

class TestSamplerCorrectness:
    def test_three_state_detailed_balance(self):
        """Metropolis chain on {0,1,2}: empirical probability flows must
        balance entrywise at a million steps."""
        target = np.array([0.5, 0.3, 0.2])
        n = 1_000_000
        u = RngStream(42, 0).uniform(2 * n)
        flows = np.zeros((3, 3))
        state = 0
        for t in range(n):
            other = (state + 1 + int(u[2 * t] * 2)) % 3
            if u[2 * t + 1] <= target[other] / target[state]:
                flows[state, other] += 1
                state = other
            else:
                flows[state, state] += 1
        assert np.all(np.abs(flows - flows.T) / n < 1e-2)
        occupancy = flows.sum(axis=1) / n
        assert np.all(np.abs(occupancy - target) < 1e-2)

    def test_bivariate_gibbs_moments(self):
        """Two-block Gibbs on a correlated bivariate normal reproduces the
        stationary moments within three standard errors."""
        rho, n = 0.8, 30_000
        z = RngStream(17, 0).standard_normal(2 * n)
        s = np.sqrt(1.0 - rho * rho)
        xs = np.empty(n)
        ys = np.empty(n)
        x = y = 0.0
        for t in range(n):
            x = rho * y + s * z[2 * t]
            y = rho * x + s * z[2 * t + 1]
            xs[t], ys[t] = x, y
        iact = (1.0 + rho * rho) / (1.0 - rho * rho)
        se_mean = np.sqrt(iact / n)
        assert abs(np.mean(xs)) < 3 * se_mean
        assert abs(np.mean(ys)) < 3 * se_mean
        assert np.std(xs, ddof=1) == pytest.approx(1.0, abs=0.05)
        assert np.corrcoef(xs, ys)[0, 1] == pytest.approx(rho, abs=0.03)

    @pytest.mark.parametrize("mu", [-3.0, 0.0, 2.0, 6.0])
    def test_truncated_normal_ks(self, mu):
        n = 5000
        draws = truncated_normal_vector(np.full((1, n), mu),
                                        np.ones(n, dtype=bool),
                                        [RngStream(int(10 * mu) + 100, 0)])[0]
        assert np.all(draws > 0)
        dist = stats.truncnorm(-mu, np.inf, loc=mu, scale=1.0)
        assert stats.kstest(draws, dist.cdf).pvalue > 1e-3

    def test_log_sum_exp_shift_invariance(self):
        v = np.array([-1001.0, -1000.5, -999.9])
        for shift in (0.0, 500.0, 1000.0, 1e6):
            assert log_sum_exp(v + shift) - shift == \
                pytest.approx(log_sum_exp(v), abs=1e-9)

    def test_full_run_byte_determinism(self):
        config = resolve_config("gibbs", {"iterations": 500, "seed": 3})
        first = run_experiment("gibbs", config)
        second = run_experiment("gibbs", config)
        assert first[0] == second[0]  # estimates, exactly
        names1, states1 = first[3]
        names2, states2 = second[3]
        assert names1 == names2
        assert states1.tobytes() == states2.tobytes()
