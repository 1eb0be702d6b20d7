"""Evidence estimators against a conjugate normal-normal oracle.

One observation y with unit observation noise and a N(0, tau^2) prior
gives evidence m(y) = N(y; 0, tau^2 + 1) and posterior
N(tau^2 y / (tau^2 + 1), tau^2 / (tau^2 + 1)) in closed form, so every
route to the evidence can be checked against the same exact numbers.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from bayescomp.core import MvnParams, RngStream, log_sum_exp
from bayescomp.datasets import bundled_pima_path, load_pima
from bayescomp.evidence import (
    BridgeError,
    EvidenceEstimate,
    LinearGaussianOmega,
    PhiSpec,
    bayes_factor,
    bf_importance,
    bf_prior_mc,
    bridge_embedded,
    bridge_sampling,
    chib_marginal,
    harmonic_mean_gd,
    newton_raftery_hm,
)
from bayescomp.mcmc import probit_gibbs_run
from bayescomp.model import BayesModel, log_posterior
from bayescomp.montecarlo import GaussianProposal, WeightedSample, ess
from bayescomp.probit import probit_bayes_model

Y_OBS = 0.5


def conjugate(tau2):
    """Model, posterior proposal, and exact log evidence for prior N(0, tau2)."""
    model = BayesModel(
        dimension=1,
        log_prior=lambda th: stats.norm.logpdf(th[..., 0], 0.0, np.sqrt(tau2)),
        log_likelihood=lambda th: stats.norm.logpdf(Y_OBS, th[..., 0], 1.0),
        sample_prior=lambda n, rng: np.sqrt(tau2) * rng.standard_normal((n, 1)),
    )
    post_mean = tau2 * Y_OBS / (tau2 + 1.0)
    post_var = tau2 / (tau2 + 1.0)
    posterior = GaussianProposal(MvnParams(np.array([post_mean]),
                                           np.array([[post_var]])))
    log_m = float(stats.norm.logpdf(Y_OBS, 0.0, np.sqrt(tau2 + 1.0)))
    return model, posterior, log_m


class TestPriorMc:
    def test_recovers_conjugate_bayes_factor(self):
        m0, _, lm0 = conjugate(1.0)
        m1, _, lm1 = conjugate(10.0)
        est = bf_prior_mc(m0, m1, 20000, RngStream(seed=5, stream_id=0))
        assert not est.unreliable
        assert abs(est.log_value - (lm0 - lm1)) < max(3 * est.std_error, 0.02)

    def test_single_draw_flagged_unreliable(self):
        m0, _, _ = conjugate(1.0)
        m1, _, _ = conjugate(10.0)
        est = bf_prior_mc(m0, m1, 1, RngStream(seed=2, stream_id=0))
        assert est.unreliable

    def test_no_prior_sampler_rejected(self):
        bare = BayesModel(dimension=1, log_prior=lambda th: np.zeros(len(th)),
                          log_likelihood=lambda th: np.zeros(len(th)))
        m1, _, _ = conjugate(1.0)
        with pytest.raises(ValueError, match="prior sampler"):
            bf_prior_mc(bare, m1, 10, RngStream(seed=0, stream_id=0))


class TestImportance:
    def test_prior_proposal_reduces_to_prior_mc(self):
        # the prior as an importance proposal (a logpdf_many/draw_many pair)
        def prior_proposal(model):
            return SimpleNamespace(logpdf_many=model.log_prior, draw_many=model.sample_prior)

        m0, _, _ = conjugate(1.0)
        m1, _, _ = conjugate(10.0)
        a = bf_prior_mc(m0, m1, 2000, RngStream(seed=9, stream_id=0))
        b = bf_importance(m0, m1, prior_proposal(m0), prior_proposal(m1),
                          2000, RngStream(seed=9, stream_id=0))
        assert b.log_value == pytest.approx(a.log_value, abs=1e-12)
        assert b.std_error == pytest.approx(a.std_error, abs=1e-12)

    def test_exact_posterior_proposal_has_zero_variance(self):
        # with the true posterior as proposal every importance term equals
        # the evidence exactly, so the estimate is exact and the se is zero
        m0, post0, lm0 = conjugate(1.0)
        m1, post1, lm1 = conjugate(10.0)
        est = bf_importance(m0, m1, post0, post1, 500,
                            RngStream(seed=4, stream_id=0))
        assert est.log_value == pytest.approx(lm0 - lm1, abs=1e-10)
        assert est.std_error < 1e-10

    def test_skewed_proposal_still_unbiased(self):
        m0, post0, lm0 = conjugate(1.0)
        m1, _, lm1 = conjugate(10.0)
        wide1 = GaussianProposal(MvnParams(np.array([0.0]), np.array([[4.0]])))
        est = bf_importance(m0, m1, post0, wide1, 5000,
                            RngStream(seed=6, stream_id=0))
        assert abs(est.log_value - (lm0 - lm1)) < max(3 * est.std_error, 0.02)


class TestBridge:
    @staticmethod
    def _pair():
        m0, post0, lm0 = conjugate(1.0)
        m1, post1, lm1 = conjugate(10.0)
        rng = RngStream(seed=21, stream_id=0)
        s0 = post0.draw_many(4000, rng.child(0))
        s1 = post1.draw_many(4000, rng.child(1))
        lp0 = lambda th: log_posterior(m0, th)
        lp1 = lambda th: log_posterior(m1, th)
        return lp0, lp1, s0, s1, lm0 - lm1

    def test_identical_posteriors_give_exact_zero(self):
        lp0, _, s0, _, _ = self._pair()
        est = bridge_sampling(lp0, lp0, s0, s0)
        assert est.log_value == 0.0

    def test_planted_constant_recovered_exactly(self):
        # when logpost0 - logpost1 is a constant c, the fixed point is c
        # after a single iteration, regardless of the samples
        lp0, _, s0, s1, _ = self._pair()
        c = 3.25
        est = bridge_sampling(lambda th: lp0(th) + c, lp0, s0, s1)
        assert est.log_value == pytest.approx(c, abs=1e-12)

    def test_recovers_conjugate_bayes_factor(self):
        lp0, lp1, s0, s1, truth = self._pair()
        est = bridge_sampling(lp0, lp1, s0, s1)
        assert abs(est.log_value - truth) < max(3 * est.std_error, 0.02)

    def test_start_value_does_not_change_the_limit(self):
        lp0, lp1, s0, s1, _ = self._pair()
        vals = [bridge_sampling(lp0, lp1, s0, s1, log_r0=r0).log_value
                for r0 in (np.log(1e-6), 0.0, np.log(1e6))]
        assert max(vals) - min(vals) < 1e-6

    def test_swap_antisymmetry(self):
        lp0, lp1, s0, s1, _ = self._pair()
        fwd = bridge_sampling(lp0, lp1, s0, s1)
        rev = bridge_sampling(lp1, lp0, s1, s0)
        assert fwd.log_value == pytest.approx(-rev.log_value, abs=1e-7)

    def test_disjoint_supports_raise(self):
        lp_neg = lambda th: np.where(th[:, 0] < 0, 0.0, -np.inf)
        lp_pos = lambda th: np.where(th[:, 0] > 0, 0.0, -np.inf)
        s_neg = -np.abs(np.random.default_rng(0).normal(size=(50, 1))) - 0.1
        s_pos = -s_neg
        with pytest.raises(BridgeError, match="overlap"):
            bridge_sampling(lp_neg, lp_pos, s_neg, s_pos)

    def test_nonconvergence_carries_trace(self):
        lp0, lp1, s0, s1, _ = self._pair()
        with pytest.raises(BridgeError) as err:
            bridge_sampling(lp0, lp1, s0, s1, max_iter=1,
                            log_r0=np.log(1e6))
        assert err.value.trace is not None and len(err.value.trace) >= 2


class TestBridgeEmbedded:
    @staticmethod
    def _nested():
        # model1 adds a parameter psi that the likelihood ignores, with an
        # independent N(0,1) prior: the evidences coincide, so log B01 = 0
        m0, post0, _ = conjugate(1.0)
        m1 = BayesModel(
            dimension=2,
            log_prior=lambda th: (m0.log_prior(th[:, :1])
                                  + stats.norm.logpdf(th[:, 1])),
            log_likelihood=lambda th: m0.log_likelihood(th[:, :1]),
        )
        rng = RngStream(seed=33, stream_id=0)
        s0 = post0.draw_many(3000, rng.child(0))
        s1 = np.column_stack([post0.draw_many(3000, rng.child(1)),
                              rng.child(2).standard_normal(3000)])
        return m0, m1, s0, s1

    def test_recovers_zero_bayes_factor(self):
        m0, m1, s0, s1 = self._nested()
        omega = LinearGaussianOmega.fit(s1[:, :1], s1[:, 1])
        est = bridge_embedded(m0, m1, psi0=[0.0], omega=omega,
                              sample0=s0, sample1=s1,
                              rng=RngStream(seed=40, stream_id=0))
        assert abs(est.log_value) < max(3 * est.std_error, 0.05)

    def test_estimate_invariant_to_omega_choice(self):
        m0, m1, s0, s1 = self._nested()
        fitted = LinearGaussianOmega.fit(s1[:, :1], s1[:, 1])
        manual = LinearGaussianOmega(intercept=[0.2], coef=[[0.1]],
                                     cov=[[0.5]])
        ests = [bridge_embedded(m0, m1, [0.0], om, s0, s1,
                                RngStream(seed=41, stream_id=0))
                for om in (fitted, manual)]
        gap = abs(ests[0].log_value - ests[1].log_value)
        assert gap < 3 * np.hypot(ests[0].std_error, ests[1].std_error) + 0.05

    def test_omega_density_per_row(self):
        omega = LinearGaussianOmega(intercept=[0.2], coef=[[0.5, -1.0]],
                                    cov=[[0.3]])
        rng = RngStream(seed=45, stream_id=0)
        thetas = rng.standard_normal((7, 2))
        psis = omega.draw(thetas, rng)
        assert psis.shape == (7, 1)
        means = 0.2 + thetas @ np.array([0.5, -1.0])
        direct = stats.norm.logpdf(psis[:, 0], means, np.sqrt(0.3))
        assert np.allclose(omega.logpdf(psis, thetas), direct, rtol=1e-12, atol=0)

    def test_non_slice_model_rejected(self):
        m0, m1, s0, s1 = self._nested()
        other = BayesModel(dimension=1,
                           log_prior=m0.log_prior,
                           log_likelihood=lambda th: m0.log_likelihood(th) + 0.1)
        omega = LinearGaussianOmega(intercept=[0.0], coef=[[0.0]], cov=[[1.0]])
        with pytest.raises(ValueError, match="slice"):
            bridge_embedded(other, m1, [0.0], omega, s0, s1,
                            RngStream(seed=43, stream_id=0))

    def test_dimension_mismatch_rejected(self):
        m0, m1, s0, s1 = self._nested()
        omega = LinearGaussianOmega(intercept=[0.0], coef=[[0.0]], cov=[[1.0]])
        with pytest.raises(ValueError, match="dimension"):
            bridge_embedded(m0, m1, [0.0, 0.0], omega, s0, s1,
                            RngStream(seed=44, stream_id=0))


class TestHarmonicGd:
    def test_recovers_conjugate_evidence(self):
        model, post, log_m = conjugate(2.0)
        sample = post.draw_many(20000, RngStream(seed=51, stream_id=0))
        phi = PhiSpec.from_sample(sample, coverage=0.25)
        est = harmonic_mean_gd(lambda th: log_posterior(model, th), sample, phi)
        assert abs(est.log_value - log_m) < max(3 * est.std_error, 0.02)

    def test_full_coverage_also_works(self):
        model, post, log_m = conjugate(2.0)
        sample = post.draw_many(20000, RngStream(seed=52, stream_id=0))
        phi = PhiSpec.from_sample(sample, coverage=1.0)
        est = harmonic_mean_gd(lambda th: log_posterior(model, th), sample, phi)
        assert abs(est.log_value - log_m) < max(3 * est.std_error, 0.03)

    def test_shift_identity(self):
        # adding a constant to the log target shifts the log evidence by
        # exactly that constant
        model, post, _ = conjugate(2.0)
        sample = post.draw_many(2000, RngStream(seed=53, stream_id=0))
        phi = PhiSpec.from_sample(sample, coverage=0.25)
        base = harmonic_mean_gd(lambda th: log_posterior(model, th), sample, phi)
        shifted = harmonic_mean_gd(lambda th: log_posterior(model, th) + 7.5,
                                   sample, phi)
        assert shifted.log_value - base.log_value == pytest.approx(7.5, abs=1e-10)
        assert shifted.std_error == pytest.approx(base.std_error, abs=1e-10)

    def test_target_evaluated_only_inside_the_ellipsoid(self):
        # a draw outside adds a -inf term whatever its target value; with a
        # row-stable target, skipping those rows leaves every bit in place
        pima = load_pima(bundled_pima_path())
        target = probit_bayes_model(pima)
        chain, _ = probit_gibbs_run(pima, 800, RngStream(seed=57, stream_id=0))
        sample = chain.states
        phi = PhiSpec.from_sample(sample, coverage=0.25)
        seen = []

        def recording(th):
            seen.append(th.copy())
            return log_posterior(target, th)

        est = harmonic_mean_gd(recording, sample, phi)
        log_phi = phi.log_density_many(sample)
        inside = log_phi > -np.inf
        assert 0 < inside.sum() < len(sample)
        assert len(seen) == 1 and seen[0].tobytes() == sample[inside].tobytes()
        every_row = log_phi - log_posterior(target, sample)
        expected = -(log_sum_exp(every_row) - np.log(len(sample)))
        assert np.float64(est.log_value).tobytes() == np.float64(expected).tobytes()

    def test_too_few_points_in_ellipsoid(self):
        model, post, _ = conjugate(2.0)
        sample = post.draw_many(100, RngStream(seed=54, stream_id=0))
        phi = PhiSpec(center=np.array([50.0]), scatter=np.array([[0.01]]),
                      coverage=0.25)
        with pytest.raises(RuntimeError, match="ellipsoid"):
            harmonic_mean_gd(lambda th: log_posterior(model, th), sample, phi)

    def test_batch_without_mass_keeps_a_positive_error(self):
        # ordered farthest-first, the first batch of 1000 draws lies wholly
        # outside the coverage-0.25 ellipsoid, so its terms are all -inf; the
        # standard error must still come from the batches that hold mass
        model, post, _ = conjugate(2.0)
        sample = post.draw_many(1000, RngStream(seed=55, stream_id=0))
        phi = PhiSpec.from_sample(sample, coverage=0.25)
        sample = sample[np.argsort(-np.abs(sample[:, 0] - phi.center[0]))]
        assert np.all(phi.log_density_many(sample[:20]) == -np.inf)
        est = harmonic_mean_gd(lambda th: log_posterior(model, th), sample, phi)
        assert est.std_error > 0.0

    def test_standard_error_tracks_replicate_spread(self):
        model, post, _ = conjugate(2.0)
        values, errors = [], []
        for rep in range(40):
            sample = post.draw_many(1000, RngStream(seed=300 + rep, stream_id=0))
            phi = PhiSpec.from_sample(sample, coverage=0.25)
            est = harmonic_mean_gd(lambda th: log_posterior(model, th), sample, phi)
            values.append(est.log_value)
            errors.append(est.std_error)
        assert min(errors) > 0.0
        assert 0.5 < np.median(errors) / np.std(values, ddof=1) < 2.0

    def test_phi_density_normalised(self):
        phi = PhiSpec(center=np.array([0.3]), scatter=np.array([[2.0]]),
                      coverage=0.25)
        grid = np.linspace(-6, 6, 20001)[:, None]
        dens = np.exp(phi.log_density_many(grid))
        # tolerance reflects trapezoid error at the truncation discontinuity
        assert np.trapezoid(dens, grid[:, 0]) == pytest.approx(1.0, abs=2e-3)
        # points outside the ellipsoid carry zero density
        assert phi.log_density_many(np.array([[6.0]]))[0] == -np.inf

    def test_phi_coverage_validated(self):
        with pytest.raises(ValueError):
            PhiSpec(center=np.zeros(1), scatter=np.eye(1), coverage=0.0)
        with pytest.raises(ValueError):
            PhiSpec(center=np.zeros(1), scatter=np.eye(1), coverage=1.5)


class TestNewtonRaftery:
    def test_constant_likelihood_exact(self):
        sample = np.random.default_rng(3).normal(size=(200, 1))
        est = newton_raftery_hm(lambda th: np.full(len(th), -4.0), sample)
        assert est.log_value == pytest.approx(-4.0, abs=1e-12)
        assert est.unreliable

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            newton_raftery_hm(lambda th: np.zeros(len(th)), np.empty((0, 1)))

    def test_much_noisier_than_stabilised_harmonic(self):
        # replicate spread of the plain harmonic mean dwarfs that of the
        # truncated-instrumental version on the same posterior samples
        model, post, _ = conjugate(10.0)
        nr_vals, gd_vals = [], []
        for rep in range(50):
            sample = post.draw_many(2000, RngStream(seed=100 + rep, stream_id=0))
            nr_vals.append(newton_raftery_hm(model.log_likelihood, sample).log_value)
            phi = PhiSpec.from_sample(sample, coverage=0.25)
            gd_vals.append(harmonic_mean_gd(
                lambda th: log_posterior(model, th), sample, phi).log_value)
        assert np.std(nr_vals) > 2.0 * np.std(gd_vals)


class TestChib:
    @staticmethod
    def _setup(tau2=2.0):
        model, post, log_m = conjugate(tau2)
        post_mean = tau2 * Y_OBS / (tau2 + 1.0)
        post_var = tau2 / (tau2 + 1.0)
        # latent-free ordinate: the full conditional of theta given the
        # (irrelevant) latents is the normalised posterior itself, so the
        # ordinate identity is exact at any theta*
        def log_ordinate(th, z):
            return np.full(len(z), stats.norm.logpdf(th[0], post_mean, np.sqrt(post_var)))
        return model, log_ordinate, post, log_m

    def test_latent_free_identity_is_exact(self):
        # 10 terms, the fewest whose weight ESS clears the floor of 10
        model, log_ordinate, _, log_m = self._setup()
        latents = [np.zeros(1)] * 10
        for theta_star in (-1.0, 0.0, 0.33, 1.0, 2.5):
            est = chib_marginal(model, log_ordinate, latents, np.array([theta_star]))
            assert est.log_value == pytest.approx(log_m, abs=1e-12)
            assert not est.unreliable

    def test_one_sweep_flagged_unreliable(self):
        # one ordinate term leaves the batch-means error undefined
        model, log_ordinate, _, log_m = self._setup()
        est = chib_marginal(model, log_ordinate, [np.zeros(1)], np.zeros(1))
        assert est.log_value == pytest.approx(log_m, abs=1e-12)
        assert est.std_error == 0.0 and est.unreliable

    def test_underflow_at_theta_star(self):
        model, _, _, _ = self._setup()
        with pytest.raises(RuntimeError, match="theta"):
            chib_marginal(model, lambda th, z: np.full(len(z), -np.inf),
                          [np.zeros(1)] * 3, np.zeros(1))


class TestBayesFactor:
    def test_ratio_of_two_estimates(self):
        num = EvidenceEstimate(log_value=-3.5, std_error=0.3)
        den = EvidenceEstimate(log_value=-4.25, std_error=0.4, unreliable=True)
        est = bayes_factor(num, den)
        assert est.log_value == 0.75
        assert est.std_error == np.hypot(0.3, 0.4)
        assert est.unreliable
        assert not bayes_factor(num, num).unreliable

    def test_one_draw_per_side_bridge_flagged_unreliable(self):
        lp0, lp1, s0, s1, _ = TestBridge._pair()
        est = bridge_sampling(lp0, lp1, s0[:1], s1[:1])
        assert est.std_error == 0.0 and est.unreliable
        # two draws a side hold a weight ESS of at most 2, under the floor of 10
        assert bridge_sampling(lp0, lp1, s0[:2], s1[:2]).unreliable


class TestWeightEss:
    """Every estimate carries the Kong ESS (sum w)^2 / sum w^2 of its
    terms as weights, and is unreliable when that is under 10 or under 5%
    of them."""

    def test_equal_terms_count_every_draw(self):
        # 5 equal terms have a weight ESS of 5, under the floor of 10; 10 do not
        model, log_ordinate, _, _ = TestChib._setup()
        est = chib_marginal(model, log_ordinate, [np.zeros(1)] * 5, np.zeros(1))
        assert est.weight_ess == 5.0 and est.unreliable
        est = chib_marginal(model, log_ordinate, [np.zeros(1)] * 10, np.zeros(1))
        assert est.weight_ess == 10.0 and not est.unreliable

    def test_equals_the_weighted_sample_ess(self):
        # one Kong ESS: an estimate's and a weighted sample's agree bit for bit
        terms = 3.0 * RngStream(41, 0).standard_normal(500)
        est = newton_raftery_hm(lambda th: -terms, np.zeros((500, 1)))
        ws = WeightedSample(points=np.zeros((500, 1)), log_weights=terms)
        assert est.weight_ess == ess(ws)

    def test_kong_formula(self):
        # terms -loglik = log(1, 2, 3, 4): (10 / 4)^2 / (30 / 16) = 10 / 3
        loglik = -np.log([1.0, 2.0, 3.0, 4.0])
        est = newton_raftery_hm(lambda th: loglik, np.zeros((4, 1)))
        assert est.weight_ess == pytest.approx(10.0 / 3.0, rel=1e-14)

    def test_heavy_tailed_prior_mc_flagged(self):
        # N(0, 100^2) prior draws weighted by the unit likelihood have a
        # weight ESS of about 1.4% of the draws; N(0, 1) ones about 83%
        m0, _, _ = conjugate(1.0)
        m1, _, _ = conjugate(1e4)
        n = 20000
        est = bf_prior_mc(m0, m1, n, RngStream(seed=5, stream_id=0))
        assert est.unreliable and est.weight_ess < 0.05 * n
        alone = bf_prior_mc(m0, m0, n, RngStream(seed=5, stream_id=0))
        assert not alone.unreliable and alone.weight_ess > 0.5 * n

    def test_bayes_factor_keeps_the_smaller(self):
        num = EvidenceEstimate(log_value=0.0, std_error=0.1, weight_ess=30.0)
        den = EvidenceEstimate(log_value=0.0, std_error=0.1, weight_ess=50.0)
        assert bayes_factor(num, den).weight_ess == 30.0
        assert bayes_factor(den, num).weight_ess == 30.0


class TestEstimateContainer:
    def test_negative_std_error_rejected(self):
        with pytest.raises(ValueError):
            EvidenceEstimate(log_value=0.0, std_error=-0.1)
