"""Population Monte Carlo: structural invariants, hand-computed kernel
updates, per-iteration estimator validity, and a negative control showing
that the proposal-density bookkeeping actually matters."""

import numpy as np
import pytest
from scipy import stats

from bayescomp.core import DegenerateWeightsError, RngStream
from bayescomp.model import BayesModel
from bayescomp.montecarlo import (
    GaussianProposal,
    MvnParams,
    WeightedSample,
    ess,
    sample_estimates,
)
from bayescomp.pmc import (
    KernelBank,
    Population,
    _kernel_proposals,
    _mixture_logpdf,
    default_kernel_bank,
    dkernel_update,
    pmc_run,
)

_WEIGHT_FLOOR = 1e-3


def _gauss_model(mean, cov):
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    mvn = stats.multivariate_normal(mean=mean, cov=cov)
    return BayesModel(
        dimension=mean.shape[0],
        log_prior=lambda th: np.zeros(len(th)),
        log_likelihood=lambda th: np.atleast_1d(mvn.logpdf(th)),
    )


def _proposal(mean, cov):
    return GaussianProposal(MvnParams(np.atleast_1d(np.asarray(mean, float)),
                                      np.atleast_2d(np.asarray(cov, float))))


class TestStructure:
    def test_matched_initial_proposal_gives_full_ess(self):
        # q0 == target: every weight is identical, ESS == N exactly.
        target = _gauss_model([1.0, -2.0], np.diag([1.0, 4.0]))
        q0 = _proposal([1.0, -2.0], np.diag([1.0, 4.0]))
        bank = default_kernel_bank(np.eye(2))
        pops = pmc_run(target, q0, bank, n_particles=500, n_iterations=1,
                       rng=RngStream(seed=7, stream_id=0))
        assert len(pops) == 1
        lw = pops[0].log_weights
        assert np.allclose(lw, lw[0])
        assert ess(pops[0]) == pytest.approx(500.0)

    def test_population_bookkeeping(self):
        target = _gauss_model([0.0], [[1.0]])
        q0 = _proposal([0.0], [[9.0]])
        bank = default_kernel_bank(np.eye(1))
        pops = pmc_run(target, q0, bank, n_particles=64, n_iterations=3,
                       rng=RngStream(seed=3, stream_id=0))
        assert [p.iteration for p in pops] == [0, 1, 2]
        assert pops[0].centers is None and pops[0].kernel_indices is None
        for pop in pops[1:]:
            assert pop.centers.shape == pop.points.shape
            assert pop.kernel_indices.shape == (64,)
            assert set(np.unique(pop.kernel_indices)) <= {0, 1, 2}
            # each particle is its centre plus a kernel step, so it cannot
            # coincide with the centre except with probability zero
            assert not np.any(np.all(pop.points == pop.centers, axis=1))

    def test_single_particle_rejected(self):
        target = _gauss_model([0.0], [[1.0]])
        q0 = _proposal([0.0], [[1.0]])
        with pytest.raises(DegenerateWeightsError):
            pmc_run(target, q0, default_kernel_bank(np.eye(1)), n_particles=1,
                    n_iterations=2, rng=RngStream(seed=0, stream_id=0))

    def test_degenerate_weights_name_iteration(self):
        # prior support disjoint from proposal support: all weights -inf.
        target = BayesModel(
            dimension=1,
            log_prior=lambda th: np.where(th[:, 0] > 100.0, 0.0, -np.inf),
            log_likelihood=lambda th: np.zeros(len(th)),
        )
        q0 = _proposal([0.0], [[1.0]])
        with pytest.raises(DegenerateWeightsError, match="iteration 0"):
            pmc_run(target, q0, default_kernel_bank(np.eye(1)), n_particles=50,
                    n_iterations=2, rng=RngStream(seed=1, stream_id=0))

    def test_singular_kernel_names_iteration(self):
        # two surviving particles give a rank-1 kernel covariance in 2-D
        def two_survivors(th):
            return np.where(th[:, 0] >= np.sort(th[:, 0])[-2], 0.0, -np.inf)

        target = BayesModel(dimension=2, log_prior=two_survivors,
                            log_likelihood=lambda th: np.zeros(len(th)))
        q0 = _proposal([0.0, 0.0], np.eye(2))
        with pytest.raises(ValueError, match="iteration 0"):
            pmc_run(target, q0, default_kernel_bank(np.eye(2)), n_particles=50,
                    n_iterations=2, rng=RngStream(seed=1, stream_id=0))

    def test_bad_density_form_rejected(self):
        target = _gauss_model([0.0], [[1.0]])
        q0 = _proposal([0.0], [[1.0]])
        with pytest.raises(ValueError):
            pmc_run(target, q0, default_kernel_bank(np.eye(1)), 50, 2,
                    RngStream(seed=0, stream_id=0), density_form="typo")


class TestKernelBank:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            KernelBank(scales=np.array([1.0, 2.0]),
                       mixture_log_weights=np.log([0.5, 0.4]),
                       base_covariance=np.eye(1))

    def test_nan_weight_or_scale_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            KernelBank(scales=np.array([1.0, 2.0]),
                       mixture_log_weights=np.array([np.log(0.5), np.nan]),
                       base_covariance=np.eye(1))
        with pytest.raises(ValueError, match="positive"):
            KernelBank(scales=np.array([1.0, np.nan]),
                       mixture_log_weights=np.log([0.5, 0.5]),
                       base_covariance=np.eye(1))

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            KernelBank(scales=np.array([1.0, 0.0]),
                       mixture_log_weights=np.log([0.5, 0.5]),
                       base_covariance=np.eye(1))

    def test_default_bank(self):
        bank = default_kernel_bank(2.0 * np.eye(3))
        assert np.allclose(bank.scales, [0.3, 1.0, 3.0])
        assert np.allclose(np.exp(bank.mixture_log_weights), 1.0 / 3.0)
        assert bank.base_covariance.shape == (3, 3)


class TestDkernelUpdate:
    def _pop(self, particles, log_weights, kernel_indices):
        particles = np.atleast_2d(np.asarray(particles, float)).T
        return Population(points=particles,
                          log_weights=np.asarray(log_weights, float),
                          iteration=1, kernel_indices=np.asarray(kernel_indices))

    def test_winner_takes_survival_losers_keep_floor(self):
        # all normalised weight lands on kernel 0
        bank = default_kernel_bank(np.eye(1))
        pop = self._pop([0.0, 1.0, 2.0, 3.0], np.zeros(4), np.zeros(4, dtype=int))
        new = dkernel_update(bank, pop)
        w = np.exp(new.mixture_log_weights)
        expected = np.array([_WEIGHT_FLOOR + (1 - 3 * _WEIGHT_FLOOR),
                             _WEIGHT_FLOOR, _WEIGHT_FLOOR])
        assert np.allclose(w, expected)

    def test_two_kernel_hand_sum(self):
        # kernel 0 collects 0.8 of the weight, kernel 1 the remaining 0.2
        bank = KernelBank(scales=np.array([1.0, 2.0]),
                          mixture_log_weights=np.log([0.5, 0.5]),
                          base_covariance=np.eye(1))
        pop = self._pop([0.0, 1.0, 2.0, 3.0, 4.0],
                        np.log([0.4, 0.4, 0.1, 0.05, 0.05]), [0, 0, 1, 1, 1])
        new = dkernel_update(bank, pop)
        w = np.exp(new.mixture_log_weights)
        keep = 1.0 - 2 * _WEIGHT_FLOOR
        assert np.allclose(w, [_WEIGHT_FLOOR + keep * 0.8,
                               _WEIGHT_FLOOR + keep * 0.2])

    def test_uniform_survival_is_fixed_point(self):
        bank = default_kernel_bank(np.eye(1))
        pop = self._pop([0.0, 1.0, 2.0], np.zeros(3), [0, 1, 2])
        new = dkernel_update(bank, pop)
        assert np.allclose(np.exp(new.mixture_log_weights), 1.0 / 3.0)

    def test_base_covariance_is_weighted_empirical(self):
        bank = default_kernel_bank(np.eye(1))
        x = np.array([0.0, 2.0, 4.0])
        w = np.array([0.5, 0.25, 0.25])
        pop = self._pop(x, np.log(w), [0, 1, 2])
        new = dkernel_update(bank, pop)
        mean = w @ x
        expected = w @ (x - mean) ** 2
        assert new.base_covariance[0, 0] == pytest.approx(expected)

    def test_mixture_density_matches_direct_sum(self):
        # the Rao-Blackwellised density, against a loop over every
        # (kernel, centre) pair
        rng = RngStream(31, 0)
        points = rng.standard_normal((300, 2))
        centers = rng.standard_normal((50, 2))
        bank = KernelBank(scales=np.array([0.3, 1.0, 3.0]),
                          mixture_log_weights=np.log([0.2, 0.5, 0.3]),
                          base_covariance=np.array([[1.0, 0.2], [0.2, 0.5]]))
        direct = np.zeros(len(points))
        for s, lw in zip(bank.scales, bank.mixture_log_weights):
            kern = stats.multivariate_normal(np.zeros(2), s * bank.base_covariance)
            for c in centers:
                direct += np.exp(lw) / len(centers) * kern.pdf(points - c)
        got = _mixture_logpdf(points, centers, _kernel_proposals(bank), bank)
        assert np.allclose(got, np.log(direct), rtol=1e-12, atol=0)

    def test_assignment_length_checked(self):
        # one kernel index per point, checked when the population is built
        with pytest.raises(ValueError):
            self._pop([0.0, 1.0], np.zeros(2), [0])

    def test_iteration_zero_population_is_refused(self):
        # iteration 0 draws from the initial proposal, not from a kernel
        pop = Population(points=np.zeros((3, 1)), log_weights=np.zeros(3), iteration=0)
        with pytest.raises(ValueError, match="iteration 0 has no kernel indices"):
            dkernel_update(default_kernel_bank(np.eye(1)), pop)

    def test_nan_log_weight_is_refused(self):
        with pytest.raises(ValueError, match="NaN log-weight"):
            Population(points=np.zeros((3, 1)), log_weights=np.array([0.0, np.nan, 0.0]),
                       iteration=0)


class TestEstimatorValidity:
    def test_every_iteration_is_valid_importance_sample(self):
        # the adaptation must never bias the SNIS estimate: every iteration,
        # taken alone, estimates the target mean within Monte Carlo error.
        target = _gauss_model([1.5, -0.5], np.array([[1.0, 0.3], [0.3, 0.5]]))
        q0 = _proposal([0.0, 0.0], 9.0 * np.eye(2))
        bank = default_kernel_bank(np.eye(2))
        pops = pmc_run(target, q0, bank, n_particles=4000, n_iterations=4,
                       rng=RngStream(seed=11, stream_id=0))
        for pop in pops:
            est, se = sample_estimates(["a", "b"], pop.points, pop.normalized_weights())
            for d, truth in zip("ab", (1.5, -0.5)):
                assert abs(est[f"mean_{d}"] - truth) < 4.0 * max(se[f"mean_{d}"], 1e-12), (
                    f"iteration {pop.iteration}, coordinate {d}")

    def test_mixture_density_form_also_valid(self):
        target = _gauss_model([2.0], [[0.7]])
        q0 = _proposal([0.0], [[9.0]])
        bank = default_kernel_bank(np.eye(1))
        pops = pmc_run(target, q0, bank, n_particles=800, n_iterations=3,
                       rng=RngStream(seed=13, stream_id=0),
                       density_form="mixture")
        est, _ = sample_estimates(["x"], pops[-1].points, pops[-1].normalized_weights())
        assert est["mean_x"] == pytest.approx(2.0, abs=0.15)

    def test_wrong_density_bookkeeping_is_detectably_biased(self):
        # Negative control: reweight the final population using kernel
        # densities evaluated at the *wrong* (index-rolled) centres.  On a
        # skewed target the resulting mean fails the same error-bar test
        # that the correct weights pass.
        a = 3.0  # Gamma(3, 1): mean 3, visibly skewed
        target = BayesModel(
            dimension=1,
            log_prior=lambda th: np.zeros(len(th)),
            log_likelihood=lambda th: np.where(
                th[:, 0] > 0,
                (a - 1.0) * np.log(np.abs(th[:, 0])) - th[:, 0], -np.inf),
        )
        q0 = _proposal([3.0], [[9.0]])
        bank = default_kernel_bank(np.eye(1))
        pops = pmc_run(target, q0, bank, n_particles=3000, n_iterations=3,
                       rng=RngStream(seed=17, stream_id=0))
        pop = pops[-1]

        def check(log_weights):
            ws = WeightedSample(points=pop.points, log_weights=log_weights)
            est, se = sample_estimates(["x"], ws.points, ws.normalized_weights())
            return abs(est["mean_x"] - a) / max(se["mean_x"], 1e-12)

        assert check(pop.log_weights) < 4.0

        # recompute the conditional proposal density with rolled centres
        lt = np.array([(a - 1.0) * np.log(x) - x if x > 0 else -np.inf
                       for x in pop.points[:, 0]])
        wrong_centers = np.roll(pop.centers, len(pop) // 2, axis=0)
        scales = bank.scales[pop.kernel_indices]
        # bank adapted over the run; reconstruct the per-particle variance
        # from the *final* population spread instead of tracking it, which
        # is exactly the kind of shortcut the bookkeeping exists to prevent
        diff = pop.points[:, 0] - wrong_centers[:, 0]
        var = scales * np.var(pop.points[:, 0])
        wrong_lq = -0.5 * (np.log(2 * np.pi * var) + diff ** 2 / var)
        assert check(lt - wrong_lq) > 4.0


class TestAdaptation:
    def test_weights_stay_floored_and_normalised(self):
        target = _gauss_model([0.0, 0.0], np.eye(2))
        q0 = _proposal([3.0, -3.0], 16.0 * np.eye(2))
        bank = default_kernel_bank(np.eye(2))
        pops = pmc_run(target, q0, bank, n_particles=1000, n_iterations=5,
                       rng=RngStream(seed=29, stream_id=0))
        # rebuild the bank sequence exactly as the run does
        for pop in pops[1:]:
            bank = dkernel_update(bank, pop)
            w = np.exp(bank.mixture_log_weights)
            assert np.all(w >= _WEIGHT_FLOOR - 1e-12)
            assert np.sum(w) == pytest.approx(1.0)

    def test_ess_improves_from_overdispersed_start(self):
        # from a badly overdispersed q0, adaptation should raise the ESS by
        # the final iteration in the large majority of seeds
        target = _gauss_model([1.0], [[0.5]])
        wins = 0
        for seed in range(20):
            q0 = _proposal([0.0], [[50.0]])
            bank = default_kernel_bank(np.eye(1))
            pops = pmc_run(target, q0, bank, n_particles=400, n_iterations=4,
                           rng=RngStream(seed=seed, stream_id=0))
            if ess(pops[-1]) > ess(pops[0]):
                wins += 1
        assert wins >= 16
