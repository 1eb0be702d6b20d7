"""Likelihood-free samplers on a Bernoulli toy with a sufficient summary.

Three successes in five uniform-prior Bernoulli trials give a Beta(4, 3)
posterior; because the success count is sufficient, zero-tolerance ABC is
exact there and every algorithm can be checked against the same closed
form (mean 4/7, variance 12/392)."""

from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from bayescomp.abc import (
    _ACCEPT_FLOOR,
    AbcConfig,
    AbcPopulation,
    abc_mcmc,
    abc_pmc,
    abc_reject,
    euclidean_distance,
    probit_abc,
)
from bayescomp.core import CHUNK_ROWS, DegenerateWeightsError, RngStream
from bayescomp.mcmc import RwProposal
from bayescomp.model import SimulableModel
from bayescomp.montecarlo import ess, snis_estimate
from bayescomp.probit import ProbitModel, probit_mle

N_TRIALS = 5
Y_OBS = np.array([1.0, 1.0, 1.0, 0.0, 0.0])  # 3 successes
BETA_MEAN = 4.0 / 7.0
BETA_SD = np.sqrt(12.0 / 392.0)


def bernoulli_model() -> SimulableModel:
    def simulate(thetas, rng):
        return (rng.uniform((len(thetas), N_TRIALS)) < thetas[:, :1]).astype(float)

    return SimulableModel(
        sample_prior=lambda n, rng: rng.uniform((n, 1)),
        simulate=simulate,
        summary=lambda ys: np.sum(ys, axis=1, keepdims=True),
        log_prior=lambda th: np.where((th[:, 0] >= 0.0) & (th[:, 0] <= 1.0),
                                      0.0, -np.inf),
    )


class TestConfig:
    def test_exactly_one_of_tolerance_and_quantile(self):
        with pytest.raises(ValueError):
            AbcConfig(n_output=10)
        with pytest.raises(ValueError):
            AbcConfig(n_output=10, tolerance=0.5, quantile=0.1)

    def test_bounds(self):
        with pytest.raises(ValueError):
            AbcConfig(n_output=10, tolerance=-1.0)
        with pytest.raises(ValueError):
            AbcConfig(n_output=10, quantile=0.0)
        with pytest.raises(ValueError):
            AbcConfig(n_output=10, quantile=1.5)
        with pytest.raises(ValueError):
            AbcConfig(n_output=0, tolerance=0.5)


class TestReject:
    def test_zero_tolerance_is_exact_posterior(self):
        config = AbcConfig(n_output=2000, tolerance=0.0)
        pop = abc_reject(bernoulli_model(), Y_OBS, config,
                         RngStream(seed=3, stream_id=0))
        draws = pop.particles[:, 0]
        assert abs(np.mean(draws) - BETA_MEAN) < 0.02 * BETA_MEAN
        assert np.std(draws) == pytest.approx(BETA_SD, rel=0.1)
        assert stats.kstest(draws, stats.beta(4, 3).cdf).pvalue > 1e-3
        assert np.all(pop.distances == 0.0)
        assert pop.epsilon == 0.0 and pop.t == 0
        assert np.all(pop.log_weights == 0.0)

    def test_huge_tolerance_recovers_prior(self):
        config = AbcConfig(n_output=2000, tolerance=100.0)
        pop = abc_reject(bernoulli_model(), Y_OBS, config,
                         RngStream(seed=4, stream_id=0))
        assert pop.n_proposals == 2000  # everything accepted
        assert stats.kstest(pop.particles[:, 0], stats.uniform.cdf).pvalue > 1e-3

    def test_quantile_mode_ranks_a_single_batch(self):
        config = AbcConfig(n_output=500, quantile=0.25)
        pop = abc_reject(bernoulli_model(), Y_OBS, config,
                         RngStream(seed=5, stream_id=0))
        assert pop.n_proposals == 2000
        assert len(pop) == 500
        assert pop.epsilon == pytest.approx(float(pop.distances.max()))
        assert np.all(pop.distances <= pop.epsilon)

    def test_quantile_one_keeps_the_whole_prior_batch(self):
        config = AbcConfig(n_output=1000, quantile=1.0)
        pop = abc_reject(bernoulli_model(), Y_OBS, config,
                         RngStream(seed=6, stream_id=0))
        assert pop.n_proposals == 1000
        assert stats.kstest(pop.particles[:, 0], stats.uniform.cdf).pvalue > 1e-3

    def test_proposals_needed_decrease_with_tolerance(self):
        # same seed, nested acceptance regions: a looser tolerance can only
        # accept earlier
        counts = []
        for eps in (0.0, 1.0, 2.0):
            pop = abc_reject(bernoulli_model(), Y_OBS,
                             AbcConfig(n_output=300, tolerance=eps),
                             RngStream(seed=7, stream_id=0))
            counts.append(pop.n_proposals)
        assert counts[0] >= counts[1] >= counts[2]

    def test_hopeless_tolerance_aborts(self):
        # the distance can never reach the tolerance: the run stops at its
        # budget of n_output / 1% proposals
        model = SimulableModel(
            sample_prior=lambda n, rng: rng.uniform((n, 1)),
            simulate=lambda th, rng: np.zeros((len(th), 1)),
            summary=lambda ys: ys,
            log_prior=lambda th: np.zeros(len(th)),
        )
        config = AbcConfig(n_output=10, tolerance=0.5)
        with pytest.raises(RuntimeError, match="acceptance probability"):
            abc_reject(model, np.array([10.0]), config,
                       RngStream(seed=8, stream_id=0))

    def test_rare_hits_stop_at_the_acceptance_floor(self):
        # theta itself is the summary, so a tolerance of 0.005 accepts 0.5%
        # of prior draws: 10 hits would take about 2000 proposals, beyond
        # the budget of 10 / 1% = 1000
        model = SimulableModel(
            sample_prior=lambda n, rng: rng.uniform((n, 1)),
            simulate=lambda th, rng: th.copy(),
            summary=lambda ys: ys,
            log_prior=lambda th: np.where((th[:, 0] >= 0.0) & (th[:, 0] <= 1.0),
                                          0.0, -np.inf),
        )
        config = AbcConfig(n_output=10, tolerance=0.005)
        with pytest.raises(RuntimeError,
                           match=r"5 accepted in 1000 proposals \(rate 0\.005\)"):
            abc_reject(model, np.zeros(1), config, RngStream(seed=17, stream_id=0))


class TestMcmc:
    def test_zero_tolerance_targets_the_posterior(self):
        config = AbcConfig(n_output=1, tolerance=0.0)
        chain = abc_mcmc(bernoulli_model(), Y_OBS, config,
                         RwProposal(np.array([[0.04]])), n_iter=20000,
                         rng=RngStream(seed=11, stream_id=0))
        draws = chain.states[2000:, 0]
        assert np.mean(draws) == pytest.approx(BETA_MEAN, abs=0.02)
        assert np.std(draws) == pytest.approx(BETA_SD, rel=0.15)
        assert chain.proposal_meta["family"] == "abc-mcmc"
        assert 0.0 < chain.acceptance_rate < 1.0

    def test_rejection_repeats_previous_state(self):
        config = AbcConfig(n_output=1, tolerance=0.0)
        rng = RngStream(seed=12, stream_id=0)
        chain = abc_mcmc(bernoulli_model(), Y_OBS, config,
                         RwProposal(np.array([[1.0]])), n_iter=500, rng=rng)
        # every rejection, the first step's included, repeats the state
        # before it; the chain starts from the rejection hit on rng.child(0)
        start = abc_reject(bernoulli_model(), Y_OBS, config, rng.child(0)).particles
        before = np.concatenate([start[:, 0], chain.states[:-1, 0]])
        repeats = np.sum(chain.states[:, 0] == before)
        assert repeats == 500 - chain.accept_count

    def test_requires_fixed_tolerance(self):
        with pytest.raises(ValueError, match="tolerance"):
            abc_mcmc(bernoulli_model(), Y_OBS,
                     AbcConfig(n_output=1, quantile=0.1),
                     RwProposal(np.eye(1)), 10, RngStream(seed=0, stream_id=0))


class TestPmc:
    def test_schedule_strictly_decreases_and_posterior_is_reached(self):
        config = AbcConfig(n_output=600, quantile=0.5)
        pops = abc_pmc(bernoulli_model(), Y_OBS, config, n_particles=600,
                       n_generations=4, rng=RngStream(seed=21, stream_id=0))
        epsilons = [p.epsilon for p in pops]
        assert all(b < a for a, b in zip(epsilons, epsilons[1:]))
        final = pops[-1]
        assert ess(final.weighted_sample()) >= 10
        rep = snis_estimate(lambda th: th[:, 0], final.weighted_sample())
        assert rep.value == pytest.approx(BETA_MEAN, abs=0.05)

    def test_fixed_tolerance_freezes_the_schedule(self):
        config = AbcConfig(n_output=300, tolerance=1.0)
        pops = abc_pmc(bernoulli_model(), Y_OBS, config, n_particles=300,
                       n_generations=3, rng=RngStream(seed=22, stream_id=0))
        assert [p.epsilon for p in pops] == [1.0, 1.0, 1.0]
        assert len(pops) == 3

    def test_stalled_quantile_schedule_stops_early(self):
        # distances are integers here; once every particle sits at distance
        # zero the quantile cannot decrease further and the run must stop
        config = AbcConfig(n_output=200, quantile=0.9)
        pops = abc_pmc(bernoulli_model(), Y_OBS, config, n_particles=200,
                       n_generations=30, rng=RngStream(seed=23, stream_id=0))
        assert len(pops) < 30
        assert np.quantile(pops[-1].distances, 0.9) >= pops[-1].epsilon

    def test_acceptance_floor_ends_the_schedule(self):
        # the summary is noise that ignores theta, so each generation's
        # quantile tolerance halves the acceptance rate until a generation
        # cannot fill within its proposal budget; the run must then return
        # the finished generations, while the quantile is still decreasing
        model = SimulableModel(
            sample_prior=lambda n, rng: rng.uniform((n, 1)),
            simulate=lambda th, rng: rng.standard_normal((len(th), 1)),
            summary=lambda ys: ys,
            log_prior=lambda th: np.where((th[:, 0] >= 0.0) & (th[:, 0] <= 1.0),
                                          0.0, -np.inf),
        )
        n = 100
        pops = abc_pmc(model, np.zeros(1), AbcConfig(n_output=n, quantile=0.5),
                       n_particles=n, n_generations=30,
                       rng=RngStream(seed=25, stream_id=0))
        assert len(pops) < 30
        assert np.quantile(pops[-1].distances, 0.5) < pops[-1].epsilon
        assert all(p.n_proposals <= n / _ACCEPT_FLOOR for p in pops)
        # the dropped generation spent its whole budget, and the last
        # finished population counts it
        assert pops[-1].abandoned_proposals == int(np.ceil(n / _ACCEPT_FLOOR))
        assert all(p.abandoned_proposals == 0 for p in pops[:-1])

    def test_generation_below_the_floor_raises(self):
        # the prior's mass sits on two unit intervals 1000 apart, so the
        # kernel fitted to generation 0 spans the gap and lands back on
        # the support about 0.1% of the time; every landing is a hit
        def sample_prior(n, rng):
            u = rng.uniform((n, 1))
            return u + 1000.0 * (u < 0.5)

        def log_prior(th):
            x = th[:, 0]
            inside = ((x >= 0.0) & (x <= 1.0)) | ((x >= 1000.0) & (x <= 1001.0))
            return np.where(inside, 0.0, -np.inf)

        model = SimulableModel(
            sample_prior=sample_prior,
            simulate=lambda th, rng: np.zeros((len(th), 1)),
            summary=lambda ys: ys,
            log_prior=log_prior,
        )
        config = AbcConfig(n_output=100, tolerance=1.0)
        with pytest.raises(RuntimeError,
                           match=r"generation 1: acceptance probability .* in 10000 proposals"):
            abc_pmc(model, np.zeros(1), config, n_particles=100,
                    n_generations=3, rng=RngStream(seed=26, stream_id=0))

    def test_weight_degeneracy_raises(self):
        # deliberately mismatched prior: sampling uniform but weighting by a
        # violently tilted density concentrates all weight on one particle
        model = SimulableModel(
            sample_prior=lambda n, rng: rng.uniform((n, 1)),
            simulate=lambda th, rng: np.zeros((len(th), 1)),
            summary=lambda ys: ys,
            log_prior=lambda th: np.where((th[:, 0] >= 0.0) & (th[:, 0] <= 1.0),
                                          300.0 * th[:, 0], -np.inf),
        )
        config = AbcConfig(n_output=100, tolerance=10.0)
        with pytest.raises(DegenerateWeightsError, match="generation"):
            abc_pmc(model, np.zeros(1), config, n_particles=100,
                    n_generations=3, rng=RngStream(seed=24, stream_id=0))

    def test_input_validation(self):
        config = AbcConfig(n_output=100, tolerance=1.0)
        with pytest.raises(ValueError):
            abc_pmc(bernoulli_model(), Y_OBS, config, n_particles=50,
                    n_generations=3, rng=RngStream(seed=0, stream_id=0))
        with pytest.raises(ValueError):
            abc_pmc(bernoulli_model(), Y_OBS, config, n_particles=100,
                    n_generations=1, rng=RngStream(seed=0, stream_id=0))


class TestBlocks:
    """Proposals are drawn, simulated and measured in blocks of CHUNK_ROWS,
    but accepted one at a time in proposal order."""

    def test_distance_rows_match_single_rows(self):
        rng = np.random.default_rng(0)
        summaries = rng.normal(size=(300, 3))
        eta = rng.normal(size=3)
        batched = euclidean_distance(summaries, eta)
        assert batched.shape == (300,)
        single = [euclidean_distance(summaries[i:i + 1], eta)[0] for i in range(300)]
        np.testing.assert_array_equal(batched, single)
        assert batched[0] == np.linalg.norm(summaries[0] - eta)

    def test_one_more_particle_extends_the_same_population(self):
        # n_output m and m + 1 at one seed: the first m particles agree and
        # the larger population needs more proposals, both fills mid-block
        m = 100
        config = AbcConfig(n_output=m, tolerance=0.0)
        small = abc_reject(bernoulli_model(), Y_OBS, config,
                           RngStream(seed=13, stream_id=0))
        large = abc_reject(bernoulli_model(), Y_OBS, replace(config, n_output=m + 1),
                           RngStream(seed=13, stream_id=0))
        np.testing.assert_array_equal(large.particles[:m], small.particles)
        np.testing.assert_array_equal(large.summaries[:m], small.summaries)
        assert large.n_proposals > small.n_proposals
        assert small.n_proposals % CHUNK_ROWS != 0
        assert large.n_proposals // CHUNK_ROWS == small.n_proposals // CHUNK_ROWS

    def test_proposals_are_counted_not_rounded_to_blocks(self):
        # a prior supported everywhere and a tolerance every proposal meets:
        # each generation needs exactly n_particles proposals, not a whole
        # number of blocks
        model = SimulableModel(
            sample_prior=lambda n, rng: rng.standard_normal((n, 1)),
            simulate=lambda th, rng: np.zeros((len(th), 1)),
            summary=lambda ys: ys,
            log_prior=lambda th: -0.5 * th[:, 0] ** 2,
        )
        config = AbcConfig(n_output=300, tolerance=1.0)
        assert abc_reject(model, np.zeros(1), config,
                          RngStream(seed=14, stream_id=0)).n_proposals == 300
        pops = abc_pmc(model, np.zeros(1), config, n_particles=300,
                       n_generations=3, rng=RngStream(seed=14, stream_id=0))
        assert [p.n_proposals for p in pops] == [300, 300, 300]

    def test_hopeless_tolerance_reports_its_rate(self):
        # 10 hits wanted: the budget is 10 / 1% = 1000 proposals, the last
        # block cut to it
        config = AbcConfig(n_output=10, tolerance=0.0)
        with pytest.raises(RuntimeError, match="0 accepted in 1000 proposals"):
            abc_reject(bernoulli_model(), np.full(N_TRIALS, 2.0), config,
                       RngStream(seed=15, stream_id=0))


class TestProbitAbc:
    def test_population_tracks_the_mle(self):
        rng = np.random.default_rng(7)
        n = 200
        x = np.column_stack([np.ones(n), rng.normal(size=n)])
        beta_true = np.array([0.3, 0.8])
        y = (rng.normal(size=n) < x @ beta_true).astype(float)
        model = ProbitModel(design=x, response=y)
        beta_hat, _ = probit_mle(model)

        config = AbcConfig(n_output=150, quantile=0.5)
        pop = probit_abc(model, config, RngStream(seed=31, stream_id=0),
                         n_generations=3)
        assert isinstance(pop, AbcPopulation)
        assert pop.particles.shape == (150, 2)
        assert np.all(np.isfinite(pop.log_weights))
        ws = pop.weighted_sample()
        for d in range(2):
            rep = snis_estimate(lambda th, d=d: th[:, d], ws)
            assert abs(rep.value - beta_hat[d]) < 0.5
        again = probit_abc(model, config, RngStream(seed=31, stream_id=0),
                           n_generations=3)
        np.testing.assert_array_equal(again.particles, pop.particles)
        np.testing.assert_array_equal(again.log_weights, pop.log_weights)
