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
    _TooFewHits,
    _accept_in_order,
    AbcPopulation,
    abc_mcmc,
    abc_pmc,
    abc_reject,
    euclidean_distance,
    probit_abc,
    regression_adjust,
)
from bayescomp.core import CHUNK_ROWS, DegenerateWeightsError, MvnParams, RngStream
from bayescomp.model import SimulableModel
from bayescomp.montecarlo import ess, sample_estimates
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


def normal_mean_model() -> SimulableModel:
    """A standard normal prior on the mean of four unit-normal
    observations, summarised by their mean."""
    return SimulableModel(
        sample_prior=lambda n, rng: rng.standard_normal((n, 1)),
        simulate=lambda th, rng: th + rng.standard_normal((len(th), 4)),
        summary=lambda ys: ys.mean(axis=1, keepdims=True),
        log_prior=lambda th: -0.5 * th[:, 0] ** 2,
    )


class TestConfig:
    """`abc_reject` refuses its arguments before any proposal: this model's
    prior cannot be sampled."""

    @staticmethod
    def reject(n, **mode):
        def sample_prior(n, rng):
            raise AssertionError("abc_reject drew from the prior")

        model = replace(bernoulli_model(), sample_prior=sample_prior)
        return abc_reject(model, Y_OBS, n, RngStream(seed=0, stream_id=0), **mode)

    def test_exactly_one_of_tolerance_and_quantile(self):
        with pytest.raises(ValueError):
            self.reject(10)
        with pytest.raises(ValueError):
            self.reject(10, tolerance=0.5, quantile=0.1)

    def test_bounds(self):
        with pytest.raises(ValueError):
            self.reject(10, tolerance=-1.0)
        with pytest.raises(ValueError):
            self.reject(10, quantile=0.0)
        with pytest.raises(ValueError):
            self.reject(10, quantile=1.5)
        with pytest.raises(ValueError):
            self.reject(0, tolerance=0.5)

    def test_quantile_below_the_acceptance_floor_is_refused(self):
        # the quantile pilot makes n / quantile proposals; below the floor
        # that no generation may fall under, the call is refused before
        # any proposal
        for q in (1e-6, 0.0099, float("nan")):
            with pytest.raises(ValueError, match="0.01"):
                self.reject(10, quantile=q)
        pop = abc_reject(bernoulli_model(), Y_OBS, 10, RngStream(seed=0, stream_id=0),
                         quantile=0.01)
        assert len(pop) == 10 and pop.n_proposals == 1000


class TestReject:
    def test_zero_tolerance_is_exact_posterior(self):
        pop = abc_reject(bernoulli_model(), Y_OBS, 2000,
                         RngStream(seed=3, stream_id=0), tolerance=0.0)
        draws = pop.points[:, 0]
        assert abs(np.mean(draws) - BETA_MEAN) < 0.02 * BETA_MEAN
        assert np.std(draws) == pytest.approx(BETA_SD, rel=0.1)
        assert stats.kstest(draws, stats.beta(4, 3).cdf).pvalue > 1e-3
        assert np.all(pop.distances == 0.0)
        assert pop.epsilon == 0.0 and pop.t == 0
        assert np.all(pop.log_weights == 0.0)

    def test_huge_tolerance_recovers_prior(self):
        pop = abc_reject(bernoulli_model(), Y_OBS, 2000,
                         RngStream(seed=4, stream_id=0), tolerance=100.0)
        assert pop.n_proposals == 2000  # everything accepted
        assert stats.kstest(pop.points[:, 0], stats.uniform.cdf).pvalue > 1e-3

    def test_quantile_mode_ranks_a_single_batch(self):
        pop = abc_reject(bernoulli_model(), Y_OBS, 500,
                         RngStream(seed=5, stream_id=0), quantile=0.25)
        assert pop.n_proposals == 2000
        assert len(pop) == 500
        assert pop.epsilon == pytest.approx(float(pop.distances.max()))
        assert np.all(pop.distances <= pop.epsilon)

    def test_quantile_one_keeps_the_whole_prior_batch(self):
        pop = abc_reject(bernoulli_model(), Y_OBS, 1000,
                         RngStream(seed=6, stream_id=0), quantile=1.0)
        assert pop.n_proposals == 1000
        assert stats.kstest(pop.points[:, 0], stats.uniform.cdf).pvalue > 1e-3

    def test_proposals_needed_decrease_with_tolerance(self):
        # same seed, nested acceptance regions: a looser tolerance can only
        # accept earlier
        counts = []
        for eps in (0.0, 1.0, 2.0):
            pop = abc_reject(bernoulli_model(), Y_OBS, 300,
                             RngStream(seed=7, stream_id=0), tolerance=eps)
            counts.append(pop.n_proposals)
        assert counts[0] >= counts[1] >= counts[2]

    def test_hopeless_tolerance_aborts(self):
        # the distance can never reach the tolerance: the run stops within
        # its budget of n / 1% proposals
        model = SimulableModel(
            sample_prior=lambda n, rng: rng.uniform((n, 1)),
            simulate=lambda th, rng: np.zeros((len(th), 1)),
            summary=lambda ys: ys,
            log_prior=lambda th: np.zeros(len(th)),
        )
        with pytest.raises(RuntimeError, match="acceptance probability"):
            abc_reject(model, np.array([10.0]), 10,
                       RngStream(seed=8, stream_id=0), tolerance=0.5)

    def test_rare_hits_stop_at_the_acceptance_floor(self):
        # theta itself is the summary, so a tolerance of 0.005 accepts 0.5%
        # of prior draws: 10 hits would take about 2000 proposals, beyond
        # the budget of 10 / 1% = 1000; after 768, 4 hits bound the rate
        # below the 6 / 232 that the rest of the budget needs
        model = SimulableModel(
            sample_prior=lambda n, rng: rng.uniform((n, 1)),
            simulate=lambda th, rng: th.copy(),
            summary=lambda ys: ys,
            log_prior=lambda th: np.where((th[:, 0] >= 0.0) & (th[:, 0] <= 1.0),
                                          0.0, -np.inf),
        )
        with pytest.raises(RuntimeError,
                           match=r"4 accepted in 768 proposals \(rate 0\.00521\)"):
            abc_reject(model, np.zeros(1), 10, RngStream(seed=17, stream_id=0),
                       tolerance=0.005)


class TestMcmc:
    def test_zero_tolerance_targets_the_posterior(self):
        chain = abc_mcmc(bernoulli_model(), Y_OBS, 0.0,
                         np.array([[0.04]]), n_iter=20000,
                         rng=RngStream(seed=11, stream_id=0))
        draws = chain.states[2000:, 0]
        assert np.mean(draws) == pytest.approx(BETA_MEAN, abs=0.02)
        assert np.std(draws) == pytest.approx(BETA_SD, rel=0.15)
        assert chain.proposal_meta["family"] == "abc-mcmc"
        assert 0.0 < chain.acceptance_rate < 1.0

    def test_rejection_repeats_previous_state(self):
        rng = RngStream(seed=12, stream_id=0)
        chain = abc_mcmc(bernoulli_model(), Y_OBS, 0.0,
                         np.array([[1.0]]), n_iter=500, rng=rng)
        # every rejection, the first step's included, repeats the state
        # before it; the chain starts from the rejection hit on rng.child(0)
        start = abc_reject(bernoulli_model(), Y_OBS, 1, rng.child(0), tolerance=0.0).points
        before = np.concatenate([start[:, 0], chain.states[:-1, 0]])
        repeats = np.sum(chain.states[:, 0] == before)
        assert repeats == 500 - chain.accept_count

    def test_reproducible_and_valued_at_the_prior(self):
        # a normal prior on the mean of four unit-normal observations: the
        # stored value of every state is its log prior, never the -inf of
        # a missed simulation, and a seed and arguments fix every bit
        model = normal_mean_model()
        y_obs = np.array([0.4, 1.1, -0.2, 0.9])
        a, b = (abc_mcmc(model, y_obs, 0.3, np.array([[0.5]]), 400,
                         RngStream(seed=13, stream_id=0)) for _ in range(2))
        assert a.states.tobytes() == b.states.tobytes()
        assert a.log_posts.tobytes() == b.log_posts.tobytes()
        assert a.accept_count == b.accept_count
        assert 0 < a.accept_count < 400
        np.testing.assert_array_equal(a.log_posts, model.log_prior(a.states))

    @staticmethod
    def walk_simulations(model, y_obs, tolerance, step, seed):
        """An abc_mcmc run of 400 steps, and the rows simulated by its
        walk: every one-row `simulate` call (the rejection start simulates
        one block of 100 rows)."""
        rows = []
        simulate = model.simulate

        def counted(th, rng):
            if len(th) == 1:
                rows.append(th[0, 0])
            return simulate(th, rng)

        chain = abc_mcmc(replace(model, simulate=counted), y_obs, tolerance,
                         np.array([[step]]), 400, RngStream(seed=seed, stream_id=0))
        return chain, np.array(rows)

    def test_prior_below_the_floor_skips_the_simulation(self):
        """With the normal prior, a proposal whose log prior lies below the
        step's acceptance floor is refused before it is simulated: the
        walk makes fewer simulations than steps, and every state is still
        valued at its log prior."""
        model = normal_mean_model()
        chain, rows = self.walk_simulations(model, np.array([0.4, 1.1, -0.2, 0.9]),
                                            0.3, 0.5, 13)
        assert 0 < len(rows) < 400
        assert 0 < chain.accept_count < 400
        np.testing.assert_array_equal(chain.log_posts, model.log_prior(chain.states))

    def test_marjoram_test_order_bit_for_bit(self):
        """The walk of the normal-prior model is the loop of Marjoram et
        al., written out: a proposal whose prior ratio alone fails the
        accept test is refused unsimulated, any other is simulated on the
        walk stream and accepted on a hit; the states agree bit for bit."""
        model = normal_mean_model()
        y_obs = np.array([0.4, 1.1, -0.2, 0.9])
        tolerance = 0.3
        cov = np.array([[0.5]])
        chain = abc_mcmc(model, y_obs, tolerance, cov, 400, RngStream(seed=13, stream_id=0))
        rng = RngStream(seed=13, stream_id=0)
        theta = abc_reject(model, y_obs, 1, rng.child(0), tolerance=tolerance).points
        walk = rng.child(1)
        log_us = np.log1p(-walk.child(0).uniform(400))
        steps = walk.child(1).standard_normal((400, 1)) * MvnParams(np.zeros(1), cov).scale[0, 0]
        eta_obs = model.summary(y_obs[None, :])
        lp = model.log_prior(theta)[0]
        states = np.empty((400, 1))
        for t in range(400):
            cand = theta + steps[t]
            lp_cand = model.log_prior(cand)[0]
            if (log_us[t] <= lp_cand - lp
                    and euclidean_distance(model.summary(model.simulate(cand, walk)),
                                           eta_obs)[0] <= tolerance):
                theta, lp = cand, lp_cand
            states[t] = theta[0]
        assert chain.states.tobytes() == states.tobytes()

    def test_flat_prior_simulates_every_proposal_in_its_support(self):
        """A flat prior is never below the floor, so the walk simulates
        each proposal inside [0, 1] and none outside."""
        chain, rows = self.walk_simulations(bernoulli_model(), Y_OBS, 0.0, 1.0, 12)
        rng = RngStream(seed=12, stream_id=0)
        start = abc_reject(bernoulli_model(), Y_OBS, 1, rng.child(0),
                           tolerance=0.0).points[0, 0]
        before = np.concatenate([[start], chain.states[:-1, 0]])
        steps = rng.child(1).child(1).standard_normal(400)
        proposals = before + steps
        inside = proposals[(proposals >= 0.0) & (proposals <= 1.0)]
        assert rows.tobytes() == inside.tobytes()


def _uniform_rate_generation(rate, rng):
    """One generation wanting 100 hits within its budget of 10,000
    proposals, whose proposals each hit with probability `rate`: the
    distance is a uniform on [0, 1)."""
    model = SimulableModel(
        sample_prior=lambda n, r: r.uniform((n, 1)),
        simulate=lambda th, r: r.uniform((len(th), 1)),
        summary=lambda ys: ys,
        log_prior=lambda th: np.zeros(len(th)),
    )

    def propose(size, r):
        return model.sample_prior(size, r), np.ones(size, bool)

    return _accept_in_order(propose, model, np.zeros(1), rate, 100, rng)


class TestPmc:
    def test_schedule_strictly_decreases_and_posterior_is_reached(self):
        pops = abc_pmc(bernoulli_model(), Y_OBS, 600, 0.5,
                       n_generations=4, rng=RngStream(seed=21, stream_id=0))
        epsilons = [p.epsilon for p in pops]
        assert all(b < a for a, b in zip(epsilons, epsilons[1:]))
        final = pops[-1]
        assert ess(final) >= 10
        est, _ = sample_estimates(["p"], final.points, final.normalized_weights())
        assert est["mean_p"] == pytest.approx(BETA_MEAN, abs=0.05)

    def test_stalled_quantile_schedule_stops_early(self):
        # distances are integers here; once every particle sits at distance
        # zero the quantile cannot decrease further and the run must stop
        pops = abc_pmc(bernoulli_model(), Y_OBS, 200, 0.9,
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
        pops = abc_pmc(model, np.zeros(1), n, 0.5,
                       n_generations=30,
                       rng=RngStream(seed=25, stream_id=0))
        assert len(pops) < 30
        assert np.quantile(pops[-1].distances, 0.5) < pops[-1].epsilon
        assert all(p.n_proposals <= n / _ACCEPT_FLOOR for p in pops)
        # the last finished population counts the proposals that the dropped
        # generation made, which its early stop may leave short of the budget
        assert 0 < pops[-1].abandoned_proposals <= int(np.ceil(n / _ACCEPT_FLOOR))
        assert all(p.abandoned_proposals == 0 for p in pops[:-1])

    def test_hopeless_generation_stops_within_sixteen_blocks(self):
        # a 0.3% hit rate against the 1% floor; its budget is 40 blocks
        with pytest.raises(_TooFewHits) as short:
            _uniform_rate_generation(0.003, RngStream(seed=31, stream_id=0))
        assert 0 < short.value.proposals <= 16 * CHUNK_ROWS

    def test_generation_just_below_the_floor_stops_before_its_budget(self):
        # a 0.9% hit rate needs about 11,100 proposals for 100 hits; once
        # it falls behind, its bound drops below the rate that the rest of
        # its budget needs, well before the budget is spent
        stopped = []
        for seed in range(50):
            try:
                _uniform_rate_generation(0.009, RngStream(seed=seed, stream_id=33))
            except _TooFewHits as short:
                stopped.append(short.proposals)
        assert stopped and np.mean(stopped) < 8500

    def test_generation_above_the_floor_is_never_stopped(self):
        # a 2% hit rate fills its 100 hits in about 5000 of 10000 proposals
        for seed in range(50):
            particles, *_ = _uniform_rate_generation(0.02, RngStream(seed=seed, stream_id=32))
            assert len(particles) == 100, seed

    def test_generation_below_the_floor_is_dropped(self):
        # the prior's mass sits on two unit intervals 1000 apart, so the
        # kernel fitted to generation 0 spans the gap and lands back on
        # the support about 0.1% of the time; generation 1 is dropped well
        # before its budget of 100 / 1% = 10,000 proposals, after whole
        # blocks of CHUNK_ROWS and at most a quarter of that budget, and
        # generation 0 counts its proposals
        def sample_prior(n, rng):
            u = rng.uniform((n, 1))
            return u + 1000.0 * (u < 0.5)

        def log_prior(th):
            x = th[:, 0]
            inside = ((x >= 0.0) & (x <= 1.0)) | ((x >= 1000.0) & (x <= 1001.0))
            return np.where(inside, 0.0, -np.inf)

        model = SimulableModel(
            sample_prior=sample_prior,
            simulate=lambda th, rng: rng.standard_normal((len(th), 1)),
            summary=lambda ys: ys,
            log_prior=log_prior,
        )
        pops = abc_pmc(model, np.zeros(1), 100, 0.9,
                       n_generations=3, rng=RngStream(seed=26, stream_id=0))
        assert len(pops) == 1
        abandoned = pops[0].abandoned_proposals
        assert 0 < abandoned <= 2500 and abandoned % CHUNK_ROWS == 0, abandoned

    def test_weight_degeneracy_raises(self):
        # deliberately mismatched prior: sampling uniform but weighting by a
        # violently tilted density concentrates all weight on one particle
        model = SimulableModel(
            sample_prior=lambda n, rng: rng.uniform((n, 1)),
            simulate=lambda th, rng: rng.standard_normal((len(th), 1)),
            summary=lambda ys: ys,
            log_prior=lambda th: np.where((th[:, 0] >= 0.0) & (th[:, 0] <= 1.0),
                                          300.0 * th[:, 0], -np.inf),
        )
        with pytest.raises(DegenerateWeightsError, match="generation"):
            abc_pmc(model, np.zeros(1), 100, 0.9,
                    n_generations=3, rng=RngStream(seed=24, stream_id=0))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            abc_pmc(bernoulli_model(), Y_OBS, 50, 0.5,
                    n_generations=3, rng=RngStream(seed=0, stream_id=0))
        with pytest.raises(ValueError):
            abc_pmc(bernoulli_model(), Y_OBS, 100, 0.5,
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
        # n = m and m + 1 at one seed: the first m particles agree and the
        # larger population needs more proposals, both fills mid-block
        m = 100
        small = abc_reject(bernoulli_model(), Y_OBS, m,
                           RngStream(seed=13, stream_id=0), tolerance=0.0)
        large = abc_reject(bernoulli_model(), Y_OBS, m + 1,
                           RngStream(seed=13, stream_id=0), tolerance=0.0)
        np.testing.assert_array_equal(large.points[:m], small.points)
        np.testing.assert_array_equal(large.summaries[:m], small.summaries)
        assert large.n_proposals > small.n_proposals
        assert small.n_proposals % CHUNK_ROWS != 0
        assert large.n_proposals // CHUNK_ROWS == small.n_proposals // CHUNK_ROWS

    def test_proposals_are_counted_not_rounded_to_blocks(self):
        # a prior supported everywhere and a tolerance every proposal meets:
        # rejection needs exactly n proposals, not a whole number of
        # blocks; with theta as its own summary, each sequential generation
        # counts up to its n-th hit, mid-block
        model = SimulableModel(
            sample_prior=lambda n, rng: rng.standard_normal((n, 1)),
            simulate=lambda th, rng: np.zeros((len(th), 1)),
            summary=lambda ys: ys,
            log_prior=lambda th: -0.5 * th[:, 0] ** 2,
        )
        assert abc_reject(model, np.zeros(1), 300, RngStream(seed=14, stream_id=0),
                          tolerance=1.0).n_proposals == 300
        pops = abc_pmc(replace(model, simulate=lambda th, rng: th.copy()), np.zeros(1),
                       300, 0.75, n_generations=3, rng=RngStream(seed=14, stream_id=0))
        assert [p.n_proposals for p in pops] == [400, 550, 535]

    def test_hopeless_tolerance_reports_its_rate(self):
        # 10 hits wanted: the budget is 10 / 1% = 1000 proposals; none in
        # the first 512 bounds the rate below the 10 / 488 still needed
        with pytest.raises(RuntimeError,
                           match="10 hits in 1000 proposals: 0 accepted in 512 proposals"):
            abc_reject(bernoulli_model(), np.full(N_TRIALS, 2.0), 10,
                       RngStream(seed=15, stream_id=0), tolerance=0.0)


class TestAbcPopulation:
    def test_nan_log_weight_is_refused(self):
        with pytest.raises(ValueError, match="NaN log-weight"):
            AbcPopulation(points=np.zeros((3, 1)), log_weights=np.array([0.0, np.nan, 0.0]),
                          epsilon=1.0, t=1, distances=np.zeros(3), n_proposals=3,
                          summaries=np.zeros((3, 1)))


class TestRegressionAdjust:
    def test_removes_a_planted_linear_effect(self):
        # each particle is a constant plus a linear effect of its summary
        # offset, which the weighted regression fits exactly whatever the
        # weights, so the adjustment leaves the constant alone
        rng = np.random.default_rng(3)
        eta_obs = np.array([0.5, -1.0, 2.0])
        summaries = eta_obs + rng.normal(size=(200, 3))
        effect = np.array([[1.5, -0.3], [0.0, 2.0], [-0.7, 0.4]])
        constant = np.array([0.2, -3.0])
        pop = AbcPopulation(
            points=constant + (summaries - eta_obs) @ effect,
            log_weights=rng.normal(size=200), epsilon=1.0, t=2,
            distances=euclidean_distance(summaries, eta_obs),
            n_proposals=500, summaries=summaries)
        kept = [a.copy() for a in (pop.log_weights, pop.summaries, pop.distances)]
        adjusted = regression_adjust(pop, eta_obs)
        np.testing.assert_allclose(adjusted.points,
                                   np.broadcast_to(constant, (200, 2)), rtol=0, atol=1e-10)
        for before, after in zip(kept, (adjusted.log_weights, adjusted.summaries,
                                        adjusted.distances)):
            np.testing.assert_array_equal(after, before)


class TestProbitAbc:
    def test_population_tracks_the_mle(self):
        rng = np.random.default_rng(7)
        n = 200
        x = np.column_stack([np.ones(n), rng.normal(size=n)])
        beta_true = np.array([0.3, 0.8])
        y = (rng.normal(size=n) < x @ beta_true).astype(float)
        model = ProbitModel(design=x, response=y)
        beta_hat, _ = probit_mle(model)

        pop = probit_abc(model, 150, 0.5, 3, RngStream(seed=31, stream_id=0))
        assert isinstance(pop, AbcPopulation)
        assert pop.points.shape == (150, 2)
        assert np.all(np.isfinite(pop.log_weights))
        est, _ = sample_estimates(["b0", "b1"], pop.points, pop.normalized_weights())
        for d in range(2):
            assert abs(est[f"mean_b{d}"] - beta_hat[d]) < 0.5
        again = probit_abc(model, 150, 0.5, 3, RngStream(seed=31, stream_id=0))
        np.testing.assert_array_equal(again.points, pop.points)
        np.testing.assert_array_equal(again.log_weights, pop.log_weights)
