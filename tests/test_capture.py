"""Capture-recapture model: likelihood support, full conditionals against
enumeration, and the Gibbs sampler against a small brute-force oracle."""

import functools
import time
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.special import betainc, betaln, logsumexp

from bayescomp.capture import (
    _NB_TRIES,
    CaptureModel,
    capture_draws,
    capture_gibbs_conditionals,
    capture_gibbs_run,
    capture_loglik,
    n_max_tail_mass,
)
from bayescomp.core import DegenerateWeightsError, RngStream
from bayescomp.datasets import eurodip_1981
from bayescomp.mcmc import Chain, chain_diagnostics

from oracles import capture_joint_oracle, capture_posterior_oracle


@pytest.fixture(scope="module")
def eurodip():
    return eurodip_1981()


class TestLoglik:
    def test_matches_binomial_product(self, eurodip):
        m = eurodip
        N, p, q, r1, r2 = 50, 0.4, 0.3, 5, 3
        direct = (stats.binom.logpmf(m.n1, N, p)
                  + stats.binom.logpmf(r1, m.n1, q)
                  + stats.binom.logpmf(m.c2, m.n1 - r1, p)
                  + stats.binom.logpmf(r2, m.n1 - r1, q)
                  + stats.binom.logpmf(m.c3, m.n1 - r1 - r2, p))
        assert capture_loglik(m, N, p, q, r1, r2) == pytest.approx(
            float(direct), rel=1e-10)

    def test_out_of_support(self, eurodip):
        m = eurodip
        assert capture_loglik(m, m.n1 - 1, 0.4, 0.3, 0, 0) == -np.inf  # N < n1
        assert capture_loglik(m, 50, 0.4, 0.3, m.n1, 0) == -np.inf  # c2 infeasible
        assert capture_loglik(m, 50, 0.4, 0.3, 2, 18) == -np.inf  # c3 infeasible

    def test_boundary_probabilities_finite_handling(self):
        # with p = 1 and q = 0 every event below is certain, so the
        # 0 log 0 convention must give probability one, not -inf
        m = CaptureModel(n1=2, c2=2, c3=2, n_max=10)
        assert capture_loglik(m, 2, 1.0, 0.0, 0, 0) == pytest.approx(0.0)

    def test_needs_a_first_capture(self):
        # under the 1/N prior the posterior is improper when n1 = 0
        with pytest.raises(ValueError, match="n1"):
            CaptureModel(n1=0, c2=0, c3=0)

    def test_recaptures_come_from_the_marked(self):
        # the third occasion recaptures c3 of the n1 marked animals, so no
        # removal pair fits more than n1 of them
        with pytest.raises(ValueError, match="c3"):
            CaptureModel(n1=1, c2=0, c3=5)
        assert CaptureModel(n1=1, c2=0, c3=1).c3 == 1


def _chisquare_pvalue(draws, support, probs):
    """Chi-square p-value of draws against probabilities on `support`,
    pooling the cells expected to hold fewer than 5 draws into one."""
    support = np.asarray(support)
    order = np.argsort(support)
    pos = order[np.searchsorted(support, draws, sorter=order).clip(max=len(support) - 1)]
    hit = support[pos] == draws
    assert hit.all()  # nothing drawn off the support
    observed = np.bincount(pos, minlength=len(support)).astype(float)
    expected = probs * len(draws)
    big = expected >= 5
    obs = np.append(observed[big], observed[~big].sum())
    exp = np.append(expected[big], expected[~big].sum())
    if exp[-1] == 0:
        obs, exp = obs[:-1], exp[:-1]
    return stats.chisquare(obs, exp).pvalue


class TestConditionals:
    def test_p_conditional_is_beta(self, eurodip):
        cond = capture_gibbs_conditionals(eurodip)
        state = {"N": 44, "p": 0.5, "q": 0.5, "r1": 4, "r2": 3}
        rng = RngStream(1, 0)
        draws = np.array([cond["p"](state, rng) for _ in range(4000)])
        m = eurodip
        a = m.n1 + m.c2 + m.c3 + 1
        b = ((state["N"] - m.n1) + (m.n1 - state["r1"] - m.c2)
             + (m.n1 - state["r1"] - state["r2"] - m.c3) + 1)
        assert stats.kstest(draws, stats.beta(a, b).cdf).pvalue > 1e-3

    def test_q_conditional_is_beta(self, eurodip):
        cond = capture_gibbs_conditionals(eurodip)
        state = {"N": 44, "p": 0.5, "q": 0.5, "r1": 4, "r2": 3}
        rng = RngStream(2, 0)
        draws = np.array([cond["q"](state, rng) for _ in range(4000)])
        m = eurodip
        a = state["r1"] + state["r2"] + 1
        b = (m.n1 - state["r1"]) + (m.n1 - state["r1"] - state["r2"]) + 1
        assert stats.kstest(draws, stats.beta(a, b).cdf).pvalue > 1e-3

    def test_n_conditional_matches_enumeration(self, eurodip):
        m = eurodip
        cond = capture_gibbs_conditionals(m)
        state = {"N": 44, "p": 0.6, "q": 0.5, "r1": 4, "r2": 3}
        rng = RngStream(3, 0)
        draws = np.array([cond["N"](state, rng) for _ in range(30_000)])
        ns = np.arange(m.n1, m.n_max + 1)
        logw = (stats.binom.logpmf(m.n1, ns, state["p"]) - np.log(ns))
        w = np.exp(logw - logsumexp(logw))
        mean = float(ns @ w)
        sd = float(np.sqrt(ns**2 @ w - mean**2))
        assert draws.mean() == pytest.approx(mean, abs=4 * sd / np.sqrt(len(draws)))

    def test_sampler_keys(self, eurodip):
        # bench/spans.py times each block by these keys
        assert set(capture_gibbs_conditionals(eurodip)) == {
            "p", "q", "removals", "N"}

    @pytest.mark.parametrize("n_max,seed", [(79, 21), (66, 22)])
    def test_truncated_n_matches_enumeration(self, n_max, seed):
        # at p = 0.3 the untruncated NegBin keeps about 0.70 (n_max = 79,
        # the rejection route) or 0.32 (n_max = 66, the inverse CDF) of
        # its mass below n_max
        m = CaptureModel(n1=22, c2=11, c3=6, n_max=n_max)
        state = {"N": 44, "p": 0.3, "q": 0.5, "r1": 4, "r2": 3}
        cond = capture_gibbs_conditionals(m)
        rng = RngStream(seed, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            draws = np.array([cond["N"](state, rng) for _ in range(20_000)])
        ns = np.arange(m.n1, m.n_max + 1)
        logw = stats.binom.logpmf(m.n1, ns, state["p"]) - np.log(ns)
        probs = np.exp(logw - logsumexp(logw))
        assert _chisquare_pvalue(draws, ns, probs) > 1e-3

    def test_removals_match_enumeration(self, eurodip):
        m = eurodip
        state = {"N": 44, "p": 0.5, "q": 0.3, "r1": 0, "r2": 0}
        cond = capture_gibbs_conditionals(m)
        rng = RngStream(23, 0)
        draws = np.array([cond["removals"](state, rng) for _ in range(20_000)])
        r1, r2 = np.meshgrid(np.arange(m.n1 + 1), np.arange(m.n1 + 1))
        logw = capture_loglik(m, state["N"], state["p"], state["q"],
                              r1.ravel(), r2.ravel())
        keep = np.isfinite(logw)
        codes = r1.ravel()[keep] * (m.n1 + 1) + r2.ravel()[keep]
        probs = np.exp(logw[keep] - logsumexp(logw[keep]))
        drawn = draws[:, 0] * (m.n1 + 1) + draws[:, 1]
        assert _chisquare_pvalue(drawn, codes, probs) > 1e-3

    def test_boundary_probabilities(self, eurodip):
        m = eurodip
        cond = capture_gibbs_conditionals(m)
        rng = RngStream(24, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an invalid (NaN) op would raise
            for _ in range(50):
                # q = 0: nobody emigrates
                assert cond["removals"](
                    {"N": 44, "p": 0.5, "q": 0.0}, rng) == (0, 0)
                # p = 1: every survivor is recaptured, so the removals
                # are exactly what the recapture counts leave
                assert cond["removals"](
                    {"N": 44, "p": 1.0, "q": 0.3}, rng) == (
                        m.n1 - m.c2, m.c2 - m.c3)
                # p = 1: nobody escapes the first capture
                assert cond["N"]({"p": 1.0}, rng) == m.n1
            with pytest.raises(DegenerateWeightsError):
                cond["removals"]({"N": 44, "p": 1.0, "q": 0.0}, rng)
        small = CaptureModel(n1=2, c2=2, c3=2, n_max=10)
        assert capture_gibbs_conditionals(small)["removals"](
            {"N": 2, "p": 1.0, "q": 0.0}, rng) == (0, 0)

    def test_hopeless_truncation_warns_and_stays_bounded(self):
        # nearly all of N's mass lies beyond n_max = n1 + 2
        m = CaptureModel(n1=22, c2=11, c3=6, n_max=24)
        assert n_max_tail_mass(m, 1e-3) > 0.99
        cond = capture_gibbs_conditionals(m)
        rng = RngStream(25, 0)
        start = time.perf_counter()
        with pytest.warns(RuntimeWarning, match="n_max=24"):
            draws = [cond["N"]({"p": 1e-3}, rng) for _ in range(200)]
        assert time.perf_counter() - start < 2.0
        assert all(m.n1 <= n <= m.n_max for n in draws)

    def test_no_warning_at_defaults(self, eurodip):
        cond = capture_gibbs_conditionals(eurodip)
        rng = RngStream(26, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = [cond["N"]({"p": 0.6}, rng) for _ in range(200)]
        assert all(eurodip.n1 <= n <= eurodip.n_max for n in draws)

    def test_removals_in_support(self, eurodip):
        cond = capture_gibbs_conditionals(eurodip)
        state = {"N": 44, "p": 0.5, "q": 0.5, "r1": 0, "r2": 0}
        rng = RngStream(4, 0)
        m = eurodip
        for _ in range(200):
            r1, r2 = cond["removals"](state, rng)
            assert m.n1 - r1 >= m.c2 and m.n1 - r1 - r2 >= m.c3


class TestGibbsRun:
    def test_small_model_matches_oracle(self):
        model = CaptureModel(n1=8, c2=3, c3=2, n_max=300)
        with pytest.warns(RuntimeWarning, match="n_max=300"):
            out = capture_gibbs_run(model, 30_000, RngStream(5, 0))
        oracle = capture_posterior_oracle(8, 3, 2, 300, grid=300)
        burn = 1000
        assert np.mean(out["N"][burn:]) == pytest.approx(oracle["N"], rel=0.05)
        assert np.mean(out["p"][burn:]) == pytest.approx(oracle["p"], rel=0.05)
        assert np.mean(out["q"][burn:]) == pytest.approx(oracle["q"], rel=0.05)

    def test_states_stay_in_support(self, eurodip):
        out = capture_gibbs_run(eurodip, 2000, RngStream(6, 0))
        m = eurodip
        assert np.all(out["N"] >= m.n1)
        assert np.all((out["p"] > 0) & (out["p"] < 1))
        assert np.all(m.n1 - out["r1"] >= m.c2)
        assert np.all(m.n1 - out["r1"] - out["r2"] >= m.c3)


def _block_log_weights(m):
    """Exact posterior log-weights of every feasible (r1, r2, N), with p and
    q integrated out.

    The likelihood raises p to n1 + c2 + c3 and 1 - p to (N - n1) + A, A the
    survivors missed at the recaptures, and q to r1 + r2 and 1 - q to
    (n1 - r1) + (n1 - r1 - r2).  So it is evaluated at 1/2, those powers of
    1/2 are taken off, and the integrals, beta functions, put on.
    """
    r1, r2, N = (g.ravel() for g in np.meshgrid(
        np.arange(m.n1 + 1), np.arange(m.n1 + 1), np.arange(m.n1, m.n_max + 1),
        indexing="ij"))
    ll = capture_loglik(m, N, 0.5, 0.5, r1, r2)
    keep = np.isfinite(ll)
    r1, r2, N, ll = r1[keep], r2[keep], N[keep], ll[keep] - np.log(N[keep])
    x = m.n1 + m.c2 + m.c3
    y = (N - m.n1) + (m.n1 - r1 - m.c2) + (m.n1 - r1 - r2 - m.c3)
    u, v = r1 + r2, (m.n1 - r1) + (m.n1 - r1 - r2)
    ll += betaln(x + 1, y + 1) + betaln(u + 1, v + 1) - (x + y + u + v) * np.log(0.5)
    return r1, r2, N, ll


def _code(m, r1, r2, N):
    """One integer per (r1, r2, N) state."""
    size = m.n_max + 1
    r1, r2, N = (np.asarray(v, dtype=int) for v in (r1, r2, N))
    return (r1 * size + r2) * size + N


class TestBlockedScan:
    @pytest.mark.parametrize("counts,seed", [
        ((22, 11, 6, None), 31),  # N > n_max is never proposed
        ((8, 1, 0, 9), 32),  # rejection and the exact route mixed
        ((22, 0, 0, 24), 33),  # rejection hopeless: the exact route
    ])
    def test_block_matches_enumeration(self, counts, seed):
        m = CaptureModel(*counts)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            out = capture_gibbs_run(m, 2000, RngStream(seed, 0))
        r1, r2, N, logw = _block_log_weights(m)
        probs = np.exp(logw - logsumexp(logw))
        drawn = _code(m, out["r1"], out["r2"], out["N"])
        assert _chisquare_pvalue(drawn, _code(m, r1, r2, N), probs) > 1e-3
        # p given (r1, r2, N) is the Beta full conditional
        a = m.n1 + m.c2 + m.c3 + 1
        b = ((out["N"] - m.n1) + (m.n1 - out["r1"] - m.c2)
             + (m.n1 - out["r1"] - out["r2"] - m.c3) + 1)
        assert stats.kstest(stats.beta.cdf(out["p"], a, b),
                            "uniform").pvalue > 1e-3

    def test_mixing_floor_at_defaults(self, eurodip):
        # the single-site scan reads a smallest ESS of 600-777 here
        seeds = (1, 2, 3)
        out = capture_draws(eurodip, 20_000, [RngStream(seed, 0) for seed in seeds])
        for r, seed in enumerate(seeds):
            # the columns N, p, q, r1, r2
            ess = chain_diagnostics(Chain(out[r, :, :5], None, 0, 0))["chain_ess"]
            assert np.min(ess) >= 1000, (seed, ess)

    @pytest.mark.parametrize("n_max,seed", [(None, 34), (24, 35)])
    def test_removal_marginal_matches_enumeration(self, n_max, seed):
        m = CaptureModel(22, 11, 6, n_max)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            out = capture_gibbs_run(m, 40_000, RngStream(seed, 0))
        # every 20th sweep: far apart compared with the chain's IACT
        drawn = (out["r1"][::20] * (m.n1 + 1) + out["r2"][::20]).astype(int)
        r1, r2, _, logw = _block_log_weights(m)
        codes = r1 * (m.n1 + 1) + r2
        support, which = np.unique(codes, return_inverse=True)
        w = np.zeros(len(support))
        np.add.at(w, which, np.exp(logw - logw.max()))
        assert _chisquare_pvalue(drawn, support, w / w.sum()) > 1e-3

    def test_heavy_truncation_is_fast_and_exact(self):
        m = CaptureModel(n1=22, c2=11, c3=6, n_max=24)
        start = time.perf_counter()
        with pytest.warns(RuntimeWarning, match="n_max=24"):
            out = capture_gibbs_run(m, 2000, RngStream(36, 0))
        assert time.perf_counter() - start < 2.0
        assert np.all((out["N"] >= m.n1) & (out["N"] <= m.n_max))
        assert np.any(out["refused"] == _NB_TRIES)  # the exact route ran
        oracle = capture_posterior_oracle(22, 11, 6, 24, grid=400)
        for key in ("N", "p", "q"):
            assert np.mean(out[key][200:]) == pytest.approx(oracle[key], rel=0.05)

    def test_no_refusals_at_defaults(self, eurodip):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = capture_gibbs_run(eurodip, 2000, RngStream(37, 0))
        assert not out["refused"].any()


@functools.lru_cache(maxsize=None)
def _first_draws(m, n, seed):
    """The first state of each of n chains, chain r on stream (seed, r), as
    an (n, 6) array: n independent draws, none after any burn-in.  Cached,
    so tests of different properties share one set of draws."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        out = capture_draws(m, 1, [RngStream(seed, r) for r in range(n)])[:, 0]
    out.setflags(write=False)  # one array serves every caller
    return out


class TestExactDraws:
    """The fully collapsed scan draws independent, exact posterior states,
    from its first sweep on."""

    @pytest.mark.parametrize("n_max,n,seed", [(None, 20_000, 60), (24, 4000, 61)])
    def test_joint_law_matches_quadrature(self, n_max, n, seed):
        # p and q integrated by grid quadrature, not by the beta functions
        # the sampler uses; at n_max = 24 most proposals are refused
        m = CaptureModel(22, 11, 6, n_max)
        N, r1, r2, refused = _first_draws(m, n, seed)[:, [0, 3, 4, 5]].T
        if n_max == 24:
            assert np.any(refused == _NB_TRIES)  # the exact route ran
        r1_, r2_, N_, probs = capture_joint_oracle(m.n1, m.c2, m.c3, m.n_max)
        assert _chisquare_pvalue(_code(m, r1, r2, N), _code(m, r1_, r2_, N_), probs) > 1e-3

    def test_q_given_pair_is_beta(self, eurodip):
        m = eurodip
        q, r1, r2 = _first_draws(m, 20_000, 60)[:, 2:5].T

        def beta_params(r1, r2):
            return r1 + r2 + 1, (m.n1 - r1) + (m.n1 - r1 - r2) + 1

        # each q against the Beta of its own pair
        assert stats.kstest(betainc(*beta_params(r1, r2), q), "uniform").pvalue > 1e-3
        # and against those Betas mixed over the exact law of the pair
        r1_, r2_, _, probs = capture_joint_oracle(m.n1, m.c2, m.c3, m.n_max)
        pairs, which = np.unique(np.column_stack([r1_, r2_]), axis=0, return_inverse=True)
        weights = np.bincount(which.ravel(), probs)
        a, b = beta_params(pairs[:, 0], pairs[:, 1])

        def cdf(x):
            return betainc(a[None, :], b[None, :], np.asarray(x)[:, None]) @ weights

        assert stats.kstest(q, cdf).pvalue > 1e-3

    @pytest.mark.parametrize("n_max,seed", [(None, 63), (24, 64)])
    def test_lag_one_autocorrelation_vanishes(self, n_max, seed):
        m = CaptureModel(22, 11, 6, n_max)
        n = 20_000
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            out = capture_gibbs_run(m, n, RngStream(seed, 0))
        for key, v in out.items():
            if n_max is None and key == "refused":
                assert not v.any()  # constant: no proposal is refused
                continue
            rho = np.corrcoef(v[:-1], v[1:])[0, 1]
            assert abs(rho) < 4 / np.sqrt(n), (key, rho)


class TestLockstep:
    """R chains in lockstep are R standalone chains, bit for bit."""

    @pytest.mark.parametrize("counts", [
        (22, 11, 6, None),  # the defaults: no proposal refused
        (8, 1, 0, 9),  # most sweeps refuse some proposals
        (22, 0, 0, 24),  # refusals nearly every sweep, the exact route often
    ])
    @pytest.mark.parametrize("n_chains", [1, 3])
    def test_rows_equal_standalone_runs(self, counts, n_chains):
        m = CaptureModel(*counts)
        rngs = [RngStream(40 + r, r) for r in range(n_chains)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            out = capture_draws(m, 300, rngs)
            assert out.shape == (n_chains, 300, 6)
            for r in range(n_chains):
                alone = RngStream(40 + r, r)
                one = capture_gibbs_run(m, 300, alone)
                assert list(one) == ["N", "p", "q", "r1", "r2", "refused"]
                for j, (k, v) in enumerate(one.items()):
                    assert v.shape == (300,)
                    assert out[r, :, j].tobytes() == v.tobytes(), (k, r)
                assert rngs[r].counter == alone.counter
        if counts[3] == 24:  # the refused column
            assert (out[:, :, 5] == _NB_TRIES).any(axis=1).all()
