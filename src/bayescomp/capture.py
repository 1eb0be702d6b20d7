"""Open-population capture-recapture with emigration.

Three capture occasions; only the first-capture count n1 and the two
recapture counts c2, c3 are observed, while the removal counts r1, r2 are
latent.  The joint likelihood is a product of five binomial terms and the
prior is the improper 1/N on the population size with uniform capture and
emigration probabilities.

The sampler is a direct one: it draws each posterior state exactly and
independently, with no Markov chain, so there is nothing to burn in or
thin.  Summing N against the 1/N prior and integrating p and q out leaves
each removal pair (r1, r2) a weight of binomial coefficients and two Beta
functions, a fixed table per model; so the pair is drawn from one
categorical CDF, then p from its Beta, N - n1 from NegBin(n1, p), the
whole redrawn while N exceeds n_max, and q from its Beta given the pair.
The four full conditionals of the single-site Gibbs sweep stay available
as the tested reference.

Each of R streams makes all its draws at once, on that stream alone, with
a few vectorised calls, so it is bit-identical to a run of its own.
`capture_draws` returns one (R, n_iter, 6) array whose columns are
`CAPTURE_COLUMNS`: N, p, q, r1, r2 and each draw's refused proposals;
`capture_gibbs_run` hands out the case R = 1 as a dict of its columns.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, betaincinv, betaln, gammaln

from .core import RngStream, categorical_cdf, log_sum_exp, sample_categorical_many

__all__ = ["CaptureModel", "CAPTURE_COLUMNS", "capture_loglik", "capture_gibbs_conditionals",
           "capture_gibbs_run", "capture_draws", "n_max_tail_mass"]

# rejection cap for the N draw and the (r1, r2, p, N) proposal: a draw
# refused 16 times has shown an acceptance rate near 1/4 or below, where
# the exact truncated route is cheaper than more rounds of proposals
_NB_TRIES = 16
_TAIL_WARN = 1e-6  # mass of N | p beyond n_max that raises a warning
# the columns of a draw: the state, then the proposals refused for N > n_max
CAPTURE_COLUMNS = ("N", "p", "q", "r1", "r2", "refused")


@dataclass(frozen=True)
class CaptureModel:
    """Observed counts and the truncation bound for the population size."""

    n1: int
    c2: int
    c3: int
    n_max: int = None  # defaults to 50 * n1

    def __post_init__(self):
        if self.n1 < 1:
            raise ValueError("n1 must be positive: the 1/N prior is improper at N = 0")
        if not (0 <= self.c2 <= self.n1):
            raise ValueError("need 0 <= c2 <= n1")
        if self.c3 < 0:
            raise ValueError("c3 must be nonnegative")
        if self.n_max is None:
            object.__setattr__(self, "n_max", 50 * self.n1)
        if self.n_max < self.n1:
            raise ValueError("n_max must be at least n1")


def _log_binom_coeff(n, k):
    n = np.asarray(n, dtype=float)
    k = np.asarray(k, dtype=float)
    return gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)


def capture_loglik(model: CaptureModel, N, p, q, r1, r2):
    """Joint log-likelihood of (N, p, q, r1, r2); -inf outside support.

    Support requires N >= n1, r1 <= n1, c2 <= n1 - r1, r2 <= n1 - r1 and
    c3 <= n1 - r1 - r2; probabilities outside [0, 1] also give -inf.
    Vectorised over any numpy-broadcastable arguments.
    """
    n1, c2, c3 = model.n1, model.c2, model.c3
    N = np.asarray(N, dtype=float)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)

    ok = (
        (N >= n1)
        & (r1 >= 0) & (r1 <= n1)
        & (r2 >= 0)
        & (c2 <= n1 - r1)
        & (r2 <= n1 - r1)
        & (c3 <= n1 - r1 - r2)
        & (p >= 0) & (p <= 1) & (q >= 0) & (q <= 1)
    )
    shape = np.broadcast_shapes(N.shape, p.shape, q.shape, r1.shape, r2.shape)
    out = np.full(shape, -np.inf)
    if not np.any(ok):
        return out if shape else float(out)

    with np.errstate(divide="ignore", invalid="ignore"):
        logp, log1p = np.log(p), np.log1p(-p)
        logq, log1q = np.log(q), np.log1p(-q)
        # successes * log(prob) with the 0 * log(0) = 0 convention
        def term(k, n, lpr, l1pr):
            k = np.broadcast_to(k, shape).astype(float)
            n = np.broadcast_to(n, shape).astype(float)
            good = n >= k
            t = _log_binom_coeff(n, k)
            t = t + np.where(k > 0, k * lpr, 0.0)
            t = t + np.where(n - k > 0, (n - k) * l1pr, 0.0)
            return np.where(good, t, -np.inf)

        total = (
            term(n1, N, logp, log1p)
            + term(r1, n1, logq, log1q)
            + term(c2, n1 - r1, logp, log1p)
            + term(r2, n1 - r1, logq, log1q)
            + term(c3, n1 - r1 - r2, logp, log1p)
        )
    out = np.where(ok, total, -np.inf)
    return out if shape else float(out)


def _removal_table(model: CaptureModel):
    """The (r1, r2) pairs compatible with the observed counts, with the
    state-free parts of their conditional log-weights.

    Given (p, q), the log-weight of a pair is log_coef + counts @
    (log1p(-p), log q, log1p(-q)) up to a constant: the binomial
    coefficients of the four removal-dependent terms of
    :func:`capture_loglik` and the failure and success counts they raise
    those probabilities to.  The N term and the c2 + c3 captures at log p
    are the same for every pair, so they are left out.
    """
    n1, c2, c3 = model.n1, model.c2, model.c3
    pairs = np.asarray([(r1, r2) for r1 in range(n1 - c2 + 1)
                        for r2 in range(n1 - r1 - c3 + 1)], dtype=int)
    r1, r2 = pairs[:, 0], pairs[:, 1]
    counts = np.column_stack([
        (n1 - r1 - c2) + (n1 - r1 - r2 - c3),
        r1 + r2,
        (n1 - r1) + (n1 - r1 - r2),
    ]).astype(float)
    log_coef = (_log_binom_coeff(n1, r1) + _log_binom_coeff(n1 - r1, c2)
                + _log_binom_coeff(n1 - r1, r2)
                + _log_binom_coeff(n1 - r1 - r2, c3))
    return pairs, counts, log_coef


def n_max_tail_mass(model: CaptureModel, p):
    """Mass of N | p beyond the truncation bound ``n_max``, in closed form.

    Under the 1/N prior N - n1 given p is NegBin(n1, p), whose survival
    function past k is the regularised incomplete beta I_{1-p}(k + 1, n1).
    Vectorised over p.
    """
    p = np.asarray(p, dtype=float)
    return betainc(model.n_max - model.n1 + 1, model.n1, 1.0 - p)


def capture_gibbs_conditionals(model: CaptureModel):
    """The four full conditionals of the posterior under the 1/N prior,
    the single-site Gibbs sweep that tests hold `capture_draws` against.

    Returns a dict of samplers, each mapping (state, rng) -> block value
    where state is the dict {"N", "p", "q", "r1", "r2"}.  p and q are Beta.
    (r1, r2) given (p, q) is drawn from its finite support, whose
    log-weights are one product of a per-model count table with the three
    log-probabilities.  N - n1 given p is NegBin(n1, p) truncated at
    n_max - n1: drawn by rejection from ``negative_binomial`` when at least
    half the untruncated mass is kept, and otherwise by the inverse CDF of
    the truncated law.  Both routes are exact and bounded in time.  N warns
    (RuntimeWarning) when more than 1e-6 of its untruncated mass lies
    beyond n_max.
    """
    n1, c2, c3 = model.n1, model.c2, model.c3
    pairs, counts, log_coef = _removal_table(model)
    k_max = model.n_max - n1
    ks = np.arange(k_max + 1)
    log_nb_coef = gammaln(ks + n1) - gammaln(ks + 1.0)

    def sample_p(state, rng):
        N, r1, r2 = state["N"], state["r1"], state["r2"]
        a = n1 + c2 + c3 + 1
        b = (N - n1) + (n1 - r1 - c2) + (n1 - r1 - r2 - c3) + 1
        return float(rng.generator.beta(a, b))

    def sample_q(state, rng):
        r1, r2 = state["r1"], state["r2"]
        a = r1 + r2 + 1
        b = (n1 - r1) + (n1 - r1 - r2) + 1
        return float(rng.generator.beta(a, b))

    def sample_removals(state, rng):
        p, q = state["p"], state["q"]
        with np.errstate(divide="ignore"):
            logs = np.array([np.log1p(-p), np.log(q), np.log1p(-q)])
        # the 0 * log 0 = 0 convention: only a pair that counts an
        # impossible event gets weight zero
        finite = np.isfinite(logs)
        logw = log_coef + counts @ np.where(finite, logs, 0.0)
        logw[(counts[:, ~finite] > 0).any(axis=1)] = -np.inf
        idx = sample_categorical_many(logw, 1, rng)[0]
        return int(pairs[idx, 0]), int(pairs[idx, 1])

    def sample_N(state, rng):
        p = state["p"]
        tail = float(n_max_tail_mass(model, p))
        if tail > _TAIL_WARN:
            _warn_truncation(model)
        if tail <= 0.5:
            # each try is kept with probability >= 1/2; exhausting the cap
            # (chance <= 2**-16) falls through to the inverse CDF below,
            # which leaves the law of the draw unchanged
            for _ in range(_NB_TRIES):
                k = int(rng.generator.negative_binomial(n1, p))
                if k <= k_max:
                    return n1 + k
        idx = sample_categorical_many(log_nb_coef + ks * np.log1p(-p), 1, rng)[0]
        return n1 + int(idx)

    return {"p": sample_p, "q": sample_q, "removals": sample_removals, "N": sample_N}


def _warn_truncation(model: CaptureModel):
    warnings.warn(
        f"population-size conditional has mass > 1e-6 beyond the "
        f"truncation bound n_max={model.n_max}; increase n_max",
        RuntimeWarning,
    )


def _posterior_sampler(model: CaptureModel):
    """Exact sampler of the posterior (r1, r2, p, N, q) for one stream.

    Summed over N >= n1 against the 1/N prior, the likelihood leaves a pair
    p^(c2+c3) (1-p)^A, A the survivors missed at the two recaptures, times
    q^(r1+r2) (1-q)^((n1-r1)+(n1-r1-r2)); integrating p and q out gives it
    the log-weight log_coef + betaln(c2 + c3 + 1, A + 1) + betaln(r1 + r2 +
    1, (n1 - r1) + (n1 - r1 - r2) + 1), one fixed table and one CDF per
    model.  Given the pair, p ~ Beta(c2 + c3 + 1, A + 1), N - n1 ~
    NegBin(n1, p) and q ~ Beta(r1 + r2 + 1, (n1 - r1) + (n1 - r1 - r2) +
    1).  A proposal
    (pair, p, N) with N > n_max is refused and redrawn whole, which is
    exact rejection against the untruncated law.  After ``_NB_TRIES``
    refusals of one draw it is drawn from the truncated law directly: the
    pair weighted by its kept beta-negative-binomial mass, N - n1 by
    inverse CDF, then p given both from Beta(n1 + c2 + c3 + 1, A + N - n1
    + 1), the Beta that the beta-negative-binomial mass integrates.

    Returns draw(n_iter, rng) -> an (n_iter, 6) array of independent
    states, the columns N, p, q, r1, r2 and the proposals refused for
    N > n_max.  The draws take these Generator calls on ``rng``, in order:
    in each round, for the m states still open (all n_iter in the first,
    in row order), m uniforms pick the pairs, m Betas the p and m negative
    binomials the N; the states refused ``_NB_TRIES`` times take m
    uniforms for the pairs, m for N and m Betas for p; last, n_iter Betas
    give q.  Warns (RuntimeWarning) once per call when a drawn p leaves
    more than 1e-6 of N | p beyond n_max.
    """
    n1 = model.n1
    k_max = model.n_max - n1
    pairs, counts, log_coef = _removal_table(model)
    a = model.c2 + model.c3 + 1
    b = counts[:, 0] + 1.0  # p | pair ~ Beta(a, b)
    qa, qb = counts[:, 1] + 1.0, counts[:, 2] + 1.0  # q | pair ~ Beta(qa, qb)
    log_w = log_coef + betaln(a, b) + betaln(qa, qb)
    cum = categorical_cdf(log_w)
    # the tail mass beyond n_max falls as p grows: it passes the warning
    # level exactly where p crosses this threshold
    p_warn = 1.0 - betaincinv(k_max + 1, n1, _TAIL_WARN)
    truncated = {}  # tables of the exact route, built on its first use

    def log_bnb_pmf(b_pair):
        """log P(N - n1 = k | pair) for k = 0..k_max, p integrated out."""
        return truncated["log_nb"] + betaln(n1 + a, b_pair + truncated["ks"]) - betaln(a, b_pair)

    def draw_truncated(m, gen):
        if not truncated:
            ks = np.arange(k_max + 1)
            truncated.update(ks=ks, log_nb=gammaln(n1 + ks) - gammaln(ks + 1.0) - gammaln(n1))
            levels, which = np.unique(b, return_inverse=True)
            kept = np.array([log_sum_exp(log_bnb_pmf(v)) for v in levels])
            truncated.update(cum=categorical_cdf(log_w + kept[which]), which=which, levels=levels)
        tcum, which = truncated["cum"], truncated["which"]
        idx = tcum.searchsorted(gen.random(m) * tcum[-1], side="right")
        u = gen.random(m)
        k = np.empty(m, dtype=int)
        for level in np.unique(which[idx]):
            sel = which[idx] == level
            kcum = categorical_cdf(log_bnb_pmf(truncated["levels"][level]))
            k[sel] = kcum.searchsorted(u[sel] * kcum[-1], side="right")
        return idx, gen.beta(n1 + a, b[idx] + k), k

    def draw(n_iter, rng):
        gen = rng.generator
        idx = np.empty(n_iter, dtype=int)
        p = np.empty(n_iter)
        k = np.empty(n_iter, dtype=int)
        refused = np.zeros(n_iter)
        todo = np.arange(n_iter)
        for _ in range(_NB_TRIES):
            if not len(todo):
                break
            i = cum.searchsorted(gen.random(len(todo)) * cum[-1], side="right")
            pt = gen.beta(a, b[i])
            kt = gen.negative_binomial(n1, pt)
            ok = kt <= k_max
            done = todo[ok]
            idx[done], p[done], k[done] = i[ok], pt[ok], kt[ok]
            todo = todo[~ok]
            refused[todo] += 1
        if len(todo):
            idx[todo], p[todo], k[todo] = draw_truncated(len(todo), gen)
        if p.min(initial=1.0) < p_warn:
            _warn_truncation(model)
        q = gen.beta(qa[idx], qb[idx])
        return np.column_stack([n1 + k, p, q, pairs[idx, 0], pairs[idx, 1], refused])

    return draw


def capture_draws(model: CaptureModel, n_iter: int, rngs) -> np.ndarray:
    """n_iter independent exact posterior draws on each of the R =
    len(rngs) streams, stream r drawing from ``rngs[r]`` alone.

    Each stream makes all its draws at once with a few vectorised calls
    (see `_posterior_sampler`), so its rows are bit-identical to
    `capture_gibbs_run` on that stream.  Returns one (R, n_iter, 6) array
    in the columns `CAPTURE_COLUMNS`: N, p, q, r1, r2 and ``refused``, the
    proposals of the draw turned down because N exceeded n_max.
    """
    draw = _posterior_sampler(model)
    out = np.empty((len(rngs), n_iter, len(CAPTURE_COLUMNS)))
    for r, rng in enumerate(rngs):
        out[r] = draw(n_iter, rng)
    return out


def capture_gibbs_run(model: CaptureModel, n_iter: int, rng: RngStream) -> dict:
    """The draws of `capture_draws` on the one stream `rng`: 1-D arrays,
    one entry per draw, keyed by the six `CAPTURE_COLUMNS`."""
    return dict(zip(CAPTURE_COLUMNS, capture_draws(model, n_iter, [rng])[0].T))
