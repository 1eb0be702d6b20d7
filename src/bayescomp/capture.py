"""Open-population capture-recapture with emigration.

Three capture occasions; only the first-capture count n1 and the two
recapture counts c2, c3 are observed, while the removal counts r1, r2 are
latent.  The joint likelihood is a product of five binomial terms and the
prior is the improper 1/N on the population size with uniform capture and
emigration probabilities.

The Gibbs sampler alternates two blocks, ((r1, r2, p, N), q).  Summing N
against the 1/N prior and integrating p out leaves each removal pair the
weight B(c2 + c3 + 1, A + 1) times its q terms, where A is the number of
survivors missed at the recaptures; so (r1, r2) is drawn from its finite
support given q alone, then p from its Beta and N - n1 from NegBin(n1, p),
and the block is redrawn whole while N exceeds n_max.  q given (r1, r2) is
Beta.  Every draw is exact, from a closed form or a table built once per
model, and there is no Metropolis step.  The four full conditionals of the
single-site sweep stay available as the tested reference.

The sampler runs R chains in lockstep, one stream per chain: the pair
weights of every chain come from one product and one CDF, and each chain
then draws on its own stream in the order of a single chain, so it is
bit-identical to a run of its own.  The run returns one (R, n_iter, 6)
array, the shape of the probit Gibbs runs with the columns N, p, q, r1, r2
and the sweep's refused proposals.  A single chain is the case R = 1, which
`capture_gibbs_run` hands out as a dict of its columns.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, betaincinv, betaln, gammaln

from .core import RngStream, categorical_cdf, log_sum_exp, rowwise, sample_categorical_many

__all__ = ["CaptureModel", "capture_loglik", "capture_gibbs_conditionals", "capture_gibbs_run",
           "capture_gibbs_lockstep", "n_max_tail_mass"]

_NB_TRIES = 64  # rejection cap for the N draw and the (r1, r2, p, N) block
_TAIL_WARN = 1e-6  # mass of N | p beyond n_max that raises a warning


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


def _pair_log_weights(log_base, counts, logs):
    """log_base + counts @ row for each row of the (R, k) `logs`, as an
    (R, pairs) array whose rows are bit-identical to one-row calls
    (`rowwise`), with the 0 * log 0 = 0 convention: only a pair that counts
    an impossible event gets weight zero."""
    # -inf is the only non-finite log-probability; a list scan finds it
    # faster than a numpy reduction over these few entries
    if -np.inf not in logs.ravel().tolist():
        return log_base + rowwise(logs, counts)
    finite = np.isfinite(logs)
    logw = log_base + rowwise(np.where(finite, logs, 0.0), counts)
    logw[~finite @ (counts > 0).T] = -np.inf
    return logw


def n_max_tail_mass(model: CaptureModel, p):
    """Mass of N | p beyond the truncation bound ``n_max``, in closed form.

    Under the 1/N prior N - n1 given p is NegBin(n1, p), whose survival
    function past k is the regularised incomplete beta I_{1-p}(k + 1, n1).
    Vectorised over p.
    """
    p = np.asarray(p, dtype=float)
    return betainc(model.n_max - model.n1 + 1, model.n1, 1.0 - p)


def capture_gibbs_conditionals(model: CaptureModel):
    """The four full conditionals of the posterior under the 1/N prior.

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
            logs = np.array([[np.log1p(-p), np.log(q), np.log1p(-q)]])
        idx = sample_categorical_many(_pair_log_weights(log_coef, counts, logs)[0], 1, rng)[0]
        return int(pairs[idx, 0]), int(pairs[idx, 1])

    def sample_N(state, rng):
        p = state["p"]
        tail = float(n_max_tail_mass(model, p))
        if tail > _TAIL_WARN:
            _warn_truncation(model)
        if tail <= 0.5:
            # each try is kept with probability >= 1/2; exhausting the cap
            # (chance <= 2**-64) falls through to the inverse CDF below,
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


def _removal_block(model: CaptureModel):
    """Sampler of the block (r1, r2, p, N) given q, for R chains at once.

    Summed over N >= n1 against the 1/N prior, the likelihood leaves a pair
    p^(c2+c3) (1-p)^A, A the survivors missed at the two recaptures, so with
    p integrated out its log-weight is log_coef + betaln(c2 + c3 + 1, A + 1)
    plus its q terms.  Given the pair, p ~ Beta(c2 + c3 + 1, A + 1) and
    N - n1 ~ NegBin(n1, p).  A proposal with N > n_max is refused and the
    whole block redrawn, which is exact rejection against the untruncated
    law.  After ``_NB_TRIES`` refusals the block is drawn from the truncated
    law directly: the pair weighted by its kept beta-negative-binomial mass,
    N - n1 by inverse CDF, then p given both from
    Beta(n1 + c2 + c3 + 1, A + N - n1 + 1), the Beta that the
    beta-negative-binomial mass integrates.

    Returns draw(qs, rngs) -> a list of R = len(rngs) tuples (r1, r2, p, N,
    refused), one per chain, refused counting the proposals turned down
    because N > n_max.  The pair weights of all chains come from one
    product and one CDF; chain r then draws given qs[r] from ``rngs[r]``
    alone, as a one-chain call would.  Warns as ``sample_N`` does when more
    than 1e-6 of N | p lies beyond n_max at a drawn p.  If some chain's q
    leaves no pair possible, the call raises `DegenerateWeightsError` for
    all of them.
    """
    n1 = model.n1
    k_max = model.n_max - n1
    pairs, counts, log_coef = _removal_table(model)
    a = model.c2 + model.c3 + 1
    b = counts[:, 0] + 1.0  # p | pair ~ Beta(a, b)
    log_base = log_coef + betaln(a, b)
    q_counts = counts[:, 1:]
    # the tail mass beyond n_max falls as p grows: it passes the warning
    # level exactly where p crosses this threshold
    p_warn = 1.0 - betaincinv(k_max + 1, n1, _TAIL_WARN)
    pair_list = [(int(r1), int(r2)) for r1, r2 in pairs]
    truncated = {}  # tables of the exact route, built on its first use

    def log_bnb_pmf(b_pair):
        """log P(N - n1 = k | pair) for k = 0..k_max, p integrated out."""
        return truncated["log_nb"] + betaln(n1 + a, b_pair + truncated["ks"]) - betaln(a, b_pair)

    def draw_truncated(logw, rng):
        if not truncated:
            ks = np.arange(k_max + 1)
            truncated.update(ks=ks, log_nb=gammaln(n1 + ks) - gammaln(ks + 1.0) - gammaln(n1))
            levels, which = np.unique(b, return_inverse=True)
            kept = np.array([log_sum_exp(log_bnb_pmf(v)) for v in levels])
            truncated["log_kept"] = kept[which]
        idx = sample_categorical_many(logw + truncated["log_kept"], 1, rng)[0]
        k = int(sample_categorical_many(log_bnb_pmf(b[idx]), 1, rng)[0])
        return idx, rng.generator.beta(n1 + a, b[idx] + k), k

    def draw(qs, rngs):
        logs = np.array([[math.log(q) if q > 0.0 else -math.inf,
                          math.log1p(-q) if q < 1.0 else -math.inf] for q in qs])
        logw = _pair_log_weights(log_base, q_counts, logs)
        cum = categorical_cdf(logw)  # one CDF row per chain, for every try of its draw
        drawn = []
        for r, rng in enumerate(rngs):
            row, gen = cum[r], rng.generator
            for refused in range(_NB_TRIES):
                idx = row.searchsorted(gen.random() * row[-1], side="right")
                p = gen.beta(a, b[idx])
                k = gen.negative_binomial(n1, p)
                if k <= k_max:
                    break
            else:
                refused = _NB_TRIES
                idx, p, k = draw_truncated(logw[r], rng)
            if p < p_warn:
                _warn_truncation(model)
            drawn.append((*pair_list[idx], float(p), n1 + int(k), refused))
        return drawn

    return draw


_KEYS = ("N", "p", "q", "r1", "r2", "refused")


def capture_gibbs_lockstep(model: CaptureModel, n_iter: int, rngs) -> np.ndarray:
    """Two-block Gibbs over ((r1, r2, p, N), q): R = len(rngs) chains in
    lockstep, chain r drawing from ``rngs[r]`` alone.

    Each sweep draws (r1, r2) given q with p and N integrated out, then
    (p, N) given (r1, r2) jointly and exactly (see `_removal_block`), then
    q given (r1, r2) from its Beta full conditional.  q starts at 0.5; the
    first block reads nothing else.  Chain r draws in the order of a single
    chain, so it is bit-identical to `capture_gibbs_run` on its stream.
    Returns one (R, n_iter, 6) array, row t of chain r its state after
    sweep t in the columns N, p, q, r1, r2, refused; ``refused`` counts
    the block proposals of the sweep turned down because N exceeded n_max.
    """
    n1 = model.n1
    block = _removal_block(model)
    gens = [rng.generator for rng in rngs]
    q = [0.5] * len(rngs)
    out = np.empty((len(rngs), n_iter, len(_KEYS)))
    for t in range(n_iter):
        for r, (r1, r2, p, N, refused) in enumerate(block(q, rngs)):
            # q | (r1, r2) ~ Beta(r1 + r2 + 1, (n1 - r1) + (n1 - r1 - r2) + 1)
            q[r] = gens[r].beta(r1 + r2 + 1, (n1 - r1) + (n1 - r1 - r2) + 1)
            out[r, t] = N, p, q[r], r1, r2, refused
    return out


def capture_gibbs_run(model: CaptureModel, n_iter: int, rng: RngStream) -> dict:
    """One chain of `capture_gibbs_lockstep` on stream `rng`: 1-D arrays of
    the states, one entry per sweep, keyed N, p, q, r1, r2 and
    ``refused``, its six columns."""
    return dict(zip(_KEYS, capture_gibbs_lockstep(model, n_iter, [rng])[0].T))
