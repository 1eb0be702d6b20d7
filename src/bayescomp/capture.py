"""Open-population capture-recapture with emigration.

Three capture occasions; only the first-capture count n1 and the two
recapture counts c2, c3 are observed, while the removal counts r1, r2 are
latent.  The joint likelihood is a product of five binomial terms and the
prior is the improper 1/N on the population size with uniform capture and
emigration probabilities.  Every full conditional is drawn exactly from a
closed form, so the Gibbs sweep contains no Metropolis step: p and q are
Beta, N - n1 is a negative binomial truncated at n_max, and (r1, r2) is a
categorical over its finite support whose log-weights come from a count
table built once per model.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, gammaln

from .core import RngStream, sample_categorical_many

__all__ = ["CaptureModel", "capture_loglik", "capture_gibbs_conditionals", "capture_gibbs_run",
           "n_max_tail_mass"]

_NB_TRIES = 64  # rejection cap for the N draw


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
            logs = np.array([np.log1p(-p), np.log(q), np.log1p(-q)])
        finite = np.isfinite(logs)
        logw = log_coef + counts @ np.where(finite, logs, 0.0)
        if not finite.all():
            # 0 * log 0 = 0: only a pair that counts an impossible event is out
            logw[(counts[:, ~finite] > 0).any(axis=1)] = -np.inf
        idx = sample_categorical_many(logw, 1, rng)[0]
        return int(pairs[idx, 0]), int(pairs[idx, 1])

    def sample_N(state, rng):
        p = state["p"]
        tail = float(n_max_tail_mass(model, p))
        if tail > 1e-6:
            warnings.warn(
                f"population-size conditional has mass > 1e-6 beyond the "
                f"truncation bound n_max={model.n_max}; increase n_max",
                RuntimeWarning,
            )
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


def capture_gibbs_run(model: CaptureModel, n_iter: int, rng: RngStream,
                      init=None) -> dict:
    """Systematic-scan Gibbs over (p, q, (r1, r2), N).

    Returns arrays of the retained states, one entry per sweep.
    """
    cond = capture_gibbs_conditionals(model)
    state = dict(init) if init else {
        "N": max(2 * model.n1, model.n1 + 1), "p": 0.5, "q": 0.5, "r1": 0, "r2": 0,
    }
    out = {k: np.empty(n_iter) for k in ("N", "p", "q", "r1", "r2")}
    for t in range(n_iter):
        state["p"] = cond["p"](state, rng)
        state["q"] = cond["q"](state, rng)
        state["r1"], state["r2"] = cond["removals"](state, rng)
        state["N"] = cond["N"](state, rng)
        for k in out:
            out[k][t] = state[k]
    return out
