"""Independent reference computations used by the test suite.

These deliberately avoid the library's own code paths: sums are done by
direct enumeration and quadrature on probability grids.
"""

import numpy as np
from scipy.special import gammaln, logsumexp


def _log_binom(n, k):
    n = np.asarray(n, dtype=float)
    k = np.asarray(k, dtype=float)
    return gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)


def capture_posterior_oracle(n1, c2, c3, n_max, grid=400):
    """Posterior means of (N, p, q) for the two-season removal model by
    exact enumeration of N and (r1, r2) and midpoint quadrature of (p, q)
    on a grid x grid mesh.  Prior: 1/N on N >= n1, uniform on p and q.
    """
    edges = np.linspace(0.0, 1.0, grid + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    logp = np.log(mids)
    log1p = np.log1p(-mids)

    # N-part: w_N(p) = (1/N) C(N, n1) (1-p)^(N-n1), N = n1..n_max
    ns = np.arange(n1, n_max + 1)
    log_w = (_log_binom(ns, n1)[:, None] - np.log(ns)[:, None]
             + (ns - n1)[:, None] * log1p[None, :])  # (N, grid)
    log_s = logsumexp(log_w, axis=0)  # (grid,) over p
    mean_n_given_p = np.exp(logsumexp(log_w + np.log(ns)[:, None], axis=0)
                            - log_s)

    # (r1, r2)-part, separable in p and q per pair
    pair_terms = []
    for r1 in range(0, n1 - c2 + 1):
        for r2 in range(0, n1 - r1 - c3 + 1):
            if n1 - r1 < c2 or n1 - r1 - r2 < c3:
                continue
            log_a = (_log_binom(n1, r1) + _log_binom(n1 - r1, c2)
                     + _log_binom(n1 - r1, r2) + _log_binom(n1 - r1 - r2, c3))
            p_pow = (n1 - r1 - c2) + (n1 - r1 - r2 - c3)  # on (1-p)
            q_pow = r1 + r2
            q1_pow = (n1 - r1) + (n1 - r1 - r2)  # on (1-q)
            pair_terms.append((log_a, p_pow, q_pow, q1_pow))

    log_t = np.full((grid, grid), -np.inf)  # (p, q); q shares the midpoint grid
    for log_a, p_pow, q_pow, q1_pow in pair_terms:
        contrib = (log_a + p_pow * log1p[:, None]
                   + q_pow * logp[None, :] + q1_pow * log1p[None, :])
        log_t = np.logaddexp(log_t, contrib)

    log_post = ((n1 + c2 + c3) * logp[:, None] + log_s[:, None] + log_t)
    log_z = logsumexp(log_post)
    w = np.exp(log_post - log_z)
    return {
        "N": float(np.sum(w * mean_n_given_p[:, None])),
        "p": float(np.sum(w * mids[:, None])),
        "q": float(np.sum(w * mids[None, :])),
    }


def probit_mean_map(model):
    """The (p, n) map z -> E[beta | z] = c (X'X)^{-1} X'z, c = g / (g + 1),
    of a probit model under its g-prior, in the floating-point steps of the
    latent completion, so a statistic it returns can be compared byte for
    byte."""
    g = model.prior_scale
    return g / (g + 1.0) * (np.linalg.inv(model.xtx) @ model.design.T)


def capture_joint_oracle(n1, c2, c3, n_max, grid=400):
    """Posterior probabilities of every feasible (r1, r2, N) of the
    two-season removal model, with p and q integrated out by midpoint
    quadrature on a grid of `grid` points each.  Prior: 1/N on
    n1 <= N <= n_max, uniform on p and q.  Returns the arrays r1, r2, N and
    their probabilities.
    """
    mids = (np.arange(grid) + 0.5) / grid
    logp, log1p = np.log(mids), np.log1p(-mids)

    def log_integral(x, ys):
        # log of the grid mean of mids^x (1 - mids)^y, for each y in ys
        return logsumexp(x * logp[None, :] + ys[:, None] * log1p[None, :], axis=1) - np.log(grid)

    rows = []
    for r1 in range(0, n1 - c2 + 1):
        for r2 in range(0, n1 - r1 - c3 + 1):
            log_a = (_log_binom(n1, r1) + _log_binom(n1 - r1, c2)
                     + _log_binom(n1 - r1, r2) + _log_binom(n1 - r1 - r2, c3))
            missed = (n1 - r1 - c2) + (n1 - r1 - r2 - c3)
            log_q = log_integral(r1 + r2, np.array([(n1 - r1) + (n1 - r1 - r2)]))[0]
            rows.append((r1, r2, log_a + log_q, missed))

    ns = np.arange(n1, n_max + 1)
    log_n = _log_binom(ns, n1) - np.log(ns)
    top = max(m for *_, m in rows) + n_max - n1
    log_p = log_integral(n1 + c2 + c3, np.arange(top + 1))  # by power of (1 - p)
    r1s, r2s, nss, logw = [], [], [], []
    for r1, r2, log_pair, missed in rows:
        r1s.append(np.full(len(ns), r1))
        r2s.append(np.full(len(ns), r2))
        nss.append(ns)
        logw.append(log_pair + log_n + log_p[ns - n1 + missed])
    logw = np.concatenate(logw)
    return (np.concatenate(r1s), np.concatenate(r2s), np.concatenate(nss),
            np.exp(logw - logsumexp(logw)))
