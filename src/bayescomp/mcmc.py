"""Metropolis-Hastings, Gibbs and hybrid samplers with chain diagnostics.

Random-walk Metropolis has one loop, `rw_metropolis`: Gaussian increments
on a scalar log-target, one block of coordinates per step, and a uniform
for every acceptance test, certain accepts included.  The uniforms and
each block's increments are drawn before the first step, each on a child
stream of its own, so a step is arithmetic plus one log-target call and
no generator call.  Since each step's uniform is known in advance, the
log-target gets the step's acceptance floor, lp + log u, and may reject
a candidate early, as -inf, once an upper bound on its value falls below
that floor (Solonen et al. 2012), with the decisions and the bits of a
full evaluation.  `rw_mh_run` runs the loop on a posterior, one (p,)
point per step through `log_posterior`, with the bits of a one-row batch,
and ignores the floor; `abc.abc_mcmc` runs it on a prior gated by a
simulation, simulating only when the prior clears the floor; and
`mwg_probit_overparam_run` on two blocks, beta and log sigma^2, its
likelihood bounded by tangent lines.

The probit Gibbs sampler runs all the chains of one probit model in one
fused lockstep loop, `probit_gibbs_chains`, one stream per chain.  Like
`rw_metropolis`, it draws its randomness ahead on child streams: chain
r's uniforms on ``rng_r.child(0)`` and its normals on ``rng_r.child(1)``,
a block of sweeps at a time, the block bounded by a fixed scratch budget.
A sweep is then arithmetic alone, the latents of every chain one
`truncated_normal_positive` transform of the block's uniforms.  The
coefficient draw is overrelaxed (Adler 1981; Neal 1998): beta_t =
m_t + a (beta_{t-1} - m_t) + sqrt(1 - a^2) L zeta_t around the conditional
mean m_t, a = 1 - pi/2, which leaves the Gaussian full conditional
invariant and damps the chain's random walk, at no extra cost per sweep.
A single chain (`probit_gibbs_run`) is the lockstep of one; R chains come
back as (R, n_iter, p) arrays, each bit-identical to a run of its own
whatever R and the block size.  Two models take two calls.

`chain_diagnostics` alone decides whether a chain has an IACT (Geyer's
initial monotone sequence over every lag, no lag cap) and so a chain ESS:
fewer than 100 states have none.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .core import (MvnParams, RngStream, log_ndtr, rowwise, truncated_normal_positive,
                   uniform_complements)
from .model import BayesModel, log_posterior
from .probit import ProbitModel, ProbitSweep, probit_mle

__all__ = [
    "Chain",
    "below_floor",
    "rw_metropolis",
    "rw_mh_run",
    "probit_gibbs_run",
    "probit_gibbs_chains",
    "mwg_probit_overparam_run",
    "chain_diagnostics",
]

# an early rejection's slack relative to 1 + |floor| (see rw_metropolis)
_FLOOR_SLACK = 1e-9
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
# the scratch of a block of Gibbs sweeps, in doubles (256 KB): the block's
# uniforms, over all R chains' n latents a sweep
_GIBBS_BLOCK_DOUBLES = 1 << 15
# the overrelaxation a of the Gibbs coefficient draw (probit_gibbs_chains),
# 1 - pi/2 ~ -0.571.  One probit observation carries at most 2/pi of its
# latent's Fisher information, phi(eta)^2 / (Phi(eta) (1 - Phi(eta))) at
# eta = 0, so the linearised data-augmentation rate lambda is at least
# about 1 - 2/pi in every direction.  The overrelaxed rate
# (1 - a) lambda + a = 1 - (pi/2)(1 - lambda) then stays >= 0: the chain's
# random walk is damped, and it never turns antithetic.
_OVERRELAX = 1.0 - math.pi / 2.0


@dataclass(frozen=True)
class Chain:
    """Ordered MCMC states with acceptance counts and, for samplers with an
    accept step, the log-posterior of each state (None otherwise)."""

    states: np.ndarray  # (n_iter, p)
    log_posts: np.ndarray | None
    accept_count: int
    n_proposals: int
    proposal_meta: dict = field(default_factory=dict)

    def __len__(self):
        return self.states.shape[0]

    @property
    def acceptance_rate(self) -> float:
        if self.n_proposals == 0:
            return float("nan")
        return self.accept_count / self.n_proposals


def below_floor(bound: float, floor: float) -> bool:
    """Whether `bound` lies below `floor` by more than the slack of
    `rw_metropolis`'s early rejection, 1e-9 (1 + |floor|); False when
    either is NaN."""
    return bound < floor - _FLOOR_SLACK * (1.0 + abs(floor))


def rw_metropolis(log_target, cov, theta, lp: float, n_iter: int, rng: RngStream,
                  blocks=None):
    """Random-walk Metropolis from `theta`, whose log-target is `lp`: step t
    moves block b = t mod B of the B `blocks` (index sequences; default one
    of every coordinate), proposing cand = theta + L z, L the `MvnParams`
    factor of ``cov[b][:, b]`` (singular ones too) in block b's rows and
    zero in the others, and accepts if log_u <= log_target(cand, floor) - lp,
    log_u = log1p(-u).  A rejection repeats the previous state and value.

    Early rejection (Solonen et al. 2012): the uniform is known before the
    candidate is valued, so `log_target` gets the acceptance floor
    ``floor = lp + log_u`` as its second argument.  It returns its value,
    or -inf when it has shown, without computing that value, that the value
    lies below the floor by more than the slack 1e-9 (1 + |floor|): the
    test ``below_floor(bound, floor)`` on an upper bound of the value.  The
    slack covers the rounding of the floor against the accept test's
    difference and that of the target's bound, so such a candidate is one
    the accept test would refuse too, and the chain keeps every decision
    and every bit.  A NaN bound never rejects.  A target may ignore the
    floor.

    The randomness is drawn before the first step, on child streams of
    `rng`: one uniform per step on ``rng.child(0)``, and block b's standard
    normals z on ``rng.child(b + 1)``, one row per step of the block, L z
    summed in coordinate order.  A stream fills in order, so step t's draws
    do not depend on `n_iter`, and a shorter chain is a prefix of a longer
    one.  A step is then one `log_target` call and one comparison.  `rng`
    itself is left for `log_target`'s own draws.  Returns the (n_iter, p)
    states, their (n_iter,) log-targets and the accepted count of each
    block."""
    p = len(theta)
    blocks = [range(p)] if blocks is None else blocks
    n_blocks = len(blocks)
    factors = []
    for i, b in enumerate(blocks):
        scale = np.zeros((p, len(b)))
        scale[b] = MvnParams(np.zeros(len(b)), np.asarray(cov)[np.ix_(b, b)]).scale
        factors.append((scale, rng.child(i + 1).generator))
    log_us = np.log1p(-rng.child(0).generator.random(n_iter)).tolist()
    inc = np.empty((n_iter, p))
    for b, (scale, gen) in enumerate(factors):
        rows = inc[b::n_blocks]
        z = gen.standard_normal((len(rows), scale.shape[1]))
        np.multiply(z[:, :1], scale[:, 0], out=rows)
        for j in range(1, scale.shape[1]):
            rows += z[:, j:j + 1] * scale[:, j]
    states = np.empty((n_iter, p))
    log_targets = np.empty(n_iter)
    accepts = [0] * n_blocks
    for t, (step, log_u) in enumerate(zip(inc, log_us)):
        cand = theta + step
        lp_cand = log_target(cand, lp + log_u)
        if log_u <= lp_cand - lp:
            theta, lp = cand, lp_cand
            accepts[t % n_blocks] += 1
        states[t] = theta
        log_targets[t] = lp
    return states, log_targets, accepts


def rw_mh_run(target: BayesModel, cov, theta0, n_iter: int, rng: RngStream) -> Chain:
    """`rw_metropolis` on the log-posterior of `target`, one block of every
    coordinate, its draws on the child streams ``rng.child(0)`` (uniforms)
    and ``rng.child(1)`` (increments), each step one `log_posterior` call
    on a (p,) point; the target ignores its acceptance floor.  A start
    that is not a (dimension,) point is a `ValueError`, and so is one
    outside the support."""
    theta = np.atleast_1d(np.asarray(theta0, dtype=float))
    if theta.shape != (target.dimension,):
        raise ValueError(f"theta0 has shape {theta.shape}, expected ({target.dimension},)")
    lp = log_posterior(target, theta)
    if lp == -np.inf:
        raise ValueError("theta0 outside the target support")
    states, log_posts, accepts = rw_metropolis(
        lambda cand, floor: log_posterior(target, cand), cov, theta, lp, n_iter, rng)
    return Chain(states, log_posts, sum(accepts), n_iter, {"family": "random-walk-metropolis"})


def probit_gibbs_chains(model: ProbitModel, n_iter: int, rngs):
    """Data-augmentation Gibbs for a probit posterior, its coefficient draw
    overrelaxed: one chain per stream of `rngs` in one lockstep, each
    started at the MLE.

    Sweep t draws the latents z_t given beta_{t-1}, then the coefficients
    beta_t = m_t + a (beta_{t-1} - m_t) + sqrt(1 - a^2) L zeta_t, m_t =
    E[beta | z_t] and L the factor of the conditional's covariance
    (`ProbitSweep`), a = `_OVERRELAX`: Adler's (1981) overrelaxation of the
    Gaussian full conditional (Neal 1998), which leaves that conditional,
    and so the posterior, invariant, and at stationarity leaves
    (beta_{t-1}, z_t) a joint posterior draw.

    Chain r draws its randomness ahead, on child streams of its stream
    ``rng_r``: the uniforms of its latents on ``rng_r.child(0)``, n a
    sweep, and the normals zeta on ``rng_r.child(1)``, p a sweep, a block
    of sweeps at a time, the block as many sweeps as fit the chains'
    uniforms in `_GIBBS_BLOCK_DOUBLES`.  The block's 1 - u and its
    sqrt(1 - a^2) L zeta are computed once, the latter straight into the
    output rows.  A sweep then makes no generator call: it writes
    eta = S X beta of every chain into one (R, n) buffer, transforms the
    block's uniforms into all R rows of latents in one
    `truncated_normal_positive` call, and writes beta_t into the last p
    columns of the latent buffer, where beta_{t-1} was: one product of the
    buffer with [(1 - a) M | a I], M the mean map, gives
    (1 - a) m_t + a beta_{t-1}, and one add of the noise gives beta_t.
    The output states, and m_t, are written once per block.  A stream
    fills in order, so neither R nor the block size moves a bit: chain r
    is bit-identical to a run of its own on its stream, a shorter run is a
    prefix of a longer one, and ``rng_r`` itself is not advanced.  A NaN or
    -inf eta in any chain raises `FloatingPointError` for the whole call.

    Returns the (R, n_iter, p) states and the (R, n_iter, p) conditional
    means m_t = E[beta | z_t] = c (X'X)^{-1} X'z_t, row t the mean that
    sweep t drew its state around.  The means are all that Chib's ordinate
    and the Rao-Blackwellised averages need of the latents, which are
    never stored.
    """
    a = _OVERRELAX
    n, p = model.n_obs, model.dimension
    sweep = ProbitSweep(model)
    relaxed = np.hstack([(1.0 - a) * sweep.mean_map, a * np.eye(p)])
    scale = math.sqrt(1.0 - a * a) * sweep.cond.scale
    uniforms = [rng.child(0) for rng in rngs]
    normals = [rng.child(1) for rng in rngs]
    eta = np.empty((len(rngs), n))
    # row r: chain r's latents w = s z, then its previous state.  The
    # latents are drawn into a scratch of their own and copied in: the
    # transform's four ufunc passes cost more on strided rows than the copy
    z = np.empty_like(eta)
    w = np.empty((len(rngs), n + p))
    latents, beta = w[:, :n], w[:, n:]
    beta[:] = probit_mle(model)[0]
    states, means = np.empty((2, len(rngs), n_iter, p))
    size = max(1, _GIBBS_BLOCK_DOUBLES // max(1, eta.size))
    for start in range(0, n_iter, size):
        stop = min(start + size, n_iter)
        v = uniform_complements(uniforms, stop - start, n)
        first = beta.copy()
        for rng, rows in zip(normals, states[:, start:stop]):
            rowwise(rng.generator.standard_normal(rows.shape), scale, rows)
        for t in range(start, stop):
            rowwise(beta, model.signed_design, eta)
            latents[...] = truncated_normal_positive(eta, v[:, t - start], z)
            np.add(states[:, t], rowwise(w, relaxed, means[:, t]), out=beta)
        # the states that the sweeps kept in the buffer, then m_t from
        # (1 - a) m_t + a beta_{t-1}
        states[:, start:stop] += means[:, start:stop]
        means[:, start] -= a * first
        means[:, start + 1:stop] -= a * states[:, start:stop - 1]
        means[:, start:stop] /= 1.0 - a
    return states, means


def probit_gibbs_run(model: ProbitModel, n_iter: int, rng: RngStream):
    """One chain of `probit_gibbs_chains` on stream `rng`.  Returns (chain,
    means), means the (n_iter, p) conditional means E[beta | z], one row
    per sweep.  A Gibbs sweep has no accept step, so the chain has no
    log-posteriors and no proposals."""
    states, means = probit_gibbs_chains(model, n_iter, [rng])
    return Chain(states[0], None, 0, 0, {"family": "gibbs-data-augmentation"}), means[0]


def _overparam_probit_target(x, y):
    """The log-target of `mwg_probit_overparam_run` at theta = (beta, l),
    with its early rejection: ``log_target(theta, floor)``.

    The likelihood is ll(r) = sum_i log Phi(a_i r), r = beta / sigma and
    a_i = s_i x_i, and it is concave in r.  So each tangent line
    ll(r_k) + g_k (r - r_k), slope g_k = sum_i a_i phi(a_i r_k) / Phi(a_i r_k)
    = sum_i a_i sqrt(2/pi) / erfcx(-a_i r_k / sqrt 2), bounds it from above.
    The tangents sit at r_k = 0 and +-s0 4^j, j = 0..5, with
    s0 = (2/pi sum_i a_i^2)^(-1/2) the scale of ll's curvature at 0 (0 alone
    when that sum is 0 or overflows), which needs no MLE and holds on any
    data: a constant ll (all a_i zero) and separated data alike.  Between
    two tangent points only their two tangents can be the lowest, so a step
    looks at those two.  A candidate whose bound plus the prior and Jacobian
    terms lies `below_floor` is -inf without its likelihood; a tangent with
    a non-finite slope has a NaN value, and never rejects."""
    signed_x = (2.0 * np.asarray(y, dtype=float) - 1.0) * np.asarray(x, dtype=float)
    terms = np.empty_like(signed_x)
    curvature = 2.0 / math.pi * float(signed_x @ signed_x)
    s0 = 1.0 / math.sqrt(curvature) if curvature > 0.0 else 0.0
    grid = sorted({0.0, *(sign * s0 * 4.0 ** j for j in range(6) for sign in (-1.0, 1.0))})
    # d/dr log Phi(a r) = a phi(a r) / Phi(a r) = a sqrt(2/pi) / erfcx(-a r / sqrt 2)
    slopes = [float(np.sum(signed_x * (_SQRT_2_OVER_PI
                                       / special.erfcx(signed_x * (-r / math.sqrt(2.0))))))
              for r in grid]
    values = [float(special.log_ndtr(signed_x * r).sum()) if math.isfinite(g) else math.nan
              for r, g in zip(grid, slopes)]
    last = len(grid) - 1

    def log_target(theta, floor):
        beta, ell = theta.tolist()
        try:
            sigma2 = math.exp(ell)
        except OverflowError:
            return -math.inf
        if sigma2 == 0.0:
            return -math.inf
        r = beta / math.sqrt(sigma2)
        lp = -2.0 * math.log(sigma2) - 1.0 / sigma2 - beta * beta / 50.0
        k = bisect.bisect(grid, r)
        lo, hi = max(k - 1, 0), min(k, last)
        bound = min(values[lo] + slopes[lo] * (r - grid[lo]),
                    values[hi] + slopes[hi] * (r - grid[hi]))
        if below_floor(bound + lp + ell, floor):
            return -math.inf
        np.multiply(signed_x, r, out=terms)
        return float(log_ndtr(terms).sum()) + lp + ell

    return log_target


def mwg_probit_overparam_run(x, y, n_iter: int, rng: RngStream,
                             beta_step_var: float = 1.0,
                             logsigma_step_var: float = 0.04) -> Chain:
    """Metropolis-within-Gibbs for the overparameterised single-covariate
    probit (success probability Phi(x * beta / sigma)).

    The prior is sigma^{-4} exp(-1/sigma^2) exp(-beta^2/50).  The chain is
    `rw_metropolis` from (0, 0) on (beta, l = log sigma^2), 2 n_iter steps
    on the blocks beta and l in turn, with increment variances
    `beta_step_var` and 4 `logsigma_step_var` (each finite and > 0 or a
    `ValueError`): a random walk on l is a log-normal proposal on sigma.
    The target is the log-posterior at (beta, e^l) plus the Jacobian term
    l, its scalar terms in Python floats; it is -inf, with no warning,
    where e^l or the target leaves the float range.  The likelihood,
    sum_i log Phi(s_i x_i beta / sigma), is evaluated by `core.log_ndtr`
    in an (n,) array the run owns: the bits of a one-row
    `probit_loglik_rows` call.  A candidate whose upper bound, from a few
    tangent lines of the concave likelihood, lies below its acceptance
    floor is rejected early, without its likelihood, with the decision and
    the bits of a full evaluation (see `rw_metropolis`); most far-off beta
    proposals go this way.  Every second state is kept as (beta, sigma^2),
    with the target less l, its log-posterior.
    """
    variances = (beta_step_var, 4.0 * logsigma_step_var)
    for key, variance in zip(("beta_step_var", "logsigma_step_var"), variances):
        if not 0.0 < variance < np.inf:
            raise ValueError(f"{key}: the increment variance {variance!r} must be "
                             "finite and positive")
    cov = np.diag(variances)
    with np.errstate(over="ignore"):
        log_target = _overparam_probit_target(x, y)
        states, log_targets, (acc_beta, acc_sigma) = rw_metropolis(
            log_target, cov, np.zeros(2), log_target(np.zeros(2), -math.inf), 2 * n_iter,
            rng, [[0], [1]])
    beta, ell = states[1::2].T
    return Chain(np.column_stack([beta, np.exp(ell)]), log_targets[1::2] - ell,
                 acc_beta + acc_sigma, 2 * n_iter,
                 {"family": "metropolis-within-gibbs",
                  "accept_rate_beta": acc_beta / n_iter,
                  "accept_rate_sigma2": acc_sigma / n_iter})


def _autocorrelations(x: np.ndarray) -> np.ndarray:
    """Lag 0..n-2 autocorrelations of the n states `x`, each lag's n - k
    products summed by one FFT zero-padded to 2n, so none wraps around; all
    NaN for a constant `x`."""
    n = len(x)
    # tested before centring: the float mean of a constant can miss it by an ulp
    if x.min() == x.max():
        return np.full(n - 1, np.nan)
    x = x - np.mean(x)
    var = np.mean(x * x)
    f = np.fft.rfft(x, 2 * n)
    sums = np.fft.irfft(f.real ** 2 + f.imag ** 2, 2 * n)[: n - 1]
    return sums / (n - np.arange(n - 1)) / var


def _iact(acf: np.ndarray) -> float:
    """Integrated autocorrelation time 1 + 2 sum_m G_m from the
    autocorrelations `acf` (lag 0 first) by Geyer's (1992) initial monotone
    sequence: the pair sums G_m = acf[2m - 1] + acf[2m], m >= 1, cut before
    the first that is not positive, each then lowered to the smallest of
    those before it; infinite when `acf` holds a NaN."""
    if np.any(np.isnan(acf)):
        return np.inf
    pairs = acf[1:len(acf) - 1:2] + acf[2::2]
    cut = np.flatnonzero(pairs <= 0)
    pairs = pairs[:cut[0]] if len(cut) else pairs
    return 1.0 + 2.0 * float(np.minimum.accumulate(pairs).sum())


def chain_diagnostics(chain: Chain) -> dict:
    """Acceptance rate, and per coordinate of the n states the IACT by
    `_iact` over every lag 1..n-2, with no cap, and the chain ESS n / IACT;
    under 100 states `iact` and `chain_ess` are None.  A coordinate that
    never moves has an infinite IACT and a chain ESS of 0."""
    states = np.atleast_2d(chain.states)
    n = states.shape[0]
    diag = {"acceptance_rate": chain.acceptance_rate, "iact": None, "chain_ess": None}
    if n >= 100:
        iact = np.asarray([_iact(_autocorrelations(col)) for col in states.T])
        diag.update(iact=iact, chain_ess=n / iact)
    return diag
