"""Probit regression under the unit-information g-prior.

Covers the likelihood, the prior, maximum likelihood by Fisher scoring, the
truncated-normal latent-variable completion driving the data-augmentation
Gibbs sampler, and the pseudo-data simulator and whitened X'y summary used
by the likelihood-free run.  Every likelihood here, and so every density
the samplers and evidence routes evaluate on it, sums one log Phi kernel,
`core.log_ndtr`, over the signed linear predictors.  The simulator spends
one random byte per pseudo-response: the byte settles the response unless
the threshold -x'beta falls in the normal bin it opens, about once in 256,
and only then is the rest of the uniform drawn, so its law is exactly
Bernoulli(Phi(x'beta)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy import special

from .core import (MvnParams, RngStream, log_ndtr, map_rows, rowwise,
                   truncated_normal_positive, uniform_complements)
from .model import BayesModel, LatentCompletion

__all__ = [
    "ProbitModel",
    "NonConvergenceError",
    "probit_loglik_rows",
    "probit_loglik",
    "probit_loglik_many",
    "gprior_logpdf_many",
    "probit_mle",
    "sample_gprior",
    "ProbitSweep",
    "probit_latent_completion",
    "probit_simulator",
    "probit_summary_whitener",
    "probit_abc_summary",
    "probit_bayes_model",
]

# Fisher scoring stops once the Newton decrement g'I^{-1}g is below
# _MLE_TOL * (1 + |loglik|), after one last full step, and gives up after
# _MLE_MAX_ITER iterations
_MLE_TOL = 1e-12
_MLE_MAX_ITER = 50
# z_k = Phi^{-1}(k / 256) for k = 0, ..., 256 (z_0 = -inf, z_256 = inf): the
# top byte k of a uniform U places Phi^{-1}(U) in [z_k, z_{k+1})
_BYTE_EDGES = special.ndtri(np.arange(257) / 256.0)


class NonConvergenceError(RuntimeError):
    """Fisher scoring failed to converge (typically complete separation)."""


@dataclass(frozen=True)
class ProbitModel:
    """Design matrix and binary response under the g-prior with g = n.

    The prior is beta ~ N(0, g * (X'X)^{-1}); with g = n its information is
    that of a single observation.  X'X must be invertible, checked here.
    The signs s_i = 2 y_i - 1 and the signed design S X (rows s_i x_i) are
    built once: every probit kernel works on eta = S X beta, whose entry i
    is s_i x_i'beta exactly, since negation is exact in floating point.
    """

    design: np.ndarray
    response: np.ndarray
    xtx: np.ndarray = field(init=False, repr=False, compare=False)
    signs: np.ndarray = field(init=False, repr=False, compare=False)
    signed_design: np.ndarray = field(init=False, repr=False, compare=False)
    prior: MvnParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.design, dtype=float))
        y = np.asarray(self.response)
        object.__setattr__(self, "design", X)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError("design and response lengths differ")
        if not np.isin(y, (0, 1)).all():
            raise ValueError("response entries must be 0 or 1")
        object.__setattr__(self, "response", y.astype(float))
        signs = 2.0 * self.response - 1.0
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "signed_design", signs[:, None] * X)
        xtx = X.T @ X
        object.__setattr__(self, "xtx", xtx)
        try:
            np.linalg.cholesky(xtx)
        except np.linalg.LinAlgError:
            raise np.linalg.LinAlgError("X'X is singular; g-prior undefined")
        object.__setattr__(self, "prior", MvnParams(np.zeros(X.shape[1]),
                                                    self.prior_covariance()))

    @property
    def n_obs(self) -> int:
        return self.design.shape[0]

    @property
    def dimension(self) -> int:
        return self.design.shape[1]

    @property
    def prior_scale(self) -> float:
        """The g of the g-prior: the number of observations."""
        return float(self.n_obs)

    def prior_covariance(self) -> np.ndarray:
        return self.prior_scale * np.linalg.inv(self.xtx)


def probit_loglik_rows(signed_design: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """sum_i log Phi(s_i x_i'beta) for each row beta of the (m, p) `betas`,
    as (m,) values, or for the (p,) point `betas`, as a scalar, with s_i x_i
    the rows of the (n, p) `signed_design` and s_i = 2 y_i - 1.

    This is the probit log-likelihood, accumulated through the log-CDF
    `core.log_ndtr` in place on the (m, n) or (n,) predictors, so that
    deep-tail observations do not underflow.  That kernel picks its path
    per entry, so every row, and a point, is bit-identical to its one-row
    call whatever m is (`rowwise`).  It takes a bare signed design, so a
    design whose X'X is singular is evaluated too.
    """
    return log_ndtr(rowwise(betas, signed_design)).sum(axis=-1)


def probit_loglik_many(model: ProbitModel, betas: np.ndarray) -> np.ndarray:
    """Bernoulli log-likelihood with success probability Phi(x'beta), one
    value per row of the (m, p) array `betas`, by `probit_loglik_rows`.
    Rows are evaluated in blocks (`map_rows`) so the (rows x n) temporaries
    stay bounded.
    """
    betas = np.asarray(betas, dtype=float)
    if betas.ndim != 2 or betas.shape[1] != model.dimension:
        raise ValueError(f"betas has shape {betas.shape}, expected (m, {model.dimension})")
    return map_rows(lambda b: probit_loglik_rows(model.signed_design, b), betas)


def probit_loglik(model: ProbitModel, beta) -> float:
    """Log-likelihood at a single coefficient vector (one-row batch)."""
    return float(probit_loglik_many(model, np.asarray(beta, dtype=float)[None, :])[0])


def gprior_logpdf_many(model: ProbitModel, betas: np.ndarray) -> np.ndarray:
    """Exact N(0, g (X'X)^{-1}) log-density at each row of `betas`."""
    return model.prior.logpdf_many(betas)


def sample_gprior(model: ProbitModel, n: int, rng: RngStream) -> np.ndarray:
    """n draws from the g-prior, rows are coefficient vectors."""
    return rng.standard_normal((n, model.dimension)) @ model.prior.scale.T


def probit_mle(model: ProbitModel):
    """Maximum likelihood by Fisher scoring with step-halving, stopped by
    the scale-free Newton decrement (see `_MLE_TOL`).

    Returns (beta_hat, cov_hat) where cov_hat is the inverse Fisher
    information at beta_hat (the covariance standard software reports).
    Raises NonConvergenceError when the iteration diverges, which is the
    symptom of complete separation in the data.
    """
    X, y = model.design, model.response
    beta = np.zeros(model.dimension)
    ll = probit_loglik(model, beta)
    converged = False
    for iteration in range(1, _MLE_MAX_ITER + 1):
        eta = X @ beta
        phi = np.exp(-0.5 * eta * eta) / np.sqrt(2.0 * np.pi)
        big = special.ndtr(eta)
        small = special.ndtr(-eta)
        denom = np.clip(big * small, 1e-300, None)
        score_terms = phi * (y - big) / denom
        grad = X.T @ score_terms
        w = phi * phi / denom
        info = X.T @ (w[:, None] * X)
        if converged:
            return beta, np.linalg.inv(info)
        try:
            step = np.linalg.solve(info, grad)
        except np.linalg.LinAlgError:
            raise NonConvergenceError(f"singular information matrix at iteration {iteration}")
        # the Newton decrement g'I^{-1}g, twice the log-likelihood gain the
        # step promises, is free of the covariates' scale; the gradient
        # alone is not, and stalls at the rounding floor of its length-n
        # sum when a covariate is large
        if grad @ step < _MLE_TOL * (1.0 + abs(ll)):
            if ll > -1e-8:
                # a perfect fit is complete separation: the true supremum
                # sits at infinity and the gradient only vanished by underflow
                raise NonConvergenceError(
                    "perfect fit reached: data are completely separated")
            # beta is still off by about the root of the decrement: one
            # last full step, whose gain is too small for a line search to
            # judge, shrinks that error by the scoring's contraction (to
            # 1e-8 relative on pima), and the information is read there
            beta = beta + step
            converged = True
            continue
        scale = 1.0
        for _ in range(30):
            cand = beta + scale * step
            cand_ll = probit_loglik(model, cand)
            if cand_ll >= ll or not np.isfinite(ll):
                break
            scale *= 0.5
        beta = beta + scale * step
        ll = cand_ll
        if np.linalg.norm(beta) > 1e8:
            raise NonConvergenceError(
                f"coefficients diverging at iteration {iteration}: likely complete separation"
            )
    raise NonConvergenceError(f"no convergence after {_MLE_MAX_ITER} Fisher scoring iterations")


@dataclass(frozen=True)
class ProbitSweep:
    """The blocks of one data-augmentation Gibbs sweep of a probit model,
    for R chains at once, row r of every array one chain (a 1-D array is
    the one row of a single chain).

    Latents z_i ~ N(x_i'beta, 1) constrained to the side given by y_i are
    z = s (eta + t), with eta = S X beta (`eta`) and t a standard normal
    above -eta (`core.truncated_normal_positive` draws w = eta + t).  The
    coefficients' conditional given z is the exact normal N(m, c (X'X)^{-1}),
    m = c (X'X)^{-1} X'z and c = g / (g + 1), which `mean` computes from w
    through the pre-signed map ``mean_map`` = (c (X'X)^{-1} X') diag(s):
    multiplying by s_i = +-1 is exact, so each product keeps its bits.
    `draw` returns m plus the conditional's factor times normals that
    `noise` draws one stream at a time.  Each writes into `out` when given;
    the products are `core.rowwise`, so every row is bit-identical to a
    one-row call.
    """

    model: ProbitModel
    mean_map: np.ndarray = field(init=False, repr=False, compare=False)
    cond: MvnParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = self.model.prior_scale
        shrink = g / (g + 1.0)
        xtx_inv = np.linalg.inv(self.model.xtx)
        proj = shrink * (xtx_inv @ self.model.design.T)  # mean map z -> beta
        object.__setattr__(self, "mean_map", proj * self.model.signs)
        object.__setattr__(self, "cond", MvnParams(np.zeros(self.model.dimension),
                                                   shrink * xtx_inv))

    def eta(self, betas, out=None) -> np.ndarray:
        """S X beta for each row of the (R, p) `betas`, as (R, n)."""
        return rowwise(betas, self.model.signed_design, out)

    def mean(self, w, out=None) -> np.ndarray:
        """E[beta | z] for each row w = s z of the (R, n) `w`, as (R, p)."""
        return rowwise(w, self.mean_map, out)

    def noise(self, rngs, out=None) -> np.ndarray:
        """(R, p) standard normals, row r drawn from stream ``rngs[r]``."""
        if out is None:
            out = np.empty((len(rngs), self.model.dimension))
        for rng, row in zip(rngs, out):
            rng.generator.standard_normal(out=row)
        return out

    def draw(self, means, noise, out=None) -> np.ndarray:
        """A draw of N(m, c (X'X)^{-1}) for each row m of `means`: m plus
        the conditional's factor times the row of `noise`."""
        out = rowwise(noise, self.cond.scale, out)
        out += means
        return out


def probit_latent_completion(model: ProbitModel) -> LatentCompletion:
    """Truncated-normal completion of the probit posterior, one sweep of
    `ProbitSweep` split into its two blocks.

    `sample_latents` draws the latents given the (R, p) coefficients and
    returns their statistic m = E[beta | z], not z; `sample_params` draws
    the coefficients given m, and the normalised log-density exposed for
    posterior-ordinate evidence estimation takes one m per row.  Row r
    draws from stream ``rngs[r]`` alone and equals a one-chain call on its
    stream bit for bit.
    """
    sweep = ProbitSweep(model)

    def sample_latents(betas, rngs):
        eta = sweep.eta(np.asarray(betas, float))
        return sweep.mean(truncated_normal_positive(
            eta, uniform_complements(rngs, eta.shape[-1])))

    def sample_params(means, rngs):
        return sweep.draw(means, sweep.noise(rngs))

    def log_full_conditional_param(beta, means):
        return sweep.cond.logpdf_many(np.asarray(beta, float) - means)

    return LatentCompletion(sample_latents, sample_params, log_full_conditional_param)


def probit_simulator(model: ProbitModel):
    """The `simulate(betas, rng)` of one likelihood-free run: pseudo-responses
    y*_bi ~ Bernoulli(Phi(x_i'beta_b)), one row per row b of the (B, p)
    `betas`, through the latent form y*_bi = 1{e_bi > t_bi}, t_bi =
    -x_i'beta_b, with e_bi = Phi^{-1}(U_bi) for a uniform U_bi, drawn one
    random byte per response.

    The byte k is the top byte of U = (k + V) / 256, so it places e in
    [z_k, z_{k+1}), z_k = Phi^{-1}(k / 256) (`_BYTE_EDGES`): y* is 1 when
    t < z_k and 0 when t >= z_{k+1}.  Otherwise, about once in 256
    responses, t lies in e's bin, and only then is the rest of U drawn as
    one double V and y* = 1{Phi^{-1}((k + V) / 256) > t}.  Since U is
    uniform, that is the law of the latent form with e standard normal,
    exactly up to the double precision of U.  A call draws ceil(B n / 8)
    raw 64-bit words from `rng`, read as bytes, then the doubles V of the
    responses it refines in row-major order, so a run is bit-reproducible.

    A coefficient row with a NaN or infinite entry raises
    `FloatingPointError`.  A call works in scratch arrays it owns (the
    bytes, -X beta, one gathered edge per response and two masks), so a run
    of equal blocks allocates no (B x n) array after its first.  The scratch
    grows only when a call has more rows than any before it.  The returned
    float 0/1 array is scratch too: it is valid until the next call.
    """
    n = model.n_obs
    neg_design_t = np.negative(model.design).T  # the layout of design.T
    lower, upper = _BYTE_EDGES[:-1], _BYTE_EDGES[1:]

    def scratch_for(rows):
        # y*, -X beta, a gathered edge, the bytes, and the masks t < edge
        return (np.empty((rows, n)), np.empty((rows, n)), np.empty((rows, n)),
                np.empty((rows, n), dtype=np.intp),
                np.empty((rows, n), dtype=bool), np.empty((rows, n), dtype=bool))

    scratch = scratch_for(0)

    def simulate(betas, rng: RngStream) -> np.ndarray:
        nonlocal scratch
        betas = np.asarray(betas, dtype=float)
        if not np.isfinite(betas).all():
            raise FloatingPointError("coefficient rows must be finite")
        rows = betas.shape[0]
        if rows > len(scratch[0]):
            scratch = scratch_for(rows)
        ys, t, edge, k, above_lower, above_upper = (a[:rows] for a in scratch)
        # -(X beta) bit for bit: negation is exact and rounding symmetric
        np.matmul(betas, neg_design_t, out=t)
        words = rng.generator.bit_generator.random_raw(-(-rows * n // 8))
        np.copyto(k, words.view(np.uint8)[:rows * n].reshape(rows, n))
        del words  # freed before the refinement's small arrays
        # mode="clip" gathers straight into `edge`; "raise" would buffer it
        np.greater(np.take(lower, k, out=edge, mode="clip"), t, out=above_lower)
        np.greater(np.take(upper, k, out=edge, mode="clip"), t, out=above_upper)
        np.copyto(ys, above_lower)
        # z_k <= t < z_{k+1}: t is inside e's bin, so refine e
        inside = np.flatnonzero(np.not_equal(above_lower, above_upper, out=above_upper))
        u = rng.generator.random(inside.size)
        u += k.reshape(-1)[inside]
        u /= 256.0
        ys.reshape(-1)[inside] = special.ndtri(u) > t.reshape(-1)[inside]
        return ys

    return simulate


def probit_summary_whitener(model: ProbitModel, beta) -> np.ndarray:
    """Inverse Cholesky factor W of V = X' diag(Phi(1 - Phi)) X at beta.

    V is the covariance of X'y under the model at beta, so W X'y has
    identity covariance there and euclidean distances between whitened
    summaries are Mahalanobis distances between the raw ones.
    """
    prob = special.ndtr(model.design @ np.asarray(beta, dtype=float))
    v = model.design.T @ ((prob * (1.0 - prob))[:, None] * model.design)
    whitener = MvnParams(np.zeros(model.dimension), v).whitener
    if whitener is None:
        raise np.linalg.LinAlgError("summary covariance is singular at beta")
    return whitener


def probit_abc_summary(model: ProbitModel, ys, whitener: np.ndarray) -> np.ndarray:
    """Whitened score-type summaries W X'y, one per row y of `ys`.

    X'y, the sufficient statistic of the logit model, keeps nearly all the
    information about beta under the probit link too, so ABC on it
    approaches the posterior as the tolerance shrinks.  The observed
    response goes through the same map as a one-row batch.
    """
    return (np.asarray(ys, dtype=float) @ model.design) @ whitener.T


def probit_bayes_model(model: ProbitModel) -> BayesModel:
    """Close the probit posterior over its data as a sampler-facing target.

    `log_posterior` has checked the shape of its points by the time either
    density sees them, so the likelihood closes over `probit_loglik_rows`
    itself, not over `probit_loglik_many`, which checks the shape for
    direct callers; the prior is the g-prior's own `logpdf_many`.  Both
    take a (p,) point as well as a batch, and evaluate it on the 1-D paths
    of the same products, with the bits of its one-row batch."""
    return BayesModel(
        dimension=model.dimension,
        log_prior=model.prior.logpdf_many,
        log_likelihood=partial(map_rows, partial(probit_loglik_rows, model.signed_design)),
        sample_prior=lambda n, rng: sample_gprior(model, n, rng),
    )
