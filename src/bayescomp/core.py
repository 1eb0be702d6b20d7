"""Seedable random streams and shared numerical primitives.

Everything downstream (samplers, estimators, ABC) draws randomness through
:class:`RngStream`, normalises weights through :func:`log_sum_exp`, sums
probit log-likelihoods through :func:`log_ndtr` and draws probit latents
through :func:`truncated_normal_positive`, the one truncated-normal
primitive, an inverse-CDF transform of uniforms its callers draw, so the
determinism and numerical-stability guarantees live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

__all__ = [
    "RngStream",
    "MvnParams",
    "rowwise",
    "DegenerateWeightsError",
    "sample_truncated_normal",
    "truncated_normal_vector",
    "truncated_normal_positive",
    "uniform_complements",
    "sample_categorical",
    "categorical_cdf",
    "log_sum_exp",
    "log_ndtr",
    "map_rows",
]

_U64 = 0xFFFFFFFFFFFFFFFF
_LOG2PI = np.log(2.0 * np.pi)
# rows per block when a batched density is evaluated in blocks (map_rows)
CHUNK_ROWS = 256
# log_ndtr computes log(ndtr(x)) on this range and scipy's log_ndtr outside it
_LOG_NDTR_LOW, _LOG_NDTR_HIGH = -20.0, 3.0


class DegenerateWeightsError(ValueError):
    """All weights are zero (log-weights all -inf), or one is NaN or infinite."""


@dataclass
class RngStream:
    """Deterministic random stream keyed by (seed, stream_id).

    Streams are backed by the counter-based Philox generator: the 128-bit
    Philox key is (seed, stream_id), so distinct stream ids give statistically
    independent streams without any seed arithmetic.  A stream is single-owner:
    drawing advances the internal counter.
    """

    seed: int
    stream_id: int = 0
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0 <= self.seed <= _U64) or not (0 <= self.stream_id <= _U64):
            raise ValueError("seed and stream_id must fit in 64 bits")
        key = (self.seed << 64) | self.stream_id
        self._gen = np.random.Generator(np.random.Philox(key=key))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    @property
    def counter(self) -> tuple:
        """Current Philox counter (position in the stream)."""
        return tuple(self._gen.bit_generator.state["state"]["counter"])

    def uniform(self, size=None):
        return self._gen.random(size)

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size)

    def child(self, index: int) -> "RngStream":
        """Independent stream for worker/particle `index` of this stream.

        Derived by hashing (stream_id, index) through SplitMix64 so nested
        splits never collide with plain consecutive stream ids.
        """
        x = (self.stream_id ^ (0x9E3779B97F4A7C15 * (index + 1))) & _U64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _U64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _U64
        return RngStream(self.seed, x ^ (x >> 31))


@dataclass(frozen=True)
class MvnParams:
    """Mean and PSD covariance of a multivariate normal, validated upfront.

    Factorization happens at construction; a non-finite entry, or a
    covariance that is not symmetric (to 1e-12 relative) or not PSD
    (eigenvalue below -1e-12 * max diagonal), is rejected here, never at
    draw time.  A positive-definite covariance caches its Cholesky factor
    `scale`, that factor's inverse `whitener`, `log_det` and the log
    normalising constant `log_norm` for the library's one Gaussian
    density, `logpdf_many`; a singular one gets an eigendecomposition
    `scale` and no density.
    """

    mean: np.ndarray
    covariance: np.ndarray
    scale: np.ndarray = field(init=False, repr=False, compare=False)
    whitener: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    log_det: float = field(default=-np.inf, init=False, repr=False, compare=False)
    log_norm: float = field(default=np.inf, init=False, repr=False, compare=False)

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.covariance, dtype=float))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        p = mean.shape[0]
        if cov.shape != (p, p):
            raise ValueError(f"covariance shape {cov.shape} does not match mean length {p}")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("mean and covariance entries must be finite")
        scale_ref = np.max(np.abs(cov)) if cov.size else 0.0
        if scale_ref > 0 and np.max(np.abs(cov - cov.T)) > 1e-12 * scale_ref:
            raise ValueError("covariance is not symmetric to 1e-12 relative tolerance")
        try:
            scale = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            eigval, eigvec = np.linalg.eigh(cov)
            tol = 1e-12 * max(np.max(np.diag(cov)), 1.0)
            if np.min(eigval) < -tol:
                raise np.linalg.LinAlgError(
                    f"covariance is not PSD: min eigenvalue {np.min(eigval):.3e}")
            object.__setattr__(self, "scale", eigvec * np.sqrt(np.clip(eigval, 0.0, None)))
            return
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "whitener", np.linalg.solve(scale, np.eye(p)))
        log_det = 2.0 * float(np.sum(np.log(np.diag(scale))))
        object.__setattr__(self, "log_det", log_det)
        object.__setattr__(self, "log_norm", -0.5 * (p * _LOG2PI + log_det))

    @property
    def dimension(self) -> int:
        return self.mean.shape[0]

    def whiten(self, thetas) -> np.ndarray:
        """whitener @ (theta - mean) for each row of the (N, p) `thetas`, or
        for the (p,) point `thetas` as a (p,) array, each row bit-identical
        to a one-row call (`rowwise`)."""
        if self.whitener is None:
            raise ValueError("covariance is singular: the normal has no density")
        return rowwise(np.asarray(thetas) - self.mean, self.whitener)

    def logpdf_whitened(self, u: np.ndarray) -> np.ndarray:
        """Log-density at the points whitened to the last axis of `u`."""
        return self.log_norm - 0.5 * (u * u).sum(axis=-1)

    def logpdf_many(self, thetas) -> np.ndarray:
        """Log-density at each row of the (N, p) `thetas`, as (N,) values,
        or at the (p,) point `thetas`, as a scalar; every row is
        bit-identical to its one-row call whatever N is, and so is a
        point."""
        return self.logpdf_whitened(self.whiten(thetas))


def rowwise(rows: np.ndarray, matrix: np.ndarray, out=None) -> np.ndarray:
    """matrix @ row for each row of the (R, k) array `rows`, as an (R, m)
    array, written into `out` when given; a 1-D `rows` is a single row and
    gives the 1-D ``matrix @ rows``.  One row is computed as that
    matrix-vector product, more rows as the stacked product, which keeps
    every row bit-identical to it whatever R; a plain ``rows @ matrix.T``
    does not."""
    if rows.ndim == 1:
        return np.matmul(matrix, rows, out=out)
    if out is None:
        out = np.empty((len(rows), matrix.shape[0]))
    if len(rows) == 1:
        np.matmul(matrix, rows[0], out=out[0])
    else:
        np.matmul(rows[:, None, :], matrix.T, out=out[:, None, :])
    return out


def log_sum_exp(v, axis=None):
    """log(sum(exp(v))) with max subtraction; -inf where every term is -inf.

    Reduces over all of `v` to a float, or along `axis` to an array.
    """
    v = np.asarray(v, dtype=float)
    if axis is None and v.size == 0:
        return -np.inf
    m = np.max(v, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(m), m, 0.0)
    # one temporary, exponentiated in place; `v` itself is left untouched
    d = np.subtract(v, shift, out=np.empty_like(v))
    np.exp(d, out=d)
    with np.errstate(divide="ignore"):
        out = shift + np.log(np.sum(d, axis=axis, keepdims=True))
    return out.item() if axis is None else np.squeeze(out, axis=axis)


def map_rows(fn, rows: np.ndarray) -> np.ndarray:
    """fn over consecutive blocks of at most CHUNK_ROWS rows, the per-row
    results concatenated; a 1-D `rows` is one point, passed to fn as it is.
    Densities whose temporaries grow with rows x data size evaluate through
    this, so their memory stays bounded."""
    if rows.ndim == 1 or len(rows) <= CHUNK_ROWS:
        return fn(rows)
    return np.concatenate([fn(rows[lo:lo + CHUNK_ROWS])
                           for lo in range(0, len(rows), CHUNK_ROWS)])


def log_ndtr(x: np.ndarray) -> np.ndarray:
    """log Phi(x) for every entry of the float array `x`, in place; returns x.

    An entry in [-20, 3] gets ``log(ndtr(x))``, which on a block of rows
    costs under half of `special.log_ndtr`.  Any other entry (below -20,
    above 3, infinite or NaN) gets `special.log_ndtr`: below -20 ndtr nears
    its underflow at -37.5, and above 3 the rounding of ndtr(x) to 1 would
    cost log Phi(x) more than 1e-13 of its relative precision.  The path
    of an entry depends on its own value alone, so it does not depend on
    the rest of the array.  Against exact values the error is below 1e-15
    relative for x < 0 and 1e-15 absolute for x >= 0, and below 1e-13
    relative on [0, 3].  An array with no entry in the range, as far-off
    proposals make, goes to `special.log_ndtr` whole.  On one row of a few
    hundred entries the call overhead dominates, and a row costs about two
    `special.log_ndtr` calls on the same entries whatever its path.
    """
    if x.min(initial=np.inf) >= _LOG_NDTR_LOW and x.max(initial=-np.inf) <= _LOG_NDTR_HIGH:
        special.ndtr(x, out=x)
        return np.log(x, out=x)
    # NaN fails both comparisons, so it is outside too
    inside = (x >= _LOG_NDTR_LOW) & (x <= _LOG_NDTR_HIGH)
    if not inside.any():
        return special.log_ndtr(x, out=x)
    outside = ~inside
    tails = special.log_ndtr(x[outside])
    x[outside] = 0.0  # so no ndtr underflows to a log(0) warning
    special.ndtr(x, out=x)
    np.log(x, out=x)
    x[outside] = tails
    return x


def uniform_complements(rngs, *shape) -> np.ndarray:
    """(R, *shape) uniforms on (0, 1], row r filled in order from stream
    ``rngs[r]``: 1 - u for uniforms u on [0, 1), exact for every double
    the generator returns; the input `truncated_normal_positive` takes."""
    v = np.empty((len(rngs), *shape))
    for rng, row in zip(rngs, v):
        rng.generator.random(out=row)
    return np.subtract(1.0, v, out=v)


def truncated_normal_positive(eta: np.ndarray, v: np.ndarray, out=None) -> np.ndarray:
    """N(eta, 1) draws conditioned positive, one per entry of the array
    `eta`, as the inverse-CDF transform of the uniforms `v` on (0, 1] of
    its shape (`uniform_complements` draws them), in `out` when given (an
    array other than eta and v).  The library's one truncated-normal code
    path: the probit Gibbs sweep and the samplers below all draw so.

    The draw is eta - ndtri(v ndtr(eta)).  Below eta = -5, where ndtr(eta)
    loses its relative precision, the same inverse runs in log space
    (`special.ndtri_exp` of ``log1p(v - 1) + log_ndtr(eta)``, v - 1 exact
    for v = 1 - u).  Each entry depends on its own eta and v alone.  A NaN
    or -inf entry of eta raises `FloatingPointError`, and a `v` of another
    shape `ValueError`.
    """
    eta = np.asarray(eta, dtype=float)
    if np.shape(v) != eta.shape:
        raise ValueError(f"uniforms of shape {np.shape(v)} for eta of shape {eta.shape}")
    low = eta.min(initial=np.inf)
    if not low > -np.inf:
        raise FloatingPointError("eta has a NaN or -inf entry: no normal lies above -eta")
    if low < -5.0:
        tail = eta < -5.0
        x = special.ndtri_exp(np.log1p(v[tail] - 1.0) + special.log_ndtr(eta[tail]))
    q = special.ndtr(eta, out=out)
    q *= v
    special.ndtri(q, out=q)
    if low < -5.0:
        q[tail] = x
    return np.subtract(eta, q, out=q)


def sample_truncated_normal(mu: float, sigma: float, side: str, rng: RngStream) -> float:
    """Exact draw from N(mu, sigma^2) restricted to one side of zero.

    side "positive" constrains the draw to (0, inf), "negative" to (-inf, 0):
    sigma times a `truncated_normal_positive` draw at mu / sigma, or minus
    sigma times one at -mu / sigma.
    """
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if side == "positive":
        sign = 1.0
    elif side == "negative":
        sign = -1.0
    else:
        raise ValueError(f"side must be 'positive' or 'negative', got {side!r}")
    return float(sign * sigma * truncated_normal_positive(np.asarray([[sign * mu / sigma]]),
                                                          uniform_complements([rng], 1))[0, 0])


def truncated_normal_vector(mu: np.ndarray, positive: np.ndarray, rngs) -> np.ndarray:
    """Unit-variance truncated normal draws for an (R, n) array of means,
    row r from stream ``rngs[r]``.

    Entry (r, i) is N(mu_ri, 1) conditioned positive where `positive[i]`,
    negative otherwise.  Row r equals a one-row call on stream ``rngs[r]``
    bit for bit, and leaves that stream where the one-row call would.  The
    probit latent completion draws the same values, unsigned, from
    `truncated_normal_positive` on its signed design.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 2 or mu.shape[0] != len(rngs):
        raise ValueError(f"mu has shape {mu.shape}, expected ({len(rngs)}, n)")
    sign = np.where(np.asarray(positive, dtype=bool), 1.0, -1.0)
    # sign * draw is N(sign * mu, 1) conditioned positive
    z = truncated_normal_positive(sign * mu, uniform_complements(rngs, mu.shape[1]))
    z *= sign
    return z


def sample_mvn_many(params: MvnParams, n: int, rng: RngStream) -> np.ndarray:
    """n draws, rows are samples."""
    z = rng.standard_normal((n, params.dimension))
    return params.mean + z @ params.scale.T


def sample_categorical(log_weights, rng: RngStream) -> int:
    """Index i with probability proportional to exp(log_weights[i])."""
    return int(sample_categorical_many(log_weights, 1, rng)[0])


def categorical_cdf(log_weights) -> np.ndarray:
    """Unnormalised cumulative weights of a categorical law, or of one law
    per row of a 2-D array: the weights shifted by their maximum,
    exponentiated and summed along the last axis, each row bit-identical to
    a one-law call.  A uniform u draws ``cum.searchsorted(u * cum[-1],
    side="right")``.  A row whose maximum is -inf, NaN or +inf raises."""
    lw = np.asarray(log_weights, dtype=float)
    top = lw.max(axis=-1, keepdims=True, initial=-np.inf)
    # a list scan: cheaper than a numpy reduction over a few rows
    if not all(map(math.isfinite, top.ravel().tolist())):
        raise DegenerateWeightsError(
            "categorical weights are all zero or include a NaN or an infinite weight")
    return np.exp(lw - top).cumsum(axis=-1)


def sample_categorical_many(log_weights, n: int, rng: RngStream) -> np.ndarray:
    """n independent categorical draws by inverse CDF (`categorical_cdf`);
    each uniform is scaled to the unnormalised total instead of
    normalising."""
    cum = categorical_cdf(log_weights)
    return cum.searchsorted(rng.uniform(n) * cum[-1], side="right")
