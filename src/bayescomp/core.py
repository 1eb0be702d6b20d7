"""Seedable random streams and shared numerical primitives.

Everything downstream (samplers, estimators, ABC) draws randomness through
:class:`RngStream` and normalises weights through :func:`log_sum_exp`, so the
determinism and numerical-stability guarantees live here.
"""

from __future__ import annotations

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
    "truncated_std_normal",
    "sample_categorical",
    "categorical_cdf",
    "log_sum_exp",
    "map_rows",
]

_U64 = 0xFFFFFFFFFFFFFFFF
_LOG2PI = np.log(2.0 * np.pi)
# rows per block when a batched density is evaluated in blocks (map_rows)
CHUNK_ROWS = 256


class DegenerateWeightsError(ValueError):
    """All weights are zero (log-weights all -inf)."""


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

    Factorization happens at construction; a covariance that is not symmetric
    (to 1e-12 relative) or not PSD (eigenvalue below -1e-12 * max diagonal)
    is rejected here, never at draw time.  A positive-definite covariance
    caches its Cholesky factor `scale`, that factor's inverse `whitener`,
    `log_det` and the log normalising constant `log_norm` for the library's
    one Gaussian density, `logpdf_many`; a singular one gets an
    eigendecomposition `scale` and no density.
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
        """whitener @ (theta - mean) for each row of the (N, p) `thetas`,
        each row bit-identical to a one-row call (`rowwise`)."""
        if self.whitener is None:
            raise ValueError("covariance is singular: the normal has no density")
        return rowwise(np.atleast_2d(thetas) - self.mean, self.whitener)

    def logpdf_whitened(self, u: np.ndarray) -> np.ndarray:
        """Log-density at the points whitened to the last axis of `u`."""
        return self.log_norm - 0.5 * (u * u).sum(axis=-1)

    def logpdf_many(self, thetas) -> np.ndarray:
        """Log-density at each row of the (N, p) `thetas`, as (N,) values;
        every row is bit-identical to its one-row call whatever N is."""
        return self.logpdf_whitened(self.whiten(thetas))


def rowwise(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """matrix @ row for each row of the (R, k) array `rows`, as an (R, m)
    array.  The stacked product keeps every row bit-identical to the
    one-row ``matrix @ row``, whatever R; a plain ``rows @ matrix.T`` does
    not."""
    return (rows[:, None, :] @ matrix.T)[:, 0]


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
    results concatenated.  Batched densities whose temporaries grow with
    rows x data size evaluate through this, so their memory stays bounded."""
    if len(rows) <= CHUNK_ROWS:
        return fn(rows)
    return np.concatenate([fn(rows[lo:lo + CHUNK_ROWS])
                           for lo in range(0, len(rows), CHUNK_ROWS)])


def _tail_std_lower(a: np.ndarray, rng: RngStream) -> np.ndarray:
    """Standard normal conditioned on being > a, elementwise, for a > 5:
    Robert's exponential-proposal rejection (acceptance > 0.95, so the
    retry loop terminates with overwhelming probability; a hard cap guards
    the pathological case)."""
    lam = 0.5 * (a + np.sqrt(a * a + 4.0))
    x = np.empty_like(a)
    todo = np.ones(a.shape, dtype=bool)
    for _ in range(1000):
        n = int(np.count_nonzero(todo))
        if n == 0:
            return x
        e = rng.generator.standard_exponential(n)
        cand = a[todo] + e / lam[todo]
        accept = np.log(1.0 - rng.uniform(n)) <= -0.5 * (cand - lam[todo]) ** 2
        idx = np.flatnonzero(todo)[accept]
        x[idx] = cand[accept]
        todo[idx] = False
    raise RuntimeError("tail rejection failed to terminate")


def truncated_std_normal(eta: np.ndarray, rngs) -> np.ndarray:
    """Standard normal draws t_ri conditioned on t_ri > -eta_ri, for an
    (R, n) array `eta`, row r drawing from stream ``rngs[r]`` alone: eta + t
    is then N(eta, 1) conditioned positive.

    Inverse CDF for eta >= -5, with one uniform per such entry; the
    rejection sampler of `_tail_std_lower` beyond that.  A row draws its
    uniforms first, then its tail entries, so every row matches a one-row
    call on the same stream bit for bit.  The uniforms come one stream at a
    time; the inverse CDF covers all R x n entries in one call, in place.
    """
    eta = np.asarray(eta, dtype=float)
    t = np.empty_like(eta)
    tails = []
    if eta.min(initial=np.inf) >= -5.0:  # the usual block: no tail entry, no mask
        for rng, row in zip(rngs, t):
            rng.generator.random(out=row)
    else:
        moderate = eta >= -5.0
        for r, rng in enumerate(rngs):
            if moderate[r].all():
                rng.generator.random(out=t[r])
            else:
                mod = moderate[r]
                t[r] = 0.0  # placeholder for the tail entries, overwritten below
                t[r, mod] = rng.uniform(np.count_nonzero(mod))
                tails.append((r, ~mod, _tail_std_lower(-eta[r, ~mod], rng)))
    # t = -ndtri((1 - u) ndtr(eta)), with 1 - u in (0, 1]
    np.subtract(1.0, t, out=t)
    t *= special.ndtr(eta)
    special.ndtri(t, out=t)
    np.negative(t, out=t)
    for r, tail, x in tails:
        t[r, tail] = x
    return t


def sample_truncated_normal(mu: float, sigma: float, side: str, rng: RngStream) -> float:
    """Exact draw from N(mu, sigma^2) restricted to one side of zero.

    side "positive" constrains the draw to (0, inf), "negative" to (-inf, 0).
    """
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if side == "positive":
        return float(mu + sigma * truncated_std_normal(np.asarray([[mu / sigma]]), [rng])[0, 0])
    if side == "negative":
        return float(mu - sigma * truncated_std_normal(np.asarray([[-mu / sigma]]), [rng])[0, 0])
    raise ValueError(f"side must be 'positive' or 'negative', got {side!r}")


def truncated_normal_vector(mu: np.ndarray, positive: np.ndarray, rngs) -> np.ndarray:
    """Unit-variance truncated normal draws for an (R, n) array of means,
    row r from stream ``rngs[r]``.

    Entry (r, i) is N(mu_ri, 1) conditioned positive where `positive[i]`,
    negative otherwise.  Row r equals a one-row call on stream ``rngs[r]``
    bit for bit, and leaves that stream where the one-row call would.  The
    probit Gibbs sweep draws the same values from `truncated_std_normal`
    directly, on its signed design.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 2 or mu.shape[0] != len(rngs):
        raise ValueError(f"mu has shape {mu.shape}, expected ({len(rngs)}, n)")
    sign = np.where(np.asarray(positive, dtype=bool), 1.0, -1.0)
    # sign * draw is N(sign * mu, 1) conditioned positive
    eta = sign * mu
    z = truncated_std_normal(eta, rngs)
    z += eta
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
    side="right")``."""
    lw = np.asarray(log_weights, dtype=float)
    top = lw.max(axis=-1, keepdims=True, initial=-np.inf)
    # a list scan: cheaper than a numpy reduction over a few rows
    if -np.inf in top.ravel().tolist():
        raise DegenerateWeightsError("all categorical weights are zero")
    return np.exp(lw - top).cumsum(axis=-1)


def sample_categorical_many(log_weights, n: int, rng: RngStream) -> np.ndarray:
    """n independent categorical draws by inverse CDF (`categorical_cdf`);
    each uniform is scaled to the unnormalised total instead of
    normalising."""
    cum = categorical_cdf(log_weights)
    return cum.searchsorted(rng.uniform(n) * cum[-1], side="right")
