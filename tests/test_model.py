"""Model contracts: -inf propagation, NaN policy, shape checks."""

import numpy as np
import pytest

from bayescomp.core import RngStream
from bayescomp.model import BayesModel, SimulableModel, log_posterior


def gaussian_model(dim=1):
    return BayesModel(
        dimension=dim,
        log_prior=lambda t: -0.5 * np.sum(t * t, axis=-1),
        log_likelihood=lambda t: -0.25 * np.sum(t * t, axis=-1),
        sample_prior=lambda n, rng: rng.standard_normal((n, dim)),
    )


def test_log_posterior_sum():
    m = gaussian_model()
    theta = np.array([[2.0]])
    assert log_posterior(m, theta)[0] == pytest.approx(-0.75 * 4.0)


def test_prior_minus_inf_short_circuits():
    calls = []

    def loglik(t):
        calls.append(t)
        return np.zeros(len(t))

    m = BayesModel(1, lambda t: np.full(len(t), -np.inf), loglik)
    assert log_posterior(m, np.array([[0.0]]))[0] == -np.inf
    assert not calls  # likelihood never evaluated outside the support


def test_nan_raises():
    m = BayesModel(1, lambda t: np.zeros(len(t)), lambda t: np.full(len(t), np.nan))
    with pytest.raises(FloatingPointError):
        log_posterior(m, np.array([[0.0]]))

    def nan_last(t):
        out = np.zeros(len(t))
        out[-1] = np.nan
        return out

    # a batch whose one NaN sits in its last row
    m = BayesModel(1, lambda t: np.zeros(len(t)), nan_last)
    with pytest.raises(FloatingPointError):
        log_posterior(m, np.zeros((2000, 1)))


def test_shape_mismatch():
    m = gaussian_model(dim=2)
    with pytest.raises(ValueError):
        log_posterior(m, np.array([[1.0]]))


def test_point_gives_the_float_of_its_one_row_batch():
    m = gaussian_model(dim=2)
    for theta in RngStream(3, 0).standard_normal((5, 2)):
        value = log_posterior(m, theta)
        assert type(value) is float
        assert np.float64(value).tobytes() == log_posterior(m, theta[None, :]).tobytes()
    with pytest.raises(ValueError):
        log_posterior(m, np.zeros(3))
    with pytest.raises(ValueError):
        log_posterior(m, np.zeros((1, 1, 2)))


def test_point_gates_as_a_batch_row():
    calls = []

    def loglik(t):
        calls.append(t)
        return np.zeros(np.shape(t)[:-1])

    m = BayesModel(1, lambda t: np.where(t[..., 0] > 0, 0.0, -np.inf), loglik)
    assert log_posterior(m, np.array([-1.0])) == -np.inf
    assert not calls  # likelihood never evaluated outside the support
    assert log_posterior(m, np.array([1.0])) == 0.0 and len(calls) == 1
    for prior, lik in ((np.nan, 0.0), (0.0, np.nan), (np.inf, -np.inf)):
        m = BayesModel(1, lambda t, v=prior: v, lambda t, v=lik: v)
        with pytest.raises(FloatingPointError):
            log_posterior(m, np.zeros(1))


def test_dimension_validated():
    with pytest.raises(ValueError):
        BayesModel(0, lambda t: np.zeros(len(t)), lambda t: np.zeros(len(t)))


def test_simulable_model_runs():
    sim = SimulableModel(
        sample_prior=lambda n, rng: rng.uniform((n, 1)),
        simulate=lambda th, rng: (rng.uniform((len(th), 4)) < th[:, :1]).astype(float),
        summary=lambda z: z.sum(axis=1, keepdims=True),
        log_prior=lambda th: np.zeros(len(th)),
    )
    rng = RngStream(1, 0)
    thetas = sim.sample_prior(1, rng)
    z = sim.simulate(thetas, rng)
    assert sim.summary(z).shape == (1, 1)


def test_density_must_return_one_value_per_row():
    m = BayesModel(1, lambda t: 0.0, lambda t: np.zeros(len(t)))
    with pytest.raises(ValueError, match="densities map"):
        log_posterior(m, np.zeros((3, 1)))


def test_rows_evaluated_independently():
    m = gaussian_model(dim=2)
    thetas = RngStream(2, 0).standard_normal((5, 2))
    batch = log_posterior(m, thetas)
    assert np.array_equal(batch, [log_posterior(m, t[None, :])[0] for t in thetas])


def test_prior_minus_inf_rows_never_reach_the_likelihood():
    seen = []

    def loglik(t):
        seen.append(t.copy())
        return np.zeros(len(t))

    m = BayesModel(1, lambda t: np.where(t[:, 0] > 0, 0.0, -np.inf), loglik)
    thetas = np.array([[1.0], [-1.0], [2.0], [-3.0]])
    out = log_posterior(m, thetas)
    assert np.array_equal(out, [0.0, -np.inf, 0.0, -np.inf])
    assert len(seen) == 1 and np.array_equal(seen[0], [[1.0], [2.0]])

    # a batch whose one -inf row is its last
    seen.clear()
    thetas = np.append(np.arange(1.0, 2000.0), -1.0)[:, None]
    out = log_posterior(m, thetas)
    assert np.array_equal(out, np.append(np.zeros(1999), -np.inf))
    assert len(seen) == 1 and np.array_equal(seen[0], thetas[:-1])


def test_nan_prior_raises_beside_minus_inf_rows():
    m = BayesModel(1, lambda t: np.array([np.nan, -np.inf]), lambda t: np.zeros(len(t)))
    with pytest.raises(FloatingPointError):
        log_posterior(m, np.zeros((2, 1)))

    # a batch whose NaN row is its last, beside a -inf row
    prior = np.append(np.zeros(1998), [-np.inf, np.nan])
    m = BayesModel(1, lambda t: prior, lambda t: np.zeros(len(t)))
    with pytest.raises(FloatingPointError):
        log_posterior(m, np.zeros((2000, 1)))


def test_nan_prior_rows_never_reach_the_likelihood():
    # no -inf row: the NaN row alone must keep its row from the likelihood,
    # which here fails on it with an error of its own
    def loglik(t):
        if (t[:, 0] < 0).any():
            raise ZeroDivisionError("likelihood saw the NaN prior's row")
        return np.zeros(len(t))

    m = BayesModel(1, lambda t: np.where(t[:, 0] < 0, np.nan, 0.0), loglik)
    for thetas in (np.array([[-1.0]]), np.append(np.ones(1999), -1.0)[:, None]):
        with pytest.raises(FloatingPointError):
            log_posterior(m, thetas)


def test_likelihood_of_the_wrong_shape_raises():
    m = BayesModel(1, lambda t: np.zeros(len(t)), lambda t: np.zeros((len(t), 1)))
    with pytest.raises(ValueError, match="densities map"):
        log_posterior(m, np.zeros((3, 1)))


def test_prior_values_are_not_written_to():
    prior = np.array([0.5, -np.inf])
    m = BayesModel(1, lambda t: prior, lambda t: np.ones(len(t)))
    assert np.array_equal(log_posterior(m, np.zeros((2, 1))), [1.5, -np.inf])
    assert np.array_equal(prior, [0.5, -np.inf])
