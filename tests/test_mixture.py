"""Two-component mean-mixture posterior used by the trapping experiment."""

import numpy as np
import pytest
from scipy import stats

from bayescomp.core import RngStream
from bayescomp.mixture import (
    MixtureTarget,
    mixture_bayes_model,
    mixture_logpost,
    simulate_mixture_data,
)
from bayescomp.model import log_posterior


@pytest.fixture(scope="module")
def target():
    data = simulate_mixture_data(0.0, 2.5, 0.7, 1.0, 500, RngStream(1, 0))
    return MixtureTarget(data=data, weight=0.7, sigma2=1.0)


def test_logpost_matches_direct(target):
    mu = np.array([0.1, 2.4])
    like = (target.weight * stats.norm.pdf(target.data, mu[0], 1.0)
            + (1 - target.weight) * stats.norm.pdf(target.data, mu[1], 1.0))
    prior = stats.norm.logpdf(mu, 0.0, np.sqrt(10.0)).sum()
    assert mixture_logpost(target, mu[None, :])[0] == pytest.approx(
        float(np.sum(np.log(like)) + prior), rel=1e-10)


def test_equal_weights_symmetric():
    data = simulate_mixture_data(0.0, 2.5, 0.5, 1.0, 200, RngStream(2, 0))
    t = MixtureTarget(data=data, weight=0.5, sigma2=1.0)
    mu = np.array([[-0.3, 1.7]])
    assert mixture_logpost(t, mu)[0] == pytest.approx(
        mixture_logpost(t, mu[:, ::-1].copy())[0], rel=1e-12)


def test_simulated_data_moments():
    data = simulate_mixture_data(0.0, 2.5, 0.7, 1.0, 100_000, RngStream(3, 0))
    mean = 0.7 * 0.0 + 0.3 * 2.5
    var = 1.0 + 0.7 * 0.3 * 2.5**2
    assert data.mean() == pytest.approx(mean, abs=0.02)
    assert data.var() == pytest.approx(var, rel=0.03)


def test_bayes_model_wiring(target):
    model = mixture_bayes_model(target)
    mu = np.array([[0.0, 2.5]])
    assert log_posterior(model, mu)[0] == pytest.approx(
        mixture_logpost(target, mu)[0], rel=1e-12)
    draw = model.sample_prior(1, RngStream(4, 0))[0]
    assert draw.shape == (2,)


def test_major_mode_dominates(target):
    # the correctly-labelled mode must beat the label-swapped one
    assert mixture_logpost(target, np.array([[0.0, 2.5]]))[0] > \
        mixture_logpost(target, np.array([[2.5, 0.0]]))[0]
