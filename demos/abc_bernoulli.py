"""Likelihood-free inference where the exact answer is known.

Three successes in five Bernoulli trials under a uniform prior give a
Beta(4, 3) posterior.  The success count is a sufficient statistic, so
accept-only-on-exact-match ABC samples the posterior exactly -- a rare
case where the approximation gap is zero and every algorithm can be
graded against closed-form numbers.

Run:  python3 demos/abc_bernoulli.py
"""

import numpy as np

from bayescomp.abc import AbcConfig, abc_mcmc, abc_pmc, abc_reject
from bayescomp.core import RngStream
from bayescomp.model import SimulableModel

Y_OBS = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
TRUE_MEAN = 4.0 / 7.0
TRUE_SD = np.sqrt(12.0 / 392.0)


def make_model() -> SimulableModel:
    return SimulableModel(
        sample_prior=lambda n, rng: rng.uniform((n, 1)),
        simulate=lambda th, rng: (rng.uniform((len(th), 5)) < th[:, :1]).astype(float),
        summary=lambda ys: np.sum(ys, axis=1, keepdims=True),
        log_prior=lambda th: np.where((th[:, 0] >= 0.0) & (th[:, 0] <= 1.0), 0.0, -np.inf),
    )


def report(label, mean, sd, extra=""):
    print(f"  {label:<22} mean {mean:.4f}  sd {sd:.4f}  {extra}")


def main():
    model = make_model()
    print(f"truth: Beta(4, 3) with mean {TRUE_MEAN:.4f}, sd {TRUE_SD:.4f}\n")

    pop = abc_reject(model, Y_OBS, AbcConfig(n_output=4000, tolerance=0.0),
                     RngStream(seed=1, stream_id=0))
    draws = pop.points[:, 0]
    report("rejection, eps = 0", draws.mean(), draws.std(ddof=1),
           f"({pop.n_proposals} proposals for {len(pop)} hits)")

    chain = abc_mcmc(model, Y_OBS, AbcConfig(n_output=1, tolerance=0.0),
                     np.array([[0.09]]), n_iter=40_000,
                     rng=RngStream(seed=2, stream_id=0))
    draws = chain.states[4000:, 0]
    report("MCMC, eps = 0", draws.mean(), draws.std(ddof=1),
           f"(acceptance {chain.acceptance_rate:.2f})")

    pops = abc_pmc(model, Y_OBS, AbcConfig(n_output=4000, quantile=0.25),
                   n_generations=4,
                   rng=RngStream(seed=3, stream_id=0))
    final = pops[-1]
    w = final.normalized_weights()
    mean = float(w @ final.points[:, 0])
    sd = float(np.sqrt(w @ (final.points[:, 0] - mean) ** 2))
    schedule = " -> ".join(f"{p.epsilon:g}" for p in pops)
    report("sequential, quantile", mean, sd, f"(eps {schedule})")

    print("\nall three sit on the Beta(4, 3) numbers.  This only works")
    print("because the summary is sufficient and the tolerance reaches")
    print("zero; with an insufficient summary, or a tolerance that merely")
    print("shrinks, what ABC samples is *near* the posterior, not it.")


if __name__ == "__main__":
    main()
