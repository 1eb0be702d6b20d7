"""Probit regression on the bundled diabetes-style dataset, three ways.

First the frequentist fit (Fisher scoring), then a random-walk Metropolis
exploration of the posterior under the conjugate-style g-prior, and
finally the latent-variable Gibbs sampler, its coefficient draw
overrelaxed.  The three agree on where the coefficients live; what
changes is the work per draw and the mixing.

Run:  python3 demos/probit_pima.py        (about 1.2 s on a 2-core Xeon)
"""

import numpy as np

from bayescomp.core import RngStream
from bayescomp.datasets import bundled_pima_path, load_pima
from bayescomp.mcmc import chain_diagnostics, probit_gibbs_run, rw_mh_run
from bayescomp.probit import probit_bayes_model, probit_loglik, probit_mle

NAMES = ["glu", "bp", "ped"]


def main():
    model = load_pima(bundled_pima_path())
    beta_hat, cov = probit_mle(model)
    se = np.sqrt(np.diag(cov))

    print(f"n = {model.n_obs} observations, {len(NAMES)} covariates")
    print("\nmaximum likelihood fit")
    for name, b, s in zip(NAMES, beta_hat, se):
        print(f"  {name:>4}: {b:9.5f}  (se {s:.5f})")
    print(f"  residual deviance {-2 * probit_loglik(model, beta_hat):.2f}, "
          f"null deviance {2 * model.n_obs * np.log(2):.2f}")

    target = probit_bayes_model(model)
    print("\nrandom-walk Metropolis, 10^4 iterations, proposal = m * Sigma_hat")
    for mult in (1.0, 5.0, 10.0):
        chain = rw_mh_run(target, mult * cov, beta_hat, 10_000,
                          RngStream(seed=1, stream_id=0))
        diag = chain_diagnostics(chain)
        print(f"  m = {mult:4.1f}: acceptance {chain.acceptance_rate:.3f}, "
              f"iact {max(diag['iact']):6.1f} (worst coordinate)")
    print("  bigger steps are rejected more but decorrelate faster -- up to")
    print("  a point; the art is the middle ground.")

    print("\nlatent-variable Gibbs, 10^4 sweeps (no tuning parameter at all)")
    chain, _ = probit_gibbs_run(model, 10_000, RngStream(seed=2, stream_id=0))
    mean = chain.states.mean(axis=0)
    sd = chain.states.std(axis=0, ddof=1)
    for name, m, s in zip(NAMES, mean, sd):
        print(f"  {name:>4}: posterior mean {m:9.5f}, sd {s:.5f}")
    print(f"  iact {max(chain_diagnostics(chain)['iact']):.1f} (worst coordinate; "
          "plain Gibbs reads about 3):")
    print("  the overrelaxed coefficient draw leans against the last state,")
    print("  so the sweeps decorrelate about twice as fast.")
    print("  the posterior mean sits next to the MLE: the g-prior carries")
    print("  the information of a single observation.")


if __name__ == "__main__":
    main()
