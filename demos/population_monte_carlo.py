"""Population Monte Carlo learning its own proposal.

The target is the two-mean posterior of a Gaussian mixture with known
weights and variance.  Starting from a deliberately overdispersed
Gaussian, each iteration resamples, perturbs with one of three kernels
(under-, unit-, and over-dispersed), and promotes the kernels whose
offspring survive the reweighting.  Watch the effective sample size
climb and the mixture weights tilt toward the kernel that fits.

Run:  python3 demos/population_monte_carlo.py
"""

import numpy as np

from bayescomp.core import RngStream
from bayescomp.mixture import mixture_bayes_model, MixtureTarget, simulate_mixture_data
from bayescomp.montecarlo import GaussianProposal, ess, sample_estimates
from bayescomp.pmc import default_kernel_bank, dkernel_update, pmc_run

N_PARTICLES = 2000
N_ITER = 5


def main():
    rng = RngStream(seed=12, stream_id=0)
    data = simulate_mixture_data(mu1=0.0, mu2=2.5, weight=0.7, sigma2=1.0,
                                 n=500, rng=rng.child(0))
    target = mixture_bayes_model(MixtureTarget(data=data, weight=0.7,
                                               sigma2=1.0))
    q0 = GaussianProposal.from_moments(np.zeros(2), 25.0 * np.eye(2))
    bank = default_kernel_bank(np.eye(2))

    pops = pmc_run(target, q0, bank, N_PARTICLES, N_ITER, rng.child(1))

    print(f"{N_PARTICLES} particles, kernels at scales "
          f"{bank.scales.tolist()} x adaptive covariance\n")
    print(f"{'iter':>4}  {'ESS':>7}  {'mean mu1':>8}  {'mean mu2':>8}"
          f"  kernel weights")
    for pop in pops:
        est, _ = sample_estimates(["mu1", "mu2"], pop.points, pop.normalized_weights())
        if pop.kernel_indices is not None:
            bank = dkernel_update(bank, pop)
        weights = np.exp(bank.mixture_log_weights)
        wtxt = "  ".join(f"{w:.3f}" for w in weights)
        print(f"{pop.iteration:>4}  {ess(pop):7.1f}  {est['mean_mu1']:8.4f}"
              f"  {est['mean_mu2']:8.4f}  [{wtxt}]")

    print("\nevery line above is a valid importance sample on its own;")
    print("adaptation sharpens the proposal without ever biasing the")
    print("estimate.  The surviving kernel is the one matched to the")
    print("posterior scale.")


if __name__ == "__main__":
    main()
