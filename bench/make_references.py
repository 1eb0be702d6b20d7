"""Regenerate ``bench/references.json``, the stored answers the benchmark
checks its outputs against.

    python3 bench/make_references.py          # about a minute on one core

Where each reference comes from:

- Probit posterior moments (the 3-covariate model glu, bp, ped and the
  2-covariate model glu, bp) come from one long data-augmentation Gibbs run
  per model, started at the MLE, with the seed, length and burn-in recorded
  next to the numbers.
- The log Bayes factor of the 3- against the 2-covariate probit comes from
  importance sampling with many draws.  The proposal is the one the CLI's
  ``importance`` method uses (a Gaussian at the MLE with twice its
  covariance); the batched likelihood and prior keep the run short.
- The capture-recapture posterior means of (N, p, q, r1, r2) come from exact
  enumeration of N and (r1, r2), with p and q integrated out in closed form
  through Beta functions.  No library code is involved.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import numpy as np
from scipy.special import betaln, gammaln, logsumexp

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from bayescomp.cli import _COVARIATE_INDEX, _DEFAULTS  # noqa: E402
from bayescomp.core import RngStream  # noqa: E402
from bayescomp.datasets import bundled_pima_path, load_pima  # noqa: E402
from bayescomp.mcmc import probit_gibbs_run  # noqa: E402
from bayescomp.montecarlo import GaussianProposal  # noqa: E402
from bayescomp.probit import (  # noqa: E402
    ProbitModel,
    gprior_logpdf_many,
    probit_loglik_many,
    probit_mle,
)

GIBBS_SEED, GIBBS_ITER, GIBBS_BURN = 20_240_101, 200_000, 1_000
IS_SEED, IS_DRAWS, IS_CHUNK = 20_240_102, 2_000_000, 50_000


def probit_model(covariates):
    full = load_pima(bundled_pima_path())
    cols = [_COVARIATE_INDEX[c] for c in covariates]
    return ProbitModel(design=full.design[:, cols], response=full.response)


def probit_moments(covariates, stream_id):
    chain, _ = probit_gibbs_run(probit_model(covariates), GIBBS_ITER,
                                RngStream(GIBBS_SEED, stream_id))
    states = chain.states[GIBBS_BURN:]
    return {"covariates": covariates,
            "mean": dict(zip(covariates, states.mean(axis=0).tolist())),
            "sd": dict(zip(covariates, states.std(axis=0, ddof=1).tolist()))}


def log_evidence_is(model, stream_id):
    """Log evidence by importance sampling, and its standard error."""
    proposal = GaussianProposal.from_moments(*probit_mle(model), scale=2.0)
    rng = RngStream(IS_SEED, stream_id)
    terms = []
    for _ in range(IS_DRAWS // IS_CHUNK):
        pts = proposal.draw_many(IS_CHUNK, rng)
        terms.append(probit_loglik_many(model, pts)
                     + gprior_logpdf_many(model, pts)
                     - proposal.logpdf_many(pts))
    terms = np.concatenate(terms)
    log_m = logsumexp(terms) - np.log(terms.size)
    w = np.exp(terms - log_m)
    return float(log_m), float(np.std(w, ddof=1) / np.sqrt(terms.size))


def capture_means(n1, c2, c3, n_max):
    """Exact posterior means under the 1/N prior and uniform p, q."""
    lb = lambda n, k: gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
    Ns = np.arange(n1, n_max + 1, dtype=float)
    logw, vals = [], []
    for r1 in range(0, n1 - c2 + 1):
        for r2 in range(0, n1 - r1 - c3 + 1):
            a_p = n1 + c2 + c3
            b_p = (Ns - n1) + (n1 - r1 - c2) + (n1 - r1 - r2 - c3)
            a_q = r1 + r2
            b_q = (n1 - r1) + (n1 - r1 - r2)
            lw = (lb(Ns, n1) - np.log(Ns) + lb(n1, r1) + lb(n1 - r1, c2)
                  + lb(n1 - r1, r2) + lb(n1 - r1 - r2, c3)
                  + betaln(a_p + 1, b_p + 1) + betaln(a_q + 1, b_q + 1))
            logw.append(lw)
            vals.append(np.column_stack([
                Ns, (a_p + 1) / (a_p + b_p + 2),
                np.full_like(Ns, (a_q + 1) / (a_q + b_q + 2)),
                np.full_like(Ns, r1), np.full_like(Ns, r2)]))
    logw = np.concatenate(logw)
    w = np.exp(logw - logsumexp(logw))
    means = w @ np.concatenate(vals)
    return dict(zip(["N", "p", "q", "r1", "r2"], means.tolist()))


def main():
    cap = _DEFAULTS["capture"]
    n1, c2, c3 = cap["n1"], cap["c2"], cap["c3"]
    n_max = 50 * n1
    lm1, se1 = log_evidence_is(probit_model(["glu", "bp", "ped"]), 1)
    lm0, se0 = log_evidence_is(probit_model(["glu", "bp"]), 0)
    refs = {
        "provenance": {
            "probit": (f"probit_gibbs_run, seed {GIBBS_SEED}, stream 0 for the "
                       f"2-covariate and 1 for the 3-covariate model, "
                       f"{GIBBS_ITER} sweeps, first {GIBBS_BURN} dropped"),
            "log_b10": (f"importance sampling, Gaussian at the MLE with twice "
                        f"its covariance, {IS_DRAWS} draws per model, seed "
                        f"{IS_SEED}, streams 0 and 1"),
            "capture": (f"exact enumeration of N in [n1, {n_max}] and (r1, r2), "
                        "p and q integrated by Beta functions"),
            "command": "python3 bench/make_references.py",
        },
        "probit3": probit_moments(["glu", "bp", "ped"], 1),
        "probit2": probit_moments(["glu", "bp"], 0),
        "log_b10": {"value": lm1 - lm0, "se": float(np.hypot(se1, se0)),
                    "sd_per_draw": float(np.hypot(se1, se0) * np.sqrt(IS_DRAWS))},
        "capture": {"counts": [n1, c2, c3], "n_max": n_max,
                    "mean": capture_means(n1, c2, c3, n_max)},
    }
    path = BENCH / "references.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path)}")


if __name__ == "__main__":
    main()
