"""Six estimates of one Bayes factor.

Does the pedigree covariate earn its place in the probit model?  The log
Bayes factor of the 3-covariate model against the 2-covariate one is
computed six ways: prior-sample Monte Carlo, importance sampling,
the instrumental harmonic mean, the plain harmonic mean (shown as the
cautionary tale it is), the posterior-ordinate identity, and the
embedded bridge.  Well-designed estimators land on the same number with
honest error bars; the plain harmonic mean does not.

Run:  python3 demos/evidence_comparison.py        (about 1.4 s on a 2-core Xeon)
"""

from bayescomp.cli import resolve_config, run_experiment

METHODS = ["prior-mc", "importance", "harmonic-gd", "harmonic-nr",
           "chib", "bridge-embedded"]


def main():
    print("log B10 for adding the pedigree covariate, n_draws = 10^4\n")
    print(f"{'method':>16}  {'log B10':>9}  {'reported se':>11}")
    for method in METHODS:
        config = resolve_config("evidence", {"method": method,
                                             "n_draws": 10_000, "seed": 8})
        estimates, std_errors, diagnostics, _ = run_experiment("evidence",
                                                               config)
        flag = "  <- unreliable by construction" if method == "harmonic-nr" \
            else ""
        print(f"{method:>16}  {estimates['log_b10']:9.4f}  "
              f"{std_errors['log_b10']:11.4f}{flag}")
    print("\nthe five stabilised routes agree near 0.56: mild evidence for")
    print("keeping the covariate.  The plain harmonic mean has infinite")
    print("variance here; whatever number it prints, do not trust it, and")
    print("do not trust its error bar either.")


if __name__ == "__main__":
    main()
