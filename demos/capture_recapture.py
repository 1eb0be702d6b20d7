"""How many birds are there, really?

A two-season removal study: 22 individuals captured in season one, 11 of
the survivors recaptured in season two, 6 in season three.  Between the
seasons, each bird independently leaves the study area.  The sampler is
a direct one: with p, N and the departure probability q all integrated
out of the latent departures (r1, r2), it draws the departures, then p,
then the population size N, then q, exactly, so every draw is an
independent posterior draw and none is burned in.

Run:  python3 demos/capture_recapture.py
"""

import numpy as np

from bayescomp.capture import capture_gibbs_run
from bayescomp.core import RngStream
from bayescomp.datasets import eurodip_1981

N_DRAWS = 20_000


def main():
    model = eurodip_1981()
    print(f"observed counts: n1 = {model.n1}, c2 = {model.c2}, "
          f"c3 = {model.c3}")
    print(f"population bound N <= {model.n_max}, prior 1/N\n")

    out = capture_gibbs_run(model, N_DRAWS, RngStream(seed=6, stream_id=0))

    print(f"{'parameter':>10}  {'mean':>8}  {'sd':>7}  {'90% interval':>16}")
    for key, label in (("N", "N"), ("p", "p"), ("q", "q"),
                       ("r1", "r1"), ("r2", "r2")):
        v = out[key]
        lo, hi = np.quantile(v, [0.05, 0.95])
        print(f"{label:>10}  {np.mean(v):8.3f}  {np.std(v, ddof=1):7.3f}"
              f"  [{lo:7.3f}, {hi:7.3f}]")

    print("\nwith only three counts the population size is soft: the")
    print("posterior mass sits in the low thirties but keeps a long right")
    print("tail, which is exactly what the 1/N prior refuses to clip.")


if __name__ == "__main__":
    main()
