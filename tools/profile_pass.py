"""Profile one benchmark pass in-process under cProfile.

    python3 tools/profile_pass.py --workload evidence --seed 1

Runs the first pass of the workload at the sizes of ``bench/workloads.py``
(config seed ``1000 * seed``, as ``bench/run.py`` gives its first pass)
through ``bayescomp.cli.main``, writing the outputs to a temporary
directory that is removed afterwards.  Prints each experiment's seconds
and exit code (profiled, so slower than a benchmark run), then the
functions with the most cumulative time over the whole pass and those
with the most self time (``tottime``), which shows the cost of many small
calls that cumulative time spreads over their callers.  The library comes
from this checkout's ``src``; ``bench`` is imported read-only, with
bytecode caching off, so nothing is written there.
"""

import argparse
import cProfile
import pathlib
import pstats
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOP = 25


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("chains", "evidence", "abc", "replicates"))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from bayescomp import cli
    from workloads import run_pass

    profile = cProfile.Profile()

    def profiled_main(argv):
        return profile.runcall(cli.main, argv)

    with tempfile.TemporaryDirectory() as workdir:
        ops, seconds, _ = run_pass(args.workload, 1000 * args.seed,
                                   pathlib.Path(workdir), lambda: 0.0,
                                   main=profiled_main)
    for op in ops:
        label = op.config.get("method", "")
        print(f"{op.experiment:10s} {label:16s} {op.seconds:8.3f} s  exit {op.code}")
    print(f"{'pass':27s} {seconds:8.3f} s")
    stats = pstats.Stats(profile, stream=sys.stdout)
    stats.sort_stats("cumulative").print_stats(TOP)
    stats.sort_stats("tottime").print_stats(TOP)
    return 0 if all(op.code == 0 for op in ops) else 1


if __name__ == "__main__":
    sys.exit(main())
