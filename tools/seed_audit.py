"""Rerun stochastic tests at other base seeds and report their pass rates.

    python3 tools/seed_audit.py [--tree DIR]

Runs the tests in `AUDITED_TESTS`, those that reach `mcmc.rw_metropolis`,
the probit Gibbs sampler, the evidence estimators, the capture samplers,
PMC, ABC-PMC or the IACT estimator, under pytest in this process, once as they are (k = 0) and
once for each offset k = 1..8 with every `RngStream`'s Philox key built
by `RngStream` itself from seed + k (mod 2^64) in place of its seed.
Nothing else changes: the tests' seeds, sizes and bounds stay as
written, and so do the data that tests draw from numpy's own
`default_rng`.  The warnings that the tier-1 run
turns into errors are errors here too.  A test that passes only at its
own seed then shows as a pass rate below 8/8, so a change that moves the
random streams can be told apart from one that breaks a sampler.

`--tree` audits another checkout, its `src` and `tests`, so that a parent
and a change can be compared with this one script.  Prints one line per
test: its outcome at k = 0 and its passes over k = 1..8, then the total.
Exits 0 when every run was collected and finished, whatever the pass
rates; the table is the result.
"""

import argparse
import copy
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
OFFSETS = 8
# the warnings that the tier-1 run turns into errors
WARNING_FILTERS = ("-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
                   "-W", "error::FutureWarning",
                   "-W", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
# the tests that run rw_metropolis (rw_mh_run, mwg, mixture-demo,
# abc_mcmc), the probit Gibbs sampler, the evidence estimators, the
# capture samplers (the direct one and the Gibbs conditionals), PMC,
# ABC-PMC and the IACT estimator (`mcmc.chain_diagnostics`);
# tests/test_seed_audit.py checks that each names a test that exists
AUDITED_TESTS = (
    "tests/test_acceptance.py::TestRandomWalkAcceptance",
    "tests/test_acceptance.py::TestMixtureTrapping",
    "tests/test_mcmc.py::TestMhRun",
    "tests/test_probit.py::TestPosteriorRow::test_point_chain_is_the_one_row_batch_chain",
    "tests/test_mcmc.py::TestMwg",
    "tests/test_mcmc.py::TestMwgEarlyRejection",
    "tests/test_mcmc.py::TestBlockedMetropolis",
    "tests/test_mcmc.py::TestProbitGibbs",
    "tests/test_mcmc.py::TestLockstepGibbs::test_residuals_have_conditional_law",
    "tests/test_mcmc.py::TestOverrelaxedGibbs::test_replicate_variance_iact",
    "tests/test_acceptance.py::TestAbcProbitMatch",
    "tests/test_abc.py::TestMcmc",
    "tests/test_acceptance.py::TestAbcExactness::test_mcmc",
    "tests/test_acceptance.py::TestEvidenceCrossConsistency",
    "tests/test_acceptance.py::TestChibIdentity",
    "tests/test_acceptance.py::TestEvidenceOracle",
    "tests/test_capture.py::TestConditionals",
    "tests/test_capture.py::TestGibbsRun",
    "tests/test_capture.py::TestBlockedScan",
    "tests/test_capture.py::TestExactDraws",
    "tests/test_acceptance.py::TestCaptureRecapture",
    "tests/test_pmc.py::TestEstimatorValidity",
    "tests/test_abc.py::TestPmc",
    "tests/test_cli.py::TestRunners::test_errors_match_the_replicate_sd",
    "tests/test_mcmc.py::TestDiagnostics",
    "tests/test_mcmc.py::TestAutocorrelations",
)


class _Outcomes:
    """pytest plugin that keeps each test's outcome, failing if any of its
    phases failed."""

    def __init__(self):
        self.outcomes = {}

    def pytest_runtest_logreport(self, report):
        if report.when == "call" or report.outcome != "passed":
            if self.outcomes.get(report.nodeid) != "failed":
                self.outcomes[report.nodeid] = report.outcome


def _offset_streams(core, offset):
    """Make every `RngStream` built from now on draw as if its seed were
    seed + offset, its generator that of a twin built by `RngStream`'s own
    `__post_init__` from the shifted seed; its `seed` field and children
    are unchanged."""
    build = core.RngStream.__post_init__

    def shifted(self):
        build(self)
        twin = copy.copy(self)
        twin.seed = (self.seed + offset) & core._U64
        build(twin)
        self._gen = twin._gen

    core.RngStream.__post_init__ = shifted
    return build


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=pathlib.Path, default=ROOT,
                        help="checkout whose src and tests to audit")
    args = parser.parse_args(argv)

    tree = args.tree.resolve()
    sys.path.insert(0, str(tree / "src"))
    from bayescomp import core

    nodes = [str(tree / t) for t in AUDITED_TESTS]
    runs = []
    for offset in range(OFFSETS + 1):
        outcomes = _Outcomes()
        build = _offset_streams(core, offset) if offset else None
        try:
            code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(tree),
                                *WARNING_FILTERS, *nodes], plugins=[outcomes])
        finally:
            if build is not None:
                core.RngStream.__post_init__ = build
        if code not in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED):
            print(f"offset {offset}: pytest exited {code!r}", file=sys.stderr)
            return 1
        runs.append(outcomes.outcomes)

    print(f"\ntree {tree}; passes over offsets 1..{OFFSETS}")
    width = max(len(n) for n in runs[0])
    total = 0
    for node in runs[0]:
        passes = sum(run.get(node) == "passed" for run in runs[1:])
        total += passes
        print(f"{node:<{width}}  k=0 {runs[0][node]:<7} {passes}/{OFFSETS}")
    print(f"{'total':<{width}}  {total}/{OFFSETS * len(runs[0])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
