"""The determinism check (tools/compare_outputs.py) runs the experiments and
`evidence` methods that it lists itself; one that the CLI gains and the
list lacks would never be compared.  Both lists must equal the CLI's own,
in its order."""

import importlib.util
from pathlib import Path

from bayescomp import cli

ROOT = Path(__file__).resolve().parent.parent


def _compare_outputs():
    spec = importlib.util.spec_from_file_location("compare_outputs",
                                                  ROOT / "tools" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_experiment_and_evidence_method_is_compared():
    tool = _compare_outputs()
    assert tool.EXPERIMENTS == tuple(cli._KEYS)
    assert tool.EVIDENCE_METHODS == cli._EVIDENCE_METHODS
