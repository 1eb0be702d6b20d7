"""The seed audit (tools/seed_audit.py) reruns the tests named in its
`AUDITED_TESTS`; a renamed or deleted test there would surface only when
the audit next runs.  Every node id must name a test class, or a test in
one or at module level, that its file defines."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _audit_nodes():
    spec = importlib.util.spec_from_file_location("seed_audit",
                                                  ROOT / "tools" / "seed_audit.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.AUDITED_TESTS


@pytest.mark.parametrize("node", _audit_nodes())
def test_audited_node_exists(node):
    path, *names = node.split("::")
    scope = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    for name in names:
        defined = {n.name: n for n in scope.body
                   if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                   and n.name.lower().startswith("test")}
        assert name in defined, f"{node}: {path} defines no test {name!r} there"
        scope = defined[name]
