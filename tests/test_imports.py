"""numpy is the only runtime dependency: every import in the package is
numpy, the package itself or the standard library.  Every exported name
resolves."""

import ast
import sys
from pathlib import Path

import mirnet_forge

PACKAGE = Path(mirnet_forge.__file__).parent
ALLOWED = {"numpy", "mirnet_forge"} | set(sys.stdlib_module_names)


def _imported(tree):
    """Top-level names of the absolute imports in `tree`; a relative import
    is the package itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_numpy_is_the_only_runtime_dependency():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        foreign = set(_imported(tree)) - ALLOWED
        assert not foreign, f"{path.name} imports {sorted(foreign)}"


def test_every_export_resolves_once():
    # a stale name would make `from mirnet_forge import *` raise
    names = mirnet_forge.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(mirnet_forge, name)] == []
