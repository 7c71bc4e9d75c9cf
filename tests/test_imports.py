"""Static check: every module-level import in the package sources is read."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "markovdim"


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports of ``source`` that it never reads.

    A name counts as read wherever it appears as an expression, annotations
    and the head of an attribute chain (``np`` in ``np.zeros``) included.
    ``from __future__`` imports bind nothing and are skipped.
    """
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read)


def test_checker_finds_unused_import():
    src = "import os\nimport sys\nfrom math import pi as p, tau\n\nsys.exit(p)\n"
    assert unused_imports(src) == ["os", "tau"]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []
