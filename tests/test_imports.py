"""Every module of the package uses each name it imports (stdlib ast only,
since no linter is a dependency)."""

import ast
import pathlib

import pytest

PKG = pathlib.Path(__file__).resolve().parents[1] / "src" / "magnon_gk"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - used)


def test_detector_flags_an_unused_name():
    src = "import os\nfrom a.b import c, d as e\nprint(c)\n"
    assert unused_imports(src) == ["e", "os"]


@pytest.mark.parametrize("path", sorted(PKG.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
