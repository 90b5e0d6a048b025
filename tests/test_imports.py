"""Every module of the package uses each name it imports (stdlib ast only,
since no linter is a dependency), and the package runs without scipy."""

import ast
import os
import pathlib
import subprocess
import sys

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


ROOT = PKG.parents[1]
SEARCHED = ("src", "tests", "benchmarks", "perfbench")


def top_level_names(source: str) -> set[str]:
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def referenced_names(source: str) -> set[str]:
    """Names read, attributes taken and names imported in a module."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(a.name for a in node.names)
    return out


def test_reference_detector():
    assert top_level_names("X = 1\ndef f():\n    y = 2\nclass C: pass\n"
                           "__all__ = []\n") == {"X", "f", "C"}
    assert referenced_names("import m\nfrom a import b\nm.f(c)\nd = 1\n") \
        == {"m", "b", "f", "c"}


def test_every_top_level_name_is_referenced():
    used = set()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            used |= referenced_names(path.read_text())
    orphans = [f"{path.name}:{name}" for path in sorted(PKG.glob("*.py"))
               for name in sorted(top_level_names(path.read_text()) - used)]
    assert orphans == []


def test_runtime_needs_no_scipy(tmp_path):
    # every module, an exponent fit and a closed-form series through the CLI,
    # in a fresh interpreter: scipy is a test dependency only
    probe = f"""
import importlib, sys
for name in {sorted(p.stem for p in PKG.glob("*.py"))!r}:
    importlib.import_module("magnon_gk." + name)
import numpy as np
from magnon_gk import cli, spectral
ts = np.logspace(1, 3, 10)
spectral.fit_exponent(ts, ts ** 0.5)
assert cli.main(["closedform", "--points", "8"]) == 0
assert "scipy" not in sys.modules
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PKG.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    res = subprocess.run([sys.executable, "-c", probe], env=env, cwd=tmp_path,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "closedform_report.json").exists()
