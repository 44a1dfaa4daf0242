"""Every name a module exports through __all__ exists in it, and each
module imports only the package modules below it in the layering."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import boltzlab

_BASE = {"collision", "errors", "geometry"}
ALLOWED_IMPORTS = {
    "errors": set(),
    "geometry": {"errors"},
    "collision": {"errors"},
    "reconstruct": {"collision", "errors"},
    "solver": _BASE,
    "linearize": _BASE | {"solver"},
    "config": _BASE | {"reconstruct", "solver"},
}


@pytest.mark.parametrize("name", ["boltzlab", "boltzlab.linearize",
                                  "boltzlab.reconstruct", "boltzlab.config"])
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def _package_imports(tree):
    """Package modules a module imports anywhere, function bodies included."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0:
                parts = (node.module or "").split(".")
                if parts[0] == "boltzlab" and len(parts) > 1:
                    found.add(parts[1])
            elif node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "boltzlab" and len(parts) > 1:
                    found.add(parts[1])
    return found


def test_module_layering():
    src = pathlib.Path(boltzlab.__file__).parent
    modules = {p.stem: p for p in src.glob("*.py")}
    assert set(ALLOWED_IMPORTS) <= set(modules)
    bad = {}
    for name, allowed in ALLOWED_IMPORTS.items():
        tree = ast.parse(modules[name].read_text())
        extra = _package_imports(tree) - allowed
        if extra:
            bad[name] = sorted(extra)
    assert bad == {}


def test_import_loads_no_scipy():
    # scipy.sparse is imported only where the stencil operators are built,
    # so a run that never solves (probe work, config checks) does not pay
    # for it
    src = str(pathlib.Path(boltzlab.__file__).parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, boltzlab; print(sorted(m for m in sys.modules "
            "if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"
