"""The package's public surface: every exported name resolves, the package
re-exports only exported names, and loading it needs no scipy."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import dyafact

SRC = pathlib.Path(dyafact.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(f"dyafact.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_reexports_only_exported_names():
    stale = []
    for node in ast.parse((SRC / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exported = getattr(importlib.import_module(f"dyafact.{node.module}"), "__all__", ())
            stale += [f"{node.module}.{a.name}" for a in node.names if a.name not in exported]
    assert stale == []


def test_import_and_scipy_free_evaluations_load_no_scipy():
    # scipy is imported only where an oracle needs it
    code = (
        "import sys, dyafact, dyafact.cli\n"
        "dyafact.ei_stokes(5); dyafact.psi_dyadic(5); dyafact.erfc_dyadic(2)\n"
        "dyafact.airy_from_h(10); dyafact.bessel_k_dyadic(0.7, 3)\n"
        "dyafact.incomplete_gamma_dyadic(-0.5, 2)\n"
        "dyafact.cli.main(['eval', '--function', 'ei-stokes', '--x-start', '2'])\n"
        "dyafact.cli.main(['eval', '--function', 'airy', '--x-start', '2'])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    assert proc.stdout.strip().splitlines()[-1] == "[]"
