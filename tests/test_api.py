"""The package's public surface: every exported name resolves from its home
module on first access, the package re-exports only exported names,
loading it needs no scipy, and the dataclasses that hold arrays compare
and hash by identity."""

import importlib
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import dyafact

SRC = pathlib.Path(dyafact.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(f"dyafact.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_reexports_only_exported_names():
    # the package's name map: each name is exported by its home module, and
    # resolves to that module's very object
    stale = [f"{home}.{name}" for name, home in dyafact._HOME.items()
             if name not in getattr(importlib.import_module(f"dyafact.{home}"), "__all__", ())]
    assert stale == []
    assert [name for name, home in dyafact._HOME.items()
            if getattr(dyafact, name) is not getattr(importlib.import_module(f"dyafact.{home}"), name)] == []
    listed = set(dir(dyafact))
    assert set(dyafact._HOME) - listed == set()
    # every other public name the package lists is one of its modules
    assert [n for n in listed - set(dyafact._HOME) if not n.startswith("_") and n not in MODULES] == []
    with pytest.raises(AttributeError):
        dyafact.no_such_name


def test_exception_types_have_one_home():
    from dyafact import _gauss, oracle, scalar
    assert oracle.NonconvergenceError is scalar.NonconvergenceError
    assert _gauss.QuadratureError is scalar.QuadratureError
    assert "NonconvergenceError" in oracle.__all__ and "QuadratureError" in _gauss.__all__


def test_importing_the_package_loads_none_of_its_modules():
    code = "import sys, dyafact\nprint(sorted(m for m in sys.modules if m.startswith('dyafact')))\n"
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    assert proc.stdout.strip().splitlines()[-1] == "['dyafact']"


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


def _array_holders():
    from dyafact import borel, operators, specfun
    return [(specfun.psi_family(2.0), specfun.psi_family(3.0)),
            (specfun._gamma_template(0.5), specfun._gamma_template(0.25)),
            (borel.get_table(0.3, 34, 4), borel.get_table(0.7, 34, 4)),
            (borel.BorelKernel.build(0.3), borel.BorelKernel.build(0.3)),
            (operators.HermitianOperator.from_matrix(np.eye(2)),
             operators.HermitianOperator.from_matrix(np.eye(2))),
            (operators.OperatorSeriesReport(np.zeros(2)), operators.OperatorSeriesReport(np.zeros(2)))]


def test_dataclasses_holding_arrays_compare_and_hash_by_identity():
    # ndarray fields have no truth value and no hash, so these go by
    # identity: two objects are equal only when they are one, even with
    # equal fields
    for a, b in _array_holders():
        name = type(a).__name__
        assert a == a and a != b and not (a == b), name
        assert hash(a) == hash(a) and len({a, b}) == 2, name
