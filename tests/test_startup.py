"""Start-up cost: each command imports only the layers it uses.

Every check runs in a fresh interpreter, because the test process itself
has long since imported NumPy and SciPy.
"""

import ast
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bitarq

SRC = Path(bitarq.__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(SRC))

_LOADED = "import sys; print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}))"


def _python(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=ENV,
                          check=True)


@pytest.mark.parametrize("module", ["bitarq", "bitarq.cli"])
def test_import_loads_neither_numpy_nor_scipy(module):
    assert _python("-c", f"import {module}; {_LOADED}").stdout.strip() == "[]"


@pytest.mark.parametrize("argv, loaded", [
    (["--version"], "[]"),
    (["fusion-plan", "--tech", "zigbee", "--w", "4", "--d", "3", "--blocks", "10"], "[]"),
    (["feedback-sim", "--n", "16", "--w", "3", "--trials", "20"], "['numpy']"),
    *((["fit-check", "--tech", tech, "--ber", "1e-4"], "[]")
      for tech in ("zigbee", "wifi", "bluetooth")),
    (["fusion-feasibility", "--tech", "zigbee", "--pf", "1e-3", "--pr", "1e-5", "--nseg", "2",
      "--wseg", "3"], "[]"),
])
def test_command_loads_no_scipy(argv, loaded):
    code = ("import sys; from bitarq.cli import main; sys.argv[0] = 'bitarq'\n"
            f"try:\n    main({argv!r})\nexcept SystemExit:\n    pass\n{_LOADED}")
    assert _python("-c", code).stdout.strip().splitlines()[-1] == loaded


def test_no_module_imports_scipy_optimize():
    offenders = []
    for path in sorted((SRC / "bitarq").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module, *(f"{node.module}.{a.name}" for a in node.names)]
            else:
                continue
            offenders += [f"{path.name}: {n}" for n in names if n.startswith("scipy.optimize")]
    assert offenders == []


def test_version_takes_under_300_ms():
    times = []
    for _ in range(5):
        start = time.perf_counter()
        proc = _python("-m", "bitarq.cli", "--version")
        times.append(time.perf_counter() - start)
        assert proc.stdout.strip() == f"bitarq {bitarq.__version__}"
    assert statistics.median(times) < 0.3, times


def test_analytic_names_resolve_on_first_access():
    code = ("import sys, bitarq; before = 'bitarq.analytic' in sys.modules; "
            "f = bitarq.ber_exact; import bitarq.analytic as a; "
            "print(before, f is a.ber_exact, 'ber_exact' in dir(bitarq))")
    assert _python("-c", code).stdout.strip() == "False True True"


def test_star_import_and_unknown_names():
    namespace = {}
    exec("from bitarq import *", namespace)
    assert set(bitarq.__all__) <= set(namespace)
    assert namespace["appendix_integral"] is bitarq.analytic.appendix_integral
    with pytest.raises(AttributeError):
        getattr(bitarq, "no_such_name")
