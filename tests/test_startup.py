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


def _python(*args, env=ENV):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          check=True)


def _cli(argv, **env):
    """(exit code, stdout, stderr, loaded numeric packages) of ``main(argv)`` run in a
    fresh interpreter with the extra environment variables ``env``."""
    code = ("import sys; from bitarq.cli import main; sys.argv[0] = 'bitarq'\n"
            f"try:\n    rc = main({argv!r})\nexcept SystemExit as exc:\n    rc = exc.code\n"
            f"print(rc); {_LOADED}")
    proc = _python("-c", code, env={**ENV, **env})
    *out, rc, loaded = proc.stdout.splitlines()
    return int(rc), "\n".join(out), proc.stderr, loaded


@pytest.mark.parametrize("module", ["bitarq", "bitarq.cli", "bitarq.model"])
def test_import_loads_neither_numpy_nor_scipy(module):
    assert _python("-c", f"import {module}; {_LOADED}").stdout.strip() == "[]"


def test_dir_lists_the_lazy_analytic_names_without_loading_them():
    code = f"import bitarq; print('ber_exact' in dir(bitarq)); {_LOADED}"
    assert _python("-c", code).stdout.split() == ["True", "[]"]


@pytest.mark.parametrize("argv, loaded", [
    (["--version"], "[]"),
    (["fusion-plan", "--tech", "zigbee", "--w", "4", "--d", "3", "--blocks", "10"], "[]"),
    (["feedback-sim", "--n", "16", "--w", "3", "--trials", "20"], "['numpy']"),
    *((["fit-check", "--tech", tech, "--ber", "1e-4"], "[]")
      for tech in ("zigbee", "wifi", "bluetooth")),
    (["fusion-feasibility", "--tech", "zigbee", "--pf", "1e-3", "--pr", "1e-5", "--nseg", "2",
      "--wseg", "3"], "[]"),
    # full repetition resolves no ladder, so it needs no optimizer
    (["simulate", "--scheme", "full_repetition", "--snr-db", "3", "--n", "1024", "--d", "2",
      "--bits", "10240"], "['numpy']"),
    # a windowed sequential run reads its window W alone, not the ladder
    (["simulate", "--scheme", "sequential", "--snr-db", "3", "--n", "1024", "--d", "2",
      "--bits", "10240000", "--window", "0.2", "--seed", "1"], "['numpy']"),
    (["simulate", "--snr-db", "3", "--n", "1024", "--d", "2", "--bits", "204800", "--rate", "0.8"],
     "['numpy']"),
    # the preassigned scheme reads the ladder
    (["simulate", "--scheme", "preassigned", "--snr-db", "3", "--n", "1024", "--d", "2",
      "--bits", "10240", "--window", "0.2"], "['numpy', 'scipy']"),
])
def test_command_loads_no_scipy(argv, loaded):
    assert _cli(argv)[3] == loaded


_SIM = ["simulate", "--snr-db", "3", "--n", "1024", "--d", "2"]
_NO_STRATEGY = ("full repetition and D = 0 take no strategy; "
                "every other scheme takes exactly one rate, window or threshold")


@pytest.mark.parametrize("argv, env, message", [
    # the README example: 1,000,000 bits is not a whole number of 1024-bit packets
    (["sweep-window", "--snr-db", "0", "--d", "2", "--n", "1024", "--bits", "1000000",
      "--seed", "7"], {}, "bits must be a positive multiple of packet_bits"),
    (["sweep-rate", "--snr-db", "101", "--d", "1"], {},
     "--snr-db 101.0 is above the 100 dB ceiling"),
    (["optimize", "--strategy", "rate", "--snr-db", "101", "--d", "2"], {},
     "--snr-db 101.0 is above the 100 dB ceiling"),
    ([*_SIM, "--bits", "1000", "--window", "0.2"], {},
     "bits must be a positive multiple of packet_bits"),
    # model.window_size owns the window range, for either scheme
    ([*_SIM, "--bits", "1024", "--window", "1.5"], {}, "window fraction 1.5 outside (0, 1]"),
    ([*_SIM, "--scheme", "preassigned", "--bits", "1024", "--window", "1.5"], {},
     "window fraction 1.5 outside (0, 1]"),
    # model.scheme_protocol owns which schemes take a strategy flag
    ([*_SIM, "--scheme", "full_repetition", "--bits", "1024", "--rate", "0.7"], {}, _NO_STRATEGY),
    ([*_SIM, "--bits", "1024"], {}, _NO_STRATEGY),
    # the one argv rule the library cannot see
    ([*_SIM, "--bits", "1024", "--rate", "0.8", "--window", "0.2"], {},
     "give at most one of --rate, --window, --threshold"),
    # 0.3 lies below 1/(1+D): no window runs it
    ([*_SIM, "--bits", "204800", "--rate", "0.3"], {},
     "rate 0.3 outside the admissible interval (0.3333333333333333, 0.9980506822612085]"),
    ([*_SIM, "--scheme", "preassigned", "--bits", "204800", "--rate", "0.3"], {},
     "rate 0.3 outside the admissible interval (0.3333333333333333, 0.9980506822612085]"),
    ([*_SIM, "--bits", "1024", "--window", "0.2"], {"BITARQ_THREADS": "0"},
     "BITARQ_THREADS must be a positive integer, got '0'"),
    # base / (1 + D) underflows to 0: the equalized SNR is checked for every scheme
    (["simulate", "--scheme", "full_repetition", "--snr-db", "-3236", "--n", "10", "--d", "2",
      "--bits", "100"], {}, "snr must be positive and at most 100 dB"),
    (["feedback-sim", "--n", "1024", "--w", "4"], {},
     "C(1024, 4) exceeds the subset-stream search limit 1000000; "
     "report the subset with the combinadic codec (combinadic_encode) instead"),
    # the default c1 was derived first, under the 0 <= w <= n rule of the delay model
    (["feedback-sim", "--n", "3", "--w", "4"], {}, "need 1 <= w <= n"),
    (["feedback-sim", "--n", "3", "--w", "4", "--c1", "4"], {}, "need 1 <= w <= n"),
], ids=["readme-sweep-window", "sweep-snr-ceiling", "optimize-snr-ceiling", "partial-packet",
        "window-above-1", "preassigned-window-above-1", "flag-under-full-repetition",
        "no-strategy-flag", "two-strategy-flags", "rate-below-range",
        "preassigned-rate-below-range", "threads-0", "full-repetition-snr-underflow",
        "search-too-large", "window-above-n", "window-above-n-with-c1"])
def test_configuration_error_exits_before_numpy_loads(argv, env, message):
    assert _cli(argv, **env) == (2, "", f"error: {message}\n", "[]")


def test_small_monte_carlo_sweep_fills_its_columns():
    code, out, _, loaded = _cli(["sweep-window", "--snr-db", "0", "--d", "2", "--n", "16",
                                 "--points", "2", "--bits", "32", "--seed", "7"])
    rows = [r.split(",") for r in out.splitlines() if not r.startswith("#")][1:]
    assert (code, loaded, len(rows)) == (0, "['numpy', 'scipy']", 2)
    assert all(len(r) == 5 and r[3] and r[4] for r in rows)


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
