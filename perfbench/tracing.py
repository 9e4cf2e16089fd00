"""Outside-in span tracing of bitarq, installed by rebinding module names.

A :class:`Tracer` records spans (name, start, end, parent) in flat arrays
and keeps them in memory until :meth:`Tracer.dump`.  :func:`install` wraps
chosen bitarq functions and rebinds every name, in every loaded bitarq
module, that refers to one of them, so calls made across a module boundary
(and within a module, which resolves globals at call time) pass through the
wrapper.  Entry points bitarq imports from scipy (``quad``, ``brentq``) are
wrapped per binding module and named after it.  A target that no longer
exists is recorded as missing instead of failing, so the tracer survives
renames in the program it measures.

Integrand kernels such as ``_chi`` are deliberately not wrapped: quadrature
evaluates them thousands of times per call and per-evaluation spans would
measure the tracer, not bitarq.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, attribute, span name) of every bitarq function that gets a span.
# Span names are "<layer>.<function>"; the labelers below refine a few.
TARGETS = (
    ("analytic", "_kernel_integral", "analytic.kernel_integral"),
    ("analytic", "_prob_retx", "analytic.prob_retx"),
    ("analytic", "_ber_exact", "analytic.ber_exact"),
    ("analytic", "_ber_approx", "analytic.ber_approx"),
    ("analytic", "_band_prob", "analytic.band_prob"),
    ("optimize", "optimize_rate", "optimize.rate"),
    ("optimize", "optimize_window", "optimize.window"),
    ("optimize", "optimize_threshold", "optimize.threshold"),
    ("optimize", "equal_probability_thresholds", "optimize.equal_probability_thresholds"),
    ("optimize", "fixed_threshold_rate", "optimize.fixed_threshold_rate"),
    ("optimize", "fixed_threshold_windows", "optimize.fixed_threshold_windows"),
    ("optimize", "golden_section", "optimize.golden_section"),
    ("mc", "simulate", "mc.simulate"),
    ("feedback", "simulate_permutation_search", "feedback.simulate_permutation_search"),
    ("feedback", "permutation_search", "feedback.permutation_search"),
    ("feedback", "permutation_recover", "feedback.permutation_recover"),
    ("fusion", "schedule_uplink", "fusion.schedule_uplink"),
    ("fusion", "segment_feasibility", "fusion.segment_feasibility"),
    ("fusion", "required_snr", "fusion.required_snr"),
    ("cli", "_run_sweep", "cli.run_sweep"),
    ("cli", "_run_optimize", "cli.run_optimize"),
    ("cli", "_run_simulate", "cli.run_simulate"),
    ("cli", "_run_feedback_sim", "cli.run_feedback_sim"),
    ("cli", "_run_fusion_plan", "cli.run_fusion_plan"),
    ("cli", "_run_fusion_feasibility", "cli.run_fusion_feasibility"),
    ("cli", "_run_fit_check", "cli.run_fit_check"),
)

# scipy entry points: (importable module, attribute, short name).
SCIPY_TARGETS = (
    ("scipy.integrate", "quad", "quad"),
    ("scipy.optimize", "brentq", "brentq"),
)

LAYERS = ("cli", "analytic", "optimize", "mc", "feedback", "fusion")


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


class Tracer:
    """In-memory span recorder with per-span attributes and counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.attrs: dict[int, dict] = {}
        self.counters: Counter = Counter()
        self.errors: Counter = Counter()  # (layer, exception type)
        self.warnings: Counter = Counter()  # (layer, category)
        self.missing: list[str] = []
        self._seen_errors: list[BaseException] = []
        self._files: dict[str, str] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    # -- errors and warnings -------------------------------------------------

    def record_error(self, exc: BaseException) -> None:
        """Count a typed bitarq error once, under the layer that raised it."""
        if any(e is exc for e in self._seen_errors):
            return
        self._seen_errors.append(exc)
        layer = "unknown"
        tb = exc.__traceback__
        while tb is not None:
            layer = self._files.get(tb.tb_frame.f_code.co_filename, layer)
            tb = tb.tb_next
        self.errors[(layer, type(exc).__name__)] += 1

    def record_warnings(self, caught) -> None:
        for w in caught:
            layer = self._files.get(w.filename, "other")
            self.warnings[(layer, w.category.__name__)] += 1

    # -- persistence ---------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span plus the counters to ``path`` (numpy .npz)."""
        meta = {
            "names": self.names,
            "attrs": {str(k): v for k, v in self.attrs.items()},
            "counters": dict(self.counters),
            "errors": [[k[0], k[1], v] for k, v in self.errors.items()],
            "warnings": [[k[0], k[1], v] for k, v in self.warnings.items()],
            "missing": self.missing,
        }
        with open(path, "wb") as fh:
            np.savez(
                fh,
                name_id=np.frombuffer(self.name_id, dtype=np.int32),
                start=np.frombuffer(self.start, dtype=np.float64),
                end=np.frombuffer(self.end, dtype=np.float64),
                parent=np.frombuffer(self.parent, dtype=np.int32),
                meta=np.array(json.dumps(meta)),
            )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


class _ModuleProxy:
    """Stands in for an imported module with some attributes replaced."""

    def __init__(self, module, **overrides):
        self.__dict__.update(overrides)
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


def _labeler(span_name: str):
    """Per-call span name for the functions whose metrics split by argument."""
    if span_name.startswith("optimize.") and span_name.split(".")[1] in ("rate", "window", "threshold"):
        return lambda a, k: f"{span_name}.d{_arg(a, k, 1, 'd')}"
    if span_name == "feedback.simulate_permutation_search":
        return lambda a, k: f"{span_name}.n{_arg(a, k, 0, 'n')}w{_arg(a, k, 1, 'w')}"
    return None


def _wrap(tracer: Tracer, fn, span_name: str, bitarq_error):
    label = _labeler(span_name)
    after = None
    before = None
    if span_name == "mc.simulate":
        def after(i, a, k, result):
            config = _arg(a, k, 0, "config")
            tracer.attrs[i] = {
                "scheme": _arg(a, k, 2, "scheme"),
                "bits": int(result.bits_simulated),
                "retx": int(sum(result.retransmitted_bits)),
                "d": int(config.retransmissions),
            }
    elif span_name == "feedback.simulate_permutation_search":
        def after(i, a, k, result):
            tracer.attrs[i] = {"trials": int(_arg(a, k, 3, "trials"))}
    elif span_name == "feedback.permutation_search":
        chunk_default = inspect.signature(fn).parameters.get("chunk")
        chunk_default = None if chunk_default is None else chunk_default.default

        def after(i, a, k, result):
            kk = int(result.stream_index)
            tracer.counters["feedback.perms_searched"] += kk
            chunk = k.get("chunk", a[6] if len(a) > 6 else chunk_default)
            if chunk:
                tracer.counters["feedback.perms_generated"] += math.ceil(kk / chunk) * chunk
    elif span_name == "optimize.golden_section":
        def before(a, k):
            f = _arg(a, k, 0, "f")

            def counted(x):
                tracer.counters["optimize.golden_evals"] += 1
                return f(x)

            return (counted,) + tuple(a[1:]), k

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.open(label(args, kwargs) if label else span_name)
        if before is not None:
            args, kwargs = before(args, kwargs)
        try:
            result = fn(*args, **kwargs)
        except bitarq_error as exc:
            tracer.record_error(exc)
            raise
        finally:
            tracer.close(i)
        if after is not None:
            after(i, args, kwargs, result)
        return result

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap the TARGETS in every loaded bitarq module."""
    import importlib

    from bitarq.errors import BitarqError

    modules = {
        name: mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "bitarq" or name.startswith("bitarq."))
    }
    for name, mod in modules.items():
        path = getattr(mod, "__file__", None)
        if path and name.startswith("bitarq."):
            tracer._files[path] = name.split(".", 1)[1]

    def rebind(original, replacement) -> bool:
        found = False
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    tracer._restore.append((mod, attr, value))
                    setattr(mod, attr, replacement)
                    found = True
        return found

    for module_name, attr, span_name in TARGETS:
        owner = modules.get(f"bitarq.{module_name}")
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None or not rebind(original, _wrap(tracer, original, span_name, BitarqError)):
            tracer.missing.append(span_name)

    for scipy_module, attr, short in SCIPY_TARGETS:
        sci = importlib.import_module(scipy_module)
        original = getattr(sci, attr)
        found = False
        for name, mod in modules.items():
            layer = name.split(".", 1)[1] if "." in name else None
            if layer is None:
                continue
            for binding, value in list(vars(mod).items()):
                if value is original:
                    wrapper = _wrap(tracer, original, f"{layer}.{short}", BitarqError)
                elif value is sci:
                    wrapper = _ModuleProxy(
                        sci, **{attr: _wrap(tracer, original, f"{layer}.{short}", BitarqError)}
                    )
                else:
                    continue
                tracer._restore.append((mod, binding, value))
                setattr(mod, binding, wrapper)
                found = True
        if not found:
            tracer.missing.append(f"scipy.{short}")


def load(path: str) -> dict:
    """Read one :meth:`Tracer.dump` file back as arrays plus metadata."""
    with np.load(path) as data:
        out = {k: data[k] for k in ("name_id", "start", "end", "parent")}
        out["meta"] = json.loads(str(data["meta"]))
    return out
