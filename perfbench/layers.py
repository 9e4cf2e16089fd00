"""Per-layer metrics of a traced run, computed from the dumped spans.

Counts and times are per traced pass, so they sit on the same scale as the
pass's ``wall_s``.  A metric whose layer was not exercised, or whose wrap
target no longer exists in bitarq, is reported as 0 and listed as missing.
"""

from __future__ import annotations

import os
import statistics
from collections import Counter, defaultdict

import numpy as np

import tracing
import workloads

IMPORTS = {
    "cli.import_ms": "bitarq.cli",
    "cli.import.analytic_ms": "bitarq.analytic",
    "cli.import.fusion_ms": "bitarq.fusion",
    "cli.import.scipy_stats_ms": "scipy.stats",
    "cli.import.scipy_integrate_ms": "scipy.integrate",
    "cli.import.numpy_ms": "numpy",
}
CLI_COMMANDS = tuple(example.split()[0] for example in workloads.README_EXAMPLES)
OPTIMIZE_CALLS = tuple(f"optimize.{s}.d{d}" for s in workloads.STRATEGIES for d in (1, 2, 3))
MC_GROUPS = (("preassigned", "sparse"), ("sequential", "sparse"), ("preassigned", "dense"),
             ("sequential", "dense"), ("full_repetition", "dense"))
FEEDBACK_SHAPES = tuple((n, w) for n, w, _ in workloads.FEEDBACK)
FUSION_CALLS = ("schedule_uplink", "segment_feasibility", "required_snr")
SELF_TIMED = ("analytic.quad", "analytic.prob_retx", "analytic.ber_exact", "analytic.ber_approx",
              "optimize.equal_probability_thresholds", "optimize.fixed_threshold_rate")
COUNTED = ("analytic.quad", "analytic.kernel_integral", "analytic.prob_retx", "analytic.ber_exact",
           "analytic.ber_approx", "analytic.band_prob", "optimize.equal_probability_thresholds",
           "optimize.brentq", "optimize.fixed_threshold_rate")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {name: "ms" for name in IMPORTS}
    units.update({f"cli.{c}.call_ms": "ms" for c in CLI_COMMANDS})
    for name in COUNTED:
        units[f"{name}.calls"] = "count"
        if name in SELF_TIMED:
            units[f"{name}.self_ms"] = "ms"
    units.update({f"{name}.ms": "ms" for name in OPTIMIZE_CALLS})
    units.update({"optimize.root_evals": "count", "optimize.golden_evals": "count"})
    units.update({f"mc.{s}.{g}.ns_per_bit": "ns/bit" for s, g in MC_GROUPS})
    units.update({"mc.bits": "bits", "mc.retx_used_ratio": "ratio", "mc.threshold_setup_ms": "ms"})
    units.update({f"feedback.n{n}w{w}.trials_per_s": "1/s" for n, w in FEEDBACK_SHAPES})
    units.update({"feedback.perms_searched": "count", "feedback.perms_per_s": "1/s",
                  "feedback.useful_ratio": "ratio"})
    units.update({f"fusion.{f}_us": "us" for f in FUSION_CALLS})
    units.update({"optimize.warnings": "count", "fusion.warnings": "count"})
    units.update({f"{layer}.errors": "count" for layer in tracing.LAYERS})
    units.update({"trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s"})
    return units


def import_cumulative_us(stderr: str, module: str) -> int:
    """Cumulative ``-X importtime`` microseconds spent importing ``module``.

    Counts the module's own line, or, when a lazy loader imported only its
    submodules, every ``module.*`` line not nested inside another one.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        if cum.strip().isdigit():
            entries.append((len(name) - len(name.lstrip()), name.strip(), int(cum)))
    total = 0
    stack: list[tuple[int, bool]] = []  # (indent, inside a matching line)
    for indent, name, cum in reversed(entries):  # parents precede children
        while stack and stack[-1][0] >= indent:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        match = name == module or name.startswith(module + ".")
        if match and not inside:
            total += cum
        stack.append((indent, inside or match))
    return total


class _Spans:
    """All dumped spans of one run, merged, with self times."""

    def __init__(self, paths):
        self.by_name: dict[str, list[int]] = defaultdict(list)
        names, dur, self_t, parent, attrs = [], [], [], [], {}
        self.counters: Counter = Counter()
        self.errors: Counter = Counter()
        self.warnings: Counter = Counter()
        self.missing: set[str] = set()
        offset = 0
        for path in paths:
            if not os.path.exists(path):  # a traced CLI child that died before its dump
                continue
            data = tracing.load(path)
            meta = data["meta"]
            d = data["end"] - data["start"]
            par = data["parent"].astype(np.int64)
            children = np.zeros_like(d)
            has = par >= 0
            np.add.at(children, par[has], d[has])
            names.extend(meta["names"][i] for i in data["name_id"])
            dur.append(d)
            self_t.append(d - children)
            parent.append(np.where(has, par + offset, -1))
            attrs.update({int(k) + offset: v for k, v in meta["attrs"].items()})
            self.counters.update(meta["counters"])
            self.errors.update({(layer, kind): n for layer, kind, n in meta["errors"]})
            self.warnings.update({(layer, kind): n for layer, kind, n in meta["warnings"]})
            self.missing.update(meta["missing"])
            offset += len(d)
        self.names = names
        self.dur = np.concatenate(dur) if dur else np.zeros(0)
        self.self_t = np.concatenate(self_t) if self_t else np.zeros(0)
        self.parent = np.concatenate(parent) if parent else np.zeros(0, dtype=np.int64)
        self.attrs = attrs
        for i, name in enumerate(names):
            self.by_name[name].append(i)

    def count(self, name):
        return len(self.by_name.get(name, ()))

    def self_sum(self, name):
        return float(self.self_t[self.by_name[name]].sum()) if name in self.by_name else 0.0

    def durations(self, name):
        return self.dur[self.by_name[name]] if name in self.by_name else np.zeros(0)

    def parent_name(self, i):
        p = int(self.parent[i])
        return self.names[p] if p >= 0 else None


def _median_pass_wall(passes):
    return statistics.median(p["wall"] for p in passes) if passes else 0.0


def compute(result: dict) -> tuple[dict[str, float], list[str], dict]:
    """(metric values, missing metric names, extra detail) of a traced run."""
    units = metric_units()
    spans = _Spans(result.get("trace_files", []))
    passes = max(1, len(result.get("traced_passes", [])))
    values: dict[str, float | None] = {}

    for metric, module in IMPORTS.items():
        samples = [import_cumulative_us(text, module) / 1000.0
                   for text in result.get("import_profile", [])]
        values[metric] = statistics.median(samples) if samples else None

    by_command = defaultdict(list)
    if result["workload"] == "readme-cli":
        for p in result.get("traced_passes", []):
            for c, rec in zip(result["calls"], p["calls"]):
                if rec["t"] is not None:
                    by_command[c["command"]].append(rec["t"] * 1000.0)
    for command in CLI_COMMANDS:
        samples = by_command.get(command)
        values[f"cli.{command}.call_ms"] = statistics.median(samples) if samples else None

    def wrapped(name):
        return name not in spans.missing

    for name in COUNTED:
        values[f"{name}.calls"] = spans.count(name) / passes if wrapped(name) else None
        if name in SELF_TIMED:
            values[f"{name}.self_ms"] = (
                spans.self_sum(name) * 1000.0 / passes if spans.count(name) else None
            )
    for name in OPTIMIZE_CALLS:
        d = spans.durations(name)
        values[f"{name}.ms"] = float(np.median(d)) * 1000.0 if d.size else None

    ept = "optimize.equal_probability_thresholds"
    roots = 0
    for name in ("analytic.band_prob", "analytic.prob_retx"):
        for i in spans.by_name.get(name, ()):
            p = int(spans.parent[i])
            if p >= 0 and spans.names[p] == "optimize.brentq":
                p = int(spans.parent[p])
            roots += p >= 0 and spans.names[p] == ept
    values["optimize.root_evals"] = roots / passes if wrapped(ept) else None
    values["optimize.golden_evals"] = (
        spans.counters["optimize.golden_evals"] / passes if wrapped("optimize.golden_section") else None
    )

    groups = defaultdict(lambda: [0.0, 0])
    bits = retx = capacity = 0
    for i in spans.by_name.get("mc.simulate", ()):
        a = spans.attrs.get(i)
        if not a or a["d"] == 0:
            continue
        share = a["retx"] / (a["bits"] * a["d"])
        g = groups[(a["scheme"], "sparse" if share <= 0.5 else "dense")]
        g[0] += float(spans.dur[i])
        g[1] += a["bits"]
        bits += a["bits"]
        retx += a["retx"]
        capacity += a["bits"] * a["d"]
    for scheme, group in MC_GROUPS:
        t, b = groups.get((scheme, group), (0.0, 0))
        values[f"mc.{scheme}.{group}.ns_per_bit"] = t / b * 1e9 if b else None
    values["mc.bits"] = bits / passes if wrapped("mc.simulate") else None
    values["mc.retx_used_ratio"] = retx / capacity if capacity else None
    setup = [i for i in spans.by_name.get(ept, ())
             if spans.parent_name(i) in ("bench.simulate", "cli.run_simulate")]
    values["mc.threshold_setup_ms"] = (
        float(spans.dur[setup].sum()) * 1000.0 / passes if setup else None
    )

    for n, w in FEEDBACK_SHAPES:
        idx = spans.by_name.get(f"feedback.simulate_permutation_search.n{n}w{w}", ())
        t = float(spans.dur[idx].sum()) if idx else 0.0
        trials = sum(spans.attrs.get(i, {}).get("trials", 0) for i in idx)
        values[f"feedback.n{n}w{w}.trials_per_s"] = trials / t if t else None
    searched = spans.counters["feedback.perms_searched"]
    generated = spans.counters["feedback.perms_generated"]
    search_t = float(spans.durations("feedback.permutation_search").sum())
    values["feedback.perms_searched"] = (
        searched / passes if wrapped("feedback.permutation_search") else None
    )
    values["feedback.perms_per_s"] = searched / search_t if search_t else None
    values["feedback.useful_ratio"] = searched / generated if generated else None

    for f in FUSION_CALLS:
        d = spans.durations(f"fusion.{f}")
        values[f"fusion.{f}_us"] = float(np.median(d)) * 1e6 if d.size else None
    for layer in ("optimize", "fusion"):
        values[f"{layer}.warnings"] = sum(
            n for (lay, _), n in spans.warnings.items() if lay == layer
        ) / passes
    for layer in tracing.LAYERS:
        values[f"{layer}.errors"] = sum(
            n for (lay, _), n in spans.errors.items() if lay == layer
        ) / passes

    traced = _median_pass_wall(result.get("traced_passes", []))
    untraced = _median_pass_wall(result["passes"])
    values.update({"trace.wall_s": traced, "trace.untraced_wall_s": untraced,
                   "trace.overhead_s": traced - untraced})

    missing = [name for name in units if values.get(name) is None]
    detail = {
        "self_ms_per_pass": sorted(
            ((name, spans.self_sum(name) * 1000.0 / passes, spans.count(name) / passes)
             for name in spans.by_name),
            key=lambda row: -row[1],
        ),
        "warnings": sorted([*k, v / passes] for k, v in spans.warnings.items()),
        "errors": sorted([*k, v / passes] for k, v in spans.errors.items()),
        "unwrapped_targets": sorted(spans.missing),
    }
    return {name: float(values.get(name) or 0.0) for name in units}, missing, detail
