"""bitarq benchmark: one workload per invocation.

    python3 perfbench/run.py --workload design --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``design``     optimizer calls and analytic sweeps in three SNR bands;
* ``linksim``    Monte Carlo runs and permutation-search feedback;
* ``readme-cli`` every README CLI example as a fresh process.

The run times set-up in fresh interpreters, makes a fixed number of
closed-loop passes over the workload's call list in a worker process,
checks every output against independent references, and prints the
metrics, one per line with its unit, followed by a last line of JSON:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs untraced and then traced passes
and reports the per-layer metrics instead.  Spans and the full result are
left in ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
WORK_DIR = os.path.join(ROOT, ".perfbench-work")

# Passes per run: one pass at the seed commit on a 2-core Xeon takes about
# this long, so --seconds buys seconds / NOMINAL_PASS_S passes.  The count
# depends only on --seconds, so every commit makes the same number of calls
# and the tail percentile below stays the same percentile.
NOMINAL_PASS_S = {"design": 6.5, "linksim": 3.8, "readme-cli": 17.0}
MIN_PASSES = 2
SETUP_SAMPLES = 3  # fresh interpreters timed per run; the median is reported
WORKER_TIMEOUT_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn_worker(argv: list[str], timeout: float) -> float:
    """Run the worker to completion; returns spawn-to-ready seconds."""
    t_spawn = _monotonic()
    proc = subprocess.Popen([sys.executable, WORKER, *argv], stdout=subprocess.PIPE,
                            text=True, cwd=ROOT)
    try:
        readable, _, _ = select.select([proc.stdout], [], [], timeout)
        line = proc.stdout.readline() if readable else ""
        proc.communicate(timeout=max(1.0, timeout - (_monotonic() - t_spawn)))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker {argv} timed out")
    if proc.returncode != 0 or not line.startswith("ready "):
        raise RuntimeError(f"worker {argv} failed with exit code {proc.returncode}")
    return float(line.split()[1]) - t_spawn


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples above it: the (n-10)-th smallest of n samples."""
    xs = sorted(samples)
    if len(xs) <= 10:
        return xs[-1], 100.0
    k = len(xs) - 10
    return xs[k - 1], 100.0 * k / len(xs)


def latencies(workload: str, calls: list[dict], passes: list[dict]) -> list[float]:
    """Per-call latency samples: optimizer calls (design), simulate and
    feedback-search calls (linksim), CLI processes (readme-cli)."""
    kinds = {"design": ("optimize",), "linksim": ("simulate", "feedback"), "readme-cli": ("cli",)}
    return [rec["t"] for p in passes for c, rec in zip(calls, p["calls"])
            if c["kind"] in kinds[workload] and rec["t"] is not None]


def workload_metrics(workload: str, calls: list[dict], passes: list[dict]) -> dict:
    """The workload-specific end-to-end figures (medians over passes)."""
    out = {}
    if workload == "design":
        per_pass = []
        for p in passes:
            t = sum(rec["t"] or 0.0 for c, rec in zip(calls, p["calls"]) if c["kind"] == "sweep")
            points = workloads.POINTS * sum(c["kind"] == "sweep" for c in calls)
            per_pass.append(points / t)
        out["sweep_points_per_s"] = (statistics.median(per_pass), "1/s")
    elif workload == "linksim":
        for group in ("sparse", "dense"):
            per_pass = []
            for p in passes:
                recs = [rec for c, rec in zip(calls, p["calls"])
                        if c.get("group") == group and rec["out"]]
                per_pass.append(sum(r["out"]["bits"] for r in recs)
                                / sum(r["out"]["t_simulate"] for r in recs))
            out[f"mc_{group}_bits_per_s"] = (statistics.median(per_pass), "bits/s")
        per_pass = []
        for p in passes:
            recs = [(c, rec) for c, rec in zip(calls, p["calls"]) if c["kind"] == "feedback"]
            per_pass.append(sum(c["trials"] for c, _ in recs) / sum(r["t"] or 0.0 for _, r in recs))
        out["fb_trials_per_s"] = (statistics.median(per_pass), "1/s")
        out["fewest_errors_per_simulate"] = (min(
            rec["out"]["errors"] for p in passes for c, rec in zip(calls, p["calls"])
            if c["kind"] == "simulate" and rec["out"]
        ), "count")
    return out


def check_all(calls: list[dict], passes: list[dict]) -> tuple[int, int, int, list[str]]:
    """(attempted, unexpected failures, known failures, messages).

    Identical outputs of one call in several passes are checked once.
    """
    import checks

    attempted = failed = known = 0
    verdicts: dict[tuple[int, str], tuple[list[str], bool]] = {}
    messages = []
    for p in passes:
        for i, (c, rec) in enumerate(zip(calls, p["calls"])):
            out = dict(rec["out"] or {})
            out.pop("t_simulate", None)
            if c["kind"] == "cli":
                out["stdout"] = "\n".join(
                    line for line in out.get("stdout", "").splitlines()
                    if not line.startswith("# timestamp:")
                )
            key = (i, json.dumps([rec["error"], out], sort_keys=True))
            if key not in verdicts:
                verdicts[key] = checks.check(c, rec)
                messages += verdicts[key][0]
            fails, is_known = verdicts[key]
            attempted += 1
            if fails and is_known:
                known += 1
            elif fails:
                failed += 1
    return attempted, failed, known, messages


def _cpu_info() -> dict:
    info = {"nproc": os.cpu_count(), "cpu_model": platform.processor() or "unknown", "caches": {}}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        base = "/sys/devices/system/cpu/cpu0/cache"
        for entry in sorted(os.listdir(base)):
            def read(name, entry=entry):
                with open(os.path.join(base, entry, name)) as fh:
                    return fh.read().strip()
            info["caches"][f"L{read('level')}{read('type')[0].lower()}"] = read("size")
    except OSError:
        pass
    return info


def metadata(args, passes: int) -> dict:
    import numpy
    import scipy

    commit = "unknown"  # the benchmark may run from an exported tree
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                    cwd=ROOT, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": passes,
        "trace": bool(args.trace),
        **_cpu_info(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.CALLS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "bitarq", "__init__.py")):
        print(f"error: no bitarq sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    passes = max(MIN_PASSES, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    meta = metadata(args, passes)
    run_dir = os.path.join(WORK_DIR, str(os.getpid()))
    os.makedirs(run_dir, exist_ok=True)
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed)]
        setup = [spawn_worker(common + ["--setup-only"], WORKER_TIMEOUT_S)
                 for _ in range(SETUP_SAMPLES - 1)]
        out_path = os.path.join(run_dir, "result.json")
        run_args = common + ["--out", out_path]
        if args.trace:
            half = max(1, passes // 2)
            run_args += ["--passes", str(half), "--traced-passes", str(half)]
        else:
            run_args += ["--passes", str(passes)]
        setup.append(spawn_worker(run_args, WORKER_TIMEOUT_S))
        with open(out_path) as fh:
            result = json.load(fh)

        calls = result["calls"]
        all_passes = result["passes"] + result.get("traced_passes", [])
        attempted, failed, known, messages = check_all(calls, all_passes)

        report = {"meta": meta, "failures": messages}
        lat = latencies(args.workload, calls, result["passes"])
        tail_value, tail_pct = tail(lat)
        e2e = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(p["wall"] for p in result["passes"]),
            "call_p50_ms": statistics.median(lat) * 1000.0,
            "call_tail_ms": tail_value * 1000.0,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        report["end_to_end"] = {k: [v, END_TO_END[k]] for k, v in e2e.items()}
        report["tail"] = {"percentile": tail_pct, "samples": len(lat)}
        report["setup_samples_s"] = setup
        extra = workload_metrics(args.workload, calls, result["passes"])
        extra["failed_frac"] = ((failed + known) / attempted, "ratio")
        report["workload_metrics"] = extra

        if args.trace:
            import layers

            per_layer, missing, detail = layers.compute(result)
            units = layers.metric_units()
            metrics = {k: {"value": v, "unit": units[k]} for k, v in per_layer.items()}
            report.update(per_layer=per_layer, missing=missing, trace_detail=detail)
        else:
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}

        os.makedirs(OUT_DIR, exist_ok=True)
        name = f"{args.workload}-trace{args.trace}"
        for stale in os.listdir(OUT_DIR):
            if stale.startswith(f"{name}-spans-"):
                os.remove(os.path.join(OUT_DIR, stale))
        for i, path in enumerate(result.get("trace_files", [])):
            shutil.move(path, os.path.join(OUT_DIR, f"{name}-spans-{i}.npz"))
        with open(os.path.join(OUT_DIR, f"{name}.json"), "w") as fh:
            json.dump(report, fh, indent=1)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if os.path.isdir(WORK_DIR) and not os.listdir(WORK_DIR):
            os.rmdir(WORK_DIR)

    _print_report(args, report, metrics, attempted, failed, known)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _print_report(args, report, metrics, attempted, failed, known) -> None:
    print(f"# meta: {json.dumps(report['meta'])}")
    for msg in report["failures"][:20]:
        print(f"# check failed: {msg}")
    print(f"# calls: {attempted} attempted, {failed} failed"
          + (f", {known} failed as documented defects (marked in the check messages)" if known else ""))
    t = report["tail"]
    print(f"# call_tail_ms is p{t['percentile']:.1f} of {t['samples']} call samples")
    for k, (v, unit) in report["end_to_end"].items():
        print(f"{k} = {v:.6g} {unit}")
    for k, (v, unit) in report["workload_metrics"].items():
        print(f"{k} = {v:.6g} {unit}")
    if args.trace:
        wall = report["per_layer"]["trace.wall_s"]
        print(f"# traced pass wall_s = {wall:.4g} s; self time per pass by span:")
        for name, self_ms, calls in report["trace_detail"]["self_ms_per_pass"][:16]:
            print(f"#   {name:48s} {self_ms:10.2f} ms  {calls:10.0f} calls")
        for layer, category, n in report["trace_detail"]["warnings"]:
            print(f"# warnings {layer}.{category} = {n:g} per pass")
        for layer, kind, n in report["trace_detail"]["errors"]:
            print(f"# errors {layer}.{kind} = {n:g} per pass")
        if report["missing"]:
            print(f"# missing (reported as 0): {', '.join(report['missing'])}")
        for k, m in metrics.items():
            print(f"{k} = {m['value']:.6g} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
