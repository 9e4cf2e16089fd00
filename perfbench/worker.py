"""Run one workload in a fresh interpreter and record timings and outputs.

    python3 perfbench/worker.py --workload design --seed 1 --passes 4 --out r.json

Set-up (imports, input generation, one warm-up call) ends with the line
``ready <CLOCK_MONOTONIC seconds>`` on stdout, which lets the parent time
set-up from process spawn.  The worker then makes ``--passes`` passes over
the workload's fixed call list, one call at a time, and writes every call's
latency and output to ``--out``; it checks nothing itself.  With
``--traced-passes`` it afterwards installs the span tracer and makes that
many more passes, dumping the spans next to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, HERE]

import workloads  # noqa: E402

CHILD_TIMEOUT_S = 120.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _sweep_result(res) -> dict:
    return {
        "grid": [list(cell) for cell in res.grid],
        "minimizer": res.minimizer,
        "min_ber": res.min_ber,
        "min_ber_exact": res.min_ber_exact,
        "refined": res.refined,
        "boundary": res.boundary,
        "unimodal": res.unimodal,
        "thresholds": list(res.thresholds),
        "windows": list(res.windows),
        "forward_rate": res.forward_rate,
    }


class Design:
    """Optimizer calls and in-process CLI sweeps."""

    def __init__(self):
        import bitarq.cli
        import bitarq.model
        import bitarq.optimize

        self.cli, self.model, self.optimize = bitarq.cli, bitarq.model, bitarq.optimize

    def warm_up(self, calls):
        link = self.model.LinkModel(10.0 ** (calls[0]["snr_db"] / 10.0))
        self.optimize.optimize_window(workloads.PACKET_BITS, 1, link, points=workloads.POINTS)

    def call(self, c):
        """Returns (latency seconds, raw result); the result is encoded later."""
        if c["kind"] == "optimize":
            runner = getattr(self.optimize, f"optimize_{c['strategy']}")
            link = self.model.LinkModel(10.0 ** (c["snr_db"] / 10.0))
            t0 = time.perf_counter()
            res = runner(workloads.PACKET_BITS, c["d"], link, points=workloads.POINTS)
            return time.perf_counter() - t0, res
        argv = [f"sweep-{c['strategy']}", "--snr-db", str(c["snr_db"]), "--d", str(c["d"]),
                "--n", str(workloads.PACKET_BITS), "--points", str(workloads.POINTS),
                "--reproducible"]
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
        return time.perf_counter() - t0, (rc, buf.getvalue())

    @staticmethod
    def encode(c, raw):
        if c["kind"] == "optimize":
            return _sweep_result(raw)
        return {"rc": raw[0], "stdout": raw[1]}


class Linksim:
    """Monte Carlo runs at optimizer-like operating points, plus feedback search."""

    def __init__(self):
        import bitarq.feedback
        import bitarq.mc
        import bitarq.model
        import bitarq.optimize

        self.feedback, self.mc = bitarq.feedback, bitarq.mc
        self.model, self.optimize = bitarq.model, bitarq.optimize

    def warm_up(self, calls):
        link = self.model.LinkModel(1.0)
        us = self.optimize.equal_probability_thresholds(1, 0.2, link)
        cfg = self.model.ProtocolConfig(workloads.PACKET_BITS, 1, thresholds=us)
        self.mc.simulate(cfg, link, "preassigned", workloads.PACKET_BITS, 0, n_jobs=1)

    def _config(self, c, link):
        m, n, d = self.model, workloads.PACKET_BITS, c["d"]
        if c["ladder"] == "equal_probability":
            us = self.optimize.equal_probability_thresholds(d, c["p"], link)
            return m.ProtocolConfig(n, d, thresholds=us)
        if c["ladder"] == "shared":
            u = self.optimize.equal_probability_thresholds(1, c["p"], link)[0]
            return m.ProtocolConfig(n, d, strategy=m.FixedThreshold(u), thresholds=(u,) * d)
        if c["window"] is not None:
            return m.ProtocolConfig(n, d, strategy=m.FixedWindow(c["p"]), windows=(c["window"],) * d)
        return m.ProtocolConfig(n, d)

    def call(self, c):
        if c["kind"] == "simulate":
            t0 = time.perf_counter()
            link = self.model.LinkModel(c["snr"])
            cfg = self._config(c, link)
            t1 = time.perf_counter()
            rep = self.mc.simulate(cfg, link, c["scheme"], c["bits"], c["seed"], n_jobs=1)
            t2 = time.perf_counter()
            return t2 - t0, (cfg, rep, t2 - t1)
        if c["kind"] == "feedback":
            t0 = time.perf_counter()
            ks, idles = self.feedback.simulate_permutation_search(
                c["n"], c["w"], c["c1"], c["trials"], c["seed"]
            )
            return time.perf_counter() - t0, (ks, idles)
        t0 = time.perf_counter()
        msg = self.feedback.permutation_search(c["targets"], c["n"], c["w"], c["c1"], c["seed"])
        back = self.feedback.permutation_recover(msg, c["n"], c["w"], c["seed"])
        return time.perf_counter() - t0, (msg, back)

    @staticmethod
    def encode(c, raw):
        if c["kind"] == "simulate":
            cfg, rep, t_sim = raw
            return {
                "thresholds": None if cfg.thresholds is None else list(cfg.thresholds),
                "windows": None if cfg.windows is None else list(cfg.windows),
                "bits": rep.bits_simulated,
                "errors": rep.bit_errors,
                "retransmitted": list(rep.retransmitted_bits),
                "rate": rep.forward_rate_realized,
                "t_simulate": t_sim,
            }
        if c["kind"] == "feedback":
            ks, idles = raw
            return {"ks": [int(k) for k in ks], "idles": [int(i) for i in idles]}
        msg, back = raw
        return {"residual": msg.residual, "idle": msg.idle_periods, "width": msg.bit_width,
                "stream_index": msg.stream_index, "recovered": list(back)}


class ReadmeCli:
    """Every README example as a fresh ``python -m bitarq.cli`` process."""

    def __init__(self):
        import bitarq.cli  # noqa: F401  (set-up of this workload is this import)

        self.env = child_env()
        self.trace_dir = None  # set for traced passes
        self.trace_files: list[str] = []

    def warm_up(self, calls):
        pass

    def call(self, c):
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "bitarq.cli", *c["argv"]]
        else:
            out = os.path.join(self.trace_dir, f"cli-{len(self.trace_files)}.npz")
            self.trace_files.append(out)
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), out, *c["argv"]]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
        return time.perf_counter() - t0, proc

    @staticmethod
    def encode(c, proc):
        return {"rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr[-2000:]}


RUNNERS = {"design": Design, "linksim": Linksim, "readme-cli": ReadmeCli}


def run_pass(runner, calls, tracer=None) -> dict:
    """One closed-loop pass: each call starts after the previous returned.

    Warnings are recorded per call (and handed to the tracer, if any), so
    the checks can tell which results bitarq itself flagged.
    """
    raw = []
    t0 = time.perf_counter()
    for c in calls:
        span = tracer.open(f"bench.{c['kind']}") if tracer is not None else None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                latency, result = runner.call(c)
                raw.append((latency, result, None, caught))
            except Exception as exc:  # the checks count it as a failed call
                raw.append((None, None, f"{type(exc).__name__}: {exc}", caught))
            finally:
                if span is not None:
                    tracer.close(span)
        if tracer is not None:
            tracer.record_warnings(caught)
    wall = time.perf_counter() - t0
    records = []
    for c, (latency, result, error, caught) in zip(calls, raw):
        records.append({
            "t": latency,
            "error": error,
            "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
            "out": None if error else runner.encode(c, result),
        })
    return {"wall": wall, "calls": records}


def import_profile() -> str:
    """``-X importtime`` report of a fresh ``import bitarq.cli``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import bitarq.cli"],
        capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
    )
    return proc.stderr


def maxrss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--traced-passes", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    runner = RUNNERS[args.workload]()
    calls = workloads.CALLS[args.workload](args.seed)
    runner.warm_up(calls)
    print(f"ready {time.clock_gettime(time.CLOCK_MONOTONIC)!r}", flush=True)
    if args.setup_only:
        return 0

    result = {"workload": args.workload, "seed": args.seed, "calls": calls}
    result["passes"] = [run_pass(runner, calls) for _ in range(args.passes)]
    who = resource.RUSAGE_CHILDREN if args.workload == "readme-cli" else resource.RUSAGE_SELF
    result["peak_rss_mb"] = maxrss_mb(who)

    if args.traced_passes:
        import tracing

        result["import_profile"] = [import_profile() for _ in range(3)]
        base = os.path.splitext(args.out)[0]
        tracer = tracing.Tracer()
        tracing.install(tracer)
        if isinstance(runner, ReadmeCli):
            runner.trace_dir = os.path.dirname(args.out)
        result["traced_passes"] = [
            run_pass(runner, calls, tracer) for _ in range(args.traced_passes)
        ]
        tracer.uninstall()
        tracer.dump(base + "-spans.npz")
        result["trace_files"] = [base + "-spans.npz"] + getattr(runner, "trace_files", [])

    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
