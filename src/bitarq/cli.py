"""Command-line surface emitting machine-readable sweep and table files.

Output is comma-separated text with a ``#``-prefixed header block that
echoes the tool version and the fully resolved configuration.  dB values
are converted to linear SNR here and nowhere else.  Exit codes: 0 on
success, 2 on invalid configuration, 3 on numeric failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from datetime import datetime, timezone
from functools import cache, partial

from . import __version__
from .errors import BitarqError, ConfigurationError, NumericFailureError
from .model import (MAX_SNR_DB, SCHEMES, STRATEGIES, LinkModel, ProtocolConfig, check_search,
                    check_whole_packets, optimal_c1, scheme_protocol)

# Each runner makes every check that needs no numeric layer, then imports only
# the layers its path uses, so a configuration error exits before NumPy or SciPy
# loads.  `import bitarq.cli`, --version, fusion-plan and fit-check load neither;
# feedback-sim and simulate load NumPy alone, unless `model.scheme_protocol` needs a
# threshold ladder or the shared-threshold rate: only those, the sweeps and optimize
# load the optimizer and SciPy (simulate --scheme preassigned or --threshold).

_THREADS_ENV = "BITARQ_THREADS"


def _db_to_linear(db: float) -> float:
    if db > MAX_SNR_DB:
        raise ConfigurationError(f"--snr-db {db} is above the {MAX_SNR_DB:g} dB ceiling")
    snr = 10.0 ** (db / 10.0)
    if snr == 0.0:
        raise ConfigurationError(f"--snr-db {db} is so low that the linear SNR underflows to 0")
    return snr


def _n_jobs() -> int | None:
    text = os.environ.get(_THREADS_ENV)
    try:
        jobs = None if text is None else int(text)  # None: every usable core
    except ValueError:
        jobs = 0
    if jobs is not None and jobs < 1:
        raise ConfigurationError(f"{_THREADS_ENV} must be a positive integer, got {text!r}")
    return jobs


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text} is not a finite number")
    return value


def _number(kind, positive=True):
    """argparse type: ``kind(text)``, positive or (``positive=False``) non-negative."""
    problem = "not positive" if positive else "negative"

    def parse(text: str):  # argparse's "invalid parse value" error names this function
        value = kind(text)
        if value < 0 or (positive and value == 0):
            raise argparse.ArgumentTypeError(f"{text} is {problem}")
        return value

    return parse


class _Output:
    """Collects header comments and rows; atomic file replacement on write."""

    def __init__(self, command: str, reproducible: bool):
        self.lines: list[str] = [f"# tool: bitarq {__version__}", f"# command: {command}"]
        if not reproducible:
            self.lines.append(f"# timestamp: {datetime.now(timezone.utc).isoformat()}")

    def config(self, **items) -> None:
        resolved = " ".join(f"{k}={v}" for k, v in sorted(items.items()))
        self.lines.append(f"# config: {resolved}")

    def row(self, *cells) -> None:
        self.lines.append(",".join("" if c is None else str(c) for c in cells))

    def raw(self, text: str) -> None:
        if text:
            self.lines.extend(text.split("\n"))

    def write(self, path: str | None) -> None:
        body = "\n".join(self.lines) + "\n"
        if path is None:
            sys.stdout.write(body)
            return
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".bitarq-")
            with os.fdopen(fd, "w") as fh:
                fh.write(body)
            os.replace(tmp, path)
        except OSError as exc:  # a missing directory, a directory as path, a full disk, ...
            raise ConfigurationError(f"cannot write {path}: {exc.strerror or exc}") from None
        finally:
            if tmp is not None and os.path.exists(tmp):  # gone once replaced
                os.unlink(tmp)


def _fmt(x: float) -> str:
    return f"{x:.10e}"


# ---------------------------------------------------------------------------
# sweep commands
# ---------------------------------------------------------------------------


def _run_sweep(kind: str, args, out: _Output) -> None:
    base_snr = _db_to_linear(args.snr_db)
    jobs = _n_jobs()
    if args.bits:
        check_whole_packets(args.bits, args.n)
        from .mc import simulate
    from .analytic import ber_approx, ber_exact
    from .optimize import sweep_blocks, threshold_u_max

    u_max = None
    if kind == "threshold":
        u_max = args.u_max if args.u_max is not None else threshold_u_max(base_snr)
    out.config(
        snr_db=args.snr_db, n=args.n, d=args.d, points=args.points,
        bits=args.bits, seed=args.seed,
        **({"u_max": round(u_max, 6)} if kind == "threshold" else {}),
    )
    name = {"rate": "rf", "window": "w_over_n", "threshold": "u_norm"}[kind]
    out.row(name, "ber_approx", "ber_exact", "ber_mc", "mc_stderr")
    for block, us, _, snr_eff in sweep_blocks(kind, args.points, args.n, args.d, base_snr, u_max):
        approx = ber_approx(snr_eff, us)
        exact = ber_exact(snr_eff, us)
        for k, x in enumerate(block):
            mc = stderr = None
            if args.bits:
                cfg = ProtocolConfig(args.n, args.d, thresholds=[u[k] for u in us])
                rep = simulate(
                    cfg, LinkModel(float(snr_eff[k])), "preassigned", args.bits, args.seed,
                    n_jobs=jobs,
                )
                mc, stderr = _fmt(rep.ber), _fmt(rep.stderr)
            out.row(f"{x:.8f}", _fmt(approx[k]), _fmt(exact[k]), mc, stderr)


# ---------------------------------------------------------------------------
# subcommand runners
# ---------------------------------------------------------------------------


def _run_optimize(args, out: _Output) -> None:
    base = LinkModel(_db_to_linear(args.snr_db))
    from .optimize import optimize_rate, optimize_threshold, optimize_window

    out.config(strategy=args.strategy, snr_db=args.snr_db, n=args.n, d=args.d, points=args.points)
    runner = {"rate": optimize_rate, "window": optimize_window, "threshold": optimize_threshold}
    res = runner[args.strategy](args.n, args.d, base, points=args.points)
    out.row(
        "strategy", "minimizer", "min_ber_approx", "min_ber_exact",
        "forward_rate", "boundary", "refined", "unimodal",
    )
    out.row(
        args.strategy, f"{res.minimizer:.8f}", _fmt(res.min_ber), _fmt(res.min_ber_exact),
        f"{res.forward_rate:.8f}", res.boundary, res.refined, res.unimodal,
    )


def _strategy_flag(args) -> tuple[str, float] | None:
    """The strategy flag given as (name, value), or None; which schemes take one,
    and its range, are `model.scheme_protocol`'s rules."""
    given = [(k, getattr(args, k)) for k in STRATEGIES if getattr(args, k) is not None]
    if len(given) > 1:
        raise ConfigurationError("give at most one of --rate, --window, --threshold")
    return given[0] if given else None


def _run_simulate(args, out: _Output) -> None:
    base_snr = _db_to_linear(args.snr_db)
    flag = _strategy_flag(args)
    jobs = _n_jobs()
    check_whole_packets(args.bits, args.n)
    cfg, snr_eff = scheme_protocol(args.scheme, flag, args.n, args.d, base_snr)
    from .mc import simulate

    out.config(
        scheme=args.scheme, snr_db=args.snr_db, n=args.n, d=args.d, bits=args.bits,
        seed=args.seed, rate=args.rate, window=args.window, threshold=args.threshold,
        equalized_snr=f"{snr_eff:.10g}",
        # recorded only when given, so the header of a default run is unchanged
        **({"equalize_energy": True} if args.equalize_energy else {}),
    )
    link = LinkModel(snr_eff) if args.equalize_energy else LinkModel(base_snr)
    rep = simulate(cfg, link, args.scheme, args.bits, args.seed, n_jobs=jobs)
    out.row("scheme", "bits", "errors", "ber", "stderr", "rate_realized", "retransmitted")
    out.row(
        args.scheme, rep.bits_simulated, rep.bit_errors, _fmt(rep.ber), _fmt(rep.stderr),
        f"{rep.forward_rate_realized:.8f}", ";".join(map(str, rep.retransmitted_bits)),
    )


def _run_feedback_sim(args, out: _Output) -> None:
    *_, total = check_search(args.n, args.w, args.c1 or 1)  # a derived c1 is at least 1
    c1 = args.c1 if args.c1 is not None else optimal_c1(args.n, args.w)
    from .feedback import expected_idle_periods, simulate_permutation_search, throughput_one_retx

    out.config(n=args.n, w=args.w, c1=c1, trials=args.trials, seed=args.seed)
    ks, idles = simulate_permutation_search(args.n, args.w, c1, args.trials, args.seed)
    mean_k = float(ks.mean())
    mean_idle = float(idles.mean())
    delay = mean_idle + 1.0 + c1
    out.row(
        "trials", "c1", "c1_opt", "mean_k", "expected_k", "mean_idle",
        "expected_idle", "mean_delay", "throughput",
    )
    out.row(
        args.trials, c1, optimal_c1(args.n, args.w), f"{mean_k:.4f}",
        total, f"{mean_idle:.6f}",
        f"{expected_idle_periods(args.n, args.w, c1):.6f}", f"{delay:.6f}",
        f"{throughput_one_retx(args.n, delay):.6f}",
    )


def _tech(name: str):
    from .fusion import TECHNOLOGIES

    if name not in TECHNOLOGIES:
        raise ConfigurationError(f"unknown technology {name!r} (choose from {sorted(TECHNOLOGIES)})")
    return TECHNOLOGIES[name]


def _run_fusion_plan(args, out: _Output) -> None:
    from .fusion import schedule_uplink, serialize_plan

    tech = _tech(args.tech)
    n = args.n if args.n is not None else tech.packet_bits
    block_bits = args.block_bits if args.block_bits is not None else n
    out.config(tech=args.tech, n=n, w=args.w, d=args.d, blocks=args.blocks, block_bits=block_bits)
    plan = schedule_uplink(n, args.w, args.d, args.blocks, block_bits)
    out.raw(serialize_plan(plan))


def _run_fusion_feasibility(args, out: _Output) -> None:
    from .fusion import SegmentedDesign, feasible

    tech = _tech(args.tech)
    design = SegmentedDesign(tech, args.pf, args.pr, args.nseg, args.wseg)
    out.config(tech=args.tech, pf=args.pf, pr=args.pr, nseg=args.nseg, wseg=args.wseg)
    verdict = feasible(design)
    out.row("tech", "p_f", "p_r", "n_seg", "w_seg", "c_tot", "ppf", "ppr", "feasible", "reasons")
    out.row(
        args.tech, args.pf, args.pr, args.nseg, args.wseg, design.c_tot,
        f"{verdict.ppf:.6f}", f"{verdict.ppr:.6e}", verdict.feasible, ";".join(verdict.reasons),
    )


def _run_fit_check(args, out: _Output) -> None:
    from .fusion import required_snr

    tech = _tech(args.tech)
    out.config(tech=args.tech, ber=args.ber)
    out.row("tech", "target_ber", "snr_db")
    out.row(args.tech, args.ber, f"{required_snr(tech, args.ber):.2f}")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_design(p: argparse.ArgumentParser) -> None:
    """The link and grid options the sweeps and ``optimize`` share."""
    p.add_argument("--snr-db", type=_finite, required=True)
    p.add_argument("--n", type=_number(int), default=1024)
    p.add_argument("--d", type=_number(int), required=True)
    p.add_argument("--points", type=_number(int), default=64)


@cache  # once per process; argparse reads the terminal width anew for each message
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitarq",
        description="Bitwise selective-retransmission analysis, simulation and design",
    )
    parser.add_argument("--version", action="version", version=f"bitarq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for kind in STRATEGIES:
        p = sub.add_parser(f"sweep-{kind}", help=f"BER sweep over the {kind} parameter")
        _add_design(p)
        p.add_argument("--bits", type=_number(int, positive=False), default=0,
                       help="Monte Carlo bits per grid point (0 = analytic only)")
        p.add_argument("--seed", type=_number(int, positive=False), default=0)
        if kind == "threshold":
            p.add_argument("--u-max", type=_number(_finite), default=None)
        p.set_defaults(func=partial(_run_sweep, kind))

    p = sub.add_parser("optimize", help="minimize BER over one strategy parameter")
    p.add_argument("--strategy", choices=STRATEGIES, required=True)
    _add_design(p)
    p.set_defaults(func=_run_optimize)

    p = sub.add_parser("simulate", help="Monte Carlo link simulation")
    p.add_argument("--scheme", choices=SCHEMES, default="sequential")
    p.add_argument("--snr-db", type=_finite, required=True)
    p.add_argument("--n", type=_number(int), default=1024)
    p.add_argument("--d", type=_number(int, positive=False), required=True)
    p.add_argument("--bits", type=_number(int), required=True)
    p.add_argument("--seed", type=_number(int, positive=False), default=0)
    p.add_argument("--rate", type=_number(_finite), default=None)
    p.add_argument("--window", type=_number(_finite), default=None,
                   help="window fraction W/N in (0, 1]")
    p.add_argument("--threshold", type=_number(_finite), default=None,
                   help="shared normalized reliability threshold")
    p.add_argument("--equalize-energy", action="store_true",
                   help="scale the symbol SNR by the forward rate")
    p.set_defaults(func=_run_simulate)

    p = sub.add_parser("feedback-sim", help="synchronized subset-stream search statistics")
    p.add_argument("--n", type=_number(int), required=True)
    p.add_argument("--w", type=_number(int), required=True)
    p.add_argument("--c1", type=_number(int), default=None)
    p.add_argument("--trials", type=_number(int), default=10000)
    p.add_argument("--seed", type=_number(int, positive=False), default=0)
    p.set_defaults(func=_run_feedback_sim)

    p = sub.add_parser("fusion-plan", help="uplink packet-content schedule")
    p.add_argument("--tech", default="zigbee")
    p.add_argument("--n", type=_number(int), default=None)
    p.add_argument("--w", type=_number(int), required=True)
    p.add_argument("--d", type=_number(int, positive=False), required=True)
    p.add_argument("--blocks", type=_number(int, positive=False), required=True)
    p.add_argument("--block-bits", type=_number(int), default=None)
    p.set_defaults(func=_run_fusion_plan)

    p = sub.add_parser("fusion-feasibility", help="segmented-design feasibility probabilities")
    p.add_argument("--tech", required=True)
    p.add_argument("--pf", type=_number(_finite), required=True)
    p.add_argument("--pr", type=_number(_finite), required=True)
    p.add_argument("--nseg", type=_number(int), required=True)
    p.add_argument("--wseg", type=_number(int), required=True)
    p.set_defaults(func=_run_fusion_feasibility)

    p = sub.add_parser("fit-check", help="SNR required for a target technology BER")
    p.add_argument("--tech", required=True)
    p.add_argument("--ber", type=_number(_finite), required=True)
    p.set_defaults(func=_run_fit_check)

    for p in sub.choices.values():  # last, so every usage line ends with them
        p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
        p.add_argument(
            "--reproducible", action="store_true",
            help="suppress the timestamp header for byte-identical reruns",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = _Output(args.command, args.reproducible)
    try:
        args.func(args, out)
        out.write(args.output)
    except NumericFailureError as exc:
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return 3
    except BitarqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
