import contextlib
import io
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bitarq
from bitarq import LinkModel
from bitarq.cli import main
from bitarq.mc import simulate
from bitarq.model import scheme_protocol
from bitarq.optimize import optimize_rate, optimize_threshold, optimize_window
from reference_designs import REFERENCE_SCHEDULE


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def body(text: str) -> str:
    return "\n".join(l for l in text.splitlines() if not l.startswith("#"))


class TestFitCheck:
    def test_wifi_point(self, capsys):
        code, out, _ = run(capsys, "fit-check", "--tech", "wifi", "--ber", "1e-4",
                           "--reproducible")
        assert code == 0
        assert body(out) == "tech,target_ber,snr_db\nwifi,0.0001,6.63"

    def test_unknown_tech(self, capsys):
        code, _, err = run(capsys, "fit-check", "--tech", "lte", "--ber", "1e-4")
        assert code == 2
        assert "error:" in err

    def test_out_of_range_target(self, capsys):
        code, _, err = run(capsys, "fit-check", "--tech", "wifi", "--ber", "0.5")
        assert code == 2
        assert "error:" in err


class TestFusionPlan:
    def test_reference_schedule(self, capsys):
        code, out, _ = run(capsys, "fusion-plan", "--tech", "zigbee", "--w", "4",
                           "--d", "3", "--blocks", "10", "--reproducible")
        assert code == 0
        assert body(out) == REFERENCE_SCHEDULE

    def test_header_echoes_config(self, capsys):
        _, out, _ = run(capsys, "fusion-plan", "--tech", "zigbee", "--w", "4",
                        "--d", "3", "--blocks", "2", "--reproducible")
        header = [l for l in out.splitlines() if l.startswith("#")]
        assert any("blocks=2" in l and "w=4" in l for l in header)
        assert any(l.startswith("# tool: bitarq") for l in header)

    def test_unknown_tech_rejected_even_with_explicit_n(self, capsys):
        code, out, err = run(capsys, "fusion-plan", "--tech", "nope", "--n", "100", "--w", "4",
                             "--d", "3", "--blocks", "2")
        assert code == 2
        assert out == ""
        assert "nope" in err


class TestSweeps:
    def test_rate_sweep_columns(self, capsys):
        code, out, _ = run(capsys, "sweep-rate", "--snr-db", "5", "--d", "1",
                           "--n", "256", "--points", "6", "--reproducible")
        assert code == 0
        rows = body(out).splitlines()
        assert rows[0] == "rf,ber_approx,ber_exact,ber_mc,mc_stderr"
        assert len(rows) == 7
        assert all(r.endswith(",,") for r in rows[1:])  # no MC columns without bits

    def test_mc_columns_filled(self, capsys):
        code, out, _ = run(capsys, "sweep-window", "--snr-db", "0", "--d", "1",
                           "--n", "200", "--points", "2", "--bits", "200000",
                           "--seed", "5", "--reproducible")
        assert code == 0
        rows = body(out).splitlines()[1:]
        assert all(len(r.split(",")) == 5 and r.split(",")[3] for r in rows)

    def test_closed_form_capped_at_one_half(self, capsys):
        # the tail fit leaves its range at -20 dB: uncapped, the last two cells read 0.585, 0.665
        code, out, _ = run(capsys, "sweep-rate", "--snr-db=-20", "--d", "1",
                           "--points", "3", "--reproducible")
        assert code == 0
        rows = [r.split(",") for r in body(out).splitlines()[1:]]
        assert [r[1] for r in rows] == ["4.9796546006e-01", "5.0000000000e-01", "5.0000000000e-01"]
        assert all(float(r[2]) < 0.5 for r in rows)

    @pytest.mark.parametrize("argv", [
        ("sweep-rate", "--snr-db", "5", "--d", "1", "--n", "1", "--points", "2"),
        ("optimize", "--strategy", "rate", "--snr-db", "5", "--d", "1", "--n", "1"),
    ], ids=["sweep-rate", "optimize"])
    def test_one_bit_packet_has_no_rate_above_full_retransmission(self, capsys, monkeypatch,
                                                                  argv):
        # rate_range(1, 1) is (0.5, 0.5]: sweep-rate printed rows at rf 0.5, and
        # optimize solved all 64 ladders before window_size rejected the minimizer
        import bitarq.optimize as optimize_mod

        def no_ladder(*args):
            raise AssertionError("a ladder was solved")

        monkeypatch.setattr(optimize_mod, "_ladder_thresholds", no_ladder)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "full-retransmission rate" in err

    def test_reproducible_runs_identical(self, capsys):
        args = ("sweep-threshold", "--snr-db", "2.5", "--d", "1", "--n", "128",
                "--points", "4", "--bits", "128000", "--seed", "3", "--reproducible")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestSimulate:
    def test_repetition_baseline(self, capsys):
        code, out, _ = run(capsys, "simulate", "--scheme", "full_repetition",
                           "--snr-db", "0", "--n", "1000", "--d", "1",
                           "--bits", "500000", "--seed", "7", "--reproducible")
        assert code == 0
        row = body(out).splitlines()[1].split(",")
        ber = float(row[3])
        assert 0.02 < ber < 0.026
        assert row[5] == "0.50000000"

    def test_requires_one_strategy_parameter(self, capsys):
        code, _, err = run(capsys, "simulate", "--scheme", "sequential",
                           "--snr-db", "0", "--n", "100", "--d", "1",
                           "--bits", "100000")
        assert code == 2
        assert "exactly one" in err

    def test_same_seed_same_errors(self, capsys):
        args = ("simulate", "--scheme", "sequential", "--snr-db", "3",
                "--n", "500", "--d", "2", "--bits", "500000", "--seed", "11",
                "--window", "0.2", "--reproducible")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_window_above_one_rejected(self, capsys):
        code, out, err = run(capsys, "simulate", "--scheme", "sequential", "--snr-db", "3",
                             "--n", "10", "--d", "1", "--bits", "1000", "--window", "1.5")
        assert code == 2
        assert out == ""
        assert err == "error: window fraction 1.5 outside (0, 1]\n"  # model.window_size's rule

    @pytest.mark.parametrize("scheme, d, flags", [
        ("full_repetition", "1", ("--threshold", "1", "--rate", "0.7")),
        ("full_repetition", "2", ("--window", "0.2")),
        ("sequential", "0", ("--rate", "0.7")),
    ])
    def test_strategy_flags_rejected_under_full_repetition(self, capsys, scheme, d, flags):
        code, out, err = run(capsys, "simulate", "--scheme", scheme, "--snr-db", "0",
                             "--n", "100", "--d", d, "--bits", "1000", *flags)
        assert code == 2
        assert out == ""
        # two flags break the CLI's one argv rule before model.scheme_protocol sees the scheme
        assert ("give at most one" if len(flags) > 2 else "full repetition") in err

    def test_window_rounds_half_away(self, capsys):
        # 0.25 * 10 = 2.5 rounds to W = 3: 300 of 1000 bits retransmitted
        code, out, _ = run(capsys, "simulate", "--scheme", "sequential", "--snr-db", "3",
                           "--n", "10", "--d", "1", "--bits", "1000", "--window", "0.25",
                           "--reproducible")
        assert code == 0
        rows = body(out).splitlines()
        row = dict(zip(rows[0].split(","), rows[1].split(",")))
        assert row["retransmitted"] == "300"
        assert row["rate_realized"] == "0.76923077"

    def test_equalize_energy_runs_the_link_at_the_equalized_snr(self, capsys):
        argv = ("simulate", "--scheme", "preassigned", "--snr-db", "3", "--n", "1000",
                "--d", "1", "--bits", "200000", "--window", "0.2", "--seed", "2",
                "--reproducible")
        code, out, _ = run(capsys, *argv, "--equalize-energy")
        assert code == 0
        cfg, snr_eff = scheme_protocol("preassigned", ("window", 0.2), 1000, 1, 10.0 ** 0.3)
        rep = simulate(cfg, LinkModel(snr_eff), "preassigned", 200_000, 2)
        row = dict(zip(*(r.split(",") for r in body(out).splitlines())))
        assert row["errors"] == str(rep.bit_errors)
        assert row["retransmitted"] == str(rep.retransmitted_bits[0])
        assert row["rate_realized"] == f"{rep.forward_rate_realized:.8f}"
        # the ladder retransmits W/N = 20% at the SNR it was resolved for; the
        # default run keeps the link at the base SNR and retransmits fewer
        assert rep.retransmitted_bits[0] / 200_000 == pytest.approx(0.2, abs=0.005)
        _, plain, _ = run(capsys, *argv)
        plain_row = dict(zip(*(r.split(",") for r in body(plain).splitlines())))
        assert int(plain_row["retransmitted"]) / 200_000 < 0.18

    def test_config_header_records_equalize_energy(self, capsys):
        # the two runs simulate different links, so their headers must differ
        argv = ("simulate", "--scheme", "preassigned", "--snr-db", "3", "--n", "1000",
                "--d", "1", "--bits", "20000", "--window", "0.2", "--reproducible")
        configs = []
        for extra in ((), ("--equalize-energy",)):
            code, out, _ = run(capsys, *argv, *extra)
            assert code == 0
            configs.append([l for l in out.splitlines() if l.startswith("# config:")])
        plain, equalized = configs
        assert len(plain) == len(equalized) == 1
        assert "equalize_energy" not in plain[0]
        assert equalized[0] == plain[0].replace(
            " equalized_snr=", " equalize_energy=True equalized_snr="
        )


class TestSweepMatchesOptimizer:
    @pytest.mark.parametrize("kind, optimizer", [
        ("rate", optimize_rate), ("window", optimize_window), ("threshold", optimize_threshold),
    ])
    def test_ber_approx_column_is_optimizer_grid(self, capsys, kind, optimizer):
        code, out, _ = run(capsys, f"sweep-{kind}", "--snr-db", "5", "--d", "2",
                           "--n", "256", "--points", "8", "--reproducible")
        assert code == 0
        column = [r.split(",")[1] for r in body(out).splitlines()[1:]]
        res = optimizer(256, 2, LinkModel(10.0 ** (5.0 / 10.0)), points=8)
        assert column == [f"{b:.10e}" for _, b in res.grid]


class TestThreadsVariable:
    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_rejects_non_positive_integer(self, capsys, monkeypatch, value):
        monkeypatch.setenv("BITARQ_THREADS", value)
        code, _, err = run(capsys, "simulate", "--scheme", "sequential", "--snr-db", "3",
                           "--n", "100", "--d", "1", "--bits", "1000", "--window", "0.2")
        assert code == 2
        assert "BITARQ_THREADS" in err

    def test_unset_runs_on_every_core_with_the_same_report(self, capsys, monkeypatch):
        argv = ("simulate", "--snr-db", "3", "--n", "64", "--d", "2", "--bits", str(64 * 300),
                "--window", "0.25", "--reproducible")  # two full blocks and a partial one
        monkeypatch.delenv("BITARQ_THREADS", raising=False)
        want = run(capsys, *argv)
        assert want[0] == 0
        for value in ("1", "3"):
            monkeypatch.setenv("BITARQ_THREADS", value)
            assert run(capsys, *argv) == want


def test_one_parser_serves_every_call(capsys):
    # built once per process; a failed parse leaves it fit for the next call
    from bitarq.cli import build_parser

    parser = build_parser()
    with pytest.raises(SystemExit):
        main(["simulate", "--snr-db", "x"])
    code, _, _ = run(capsys, "fit-check", "--tech", "wifi", "--ber", "1e-4")
    assert code == 0
    assert build_parser() is parser


def test_cli_import_skips_scipy_stats():
    # scipy.integrate serves only the quadrature oracles and scipy.optimize
    # only fit-check; neither belongs in every command's start-up
    src = str(Path(bitarq.__file__).resolve().parents[1])
    code = ("import sys, bitarq.cli; "
            "print([m in sys.modules for m in ('scipy.stats', 'scipy.integrate', 'scipy.optimize')])")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "[False, False, False]"


@pytest.mark.parametrize("argv,rows", [
    (("simulate", "--snr-db", "3", "--n", "10", "--d", "2", "--bits", "100",
      "--threshold", "1e308"),
     ["sequential,100,0,0.0000000000e+00,1.0000000000e-02,0.33333333,100;100"]),
    (("sweep-threshold", "--snr-db", "3", "--d", "2", "--points", "4", "--u-max", "1e308"),
     ["inf,2.2878407561e-02,2.2878407561e-02,,"] * 3),
])
def test_huge_threshold_runs_without_overflow_warnings(capsys, argv, rows):
    # a threshold this large retransmits every bit; the bounds it implies
    # overflow to inf, which is their right value, not a numeric warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run(capsys, *argv, "--reproducible")
    assert code == 0
    assert body(out).splitlines()[-len(rows):] == rows


class TestFeedbackSim:
    def test_default_width_is_optimal(self, capsys):
        code, out, _ = run(capsys, "feedback-sim", "--n", "16", "--w", "3",
                           "--trials", "200", "--seed", "1", "--reproducible")
        assert code == 0
        rows = body(out).splitlines()
        header = rows[0].split(",")
        values = rows[1].split(",")
        assert values[header.index("c1")] == values[header.index("c1_opt")] == "9"
        assert values[header.index("expected_k")] == "560"

    def test_c1_sets_the_idle_count(self, capsys):
        from bitarq.feedback import expected_idle_periods, simulate_permutation_search

        code, out, _ = run(capsys, "feedback-sim", "--n", "16", "--w", "3", "--trials", "200",
                           "--seed", "1", "--c1", "4", "--reproducible")
        assert code == 0
        assert "# config: c1=4 n=16 seed=1 trials=200 w=3" in out.splitlines()
        header, values = (row.split(",") for row in body(out).splitlines())
        row = dict(zip(header, values))
        assert (row["c1"], row["c1_opt"]) == ("4", "9")
        ks, _ = simulate_permutation_search(16, 3, 9, 200, 1)
        assert row["mean_idle"] == f"{(ks >> 4).mean():.6f}"
        assert row["expected_idle"] == f"{expected_idle_periods(16, 3, 4):.6f}"

    @pytest.mark.parametrize("n, w", [("1024", "4"), ("64", "8")])
    def test_unviable_search_exits_2_at_once(self, capsys, n, w):
        start = time.perf_counter()
        code, out, err = run(capsys, "feedback-sim", "--n", n, "--w", w)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "combinadic" in err


class TestFusionFeasibility:
    def test_row(self, capsys):
        code, out, _ = run(capsys, "fusion-feasibility", "--tech", "zigbee",
                           "--pf", "1e-3", "--pr", "1e-5", "--nseg", "2",
                           "--wseg", "3", "--reproducible")
        assert code == 0
        row = body(out).splitlines()[1].split(",")
        assert row[5] == "50"
        assert float(row[6]) == pytest.approx(0.9978, abs=1e-4)
        assert row[8] == "True"


class TestOutputFiles:
    def test_writes_file(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        code, out, _ = run(capsys, "fit-check", "--tech", "zigbee", "--ber", "1e-3",
                           "-o", str(path), "--reproducible")
        assert code == 0
        assert out == ""
        assert "zigbee,0.001,-1.16" in path.read_text()

    def test_no_partial_file_on_error(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        code, _, _ = run(capsys, "fit-check", "--tech", "zigbee", "--ber", "0.9",
                         "-o", str(path))
        assert code == 2
        assert not path.exists()
        assert not any(p.name.startswith(".bitarq-") for p in tmp_path.iterdir())

    @pytest.mark.parametrize("name, reason", [
        ("missing/out.csv", "No such file or directory"),  # was a FileNotFoundError traceback
        (".", "Is a directory"),  # was an IsADirectoryError traceback
    ], ids=["missing-directory", "directory"])
    def test_unwritable_output_exits_2(self, capsys, tmp_path, name, reason):
        path = tmp_path / name
        code, out, err = run(capsys, "fit-check", "--tech", "wifi", "--ber", "1e-4",
                             "-o", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {path}: {reason}\n"
        assert list(tmp_path.iterdir()) == []  # no .bitarq-* temp file left behind

    def test_numeric_failure_exit_code(self, capsys, monkeypatch):
        from bitarq.errors import NumericFailureError
        import bitarq.fusion as fusion_mod

        def boom(tech, ber):
            raise NumericFailureError("synthetic", 1e-3)

        # fit-check imports required_snr from bitarq.fusion when it runs
        monkeypatch.setattr(fusion_mod, "required_snr", boom)
        code, _, err = run(capsys, "fit-check", "--tech", "zigbee", "--ber", "1e-3")
        assert code == 3
        assert "numeric failure" in err

    def test_default_sweep_is_64_rows_and_unimodal(self, capsys):
        from bitarq.optimize import is_unimodal

        code, out, _ = run(capsys, "sweep-rate", "--snr-db", "5", "--d", "1",
                           "--n", "1024", "--reproducible")
        assert code == 0
        rows = body(out).splitlines()[1:]
        assert len(rows) == 64
        bers = [float(r.split(",")[1]) for r in rows]
        assert is_unimodal(bers, atol=1e-12 * max(bers))

    def test_argparse_rejects_bad_flag_values(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep-rate", "--snr-db", "5", "--d", "0", "--n", "128"])
        assert exc.value.code == 2


class TestFloatOptionsMustBeFinite:
    @pytest.mark.parametrize("argv", [
        ("simulate", "--snr-db", "3", "--n", "10", "--d", "1", "--bits", "100",
         "--window", "nan"),
        ("simulate", "--snr-db", "3", "--n", "10", "--d", "1", "--bits", "100",
         "--threshold", "inf"),
        ("simulate", "--snr-db", "3", "--n", "10", "--d", "1", "--bits", "100",
         "--rate", "inf"),
        ("sweep-threshold", "--snr-db", "5", "--d", "2", "--points", "4", "--u-max", "inf"),
        ("sweep-rate", "--snr-db", "nan", "--d", "1"),
        ("optimize", "--strategy", "rate", "--snr-db=-inf", "--d", "1"),
        ("fusion-feasibility", "--tech", "zigbee", "--pf", "inf", "--pr", "1e-5",
         "--nseg", "2", "--wseg", "3"),
        ("fusion-feasibility", "--tech", "zigbee", "--pf", "1e-3", "--pr", "nan",
         "--nseg", "2", "--wseg", "3"),
        ("fit-check", "--tech", "wifi", "--ber", "nan"),
    ])
    def test_non_finite_value_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "not a finite number" in capsys.readouterr().err

    def test_snr_db_too_large_for_linear_scale_exits_2(self, capsys):
        code, out, err = run(capsys, "sweep-rate", "--snr-db", "1e300", "--d", "1",
                             "--points", "2")
        assert code == 2
        assert out == ""
        assert "--snr-db" in err

    @pytest.mark.parametrize("argv", [
        # above the ceiling the ladders come out wrong (300 dB) or the solvers
        # break down (3080 dB) instead of failing cleanly
        ("optimize", "--strategy", "rate", "--d", "2", "--snr-db", "300"),
        ("sweep-rate", "--d", "1", "--points", "2", "--snr-db", "3080"),
        ("simulate", "--d", "1", "--bits", "8", "--n", "8", "--window", "0.5",
         "--snr-db", "100.5"),
    ])
    def test_snr_db_above_ceiling_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "--snr-db" in err and "100 dB" in err

    def test_snr_db_at_ceiling_runs(self, capsys):
        code, _, _ = run(capsys, "optimize", "--strategy", "window", "--d", "1",
                         "--points", "4", "--snr-db", "100")
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ("sweep-rate", "--d", "1", "--points", "2"),
        ("sweep-window", "--d", "1", "--points", "2"),
        ("sweep-threshold", "--d", "1", "--points", "2"),
        ("optimize", "--strategy", "rate", "--d", "1", "--points", "4"),
        ("simulate", "--d", "1", "--bits", "8", "--n", "8", "--window", "0.5"),
    ])
    def test_snr_db_that_underflows_to_zero_exits_2(self, capsys, argv):
        # 10**(-400) underflows to 0.0, on which a sweep prints BER 0.5 rows
        code, out, err = run(capsys, *argv, "--snr-db", "-4000")
        assert code == 2
        assert out == ""
        assert "--snr-db" in err


_EDGES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 1e-300, -1.0, 0.0]),
    st.floats(),
)
_VALID = {
    "--snr-db": st.floats(-10.0, 20.0), "--rate": st.floats(0.5, 1.0),
    "--window": st.floats(0.01, 1.0), "--threshold": st.floats(0.01, 4.0),
    "--u-max": st.floats(0.01, 6.0), "--pf": st.floats(1e-6, 1e-2),
    "--pr": st.floats(1e-7, 1e-3), "--ber": st.floats(1e-6, 1e-2),
}
_FUZZED = [
    ("simulate", "--snr-db"), ("simulate", "--rate"), ("simulate", "--window"),
    ("simulate", "--threshold"), ("simulate", "ints"), ("sweep-rate", "--snr-db"),
    ("sweep-window", "--snr-db"), ("sweep-threshold", "--snr-db"),
    ("sweep-threshold", "--u-max"), ("sweep-window", "ints"), ("optimize", "--snr-db"),
    ("optimize", "ints"), ("feedback-sim", "ints"), ("fusion-plan", "ints"),
    ("fusion-feasibility", "--pf"), ("fusion-feasibility", "--pr"),
    ("fusion-feasibility", "ints"), ("fit-check", "--ber"),
]


@st.composite
def _argv(draw, command, edge):
    """A small command line for one subcommand. The float option ``edge`` is
    drawn from edge values (non-finite, huge, tiny, negative, zero or any
    float); with ``edge="ints"`` the integer options may be zero or negative."""

    def value(flag):
        # the --flag=x form keeps negative numbers such as -1e+308 from parsing as flags
        return f"{flag}={draw(_EDGES if flag == edge else _VALID[flag])!r}"

    def integer(lo, hi):
        return draw(st.integers(-2 if edge == "ints" else lo, hi))

    if command == "feedback-sim":  # n <= 24 keeps every viable search short
        n = integer(1, 24)
        return [command, "--n", str(n), "--w", str(integer(1, abs(n) + 2)),
                "--trials", str(integer(1, 3)), "--reproducible"]
    tech = ["--tech", draw(st.sampled_from(["zigbee", "wifi", "bluetooth", "nope"]))]
    if command == "fusion-plan":  # few, short blocks keep every schedule small
        argv = [command, *tech, "--w", str(integer(1, 8)), "--d", str(integer(0, 3)),
                "--blocks", str(integer(0, 4)), "--reproducible"]
        for flag in ("--n", "--block-bits"):
            argv += [flag, str(integer(1, 64))] if draw(st.booleans()) else []
        return argv
    if command == "fusion-feasibility":
        return [command, *tech, value("--pf"), value("--pr"), "--nseg", str(integer(1, 8)),
                "--wseg", str(integer(1, 8)), "--reproducible"]
    if command == "fit-check":
        return [command, *tech, value("--ber"), "--reproducible"]
    n = integer(1, 64)
    argv = [command, value("--snr-db"), "--n", str(n), "--reproducible"]
    if command == "simulate":
        strategies = ["--rate", "--window", "--threshold"]
        fuzz_strategy = edge in strategies  # then draw a scheme and a d that read it
        schemes = ["sequential", "preassigned"] + ["full_repetition"] * (not fuzz_strategy)
        scheme = draw(st.sampled_from(schemes))
        d = integer(1 if fuzz_strategy else 0, 3)
        strategy = edge if fuzz_strategy else draw(st.sampled_from(strategies))
        argv += ["--d", str(d), "--scheme", scheme, "--bits", str(abs(n) * integer(1, 3))]
        # full repetition and d = 0 take no strategy option
        return argv if scheme == "full_repetition" or d == 0 else argv + [value(strategy)]
    argv += ["--d", str(integer(1, 3)), "--points", str(integer(1, 6))]
    if command == "optimize":
        return argv + ["--strategy", draw(st.sampled_from(["rate", "window", "threshold"]))]
    argv += ["--bits", str(abs(n) * integer(0, 2))]
    if command == "sweep-threshold" and (edge == "--u-max" or draw(st.booleans())):
        argv.append(value("--u-max"))
    return argv


@pytest.mark.parametrize("command, edge", _FUZZED)
@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(data=st.data())
def test_exit_code_contract(command, edge, data):
    """Any command line of a fuzzed subcommand exits 0, 2 or 3, never with a traceback."""
    argv = data.draw(_argv(command, edge))
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the irregular-schedule warning is expected here
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3), (argv, sink.getvalue())
