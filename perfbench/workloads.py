"""Seeded inputs of the three workloads.

Everything here is plain data derived from the workload seed; bitarq only
ever sees the values produced.  The same seed always gives the same inputs
(``random.Random`` seeded with a string is stable across interpreters).
"""

from __future__ import annotations

import math
import random

PACKET_BITS = 1024
POINTS = 64  # the CLI's default sweep resolution

# design: three SNR bands; the seed places one SNR inside each band.
DESIGN_BANDS_DB = (0.0, 5.0, 10.0)
DESIGN_JITTER_DB = 0.25
STRATEGIES = ("rate", "window", "threshold")

# linksim: base SNRs where every preassigned configuration expects over
# 2,000 errors in MC_BITS bits (over 1,000 for every scheme).
LINKSIM_SNR_DB = (2.0, 4.5)
SPARSE_P = (0.05, 0.30)  # the range of p* the optimizer picks
DENSE_P = (0.70, 0.90)
MC_BITS = 4 * PACKET_BITS * 1000
FEEDBACK = ((16, 3, 2000), (64, 2, 300))  # (n, w, trials)
ROUND_TRIPS = 4  # sampled permutation searches per (n, w) and pass


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def design_calls(seed: int) -> list[dict]:
    """Optimizer calls and analytic sweeps, band by band."""
    rng = _rng("design", seed)
    calls = []
    for centre in DESIGN_BANDS_DB:
        db = round(centre + rng.uniform(-DESIGN_JITTER_DB, DESIGN_JITTER_DB), 4)
        for d in (1, 2, 3):
            for strategy in STRATEGIES:
                calls.append({"kind": "optimize", "strategy": strategy, "d": d, "snr_db": db})
            for strategy in STRATEGIES:
                calls.append({"kind": "sweep", "strategy": strategy, "d": d, "snr_db": db})
    return calls


def _link(rng: random.Random) -> float:
    return round(rng.uniform(*LINKSIM_SNR_DB), 4)


def linksim_calls(seed: int) -> list[dict]:
    """Monte Carlo operating points plus permutation-search feedback runs.

    ``ladder`` names the threshold resolution a configuration needs; the
    resolved thresholds come from bitarq at run time.
    """
    rng = _rng("linksim", seed)
    sims = []

    def sim(group, scheme, d, p, ladder, window=False):
        db = _link(rng)
        base = 10.0 ** (db / 10.0)
        snr = base / (1.0 + d * p) if p is not None else base / (1.0 + d)
        sims.append({
            "kind": "simulate", "group": group, "scheme": scheme, "d": d, "p": p,
            "snr_db": db, "snr": snr, "ladder": ladder,
            "window": round_half_away(PACKET_BITS * p) if window else None,
            "bits": MC_BITS, "seed": rng.randrange(2**32),
        })

    for d in (1, 2, 3):
        sim("sparse", "preassigned", d, round(rng.uniform(*SPARSE_P), 4), "equal_probability")
    sim("sparse", "sequential", 2, round(rng.uniform(*SPARSE_P), 4), None, window=True)
    sim("sparse", "sequential", 2, round(rng.uniform(*SPARSE_P), 4), "shared")
    sim("dense", "preassigned", 2, round(rng.uniform(*DENSE_P), 4), "equal_probability")
    sim("dense", "sequential", 2, round(rng.uniform(*DENSE_P), 4), None, window=True)
    sim("dense", "full_repetition", 2, None, None)

    calls = list(sims)
    for n, w, trials in FEEDBACK:
        c1 = optimal_c1(n, w)
        calls.append({"kind": "feedback", "n": n, "w": w, "c1": c1, "trials": trials,
                      "seed": rng.randrange(2**32)})
        for _ in range(ROUND_TRIPS):
            calls.append({"kind": "roundtrip", "n": n, "w": w, "c1": c1,
                          "targets": sorted(rng.sample(range(n), w)),
                          "seed": rng.randrange(2**63)})
    return calls


# The README's CLI examples, verbatim apart from the --seed values.
README_EXAMPLES = (
    "sweep-rate --snr-db 5 --d 1 --n 1024",
    "sweep-window --snr-db 0 --d 2 --n 1024 --bits 1000000 --seed {seed}",
    "optimize --strategy threshold --snr-db 5 --d 2",
    "simulate --scheme sequential --snr-db 3 --n 1024 --d 2 --bits 10240000 --window 0.2 --seed {seed}",
    "feedback-sim --n 16 --w 3 --trials 10000",
    "fusion-plan --tech zigbee --w 4 --d 3 --blocks 10",
    "fusion-feasibility --tech zigbee --pf 1e-3 --pr 1e-5 --nseg 2 --wseg 3",
    "fit-check --tech wifi --ber 1e-4",
)

# Exit code and stderr text of the README example that fails at the seed
# commit (1,000,000 is not a multiple of 1024).  It stays verbatim.
KNOWN_FAILURE = ("sweep-window", 2, "multiple of packet_bits")


def readme_calls(seed: int) -> list[dict]:
    rng = _rng("readme-cli", seed)
    calls = []
    for example in README_EXAMPLES:
        argv = example.format(seed=rng.randrange(2**31)).split()
        calls.append({"kind": "cli", "command": argv[0], "argv": argv})
    return calls


CALLS = {"design": design_calls, "linksim": linksim_calls, "readme-cli": readme_calls}


def round_half_away(x: float) -> int:
    return math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)


def optimal_c1(n: int, w: int) -> int:
    return max(1, round_half_away(-0.5 + math.log2(math.comb(n, w))))
