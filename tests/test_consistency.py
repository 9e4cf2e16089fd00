"""The analysis against the Monte Carlo, for each scheme and strategy flag the CLI runs.

Each cell runs one scheme with one strategy flag through
``model.scheme_protocol`` and ``mc.simulate`` at the equalized SNR (the
CLI's ``--equalize-energy``), in ``REPLICATES`` runs on fixed seeds, and
makes two comparisons:

* BER: the pooled MC BER against ``ber_exact`` at the scheme's ladder,
  within 4 binomial standard errors at the ``ber_exact`` value.  A windowed
  sequential run carries no ladder, so its ladder is the equal-probability
  ladder at W/N that ``scheme_protocol`` gives the preassigned scheme.
* Rate: the mean realized forward rate of the replicates against the rate
  ``scheme_protocol`` equalizes at, within 4 standard errors of that mean.
  A windowed sequential run retransmits the same count in every replicate,
  so its spread is 0 and the 1e-12 relative floor only absorbs rounding.

Each cell that disagrees today is a strict xfail whose reason names the
ROADMAP item that owns the gap, so a fix is done when its cells pass and
it removes their marks.  A cell draws 2,048,000 bits; at that size the
windowed sequential cells at N = 1024, d = 3 read z = +2.8 and +3.0, so
item 27's gap there does not show yet.  The module runs in about 3 s on
a 2-core Xeon VM.
"""

import statistics
from functools import cache

import pytest

from bitarq import ber_exact
from bitarq.mc import simulate
from bitarq.model import LinkModel, scheme_protocol

SNR_DB = 3.0
BASE_SNR = 10.0 ** (SNR_DB / 10.0)
REPLICATES = 8
BITS = 256_000  # per replicate: 250 packets at N = 1024, 4,000 at N = 64
SEED = 11  # replicate i runs on seed SEED + i
FLAGS = {"rate": ("rate", 0.8), "window": ("window", 0.1), "threshold": ("threshold", 0.9)}
DEPTHS = (1, 2, 3)
SIZES = (64, 1024)
CELLS = [(scheme, kind, d, n) for scheme in ("sequential", "preassigned") for kind in FLAGS
         for d in DEPTHS for n in SIZES]


@cache
def _cell(scheme: str, kind: str, d: int, n: int) -> dict:
    """The cell's MC outcome, the numbers the toolkit reports for it and the
    gaps between them in standard errors."""
    cfg, snr = scheme_protocol(scheme, FLAGS[kind], n, d, BASE_SNR)
    ladder = cfg.thresholds
    if ladder is None:  # a windowed sequential run
        ladder = scheme_protocol("preassigned", FLAGS[kind], n, d, BASE_SNR)[0].thresholds
    reports = [simulate(cfg, LinkModel(snr), scheme, BITS, SEED + i) for i in range(REPLICATES)]
    ber = sum(rep.bit_errors for rep in reports) / (BITS * REPLICATES)
    p = ber_exact(snr, ladder)
    rates = [rep.forward_rate_realized for rep in reports]
    rate, rate_equalized = statistics.fmean(rates), snr / BASE_SNR
    rate_stderr = statistics.stdev(rates) / REPLICATES ** 0.5 + 1e-12 * rate_equalized
    return {
        "ber": ber, "ber_exact": p,
        "ber_z": (ber - p) / (p * (1.0 - p) / (BITS * REPLICATES)) ** 0.5,
        "rate": rate, "rate_equalized": rate_equalized,
        "rate_z": (rate - rate_equalized) / rate_stderr,
    }


def _params(xfails: dict):
    return [pytest.param(*cell, id="-".join(map(str, cell)),
                         marks=[pytest.mark.xfail(reason=xfails[cell])]
                         if cell in xfails else [])
            for cell in CELLS]


_ITEM_15 = ("ROADMAP item 15: the shared-threshold rate counts the retransmissions of "
            "rounds 2..d+1, where the scheme retransmits in rounds 1..d")
_ITEM_17 = ("ROADMAP item 17: at small N the deployed window scheme's BER is above "
            "the mean-field ber_exact")
_ITEM_22 = ("ROADMAP item 22: the preassigned scheme realizes a lower rate than the one "
            "its ladder is equalized at")
BER_XFAILS = {("sequential", kind, d, 64): _ITEM_17 for kind in ("rate", "window") for d in DEPTHS}
RATE_XFAILS = {
    **{(scheme, "threshold", d, n): _ITEM_15 for scheme in ("sequential", "preassigned")
       for d in DEPTHS for n in SIZES},
    **{("preassigned", kind, d, n): _ITEM_22 for kind in ("rate", "window")
       for d in (2, 3) for n in SIZES},
    # the shared-threshold rate's error and the preassigned scheme's add up
    **{("preassigned", "threshold", d, n): f"{_ITEM_15}; {_ITEM_22}"
       for d in (2, 3) for n in SIZES},
}


@pytest.mark.parametrize("scheme, kind, d, n", _params(BER_XFAILS))
def test_ber_matches_ber_exact(scheme, kind, d, n):
    cell = _cell(scheme, kind, d, n)
    assert abs(cell["ber_z"]) <= 4.0, cell


@pytest.mark.parametrize("scheme, kind, d, n", _params(RATE_XFAILS))
def test_realized_rate_matches_the_equalized_rate(scheme, kind, d, n):
    cell = _cell(scheme, kind, d, n)
    assert abs(cell["rate_z"]) <= 4.0, cell
