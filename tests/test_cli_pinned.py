"""The CLI's ``--reproducible`` output, pinned byte for byte.

Each case holds the sha256 of stdout and the exit code (and of stderr where
an error message is documented) of one command.  The digests were recorded
before the strategy rules moved behind ``optimize.resolve_protocol``; a
refactor of the strategy path must leave every one unchanged.  A change
that alters an output on purpose records the new digest and says why: the
seven ``simulate`` runs that retransmit selectively were re-recorded when the
Monte Carlo began drawing one normal per retransmitted bit, and all eight
``simulate`` runs that exit 0 when a Monte Carlo block shrank from 2,048 to
128 packets, which split each run into other streams.  The ``OTHER``
digests were recorded before the CLI runners and the uplink scheduler's
queue of due retransmission spans were rewritten.  ``feedback-sim`` was
re-recorded when each entry of the synchronized stream became one Philox
word naming a subset rank, which changes every search length K.

To print the current digests: ``PYTHONPATH=src python tests/test_cli_pinned.py``.
"""

import contextlib
import hashlib
import io
import sys

import pytest

from bitarq.cli import main

README = {
    "sweep-rate": "sweep-rate --snr-db 5 --d 1 --n 1024",
    "sweep-window-mc": "sweep-window --snr-db 0 --d 2 --n 1024 --bits 1000000 --seed 7",
    "optimize-threshold": "optimize --strategy threshold --snr-db 5 --d 2",
    "simulate-readme": (
        "simulate --scheme sequential --snr-db 3 --n 1024 --d 2 --bits 10240000 --window 0.2"
        " --seed 1"
    ),
    "feedback-sim": "feedback-sim --n 16 --w 3 --trials 10000",
    "fusion-plan": "fusion-plan --tech zigbee --w 4 --d 3 --blocks 10",
    "fusion-feasibility": "fusion-feasibility --tech zigbee --pf 1e-3 --pr 1e-5 --nseg 2 --wseg 3",
    "fit-check": "fit-check --tech wifi --ber 1e-4",
}

SIMULATE = {
    f"simulate-{scheme}-{name}": f"simulate --scheme {scheme} --snr-db 3 --d 2 --seed 5 {flags}"
    for scheme in ("sequential", "preassigned")
    for name, flags in (
        ("rate", "--n 1024 --bits 204800 --rate 0.8"),
        ("window", "--n 1000 --bits 200000 --window 0.25"),
        ("threshold", "--n 1024 --bits 204800 --threshold 0.9"),
    )
}
SIMULATE["simulate-full-repetition"] = (
    "simulate --scheme full_repetition --snr-db 3 --n 1024 --d 2 --bits 204800 --seed 5"
)
SIMULATE["simulate-rate-too-low"] = "simulate --snr-db 3 --n 1024 --d 2 --bits 204800 --rate 0.3"

# the sweeps and optimizer strategies the README leaves out, and a schedule
# that defers 15 retransmission spans past their due packet
OTHER = {
    "sweep-threshold": "sweep-threshold --snr-db 5 --d 2 --n 1024",
    "sweep-window": "sweep-window --snr-db 0 --d 2 --n 1024",
    "optimize-rate": "optimize --strategy rate --snr-db 5 --d 3",
    "optimize-window": "optimize --strategy window --snr-db 10 --d 1",
    "fusion-plan-deferred": (
        "fusion-plan --tech zigbee --n 100 --w 40 --d 3 --blocks 6 --block-bits 30"
    ),
}

COMMANDS = {**README, **SIMULATE, **OTHER}

# name -> (exit code, sha256 of stdout, sha256 of stderr or None when unpinned)
PINNED = {
    "sweep-rate": (
        0, "2d9bbbac0f640b1f01a7791355ff88b37329506fabf15aa02517d8351bb81aef", None
    ),
    "sweep-window-mc": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "a224b5f0f9e3ad6e79247dd873553055f12654cf58407607a984379ee88add0b",
    ),
    "optimize-threshold": (
        0, "b073b0b69c9e0884ed057ea93e6f5325f2e416ce7d7834beb78d043f9a418fa2", None
    ),
    "simulate-readme": (
        0, "68fa13928eaa0ad81c4932eed922991b1c70c399d22856a0eb543fa6e257bff0", None
    ),
    "feedback-sim": (
        0, "fc243daeae24cefbb72303d24192a001758aaf871aaa55edcdb07f5aab930af8", None
    ),
    "fusion-plan": (
        0, "7a85a533a6a2baa1095c81533bc24c370f76ff0cf72357adb66402c1b6940f18", None
    ),
    "fusion-feasibility": (
        0, "fa1da0bbed08557a7ea1c8da8e18fec634b0192b6bf6d6527c39b0966e59a17b", None
    ),
    "fit-check": (
        0, "7f5f6a96bc23949c22a4b4c0fc043087c1a80f20106ef88759a5970413e5a7e6", None
    ),
    "simulate-sequential-rate": (
        0, "347aa36ebdaece9019d29aa028878ce26ed0b54d8337ab7c7a5dddf1c95f1df5", None
    ),
    "simulate-sequential-window": (
        0, "a7cf9b66f82661bc53677aa54bcf053361fc72f05fd542123ddd620a383cdc4e", None
    ),
    "simulate-sequential-threshold": (
        0, "969473e38804fe26325532edbde0b5f42bb1f05631c9f7547eafe0146fdc0dec", None
    ),
    "simulate-preassigned-rate": (
        0, "18a159e193195d0493e528c0fac1145f1bd6c6ea9cc2ed466ee589cce0e90f25", None
    ),
    "simulate-preassigned-window": (
        0, "520f02852b7609069913a4795ad362583c763e1b818aa17d0b1ee4c00c891478", None
    ),
    "simulate-preassigned-threshold": (
        0, "6a5fbde9cd11686df7356185d73105175a3bcdc60ac690d14abb6309f85f612c", None
    ),
    "simulate-full-repetition": (
        0, "383ca1e774361a639fd6d8317a12953ae2f0259d04dd28636fa2b77cb6edd537", None
    ),
    "simulate-rate-too-low": (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", None
    ),
    "sweep-threshold": (
        0, "6a3cd1ccbb7ee236fff0b4a9d04406e63ec547bcc01313b2227439c4f4cd58a2", None
    ),
    "sweep-window": (
        0, "4b6be7c47dde7a58ca196815fa4715785e36d66d90d821d7b00cc89598a5fda5", None
    ),
    "optimize-rate": (
        0, "709e57f887f8cf414c89c4ca0e9f49f059b5b986503351be1238a1fb37d54060", None
    ),
    "optimize-window": (
        0, "eb788fab3bab1df0c5378f3d00dbfb211f7bc397e1fc43cf0dfdc3e691fe8387", None
    ),
    "fusion-plan-deferred": (
        0, "e91e69fbcfd1db7adef9e04ea5765e61c4802452ec726505a9c1ff0f5a6917a4", None
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def outcome(name: str) -> tuple[int, str, str]:
    """(exit code, stdout digest, stderr digest) of one pinned command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*COMMANDS[name].split(), "--reproducible"])
    return code, _sha(out.getvalue()), _sha(err.getvalue())


def test_every_command_is_pinned():
    assert set(PINNED) == set(COMMANDS)


@pytest.mark.parametrize("name", sorted(PINNED))
# fusion-plan-deferred warns of its irregular packets on purpose
@pytest.mark.filterwarnings("ignore:d\\*w exceeds n/4")
def test_pinned_output(name, monkeypatch):
    monkeypatch.delenv("BITARQ_THREADS", raising=False)
    code, out, err = outcome(name)
    want_code, want_out, want_err = PINNED[name]
    assert (code, out) == (want_code, want_out), COMMANDS[name]
    if want_err is not None:
        assert err == want_err, COMMANDS[name]


if __name__ == "__main__":
    for name in PINNED:
        code, out, err = outcome(name)
        print(f'    "{name}": ({code}, "{out}", "{err}"),', file=sys.stdout)
