"""The CLI's ``--reproducible`` output, pinned byte for byte.

Each case holds the sha256 of stdout and the exit code (and of stderr where
an error message is documented) of one command.  The digests were recorded
before the strategy rules moved behind ``optimize.resolve_protocol``; a
refactor of the strategy path must leave every one unchanged.  A change
that alters an output on purpose records the new digest and says why: the
seven ``simulate`` runs that retransmit selectively were re-recorded when the
Monte Carlo began drawing one normal per retransmitted bit.

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

COMMANDS = {**README, **SIMULATE}

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
        0, "5333861c7cc78b13887b7b708d53d3bd90a139da2b4a7c95336df6b8aa852506", None
    ),
    "feedback-sim": (
        0, "8e890663ac4bca82f5516acb966d9115238740108345a02f87ba18c237b6ebbd", None
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
        0, "8206230ee7d0cfa6f088e7e34b371bdbd480a39ae327190698a47739e839c1dc", None
    ),
    "simulate-sequential-window": (
        0, "e9ebfc36365bd6e689542dbb16cf18802a6d920dbcfa963cf699a136016f3575", None
    ),
    "simulate-sequential-threshold": (
        0, "5f1810f9e28855a319480d4a3fd1fef253a73f452648a81e6ad76644d7d33e1a", None
    ),
    "simulate-preassigned-rate": (
        0, "77fc91c48e7f69e4043fa68b40ebc57f85fbe844c75953024d5f895498b7e6b5", None
    ),
    "simulate-preassigned-window": (
        0, "fc19fda0b44502a3937b509ef6e72cb8955ab40d3d8da6bab26a27ffbd615e6c", None
    ),
    "simulate-preassigned-threshold": (
        0, "63eca76f8561e1e63efb2ef9423472f7ccd87f0c23c9c1f40b89420f962da935", None
    ),
    "simulate-full-repetition": (
        0, "b5605c913a401f5e2fb5b94b6f45ddb1d4771befe1c114a0c7ec8d28579ddd5d", None
    ),
    "simulate-rate-too-low": (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", None
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
