"""Run the bitarq CLI once with the span tracer installed.

    python3 perfbench/traced_cli.py SPANS.npz <bitarq arguments...>

Used by the traced pass of the readme-cli workload in place of
``python -m bitarq.cli``; exits with the CLI's own exit code after writing
the spans to SPANS.npz.
"""

import os
import sys
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import bitarq.cli  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    rc = 1
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            span = tracer.open("cli.main")
            try:
                rc = bitarq.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            finally:
                tracer.close(span)
        tracer.record_warnings(caught)
    finally:
        tracer.dump(out)
    return rc


if __name__ == "__main__":
    sys.exit(main())
