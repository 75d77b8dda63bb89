"""Run the parapose CLI with the benchmark's tracer installed.

    python bench/traced_cli.py SPANS_OUT solve --input ... [CLI flags]

The whole command runs under one root span, ``cli.main``; the spans are
written to SPANS_OUT (JSON lines) when it ends.  ``parapose`` must be
importable, e.g. through PYTHONPATH.
"""

import sys

import parapose.cli

from spans import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("cli.main", solve_id=0):
            code = parapose.cli.main(argv)
    finally:
        tracer.uninstall()
    tracer.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
