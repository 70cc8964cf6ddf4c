"""Traced stand-in for ``python -m pdmorse``, used by the traced cli-session.

Usage: python3 perfbench/cli_child.py <trace.json> <pdmorse arguments...>

Installs the counting shims, runs the CLI's ``main`` with the arguments and
writes the counters, times and spans to ``trace.json`` for the parent.
"""

import sys

import shims


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = shims.Tracer()
    shims.install(tracer)
    import pdmorse.cli

    tracer.active = True
    try:
        return pdmorse.cli.main(argv)
    finally:
        tracer.active = False
        tracer.dump(trace_file)


if __name__ == "__main__":
    raise SystemExit(main())
