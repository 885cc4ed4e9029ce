"""Run one remest CLI command with every layer traced.

Usage: python3 perfbench/child.py SPANS_JSON TRACE_ID [remest arguments...]

Installs the span wrappers from ``tracing.py``, runs ``remest.cli.main`` on
the remaining arguments, writes the recorded spans to SPANS_JSON and exits
with the command's exit code.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main() -> int:
    spans_path, trace_id, *argv = sys.argv[1:]
    import remest.cli

    tracer = tracing.Tracer(trace_id)
    tracing.install(tracer)
    try:
        return remest.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
