"""``repro serve`` with every layer entry point traced.

Usage: ``python3 perfbench/traced_server.py SPANS.json serve ARGS...``
runs the CLI in this process with :func:`perfbench.tracing.instrument`
applied, and when the server has drained and stopped writes the
recorded spans to ``SPANS.json``.  The traced run of ``serve-mixed``
starts its server this way; untraced runs start ``repro serve``
directly.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

from perfbench import harness  # noqa: E402  (needs the path above)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    harness.pin_threads()
    sys.path.insert(0, harness.SRC)
    from perfbench.tracing import Tracer, instrument
    from repro.cli import main as cli_main
    tracer = instrument(Tracer())
    try:
        return cli_main(argv)
    finally:
        tracer.restore()
        harness.write_json(spans_path, tracer.records())


if __name__ == "__main__":
    raise SystemExit(main())
