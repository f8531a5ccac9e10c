"""Run the gbgc command line with spans recorded around calls between modules.

Usage: python3 perfbench/traced_cli.py SPANS_FILE <gbgc arguments...>

The root span starts at the first statement below, so gbgc's import time is
counted under the cli layer. Spans are written to SPANS_FILE when main
returns. Spans of pool workers are not collected, so trace with --jobs 1.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

import tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t = tracer.Tracer()
    root = t.open(tracer.ROOT_SPAN, START)
    try:
        tracer.install(t)
        from gbgc.cli import main as gbgc_main

        return gbgc_main(argv)
    finally:
        t.close(root)
        t.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
