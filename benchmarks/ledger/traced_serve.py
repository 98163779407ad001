"""Run ``repro-cli serve`` with the ledger's timing wrappers installed.

Usage: ``python benchmarks/ledger/traced_serve.py SPANS.jsonl SERVE_ARGS...``

The wrappers go in before the CLI builds the service; the spans are kept
in memory and written to ``SPANS.jsonl`` when the server stops on SIGTERM.
"""

from __future__ import annotations

import signal
import sys


def _stop(signum, frame):
    # repro-cli serve shuts down cleanly on KeyboardInterrupt.
    raise KeyboardInterrupt


def main(argv: list[str]) -> int:
    from repro import cli
    from spans import SpanLog

    spans_path, serve_args = argv[0], argv[1:]
    log = SpanLog()
    log.install_service()
    log.install_http()
    signal.signal(signal.SIGTERM, _stop)
    try:
        return cli.main(["serve", *serve_args])
    finally:
        log.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
