"""Run ``repro serve`` with the benchmark's layer spans installed.

Usage: ``python3 perfbench/serve_traced.py SPANS.json [serve arguments]``

The wrappers go in before the CLI builds its store, so every layer the
server reaches is spanned; each ``LabFlowService.submit`` span carries
the request id ``(session, n)`` the client side also counts.  The spans
are written to SPANS.json when the server shuts down on SIGINT.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracing  # noqa: E402  (after the path set-up)
from repro import cli  # noqa: E402

SUBMIT = ("repro.server.service_runner", "LabFlowService", "submit", "server.submit")


def main(argv: list[str]) -> int:
    spans_path, serve_args = argv[0], argv[1:]
    recorder = tracing.Recorder()
    sequence = tracing.session_sequencer()
    tracing.install(
        recorder, (*tracing.PROGRAM_TARGETS, SUBMIT),
        req_of={"server.submit": lambda args: sequence(args[1])},
    )
    try:
        return cli.main(["serve", *serve_args])
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(recorder.export(), handle)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
