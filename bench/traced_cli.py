"""Run one dynctl CLI invocation in this process with the tracer installed.

Usage: python3 bench/traced_cli.py <dynctl arguments...>

The report the CLI writes is captured, not printed. The last line of stdout
is one JSON object: the CLI's exit code, the report's sha256, the per-layer
metrics and the calls recorded per layer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys

import tracer


def main(argv: list[str]) -> int:
    tracer.install()
    from dynctl import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    st = tracer.stats()
    print(json.dumps({
        "exit": code,
        "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest(),
        "metrics": tracer.per_layer_metrics(st),
        "layer_calls": tracer.layer_calls(st),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
