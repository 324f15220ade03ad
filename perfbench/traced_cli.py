"""Run one qbrauer CLI job with the layer tracer installed.

    python3 perfbench/traced_cli.py SPANS.json ARGS...

The report goes to stdout exactly as ``python3 -m qbrauer.cli ARGS...``
prints it, and the exit code is the CLI's.  The spans of the job are kept
in memory and written to SPANS.json when the job ends.
"""

import json
import sys

import click

import qbrauer.cli

from layers import TARGETS
from tracer import Tracer, install


def main(argv):
    spans_path, *args = argv
    tracer = Tracer()
    install(tracer, "qbrauer", TARGETS)
    try:
        code = tracer.span(
            "cli.main", "cli", qbrauer.cli.main, args, standalone_mode=False
        )
    except click.ClickException as exc:
        exc.show()
        code = exc.exit_code
    tracer.counts.pop("_reduce_seen", None)
    with open(spans_path, "w") as fh:
        json.dump(tracer.dump(), fh, separators=(",", ":"))
    return code or 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
