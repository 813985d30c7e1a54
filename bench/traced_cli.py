"""Run one qmarkoff CLI command with the layer tracer installed.

Usage: python3 bench/traced_cli.py TRACE_JSON ARG...

Stdout, stderr and the exit code are those of ``python3 -m qmarkoff.cli ARG...``;
the call tree and counters go to TRACE_JSON when the command ends.
"""

import sys
from pathlib import Path

from tracer import Tracer


def main() -> int:
    trace_path = Path(sys.argv[1])
    tracer = Tracer()
    tracer.install()
    import qmarkoff.cli

    try:
        return qmarkoff.cli.main(sys.argv[2:])
    finally:
        tracer.read_cache_info()
        tracer.write(trace_path)


if __name__ == "__main__":
    sys.exit(main())
