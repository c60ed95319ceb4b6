"""Start a ``repro-cache`` daemon for the benchmark, optionally traced.

    python benchmarks/e2e/launch.py [--trace-dir DIR] serve --port 0 ...

Puts the checkout's ``src/`` on the import path, installs the layer trace
(:mod:`tracer`) when ``--trace-dir`` is given, then hands the remaining
arguments to ``repro.cli.main``.  The daemon's pool workers are forked from
it, so they inherit the trace.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE)]


def main(argv: list[str]) -> int:
    if argv[:1] == ["--trace-dir"]:
        import tracer

        tracer.install(argv[1])
        argv = argv[2:]
    from repro.cli import main as repro_main

    return repro_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
