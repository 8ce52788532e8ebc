"""Start ``repro serve`` with the benchmark's layer timers installed.

    python benchmarks/e2e/serve.py [--spans FILE] -- serve --port 0 ...

Without ``--spans`` this is ``python -m repro.cli serve ...``.  With it,
the jobs the server executes are timed layer by layer (jobs with odd seeds,
see :func:`layers.traced_request`) and the spans are written to FILE once
the server has drained.
"""

from __future__ import annotations

import argparse
import os
import sys

from layers import Recorder


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", default=None, help="write server spans here")
    parser.add_argument("cli", nargs=argparse.REMAINDER,
                        help="arguments for repro.cli (after --)")
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    from repro.cli import main as repro_main

    recorder = None
    if args.spans:
        recorder = Recorder()
        recorder.install(with_jobs=True)
    try:
        return repro_main(cli_args)
    finally:
        if recorder is not None:
            recorder.dump(args.spans, os.getpid())


if __name__ == "__main__":
    sys.exit(main())
