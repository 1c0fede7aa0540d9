"""Run the stepharm command line from the checkout's ``src/``.

    python3 bench/cli_launcher.py <stepharm arguments>

This is what the ``stepharm`` console script does, without needing the
package installed.  When the environment variable STEPHARM_BENCH_TRACE
names a file, the launcher installs the tracer of ``tracer.py`` before
calling ``stepharm.cli.main`` and writes the spans there on exit, with
one more span, ``cli.import``, for the import of ``stepharm.cli``.
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent


def main() -> int:
    from stepharm import cli

    imported = time.perf_counter()
    trace_out = os.environ.get("STEPHARM_BENCH_TRACE")
    if not trace_out:
        return cli.main(sys.argv[1:])
    sys.path.insert(0, str(BENCH_DIR))
    import tracer

    active = tracer.Tracer()
    active.record("cli.import", START, imported)
    active.install()
    try:
        return cli.main(sys.argv[1:])
    finally:
        active.uninstall()
        tracer.save_spans(active.spans, trace_out)


if __name__ == "__main__":
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    sys.exit(main())
