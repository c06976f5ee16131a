"""Traced stand-in for ``python -m robustwork.cli`` (traced cli_cold runs only).

Usage: python3 perfbench/cli_driver.py SRC_DIR SPANS_JSON -- CLI_ARGS...

Imports ``robustwork.cli`` from SRC_DIR (timing the import), installs the
tracer over every robustwork module, calls ``robustwork.cli.main`` with
CLI_ARGS, restores the originals and writes the spans, the import seconds
and the exit code to SPANS_JSON.  Exits with the CLI's exit code.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv) -> int:
    src, spans_path, sep, cli_args = argv[0], argv[1], argv[2], argv[3:]
    if sep != "--":
        raise SystemExit("usage: cli_driver.py SRC_DIR SPANS_JSON -- CLI_ARGS...")
    sys.path.insert(0, src)
    import robustwork.cli

    import_s = time.perf_counter() - T0
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from layers import annotators, program_modules
    from tracing import Tracer

    tracer = Tracer(annotators())
    tracer.install(program_modules())
    rc = None
    try:
        rc = robustwork.cli.main(cli_args)
    finally:
        tracer.restore()
        sys.stdout.flush()
        Path(spans_path).write_text(json.dumps(
            {"import_s": import_s, "rc": rc, "spans": tracer.export()}), "utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
