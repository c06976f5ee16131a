"""Fresh-process set-up probe: time ``import robustwork`` plus free-set builds.

Usage: python3 perfbench/probe.py SRC_DIR MODULE [KIND:SIZE ...]

Imports MODULE (``robustwork`` or ``robustwork.cli``) from SRC_DIR, builds
each listed free set (``incoherent:8``, ``stabilizer:3``) and prints the
elapsed seconds as JSON.  Nothing is imported before the clock starts, so numpy's import is
part of the figure, as it is for a user.
"""

import time

T0 = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main(argv) -> int:
    src, module, specs = argv[0], argv[1], argv[2:]
    sys.path.insert(0, src)
    importlib.import_module(module)
    rw = sys.modules["robustwork"]
    for spec in specs:
        kind, size = spec.split(":")
        build = rw.incoherent_set if kind == "incoherent" else rw.stabilizer_set
        build(int(size))
    print(json.dumps({"setup_s": time.perf_counter() - T0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
