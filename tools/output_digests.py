"""Print a SHA-256 digest of every benchmark operation's deterministic output.

Usage (from anywhere):

    python tools/output_digests.py TREE SEED

TREE is a checkout of this repository; its ``perfbench/workloads.py`` supplies
the operations of the three workloads for SEED, and its ``src/`` is the library
that runs them.  Each operation runs once and prints one line, ``workload
label sha256``, of the parts of its output that do not depend on timing:

* certify_mix: the reprs of the bounds, value, gap, status and iteration count
  of the solve, then the bytes of its witness and primal weights;
* verify_grid: the report without its ``meta`` block, or the sweep CSV;
* cli_cold: the exit code and stdout, a JSON stdout without its ``meta`` block.

Two trees whose outputs are byte-identical print identical lines, so one
``diff`` of two runs checks that a change kept every benchmark output.  The
workloads module is only imported; files go only under ``TREE/.perfbench_out``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

WORKLOADS = ("certify_mix", "verify_grid", "cli_cold")


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _certify_digest(out) -> str:
    res = out.result
    scalars = (res.lower_bound, res.upper_bound, res.value, res.gap, res.status,
               res.newton_iterations)
    arrays = [b"" if a is None else a.tobytes() for a in (res.witness, res.primal_weights)]
    return _sha(*map(repr, scalars), *arrays)


def _stdout_without_meta(text: str) -> str:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        return text  # the sweep CSV
    if isinstance(obj, dict):
        obj.pop("meta", None)
    return json.dumps(obj, sort_keys=True, indent=2)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    tree, seed = Path(args[0]).resolve(), int(args[1])
    sys.dont_write_bytecode = True  # nothing written into the tree's sources
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"  # nor by the CLI processes
    sys.path[:0] = [str(tree / "perfbench"), str(tree / "src")]
    import robustwork
    import workloads

    for module, home in ((robustwork, tree / "src" / "robustwork"), (workloads, tree / "perfbench")):
        if Path(module.__file__).resolve().parent != home:
            raise SystemExit(f"{module.__name__} imported from {module.__file__}, not from {home}")

    out_dir = tree / ".perfbench_out" / "digests"
    for name in WORKLOADS:
        wl = workloads.make(name, seed, tree, out_dir)
        wl.setup(robustwork)
        for op in wl.operations():
            out = wl.run(op)
            if name == "certify_mix":
                digest = _certify_digest(out)
            elif name == "verify_grid":
                digest = _sha(out.text if out.report is None
                              else workloads.report_without_meta(out.text))
            else:
                digest = _sha(out.returncode, _stdout_without_meta(out.stdout))
            print(name, op.label, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
