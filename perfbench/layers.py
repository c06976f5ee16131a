"""Per-layer metrics of a traced run, computed from its spans.

Layers are the modules of ``robustwork``: linalg (with the numpy.linalg
kernels under it), states, freesets, solver, thermo, channels, scenarios,
iojson and cli.  Counts and times are per cycle (one pass over the
workload's instance list), so they repeat exactly from run to run; ratios
carry their base in the name.  A layer the workload never calls reports 0.
"""

from __future__ import annotations

import hashlib
import importlib
import statistics
import weakref

import numpy as np

from tracing import busy_time, self_time

LAYERS = ("linalg", "states", "freesets", "solver", "thermo", "channels",
          "scenarios", "iojson", "cli")

EIG = ("numpy.linalg.eigh", "numpy.linalg.eigvalsh", "numpy.linalg.eig", "numpy.linalg.eigvals")
SOLVE = ("numpy.linalg.solve", "numpy.linalg.lstsq")
VALIDATE = ("linalg.assert_density", "linalg.assert_hermitian", "linalg.assert_pure")
BUILD = ("freesets.incoherent_set", "freesets.stabilizer_set", "freesets.finite_hull",
         "freesets.enumerate_stabilizer_states", "freesets.incoherent_extreme_points")
CHECKS = ("thermo.verify_theorem1", "thermo.verify_eq10_ratio", "thermo.verify_theorem2",
          "thermo.verify_xi_cost", "thermo.rank1_work_summary")
RECHECK = ("solver.witness_is_feasible", "solver.primal_slack")
SERIALIZE = ("scenarios.report_to_json_text", "scenarios.sweep_to_csv",
             "iojson.matrix_to_json", "iojson.vector_to_json")
SOLVE_SPAN = "solver.robustness_dual"


def program_modules():
    """The package and each layer module, imported from the checkout."""
    return [importlib.import_module("robustwork")] + [
        importlib.import_module(f"robustwork.{name}") for name in LAYERS
    ]


# ---------------------------------------------------------------------------
# annotators: run after a span ends, inside its wrapper interval
# ---------------------------------------------------------------------------


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class ProgramKey:
    """Annotator of solver spans: a digest of the (rho, free set, tol) program.

    Free sets are immutable and built a few times per run, while the solver
    is called with them thousands of times, so each FreeSet object's digest
    is computed once.  The weak reference guards against a dead set's id
    being reused by a new one.  Pool threads may race on the cache; the
    loser only computes the same digest again.
    """

    def __init__(self):
        self._spec_digests: dict[int, tuple] = {}

    def spec_digest(self, spec) -> bytes:
        entry = self._spec_digests.get(id(spec))
        if entry is not None and entry[0]() is spec:
            return entry[1]
        h = hashlib.blake2b(f"{spec.kind}|{spec.dim}|{spec.n_points}".encode(), digest_size=16)
        for v in spec.vectors:
            h.update(np.ascontiguousarray(v).tobytes())
        for m in spec.matrices:
            h.update(np.ascontiguousarray(m).tobytes())
        self._spec_digests[id(spec)] = (weakref.ref(spec), h.digest())
        return h.digest()

    def __call__(self, args, kwargs, result) -> dict:
        rho = np.ascontiguousarray(np.asarray(args[0], dtype=complex))
        h = hashlib.blake2b(rho.tobytes(), digest_size=16)
        h.update(self.spec_digest(_arg(args, kwargs, 1, "spec")))
        h.update(repr(_arg(args, kwargs, 2, "tol", "default")).encode())
        return {"key": h.hexdigest(), "status": result.status,
                "iters": int(result.newton_iterations)}


def _dim(args, kwargs, result) -> dict:
    return {"n": int(np.shape(args[0])[-1])}


def _points(args, kwargs, result) -> dict:
    return {"points": int(result.n_points)}


def _text_bytes(args, kwargs, result) -> dict:
    return {"bytes": len(result.encode("utf-8"))}


def annotators() -> dict:
    """Span name -> annotator, fresh for one tracer."""
    return {
        SOLVE_SPAN: ProgramKey(),
        **{name: _dim for name in EIG + SOLVE},
        "freesets.incoherent_set": _points,
        "freesets.stabilizer_set": _points,
        "freesets.finite_hull": _points,
        "scenarios.run_scenario": lambda a, k, r: {"entries": len(r["entries"])},
        "scenarios.sweep": lambda a, k, r: {"entries": len(r) - 1},
        "scenarios.report_to_json_text": _text_bytes,
        "scenarios.sweep_to_csv": _text_bytes,
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _ancestor_layers(span, memo) -> frozenset:
    """Layers of every strict ancestor of ``span``."""
    key = id(span)
    if key not in memo:
        parent = span.parent
        memo[key] = frozenset() if parent is None else (
            _ancestor_layers(parent, memo) | {parent.layer})
    return memo[key]


def _outermost(spans, memo, layer):
    return [s for s in spans if s.layer == layer and layer not in _ancestor_layers(s, memo)]


def _outermost_ancestor(span, layer):
    """The outermost ancestor of ``span`` (or the span itself) in ``layer``."""
    found = span if span.layer == layer else None
    while span.parent is not None:
        span = span.parent
        if span.layer == layer:
            found = span
    return found


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(spans, setup_spans, cycles: int, cli=None) -> dict:
    """Every per-layer metric, from the spans of ``cycles`` whole cycles.

    ``setup_spans`` are the spans of in-process set-up (free-set builds),
    which ``freesets.build_s`` and ``freesets.points`` add once.  ``cli``
    carries what only the CLI driver processes know: their import seconds,
    exit codes and stdout bytes.
    """
    memo: dict = {}
    by_name: dict[str, list] = {}
    by_layer: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        by_layer.setdefault(s.layer, []).append(s)

    def named(*names):
        return [s for n in names for s in by_name.get(n, ())]

    def per_cycle(x):
        return float(x) / cycles

    def under(layer, group):
        return [s for s in group if layer in _ancestor_layers(s, memo)]

    solves = named(SOLVE_SPAN)
    iters = [s.info["iters"] for s in solves if "iters" in s.info]
    cycle_keys: dict = {}
    for s in solves:
        cycle = s.op[0] if isinstance(s.op, (list, tuple)) else s.op
        cycle_keys.setdefault(cycle, set()).add(s.info.get("key"))
    distinct = sum(len(k) for k in cycle_keys.values())

    eig = named(*EIG)
    checks = named(*CHECKS)
    thermo_eig = under("thermo", eig)

    scen_runs = named("scenarios.run_scenario", "scenarios.sweep")
    entries = sum(s.info.get("entries", 0) for s in scen_runs)
    scen_spans = by_layer.get("scenarios", [])
    scen_ids = {id(s) for s in scen_spans}
    scen_children = [s for s in spans if s.parent is not None and id(s.parent) in scen_ids
                     and s.layer != "scenarios"]
    scen_busy = busy_time(scen_spans)
    threads_of_run: dict[int, set] = {}
    for s in spans:
        if s.layer != "scenarios" and "scenarios" in _ancestor_layers(s, memo):
            root = _outermost_ancestor(s, "scenarios")
            threads_of_run.setdefault(id(root), {root.thread}).add(s.thread)
    threads = max((len(t) for t in threads_of_run.values()), default=0)

    build_setup = [s for s in setup_spans if s.name in BUILD]
    build_timed = named(*BUILD)
    points_setup = sum(s.info.get("points", 0) for s in build_setup)
    points_timed = sum(s.info.get("points", 0) for s in build_timed)

    cli = cli or {}
    cli_ops = cli.get("ops", 0)
    serialize_bytes = sum(s.info.get("bytes", 0) for s in named(*SERIALIZE))

    return {
        "solver.calls": per_cycle(len(solves)),
        "solver.distinct": per_cycle(distinct),
        "solver.useful_ratio": _ratio(distinct, len(solves)),
        "solver.newton_iters": per_cycle(sum(iters)),
        "solver.iters_per_solve.p50": float(statistics.median(iters)) if iters else 0.0,
        "solver.iters_per_solve.max": float(max(iters, default=0)),
        "solver.nonconverged": per_cycle(sum(s.info.get("status") != "converged" for s in solves)),
        "solver.busy_s": per_cycle(busy_time(by_layer.get("solver", []))),
        "solver.self_s": per_cycle(self_time(by_layer.get("solver", []), spans)),
        "solver.recheck_s": per_cycle(busy_time(named(*RECHECK))),
        "linalg.eigh_calls": per_cycle(len(by_name.get("numpy.linalg.eigh", ()))),
        "linalg.eigvalsh_calls": per_cycle(len(by_name.get("numpy.linalg.eigvalsh", ()))),
        "linalg.eig_s": per_cycle(busy_time(eig)),
        "linalg.eig_n3": per_cycle(sum(s.info.get("n", 0) ** 3 for s in eig)),
        "linalg.solve_calls": per_cycle(len(by_name.get("numpy.linalg.solve", ()))),
        "linalg.lstsq_calls": per_cycle(len(by_name.get("numpy.linalg.lstsq", ()))),
        "linalg.solve_s": per_cycle(busy_time(named(*SOLVE))),
        "linalg.validate_calls": per_cycle(len(named(*VALIDATE))),
        "linalg.validate_s": per_cycle(busy_time(named(*VALIDATE))),
        "linalg.gibbs_calls": per_cycle(len(by_name.get("linalg.gibbs_state", ()))),
        "linalg.entropy_calls": per_cycle(len(by_name.get("linalg.von_neumann_entropy", ()))),
        "freesets.build_s": busy_time(build_setup) + per_cycle(busy_time(build_timed)),
        "freesets.points": points_setup + per_cycle(points_timed),
        "freesets.membership_calls": per_cycle(len(by_name.get("freesets.membership", ()))),
        "freesets.membership_s": per_cycle(busy_time(by_name.get("freesets.membership", ()))),
        "thermo.checks": per_cycle(len(checks)),
        "thermo.busy_s": per_cycle(busy_time(by_layer.get("thermo", []))),
        "thermo.self_s": per_cycle(self_time(by_layer.get("thermo", []), spans)),
        "thermo.solves": per_cycle(len(under("thermo", solves))),
        "thermo.eig_per_check": _ratio(len(thermo_eig), len(checks)),
        "channels.calls": per_cycle(len(_outermost(spans, memo, "channels"))),
        "channels.choi_builds": per_cycle(len(by_name.get("channels.choi_state", ()))),
        "channels.solves": per_cycle(len(under("channels", solves))),
        "channels.busy_s": per_cycle(busy_time(by_layer.get("channels", []))),
        "scenarios.runs": per_cycle(len(scen_runs)),
        "scenarios.entries": per_cycle(entries),
        "scenarios.solves_per_entry": _ratio(len(under("scenarios", solves)), entries),
        "scenarios.threads": float(threads),
        "scenarios.overlap": _ratio(sum(s.duration for s in scen_children), scen_busy),
        "scenarios.busy_s": per_cycle(scen_busy),
        "scenarios.self_s": per_cycle(self_time(scen_spans, spans)),
        "iojson.serialize_s": per_cycle(busy_time(named(*SERIALIZE))),
        "iojson.bytes_out": per_cycle(cli.get("stdout_bytes", 0) or serialize_bytes),
        "cli.import_s": float(statistics.median(cli["import_s"])) if cli.get("import_s") else 0.0,
        "cli.exit3_count": per_cycle(cli.get("exit3", 0)),
        "cli.solves_per_op": _ratio(len(solves), cli_ops),
    }

