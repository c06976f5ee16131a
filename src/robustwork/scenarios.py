"""Scenario runner: named states and channels, parameter grids, bound checks.

A scenario is a strict, versioned JSON document naming one state (or
channel) family, a free set, lambda/beta grids, and the checks to run.
``run_scenario`` produces a machine-readable report with one entry per
(grid point, check); ``sweep`` flattens the same evaluation into CSV rows.

Re-running a scenario with the same seed is byte-identical apart from the
``meta`` block (timestamp and wall time).  Every robustness program depends
only on the state (or channel) and the free set; lambda and beta enter
afterwards, through the Hamiltonian lambda*Y and its Gibbs state.  So each
distinct program is solved once per run and shared by all grid points,
which are then evaluated in a plain loop.
"""

from __future__ import annotations

import datetime as _dt
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .channels import (
    QuantumChannel,
    choi_state,
    make_channel,
    channel_robustness_lower,
    theorem3_output_witness,
    theorem3_report,
    theorem4_report,
    unitary_channel,
    depolarizing_channel,
)
from .freesets import FreeSet, finite_hull, incoherent_set, stabilizer_set
from .iojson import (
    beta_to_json,
    json_to_matrix,
    json_to_vector,
    parse_beta,
)
from .linalg import INF_BETA, assert_density, assert_pure, projector
from .solver import (
    DEFAULT_TOL,
    MAX_ITERATIONS,
    _rank1_truncation,
    pure_coherence_witness,
    Rank1NotTightError,
    robustness_dual,
    robustness_pure_coherence,
    tstate_magic_robustness,
)
from .states import HADAMARD, S_GATE, T_GATE, basis_state, golden_state, t_state
from .thermo import (
    BoundReport,
    ThermoContext,
    _report,
    rank1_work_summary,
    require_maximally_mixed,
    residual_weight,
    theorem1_precondition,
    theorem2_at_weight,
    verify_eq10_ratio,
    verify_theorem1,
    verify_xi_cost,
)

__all__ = [
    "ScenarioError",
    "Scenario",
    "load_scenario",
    "run_scenario",
    "sweep",
    "sweep_to_csv",
    "report_to_json_text",
    "exit_code_of_report",
    "SWEEP_COLUMNS",
]

SCHEMA_VERSION = 1
STATE_CHECKS = ("theorem1", "eq10", "theorem2", "corollary1")
CHANNEL_CHECKS = ("theorem3", "theorem4")
ALL_CHECKS = STATE_CHECKS + CHANNEL_CHECKS
SWEEP_COLUMNS = ("scenario", "check", "d", "n", "lambda", "beta",
                 "R", "bound", "achieved", "satisfied")

_THEOREM2_DIM_CAP = 16
_SCALAR_PATH_DIM = 64


class ScenarioError(ValueError):
    """Malformed scenario; the message carries the offending field path."""


def _expect_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: expected an object, got {type(obj).__name__}")
    return obj


def _check_keys(obj: dict, path: str, required: tuple, optional: tuple = ()):
    for key in required:
        if key not in obj:
            raise ScenarioError(f"{path}: missing required field '{key}'")
    for key in obj:
        if key not in required and key not in optional:
            raise ScenarioError(f"{path}.{key}: unknown field")


def _as_grid(obj, path: str, parse_item) -> tuple:
    if not isinstance(obj, list) or not obj:
        raise ScenarioError(f"{path}: expected a nonempty array")
    return tuple(parse_item(x, f"{path}[{i}]") for i, x in enumerate(obj))


def _parse_positive(x, path: str) -> float:
    if not isinstance(x, (int, float)) or not x > 0:
        raise ScenarioError(f"{path}: expected a positive number, got {x!r}")
    return float(x)


def _parse_beta_item(x, path: str) -> float:
    try:
        return parse_beta(x, path)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None


# ---------------------------------------------------------------------------
# state and channel specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _StateVariant:
    label: str
    d: int
    n: int | None          # qubit count for tensor-power families
    psi: np.ndarray | None  # pure-state vector when available
    rho: np.ndarray
    named: str | None


def _int_list(obj, path: str) -> list[int]:
    items = obj if isinstance(obj, list) else [obj]
    out = []
    for i, x in enumerate(items):
        if not isinstance(x, int) or x < 1:
            raise ScenarioError(f"{path}: expected a positive integer (or list), got {x!r}")
        out.append(x)
    if not out:
        raise ScenarioError(f"{path}: empty list")
    return out


def parse_state_spec(obj, path: str = "state") -> list[_StateVariant]:
    obj = _expect_mapping(obj, path)
    if "named" in obj:
        name = obj["named"]
        if name == "golden":
            _check_keys(obj, path, ("named", "d"))
            out = []
            for d in _int_list(obj["d"], f"{path}.d"):
                psi = golden_state(d)
                out.append(_StateVariant(f"golden({d})", d, None, psi, projector(psi), "golden"))
            return out
        if name == "tstate":
            _check_keys(obj, path, ("named", "n"))
            out = []
            for n in _int_list(obj["n"], f"{path}.n"):
                psi = t_state(n)
                rho = projector(psi) if 2**n <= _SCALAR_PATH_DIM else None
                out.append(_StateVariant(f"tstate({n})", 2**n, n, psi, rho, "tstate"))
            return out
        if name == "basis":
            _check_keys(obj, path, ("named", "d", "j"))
            d, j = obj["d"], obj["j"]
            if not isinstance(d, int) or d < 2:
                raise ScenarioError(f"{path}.d: expected an integer >= 2")
            if not isinstance(j, int) or not 0 <= j < d:
                raise ScenarioError(f"{path}.j: index out of range for d={d}")
            psi = basis_state(d, j)
            return [_StateVariant(f"basis({d},{j})", d, None, psi, projector(psi), "basis")]
        raise ScenarioError(f"{path}.named: unknown state '{name}'")
    if "vector" in obj:
        _check_keys(obj, path, ("vector",))
        psi = assert_pure(json_to_vector(obj["vector"], f"{path}.vector"))
        return [_StateVariant("custom-pure", psi.shape[0], None, psi, projector(psi), None)]
    if "matrix" in obj:
        _check_keys(obj, path, ("matrix",))
        rho = assert_density(json_to_matrix(obj["matrix"], f"{path}.matrix"))
        return [_StateVariant("custom-mixed", rho.shape[0], None, None, rho, None)]
    raise ScenarioError(f"{path}: expected one of 'named', 'vector', 'matrix'")


_NAMED_GATES = {"identity": None, "hadamard": HADAMARD, "t_gate": T_GATE, "s_gate": S_GATE}


def parse_channel_spec(obj, path: str = "channel") -> tuple[QuantumChannel, str]:
    obj = _expect_mapping(obj, path)
    if "named" in obj:
        name = obj["named"]
        if name == "identity":
            _check_keys(obj, path, ("named",), ("d",))
            d = obj.get("d", 2)
            return unitary_channel(np.eye(d)), f"identity({d})"
        if name in _NAMED_GATES and name != "identity":
            _check_keys(obj, path, ("named",))
            return unitary_channel(_NAMED_GATES[name]), name
        if name == "depolarizing":
            _check_keys(obj, path, ("named",), ("d", "p"))
            d = obj.get("d", 2)
            p = obj.get("p", 1.0)
            return depolarizing_channel(d, p), f"depolarizing({d},{p})"
        raise ScenarioError(f"{path}.named: unknown channel '{name}'")
    if "kraus" in obj:
        _check_keys(obj, path, ("kraus",))
        if not isinstance(obj["kraus"], list) or not obj["kraus"]:
            raise ScenarioError(f"{path}.kraus: expected a nonempty array of matrices")
        try:
            return make_channel([json_to_matrix(K, f"{path}.kraus[{i}]")
                                 for i, K in enumerate(obj["kraus"])]), "custom-kraus"
        except ValueError as exc:
            raise ScenarioError(f"{path}.kraus: {exc}") from None
    raise ScenarioError(f"{path}: expected one of 'named', 'kraus'")


def build_free_set(obj, d: int, path: str = "free_set") -> FreeSet:
    """Free set from a spec; dimension parameters are inferred from the
    state dimension d when omitted."""
    obj = _expect_mapping(obj, path)
    kind = obj.get("kind")
    if kind == "incoherent":
        _check_keys(obj, path, ("kind",), ("dim",))
        dim = obj.get("dim", d)
        if dim != d:
            raise ScenarioError(f"{path}.dim: {dim} does not match state dimension {d}")
        return incoherent_set(dim)
    if kind == "stabilizer":
        _check_keys(obj, path, ("kind",), ("n",))
        n = obj.get("n", int(round(math.log2(d))))
        if 2**n != d:
            raise ScenarioError(f"{path}.n: 2^{n} does not match state dimension {d}")
        return stabilizer_set(n)
    if kind == "finite_hull":
        _check_keys(obj, path, ("kind", "states"))
        if not isinstance(obj["states"], list) or not obj["states"]:
            raise ScenarioError(f"{path}.states: expected a nonempty array")
        pts = []
        for i, s in enumerate(obj["states"]):
            if isinstance(s, list) and s and isinstance(s[0], list) and s[0] and isinstance(s[0][0], list):
                pts.append(json_to_matrix(s, f"{path}.states[{i}]"))
            else:
                pts.append(json_to_vector(s, f"{path}.states[{i}]"))
        hull = finite_hull(pts)
        if hull.dim != d:
            raise ScenarioError(f"{path}.states: hull dimension {hull.dim} != state dimension {d}")
        return hull
    raise ScenarioError(f"{path}.kind: expected incoherent | stabilizer | finite_hull")


# ---------------------------------------------------------------------------
# scenario documents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    state: dict | None
    channel: dict | None
    input_state: dict | None
    free_set: dict
    lambda_grid: tuple
    beta_grid: tuple
    checks: tuple
    epsilon: float
    tol: float
    min_lambda_beta_factor: float


def load_scenario(obj) -> Scenario:
    obj = _expect_mapping(obj, "scenario")
    _check_keys(
        obj, "scenario",
        ("schema_version", "name", "free_set", "lambda_grid", "beta_grid", "checks"),
        ("state", "channel", "input_state", "seed", "epsilon", "tol", "min_lambda_beta_factor"),
    )
    if obj["schema_version"] != SCHEMA_VERSION:
        raise ScenarioError(f"scenario.schema_version: expected {SCHEMA_VERSION}")
    if not isinstance(obj["name"], str) or not obj["name"]:
        raise ScenarioError("scenario.name: expected a nonempty string")
    has_state, has_channel = "state" in obj, "channel" in obj
    if has_state == has_channel:
        raise ScenarioError("scenario: exactly one of 'state' or 'channel' is required")

    checks = obj["checks"]
    if not isinstance(checks, list) or not checks:
        raise ScenarioError("scenario.checks: expected a nonempty array")
    for i, c in enumerate(checks):
        if c not in ALL_CHECKS:
            raise ScenarioError(f"scenario.checks[{i}]: unknown check '{c}'")
        if has_state and c in CHANNEL_CHECKS:
            raise ScenarioError(f"scenario.checks[{i}]: '{c}' requires a channel scenario")
        if has_channel and c in STATE_CHECKS:
            raise ScenarioError(f"scenario.checks[{i}]: '{c}' requires a state scenario")
    if "input_state" in obj and not has_channel:
        raise ScenarioError("scenario.input_state: only meaningful for channel scenarios")

    seed = obj.get("seed", 0)
    if not isinstance(seed, int) or seed < 0:
        raise ScenarioError("scenario.seed: expected a nonnegative integer")
    epsilon = obj.get("epsilon", 0.05)
    if not isinstance(epsilon, (int, float)) or not 0 <= epsilon < 1:
        raise ScenarioError("scenario.epsilon: expected a number in [0, 1)")
    tol = obj.get("tol", DEFAULT_TOL)
    if not isinstance(tol, (int, float)) or not tol > 0:
        raise ScenarioError("scenario.tol: expected a positive number")
    factor = obj.get("min_lambda_beta_factor", 100.0)
    if not isinstance(factor, (int, float)) or not factor > 0:
        raise ScenarioError("scenario.min_lambda_beta_factor: expected a positive number")

    # parse eagerly so malformed specs fail at load time
    if has_state:
        parse_state_spec(obj["state"])
    else:
        parse_channel_spec(obj["channel"])
        if "input_state" in obj:
            parse_state_spec(obj["input_state"], "input_state")

    return Scenario(
        name=obj["name"],
        seed=seed,
        state=obj.get("state"),
        channel=obj.get("channel"),
        input_state=obj.get("input_state"),
        free_set=obj["free_set"],
        lambda_grid=_as_grid(obj["lambda_grid"], "scenario.lambda_grid", _parse_positive),
        beta_grid=_as_grid(obj["beta_grid"], "scenario.beta_grid", _parse_beta_item),
        checks=tuple(checks),
        epsilon=float(epsilon),
        tol=float(tol),
        min_lambda_beta_factor=float(factor),
    )


# ---------------------------------------------------------------------------
# witness resolution (one solve per state variant, shared across the grid)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Resolved:
    free_set: FreeSet | None
    witness: np.ndarray | None
    c: float | None
    y: np.ndarray | None
    R: float
    gap: float
    status: str
    scalar: bool  # thermo checks go through the rank-1 scalar path


def _resolve_state_witness(variant: _StateVariant, fs_spec: dict, tol: float) -> _Resolved:
    scalar = variant.d > _SCALAR_PATH_DIM
    free_set = None if scalar else build_free_set(fs_spec, variant.d)
    kind = _expect_mapping(fs_spec, "free_set").get("kind")

    if variant.psi is not None and kind == "incoherent":
        c, y = pure_coherence_witness(variant.psi)
        R = robustness_pure_coherence(variant.psi)
        witness = None if scalar else c * projector(y)
        return _Resolved(free_set, witness, c, y, R, 0.0, "closed_form", scalar)
    if variant.named == "tstate" and kind == "stabilizer":
        n = variant.n
        c = (4.0 - 2.0 * math.sqrt(2.0)) ** n
        y = t_state(n)
        R = tstate_magic_robustness(n)
        witness = None if scalar else c * projector(y)
        return _Resolved(free_set, witness, c, y, R, 0.0, "closed_form", scalar)

    if scalar:
        raise ScenarioError(
            f"state dimension {variant.d} exceeds the SDP cap and no closed-form "
            f"witness applies to free set kind '{kind}'"
        )
    result = robustness_dual(variant.rho, free_set, tol=tol)
    c = y = None
    if variant.psi is not None and result.value > 10 * tol:
        try:
            c, y = _rank1_truncation(variant.psi, free_set, result, tol)
        except Rank1NotTightError:
            pass
    return _Resolved(free_set, result.witness, c, y,
                     result.value, result.gap, result.status, False)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _entry(check, variant_label, d, n, lam, beta, robustness, report: BoundReport | None,
           skipped=False, reason=None) -> dict:
    rep = None
    if report is not None:
        rep = {
            "lhs": report.lhs,
            "rhs": report.rhs,
            "direction": report.direction,
            "satisfied": report.satisfied,
            "slack": report.slack,
            "precondition_met": report.precondition_met,
            "tolerance": report.tolerance,
            "detail": dict(report.detail),
        }
    return {
        "check": check,
        "state": variant_label,
        "d": d,
        "n": n,
        "lambda": lam,
        "beta": beta_to_json(beta),
        "robustness": robustness,
        "report": rep,
        "skipped": bool(skipped),
        "reason": reason,
    }


def _scalar_report(check: str, summary: dict, ctx: ThermoContext, epsilon: float,
                   factor: float, d: int) -> BoundReport:
    R = summary["R"]
    pre = theorem1_precondition(R, 0.0, ctx)
    if check == "theorem1":
        return _report("theorem1", summary["ratio"], summary["bound"], "lower", pre,
                       detail={"R": R, "S_rho": 0.0, "S_tau": summary["S_tau"], "path": "rank1-scalar"})
    if check == "eq10":
        if ctx.beta == INF_BETA:
            pre10 = True
        else:
            pre10 = ctx.lam * ctx.beta >= factor * math.log(d)
        return _report("eq10", summary["ratio"], (1.0 + R) * (1.0 - epsilon), "lower", pre10,
                       detail={"R": R, "epsilon": epsilon, "path": "rank1-scalar"})
    if check == "corollary1":
        return _report("corollary1", summary["cost_ratio"], summary["cost_bound"], "upper", pre,
                       detail={"R": R, "path": "rank1-scalar"})
    raise ValueError(f"no scalar path for check '{check}'")


def _state_report(check: str, scenario: Scenario, variant: _StateVariant, res: _Resolved,
                  ctx: ThermoContext) -> BoundReport:
    if res.scalar:
        overlap = float(np.abs(np.vdot(res.y, variant.psi)) ** 2)
        summary = rank1_work_summary(res.c, overlap, variant.d, ctx)
        return _scalar_report(check, summary, ctx, scenario.epsilon,
                              scenario.min_lambda_beta_factor, variant.d)
    if check == "theorem1":
        return verify_theorem1(variant.rho, res.free_set, ctx, witness=res.witness)
    if check == "eq10":
        return verify_eq10_ratio(variant.rho, res.free_set, ctx,
                                 epsilon=scenario.epsilon, witness=res.witness,
                                 min_lambda_beta_factor=scenario.min_lambda_beta_factor)
    return verify_xi_cost(variant.rho, res.free_set, ctx, witness=res.witness)


def _state_entries(scenario: Scenario, variant: _StateVariant) -> list[dict]:
    res = _resolve_state_witness(variant, scenario.free_set, scenario.tol)
    robustness = {"value": res.R, "gap": res.gap, "status": res.status}
    theorem2_skip = None
    if "theorem2" in scenario.checks:
        if variant.d > _THEOREM2_DIM_CAP:
            theorem2_skip = f"dimension {variant.d} above the theorem2 solver cap"
        elif res.c is None or res.y is None:
            theorem2_skip = "theorem2 needs a resourceful pure state with a rank-1 witness"
        else:
            require_maximally_mixed(res.free_set, variant.d)
    # the residual state depends on (lambda, beta) only through its weight a,
    # which is exactly 1.0 wherever beta*lambda*c exceeds ~37
    theorem2_by_weight: dict[float, BoundReport] = {}
    entries = []
    for lam in scenario.lambda_grid:
        for beta in scenario.beta_grid:
            ctx = ThermoContext(beta=beta, lam=lam)
            for check in scenario.checks:
                if check != "theorem2":
                    report = _state_report(check, scenario, variant, res, ctx)
                    skipped = not report.precondition_met
                    reason = "precondition not met" if skipped else None
                elif theorem2_skip is not None:
                    report, skipped, reason = None, True, theorem2_skip
                else:
                    a = residual_weight(res.c, ctx)
                    if a not in theorem2_by_weight:
                        theorem2_by_weight[a] = theorem2_at_weight(res.y, a, variant.d,
                                                                   res.free_set, tol=scenario.tol)
                    report, skipped, reason = theorem2_by_weight[a], False, None
                entries.append(_entry(check, variant.label, variant.d, variant.n, lam, beta,
                                      robustness, report, skipped, reason))
    return entries


def _lift_bipartite(fs_spec: dict, d: int) -> FreeSet | None:
    kind = _expect_mapping(fs_spec, "free_set").get("kind")
    if kind == "incoherent":
        return incoherent_set(d * d)
    if kind == "stabilizer":
        n = int(round(math.log2(d)))
        if 2 ** (2 * n) == d * d and 2 * n <= 3:
            return stabilizer_set(2 * n)
    return None


def _channel_input(scenario: Scenario, d: int) -> np.ndarray:
    if scenario.input_state is None:
        return projector(basis_state(d, 0))
    variants = parse_state_spec(scenario.input_state, "input_state")
    if len(variants) != 1:
        raise ScenarioError("input_state: must name a single state")
    return variants[0].rho


def _channel_entries(scenario: Scenario, channel: QuantumChannel, label: str) -> list[dict]:
    d = channel.dim
    bipartite = _lift_bipartite(scenario.free_set, d)
    choi = robustness = None
    if bipartite is not None:
        # one Choi solve serves the robustness block and theorem4
        choi = channel_robustness_lower(channel, bipartite, tol=scenario.tol)
        robustness = {"value": choi.value, "gap": choi.gap, "status": choi.status}
        J = choi_state(channel)
    output = None
    if "theorem3" in scenario.checks:
        output = theorem3_output_witness(channel, _channel_input(scenario, d),
                                         build_free_set(scenario.free_set, d), tol=scenario.tol)
    entries = []
    for lam in scenario.lambda_grid:
        for beta in scenario.beta_grid:
            ctx = ThermoContext(beta=beta, lam=lam)
            for check in scenario.checks:
                if check == "theorem3":
                    report = theorem3_report(output, ctx)
                elif bipartite is not None:
                    report = theorem4_report(J, bipartite, choi, ctx)
                else:
                    report = None
                if report is None:
                    skipped, reason = True, "free set kind cannot be lifted to the bipartite space"
                else:
                    skipped, reason = not report.precondition_met, report.detail.get("reason")
                entries.append(_entry(check, label, d, None, lam, beta, robustness, report,
                                      skipped, reason))
    return entries


def _grid_entries(scenario: Scenario) -> list[dict]:
    if scenario.state is not None:
        entries = [e for v in parse_state_spec(scenario.state) for e in _state_entries(scenario, v)]
    else:
        channel, label = parse_channel_spec(scenario.channel)
        entries = _channel_entries(scenario, channel, label)
    entries.sort(key=lambda e: (e["d"], e["n"] if e["n"] is not None else -1,
                                e["lambda"], math.inf if e["beta"] == "inf" else e["beta"],
                                e["check"]))
    return entries


def _solver_statuses(entry: dict) -> tuple:
    """Statuses of the solves behind an entry: its robustness block and its report."""
    detail = (entry["report"] or {}).get("detail") or {}
    return ((entry["robustness"] or {}).get("status"), detail.get("status"),
            detail.get("solver_status"))


def exit_code_of_report(report: dict) -> int:
    """0 all pass, 2 a precondition-met check failed, 3 solver non-convergence."""
    failed = any(
        not e["skipped"] and e["report"] is not None and not e["report"]["satisfied"]
        for e in report["entries"]
    )
    if failed:
        return 2
    nonconverged = any(MAX_ITERATIONS in _solver_statuses(e) for e in report["entries"])
    return 3 if nonconverged else 0


def run_scenario(scenario: Scenario) -> dict:
    """Evaluate every requested check on every grid point.

    Deterministic given (scenario, seed); each requested check appears
    exactly once per grid point, and skips carry explicit reasons.
    """
    start = time.perf_counter()
    entries = _grid_entries(scenario)
    report = {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario.name,
        "seed": scenario.seed,
        "entries": entries,
        "meta": {
            "generated_at": _dt.datetime.now(_dt.timezone.utc).isoformat(),
            "wall_time_s": time.perf_counter() - start,
        },
    }
    report["exit_code"] = exit_code_of_report(report)
    return report


def _json_default(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    raise TypeError(f"not JSON serializable: {type(x)}")


def _sanitize(obj):
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def report_to_json_text(report: dict) -> str:
    return json.dumps(_sanitize(report), sort_keys=True, indent=2, default=_json_default)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return f"{x:.12g}"


def sweep(scenario: Scenario) -> list[list[str]]:
    """CSV rows (including header) for the scenario's grid cross-product.

    Columns are fixed: scenario, check, d, n, lambda, beta, R, bound,
    achieved, satisfied; rows are sorted by (d, n, lambda, beta, check).
    ``satisfied`` is "skipped" for entries whose check could not run.
    """
    entries = _grid_entries(scenario)
    rows = [list(SWEEP_COLUMNS)]
    for e in entries:
        rep = e["report"]
        rows.append([
            scenario.name,
            e["check"],
            _fmt(e["d"]),
            _fmt(e["n"]),
            _fmt(e["lambda"]),
            _fmt(e["beta"]),
            _fmt(e["robustness"]["value"] if e["robustness"] else None),
            _fmt(rep["rhs"] if rep else None),
            _fmt(rep["lhs"] if rep else None),
            "skipped" if e["skipped"] else _fmt(rep["satisfied"] if rep else None),
        ])
    return rows


def sweep_to_csv(rows: list[list[str]]) -> str:
    return "\n".join(",".join(row) for row in rows) + "\n"
