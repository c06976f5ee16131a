"""Scenario runner: named states and channels, parameter grids, bound checks.

A scenario is a strict, versioned JSON document naming one state (or
channel) family, a free set, lambda/beta grids, and the checks to run.
``run_scenario`` produces a machine-readable report with one entry per
(grid point, check); ``sweep`` flattens the same evaluation into CSV rows.

Re-running a scenario with the same seed is byte-identical apart from the
``meta`` block (timestamp and wall time).  Every robustness program depends
only on the state (or channel) and the free set; lambda and beta enter
afterwards, through the Hamiltonian lambda*Y.  So each distinct program is
solved once per run, each witness is summarized once (``thermo.WitnessSummary``:
one eigendecomposition, or the closed form of a rank-1 witness), and the
grid points are then evaluated in a plain loop of scalar formulas.  Named
states with a closed-form witness run above the SDP cap; a free set that
cannot be enumerated (stabilizer states above 3 qubits) enters only through
the tight value max_k Tr[Y sigma_k] = 1, and theorem2 is then skipped.
"""

from __future__ import annotations

import datetime as _dt
import math
import time
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii

import numpy as np

from .channels import (
    ChoiState,
    QuantumChannel,
    choi_state,
    make_channel,
    theorem3_output_witness,
    theorem3_report,
    theorem4_report,
    unitary_channel,
    depolarizing_channel,
)
from .freesets import STABILIZER_MAX_QUBITS, FreeSet, finite_hull, incoherent_set, stabilizer_set
from .iojson import (
    _is_number,
    beta_to_json,
    json_to_matrix,
    json_to_vector,
    parse_beta,
)
from .linalg import assert_density, assert_pure, projector
from .solver import (
    DEFAULT_TOL,
    INFEASIBLE,
    MAX_ITERATIONS,
    pure_coherence_witness,
    rank1_truncation,
    Rank1NotTightError,
    robustness_dual,
    robustness_pure_coherence,
    tstate_magic_robustness,
)
from .states import HADAMARD, S_GATE, T_GATE, basis_state, golden_state, t_state
from .thermo import (
    BoundReport,
    ThermoContext,
    corollary1_report,
    eq10_report,
    rank1_summary,
    require_maximally_mixed,
    residual_weight,
    theorem1_report,
    theorem2_at_weight,
    witness_summary,
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
    "parse_input",
    "SWEEP_COLUMNS",
]

SCHEMA_VERSION = 1
STATE_CHECKS = ("theorem1", "eq10", "theorem2", "corollary1")
CHANNEL_CHECKS = ("theorem3", "theorem4")
ALL_CHECKS = STATE_CHECKS + CHANNEL_CHECKS
SWEEP_COLUMNS = ("scenario", "check", "d", "n", "lambda", "beta",
                 "R", "bound", "achieved", "satisfied")

_THEOREM2_DIM_CAP = 16
_SDP_DIM_CAP = 64  # no robustness program is solved above this; larger states need a closed form
# named families and free sets, whose d x d arrays are built in full; the largest in
# use is tstate(10) against incoherent(1024)
_FAMILY_DIM_CAP = 1024
_FAMILY_QUBIT_CAP = _FAMILY_DIM_CAP.bit_length() - 1


class ScenarioError(ValueError):
    """Malformed scenario; the message carries the offending field path."""


def _expect_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: expected an object, got {type(obj).__name__}")
    return obj


def _check_keys(obj: dict, path: str, required: tuple, optional: tuple = ()):
    """A required entry may be a tuple of alternatives, one of which must be present."""
    known = set(optional)
    for key in required:
        names = key if isinstance(key, tuple) else (key,)
        if not any(name in obj for name in names):
            raise ScenarioError(f"{path}: missing required field "
                                + " or ".join(f"'{name}'" for name in names))
        known.update(names)
    for key in obj:
        if key not in known:
            raise ScenarioError(f"{path}.{key}: unknown field")


def _as_grid(obj, path: str, parse_item) -> tuple:
    if not isinstance(obj, list) or not obj:
        raise ScenarioError(f"{path}: expected a nonempty array")
    return tuple(parse_item(x, f"{path}[{i}]") for i, x in enumerate(obj))


def _parse_positive(x, path: str) -> float:
    if not _is_number(x) or not x > 0:
        raise ScenarioError(f"{path}: expected a positive number, got {x!r}")
    return float(x)


def _parse_int(x, path: str, low: int, high: int | None = None) -> int:
    """An integer in low..high, checked before anything of that size is built."""
    if not isinstance(x, int) or isinstance(x, bool) or x < low or (high is not None and x > high):
        bounds = f">= {low}" if high is None else f"in {low}..{high}"
        raise ScenarioError(f"{path}: expected an integer {bounds}, got {x!r}")
    return x


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
    n: int | None           # qubit count for tensor-power families
    psi: np.ndarray | None  # pure-state vector when available
    rho: np.ndarray | None  # None above _SDP_DIM_CAP, where no program is solved


def _variant(label: str, psi=None, rho=None, n: int | None = None) -> _StateVariant:
    """A state variant; its density matrix (|psi><psi| for a pure state) is
    kept only up to _SDP_DIM_CAP."""
    d = (psi if psi is not None else rho).shape[0]
    if d > _SDP_DIM_CAP:
        rho = None
    elif rho is None:
        rho = projector(psi)
    return _StateVariant(label, d, n, psi, rho)


def _int_list(obj, path: str, high: int) -> list[int]:
    items = obj if isinstance(obj, list) else [obj]
    if not items:
        raise ScenarioError(f"{path}: empty list")
    return [_parse_int(x, path, 1, high) for x in items]


def parse_state_spec(obj, path: str = "state") -> list[_StateVariant]:
    obj = _expect_mapping(obj, path)
    if "named" in obj:
        name = obj["named"]
        if name == "golden":
            _check_keys(obj, path, ("named", "d"))
            return [_variant(f"golden({d})", golden_state(d))
                    for d in _int_list(obj["d"], f"{path}.d", _FAMILY_DIM_CAP)]
        if name == "tstate":
            _check_keys(obj, path, ("named", "n"))
            return [_variant(f"tstate({n})", t_state(n), n=n)
                    for n in _int_list(obj["n"], f"{path}.n", _FAMILY_QUBIT_CAP)]
        if name == "basis":
            _check_keys(obj, path, ("named", "d", "j"))
            d = _parse_int(obj["d"], f"{path}.d", 2, _FAMILY_DIM_CAP)
            j = _parse_int(obj["j"], f"{path}.j", 0)
            if j >= d:
                raise ScenarioError(f"{path}.j: index out of range for d={d}")
            return [_variant(f"basis({d},{j})", basis_state(d, j))]
        raise ScenarioError(f"{path}.named: unknown state '{name}'")
    if "vector" in obj:
        _check_keys(obj, path, ("vector",))
        psi = assert_pure(json_to_vector(obj["vector"], f"{path}.vector"))
        return [_variant("custom-pure", psi)]
    if "matrix" in obj:
        _check_keys(obj, path, ("matrix",))
        rho = assert_density(json_to_matrix(obj["matrix"], f"{path}.matrix"))
        return [_variant("custom-mixed", rho=rho)]
    raise ScenarioError(f"{path}: expected one of 'named', 'vector', 'matrix'")


def _single_state(obj, path: str = "state") -> _StateVariant:
    variants = parse_state_spec(obj, path)
    if len(variants) != 1:
        raise ScenarioError(f"{path}: expected a single state, got a family of {len(variants)}")
    if variants[0].rho is None:
        raise ScenarioError(f"{path}: {variants[0].label} has dimension {variants[0].d}, above "
                            f"the cap of {_SDP_DIM_CAP} for a single state")
    return variants[0]


_NAMED_GATES = {"hadamard": HADAMARD, "t_gate": T_GATE, "s_gate": S_GATE}


def parse_channel_spec(obj, path: str = "channel") -> tuple[QuantumChannel, str]:
    obj = _expect_mapping(obj, path)
    if "named" in obj:
        name = obj["named"]
        if name == "identity":
            _check_keys(obj, path, ("named",), ("d",))
            d = _parse_int(obj.get("d", 2), f"{path}.d", 1, _SDP_DIM_CAP)
            return unitary_channel(np.eye(d)), f"identity({d})"
        if name in _NAMED_GATES:
            _check_keys(obj, path, ("named",))
            return unitary_channel(_NAMED_GATES[name]), name
        if name == "depolarizing":
            _check_keys(obj, path, ("named",), ("d", "p"))
            # its d^2 dense Kraus operators take d^4 memory: capped where theorem4 runs
            d = _parse_int(obj.get("d", 2), f"{path}.d", 1, math.isqrt(_SDP_DIM_CAP))
            p = obj.get("p", 1.0)
            if not _is_number(p) or not 0 <= p <= 1:
                raise ScenarioError(f"{path}.p: expected a number in [0, 1], got {p!r}")
            return depolarizing_channel(d, p), f"depolarizing({d},{p})"
        raise ScenarioError(f"{path}.named: unknown channel '{name}'")
    if "kraus" in obj:
        _check_keys(obj, path, ("kraus",))
        if not isinstance(obj["kraus"], list) or not obj["kraus"]:
            raise ScenarioError(f"{path}.kraus: expected a nonempty array of matrices")
        try:
            channel = make_channel([json_to_matrix(K, f"{path}.kraus[{i}]")
                                    for i, K in enumerate(obj["kraus"])])
        except ValueError as exc:
            raise ScenarioError(f"{path}.kraus: {exc}") from None
        if channel.dim > _SDP_DIM_CAP:
            raise ScenarioError(f"{path}.kraus: dimension {channel.dim} above the cap of "
                                f"{_SDP_DIM_CAP} for a channel")
        return channel, "custom-kraus"
    raise ScenarioError(f"{path}: expected one of 'named', 'kraus'")


def _parse_free_set(obj, d: int | None,
                    path: str = "free_set") -> tuple[str, Callable[[], FreeSet]]:
    """The kind of a free-set spec and the builder of its set, checked against
    the dimension d of the state or channel.  Dimension parameters the spec
    omits are inferred from d; with no state (d None) they default to
    dim = 2 and n = 1, and no dimension is matched."""
    obj = _expect_mapping(obj, path)
    kind = obj.get("kind")
    if kind == "incoherent":
        _check_keys(obj, path, ("kind",), ("dim",))
        dim = _parse_int(obj.get("dim", d or 2), f"{path}.dim", 2, _FAMILY_DIM_CAP)
        if d not in (None, dim):
            raise ScenarioError(f"{path}.dim: {dim} does not match dimension {d}")
        return kind, lambda: incoherent_set(dim)
    if kind == "stabilizer":
        _check_keys(obj, path, ("kind",), ("n",))
        n = _parse_int(obj.get("n", 1 if d is None else round(math.log2(d))), f"{path}.n", 1,
                       _FAMILY_QUBIT_CAP)
        if d not in (None, 2**n):
            raise ScenarioError(f"{path}.n: 2^{n} does not match dimension {d}")
        return kind, lambda: stabilizer_set(n)
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
        if d not in (None, hull.dim):
            raise ScenarioError(f"{path}.states: hull dimension {hull.dim} != dimension {d}")
        return kind, lambda: hull
    raise ScenarioError(f"{path}.kind: expected incoherent | stabilizer | finite_hull")


def build_free_set(obj, d: int | None, path: str = "free_set") -> FreeSet:
    """Free set from a spec checked by :func:`_parse_free_set`."""
    return _parse_free_set(obj, d, path)[1]()


# ---------------------------------------------------------------------------
# scenario documents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    state: tuple | None             # the state variants, parsed once
    channel: tuple | None           # (QuantumChannel, label)
    input_state: np.ndarray | None  # theorem 3's input: the given state, else |0><0|
    free_set: dict                  # parsed per variant, against its dimension
    lambda_grid: tuple
    beta_grid: tuple
    checks: tuple
    epsilon: float
    tol: float
    min_lambda_beta_factor: float

    @cached_property
    def choi(self) -> ChoiState | None:
        """The channel's Choi state, built on first read; None above _SDP_DIM_CAP."""
        if self.channel is None or self.channel[0].dim ** 2 > _SDP_DIM_CAP:
            return None
        return choi_state(self.channel[0])


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

    epsilon = obj.get("epsilon", 0.05)
    if not _is_number(epsilon) or not 0 <= epsilon < 1:
        raise ScenarioError(f"scenario.epsilon: expected a number in [0, 1), got {epsilon!r}")

    # parsed once, here: malformed specs fail at load time, and the runner reads the result
    state = channel = input_state = None
    if has_state:
        state = tuple(parse_state_spec(obj["state"]))
    else:
        channel = parse_channel_spec(obj["channel"])
        input_state = (_single_state(obj["input_state"], "input_state").rho
                       if "input_state" in obj else projector(basis_state(channel[0].dim, 0)))
        if len(input_state) != channel[0].dim:
            raise ScenarioError(f"scenario.input_state: dimension {len(input_state)} does not "
                                f"match the channel's dimension {channel[0].dim}")

    return Scenario(
        name=obj["name"],
        seed=_parse_int(obj.get("seed", 0), "scenario.seed", 0),
        state=state,
        channel=channel,
        input_state=input_state,
        free_set=obj["free_set"],
        lambda_grid=_as_grid(obj["lambda_grid"], "scenario.lambda_grid", _parse_positive),
        beta_grid=_as_grid(obj["beta_grid"], "scenario.beta_grid", _parse_beta_item),
        checks=tuple(checks),
        epsilon=float(epsilon),
        tol=_parse_positive(obj.get("tol", DEFAULT_TOL), "scenario.tol"),
        min_lambda_beta_factor=_parse_positive(obj.get("min_lambda_beta_factor", 100.0),
                                               "scenario.min_lambda_beta_factor"),
    )


def parse_input(obj, required: tuple, optional: tuple = ()) -> dict:
    """A CLI input object, checked like a scenario document.  ``tol`` is always
    allowed and defaults to DEFAULT_TOL; specs are left to their own parsers."""
    obj = _expect_mapping(obj, "input")
    _check_keys(obj, "input", required, (*optional, "tol"))
    out = {**obj, "tol": _parse_positive(obj.get("tol", DEFAULT_TOL), "input.tol")}
    for key, parse in (("lambda", _parse_positive), ("beta", _parse_beta_item)):
        if key in obj:
            out[key] = parse(obj[key], f"input.{key}")
    return out


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _report_json(report: BoundReport) -> dict:
    return {
        "lhs": report.lhs,
        "rhs": report.rhs,
        "direction": report.direction,
        "satisfied": report.satisfied,
        "slack": report.slack,
        "precondition_met": report.precondition_met,
        "tolerance": report.tolerance,
        "detail": dict(report.detail),
    }


def _grid(scenario: Scenario, label: str, d: int, n: int | None, robustness: dict | None,
          evaluate) -> list[dict]:
    """One entry per (lambda, beta, check).  ``evaluate(check, ctx)`` gives the
    check's report, or the reason the check cannot run.  A report whose
    precondition fails is skipped with its detail's reason, if it names one."""
    entries = []
    for lam in scenario.lambda_grid:
        for beta in scenario.beta_grid:
            ctx = ThermoContext(beta=beta, lam=lam)
            for check in scenario.checks:
                report = evaluate(check, ctx)
                if isinstance(report, str):
                    report, reason = None, report
                elif report.precondition_met:
                    reason = None
                else:
                    reason = report.detail.get("reason", "precondition not met")
                entries.append({
                    "check": check,
                    "state": label,
                    "d": d,
                    "n": n,
                    "lambda": lam,
                    "beta": beta_to_json(beta),
                    "robustness": robustness,
                    "report": None if report is None else _report_json(report),
                    "skipped": reason is not None,
                    "reason": reason,
                })
    return entries


def _state_family(scenario: Scenario, variant: _StateVariant):
    """The robustness block and the grid evaluator of one state variant: one
    witness, from a closed form or one solve, shared across the grid."""
    kind, build = _parse_free_set(scenario.free_set, variant.d)
    enumerable = kind != "stabilizer" or variant.d <= 2**STABILIZER_MAX_QUBITS
    free_set = build() if enumerable else None
    c = y = None
    if variant.psi is not None and kind == "incoherent":
        (c, y), R = pure_coherence_witness(variant.psi), robustness_pure_coherence(variant.psi)
    elif variant.n is not None and kind == "stabilizer":
        R = tstate_magic_robustness(variant.n)
        c, y = 1.0 + R, t_state(variant.n)
    elif free_set is None or variant.rho is None:
        raise ScenarioError(f"no closed-form witness applies to free set kind '{kind}' at "
                            f"dimension {variant.d}, and the robustness program is out of reach")
    if c is not None:  # a closed-form rank-1 witness
        summary = rank1_summary(c, y, variant.psi, free_set)
        robustness = {"value": R, "gap": 0.0, "status": "closed_form"}
    else:
        result = robustness_dual(variant.rho, free_set, tol=scenario.tol)
        if result.status == INFEASIBLE:
            raise ScenarioError(f"free set {free_set.label()} cannot dominate the state "
                                f"{variant.label}")
        if variant.psi is not None and result.value > 10 * scenario.tol:
            try:
                c, y = rank1_truncation(variant.psi, free_set, result, scenario.tol)
            except Rank1NotTightError:
                pass
        summary = witness_summary(result.witness, variant.rho, free_set)
        robustness = {"value": result.value, "gap": result.gap, "status": result.status}
    theorem2_skip = None
    if "theorem2" in scenario.checks:
        if variant.d > _THEOREM2_DIM_CAP:
            theorem2_skip = f"dimension {variant.d} above the theorem2 solver cap"
        elif free_set is None:
            theorem2_skip = "theorem2 needs an enumerable free set"
        elif c is None or y is None:
            theorem2_skip = "theorem2 needs a resourceful pure state with a rank-1 witness"
        else:
            require_maximally_mixed(free_set, variant.d)
    # the residual state depends on (lambda, beta) only through its weight a,
    # which is exactly 1.0 wherever beta*lambda*c exceeds ~37
    theorem2_by_weight: dict[float, BoundReport] = {}

    def evaluate(check: str, ctx: ThermoContext) -> BoundReport | str:
        if check == "theorem1":
            return theorem1_report(summary, ctx)
        if check == "eq10":
            return eq10_report(summary, ctx, scenario.epsilon, scenario.min_lambda_beta_factor)
        if check == "corollary1":
            return corollary1_report(summary, ctx)
        if theorem2_skip is not None:
            return theorem2_skip
        a = residual_weight(c, ctx)
        if a not in theorem2_by_weight:
            theorem2_by_weight[a] = theorem2_at_weight(y, a, variant.d, free_set,
                                                       tol=scenario.tol)
        return theorem2_by_weight[a]

    return robustness, evaluate


def _lift_bipartite(kind: str, d: int) -> FreeSet | str:
    """Theorem 4's free set on the Choi space, or the reason theorem4 is skipped."""
    if d * d > _SDP_DIM_CAP:
        return f"Choi dimension {d * d} above the SDP cap of {_SDP_DIM_CAP}"
    if kind == "incoherent":
        return incoherent_set(d * d)
    if kind != "stabilizer":
        return "free set kind cannot be lifted to the bipartite space"
    n = 2 * (d.bit_length() - 1)  # d = 2^(n/2), as the free-set parser checked
    if n > STABILIZER_MAX_QUBITS:
        return f"stabilizer({n}) is above the {STABILIZER_MAX_QUBITS}-qubit enumeration cap"
    return stabilizer_set(n)


def _channel_family(scenario: Scenario, channel: QuantumChannel):
    """The robustness block and the grid evaluator of a channel."""
    d = channel.dim
    kind, build = _parse_free_set(scenario.free_set, d)
    theorem4_skip = choi = choi_summary = robustness = None
    if isinstance(bipartite := _lift_bipartite(kind, d), str):
        theorem4_skip = bipartite
    else:
        # one Choi state and one solve serve the robustness block and theorem4
        J = scenario.choi
        choi = robustness_dual(J.matrix, bipartite, tol=scenario.tol)
        robustness = {"value": choi.value, "gap": choi.gap, "status": choi.status}
        choi_summary = witness_summary(choi.witness, J.matrix, bipartite)
    output = None
    if "theorem3" in scenario.checks:
        output = theorem3_output_witness(channel, scenario.input_state, build(), tol=scenario.tol)

    def evaluate(check: str, ctx: ThermoContext) -> BoundReport | str:
        if check == "theorem3":
            return theorem3_report(output, ctx)
        return theorem4_skip or theorem4_report(choi_summary, choi, ctx)

    return robustness, evaluate


def _grid_entries(scenario: Scenario) -> list[dict]:
    if scenario.state is not None:
        entries = [e for v in scenario.state
                   for e in _grid(scenario, v.label, v.d, v.n, *_state_family(scenario, v))]
    else:
        channel, label = scenario.channel
        entries = _grid(scenario, label, channel.dim, None, *_channel_family(scenario, channel))
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


_NONFINITE_TEXT = {"nan": "null", "inf": '"inf"', "-inf": '"-inf"'}
# the JSON text of a value of exactly this type
_SCALAR_TEXT = {str: encode_basestring_ascii, int: int.__repr__, type(None): lambda _: "null",
                float: lambda x: _NONFINITE_TEXT.get(text := float.__repr__(x), text),
                bool: lambda b: "true" if b else "false"}


def _json_parts(obj, indent: str, out: list) -> None:
    """Append ``json.dumps(obj, sort_keys=True, indent=2)`` to ``out``, but with float NaN
    as null and +-inf as "inf"/"-inf"; other numpy scalars must be finite after ``.item()``."""
    inner = indent + "  "
    if isinstance(obj, dict):  # encode_basestring_ascii refuses a key that is no str
        keys, brackets = sorted(obj), "{}"
        heads = [f",\n{inner}{encode_basestring_ascii(k)}: " for k in keys]
        values = map(obj.get, keys)
    elif isinstance(obj, (list, tuple)):
        heads, values, brackets = [",\n" + inner] * len(obj), obj, "[]"
    else:  # a scalar, whose type may subclass a JSON type, as json.dumps allows
        if isinstance(obj, (np.floating, np.integer)) and not isinstance(obj, float):
            if not math.isfinite(obj := obj.item()):
                raise ValueError(f"out of range numpy scalar: {obj!r}")
        text = next((_SCALAR_TEXT[t] for t in type(obj).__mro__ if t in _SCALAR_TEXT), None)
        if text is None:
            raise TypeError(f"not JSON serializable: {type(obj)}")
        out.append(text(obj))
        return
    if heads:
        heads[0] = brackets[0] + heads[0][1:]
    for head, value in zip(heads, values):
        text = _SCALAR_TEXT.get(type(value))
        out.append(head if text is None else head + text(value))
        if text is None:
            _json_parts(value, inner, out)
    out.append("\n" + indent + brackets[1] if heads else brackets)


def report_to_json_text(report: dict) -> str:
    _json_parts(report, "", out := [])
    return "".join(out)


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
