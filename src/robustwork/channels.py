"""Kraus channels, Choi states, and channel-level cost bounds.

A channel on dimension d is represented by its Kraus list and, for resource
accounting, by the Choi state J = (E tensor id)|Phi><Phi| on dimension d^2,
with |Phi> the maximally entangled state.  Channel robustness is evaluated
as Choi-state robustness against a bipartite free-state set; because the
Choi states of free channels sit inside that hull, every witness feasible
for the hull is feasible for the channel program, so the computed value is
a certified LOWER bound on the channel robustness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .freesets import FreeSet
from .linalg import _check_count, assert_density, dagger, partial_trace, projector, trace_inner
from .solver import (_PURE_FREE_SLACK, DEFAULT_TOL, RobustnessResult, _feasible,
                     robustness_dual, witness_constraints)
from .states import maximally_entangled_state
from .thermo import (
    _DEGENERATE_R,
    BoundReport,
    ThermoContext,
    WitnessSummary,
    _cost_ratio,
    _report,
    extractable_work,
    theorem1_precondition,
    witness_summary,
)

__all__ = [
    "QuantumChannel",
    "ChoiState",
    "make_channel",
    "unitary_channel",
    "depolarizing_channel",
    "apply_channel",
    "choi_state",
    "apply_via_choi",
    "channel_robustness_lower",
    "channel_cost_proxy",
    "OutputWitness",
    "theorem3_output_witness",
    "theorem3_report",
    "theorem3_bound",
    "theorem4_report",
    "theorem4_bound",
]


@dataclass(frozen=True)
class QuantumChannel:
    """Trace-preserving channel with equal input and output dimension."""

    kraus: tuple
    dim: int

    def __post_init__(self):
        if not self.kraus:
            raise ValueError("kraus must hold at least one operator")
        acc = np.zeros((self.dim, self.dim), dtype=complex)
        for K in self.kraus:
            K = np.asarray(K)
            if K.shape != (self.dim, self.dim):
                raise ValueError(f"Kraus operator shape {K.shape} != ({self.dim}, {self.dim})")
            acc += dagger(K) @ K
        if not np.abs(acc - np.eye(self.dim)).max() <= 1e-9:  # also catches NaN
            raise ValueError("Kraus operators do not satisfy sum K^dag K = I")


@dataclass(frozen=True)
class ChoiState:
    """Choi state on dimension d^2 (output subsystem first)."""

    matrix: np.ndarray
    d: int

    def __post_init__(self):
        assert_density(self.matrix, "Choi state")
        marginal = partial_trace(self.matrix, 0, (self.d, self.d))
        if np.abs(marginal - np.eye(self.d) / self.d).max() > 1e-8:
            raise ValueError("Choi marginal over the output is not I/d")


def make_channel(kraus_list) -> QuantumChannel:
    kraus = tuple(np.asarray(K, dtype=complex) for K in kraus_list)
    # a 0-d entry has no dimension to read; QuantumChannel then names its shape ()
    return QuantumChannel(kraus=kraus, dim=kraus[0].shape[0] if kraus and kraus[0].ndim else 0)


def unitary_channel(U) -> QuantumChannel:
    """The channel rho -> U rho U^dag; U^dag U = I is the completeness check."""
    return make_channel([U])


def depolarizing_channel(d: int, p: float = 1.0) -> QuantumChannel:
    """rho -> (1-p) rho + p I/d via the |i><j|/sqrt(d) Kraus family."""
    _check_count(d, "d", 1)
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    ops = []
    if p < 1.0:
        ops.append(math.sqrt(1.0 - p) * np.eye(d, dtype=complex))
    if p > 0.0:
        for i in range(d):
            for j in range(d):
                E = np.zeros((d, d), dtype=complex)
                E[i, j] = math.sqrt(p / d)
                ops.append(E)
    return QuantumChannel(kraus=tuple(ops), dim=d)


def apply_channel(E: QuantumChannel, rho) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (E.dim, E.dim):
        raise ValueError(f"rho has shape {rho.shape}, expected ({E.dim}, {E.dim})")
    out = np.zeros_like(rho)
    for K in E.kraus:
        out += K @ rho @ dagger(K)
    return 0.5 * (out + dagger(out))


def choi_state(E: QuantumChannel) -> ChoiState:
    """J = (E tensor id)|Phi><Phi|; rank 1 for unitary channels."""
    eye = np.eye(E.dim, dtype=complex)
    lifted = make_channel([np.kron(K, eye) for K in E.kraus])
    return ChoiState(matrix=apply_channel(lifted, projector(maximally_entangled_state(E.dim))),
                     d=E.dim)


def apply_via_choi(J: ChoiState, rho) -> np.ndarray:
    """Channel action from the Choi state: d * Tr_B[(I tensor rho^T) J]."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (J.d, J.d):
        raise ValueError(f"state dimension {rho.shape} does not match Choi d={J.d}")
    lifted = np.kron(np.eye(J.d, dtype=complex), rho.T) @ J.matrix
    out = J.d * partial_trace(lifted, 1, (J.d, J.d))
    return 0.5 * (out + dagger(out))


def channel_robustness_lower(E: QuantumChannel, bipartite_spec: FreeSet,
                             tol: float = DEFAULT_TOL) -> RobustnessResult:
    """Certified lower bound on the channel robustness.

    The hull of ``bipartite_spec`` must contain the Choi states of the
    intended free channels; its witnesses are then feasible for the channel
    dual program, so the solved value cannot exceed the channel robustness.
    """
    return _choi_program(E, bipartite_spec, tol)[1]


def _choi_program(E: QuantumChannel, bipartite_spec: FreeSet,
                  tol: float) -> tuple[ChoiState, RobustnessResult]:
    """The Choi state of E and its program solved against ``bipartite_spec``."""
    J = choi_state(E)
    if bipartite_spec.dim != J.d**2:
        raise ValueError("bipartite free set must live on dimension d^2")
    return J, robustness_dual(J.matrix, bipartite_spec, tol=tol)


def channel_cost_proxy(E: QuantumChannel, H_AB, beta: float) -> float:
    """Work cost of preparing the Choi state under H_AB."""
    return extractable_work(choi_state(E).matrix, H_AB, beta)


@dataclass(frozen=True)
class OutputWitness:
    """The (lambda, beta)-independent half of theorem 3: the summary of the
    certified witness Y of the channel output E(sigma_in), with that output as
    its state, and the energy Tr[Y sigma_in] of the free pure input."""

    summary: WitnessSummary
    energy_in: float
    result: RobustnessResult


def theorem3_output_witness(E: QuantumChannel, sigma_in, spec: FreeSet,
                            tol: float = DEFAULT_TOL) -> OutputWitness:
    """Validate the free pure input and solve the output state's program.

    Pure states are extreme among states, so sigma_in is a free pure state iff it is one
    of the extreme points: as Tr[sigma_in sigma_k] <= lambda_max(sigma_in) <= 1, iff some
    constraint value reaches 1 to _PURE_FREE_SLACK.  Raises InfeasibleHullError when the hull
    cannot dominate the output."""
    sigma_in = assert_density(sigma_in)
    if not sigma_in.shape[0] == E.dim == spec.dim:
        raise ValueError(f"sigma_in has dimension {sigma_in.shape[0]} and the free set "
                         f"{spec.dim}, but the channel acts on dimension {E.dim}")
    if not witness_constraints(sigma_in, spec).max() >= 1.0 - _PURE_FREE_SLACK:
        raise ValueError("sigma_in must be a pure state of the free set")
    out = apply_channel(E, sigma_in)
    result = _feasible(robustness_dual(out, spec, tol=tol), spec)
    return OutputWitness(witness_summary(result.witness, out, spec),
                         trace_inner(result.witness, sigma_in), result)


def theorem3_report(w: OutputWitness, ctx: ThermoContext) -> BoundReport:
    """Theorem 3 at one (lambda, beta) from a solved OutputWitness.

    The pure input carries no entropy, so its free energy is lambda Tr[Y sigma_in].
    """
    R = w.result.lower_bound
    S_out = w.summary.S_rho
    pre = theorem1_precondition(R, S_out, ctx)
    detail = {"R": R, "S_out": S_out, "solver_status": w.result.status}
    if R <= _DEGENERATE_R:
        return _report("theorem3", math.inf, math.inf, "upper", False,
                       detail={**detail, "reason": "channel output is free; bound undefined"})

    f_out, f_free = w.summary.free_energies(ctx)
    f_in = ctx.lam * w.energy_in
    denom = f_out - f_in
    if denom <= 0.0:
        return _report("theorem3", math.inf, math.inf, "upper", False,
                       detail={**detail, "reason": "nonpositive output work cost"})
    achieved = (float(f_free.max()) - f_in) / denom
    rhs = 1.0 / (R - ctx.inv_lam_beta * S_out)
    return _report("theorem3", achieved, rhs, "upper", pre, detail=detail)


def theorem3_bound(E: QuantumChannel, sigma_in, spec: FreeSet, ctx: ThermoContext,
                   tol: float = DEFAULT_TOL) -> BoundReport:
    """Cost of generating the output state versus any free operation.

    Achieved ratio: max over free extreme-point outputs omega of
    (F(omega) - F(sigma_in)) / (F(E(sigma_in)) - F(sigma_in)) at
    H = lambda * Y with Y the output state's witness; bound:
    1 / (R - S(out)/(lambda beta)).
    """
    return theorem3_report(theorem3_output_witness(E, sigma_in, spec, tol=tol), ctx)


def theorem4_report(choi: WitnessSummary, result: RobustnessResult,
                    ctx: ThermoContext) -> BoundReport:
    """Theorem 4 at one (lambda, beta) from the solved Choi program ``result``
    and the summary of its witness, with the Choi state as the state: corollary
    1's cost ratio, at R = ``result.lower_bound``."""
    R = result.lower_bound
    detail = {"R": R, "S_choi": choi.S_rho, "solver_status": result.status}
    if R <= _DEGENERATE_R:
        return _report("theorem4", 1.0, 1.0, "upper", False,
                       detail={**detail, "reason": "channel is free w.r.t. the relaxation"})
    ratio = _cost_ratio(choi, R, ctx, 0.0)
    if ratio is None:
        return _report("theorem4", math.inf, math.inf, "upper", False,
                       detail={**detail, "reason": "nonpositive channel cost"})
    achieved, rhs, pre, S_tau = ratio
    return _report("theorem4", achieved, rhs, "upper", pre, detail={**detail, "S_tau": S_tau})


def theorem4_bound(E: QuantumChannel, bipartite_spec: FreeSet, ctx: ThermoContext,
                   tol: float = DEFAULT_TOL) -> BoundReport:
    """Choi-proxy implementation cost of the channel versus free channels.

    Achieved ratio: max over free bipartite extreme points of
    W_cost(omega) / W_cost(E) at H_AB = lambda * Z with Z the Choi witness;
    bound: (1 + S(tau)/(lam beta)) / (1 + R + (S(tau) - S(J))/(lam beta)).
    """
    J, result = _choi_program(E, bipartite_spec, tol)
    result = _feasible(result, bipartite_spec)
    return theorem4_report(witness_summary(result.witness, J.matrix, bipartite_spec), result, ctx)
