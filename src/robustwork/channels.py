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

from .freesets import FreeSet, membership
from .linalg import assert_density, dagger, partial_trace, projector, trace_inner
from .solver import DEFAULT_TOL, RobustnessResult, robustness_dual
from .states import maximally_entangled_state
from .thermo import (
    BoundReport,
    ThermoContext,
    WitnessSummary,
    _report,
    corollary1_bound,
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
            raise ValueError("channel needs at least one Kraus operator")
        acc = np.zeros((self.dim, self.dim), dtype=complex)
        for K in self.kraus:
            K = np.asarray(K)
            if K.shape != (self.dim, self.dim):
                raise ValueError(f"Kraus operator shape {K.shape} != ({self.dim}, {self.dim})")
            acc += dagger(K) @ K
        if np.abs(acc - np.eye(self.dim)).max() > 1e-9:
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
    return QuantumChannel(kraus=kraus, dim=kraus[0].shape[0])


def unitary_channel(U) -> QuantumChannel:
    U = np.asarray(U, dtype=complex)
    if np.abs(dagger(U) @ U - np.eye(U.shape[0])).max() > 1e-9:
        raise ValueError("matrix is not unitary")
    return QuantumChannel(kraus=(U,), dim=U.shape[0])


def depolarizing_channel(d: int, p: float = 1.0) -> QuantumChannel:
    """rho -> (1-p) rho + p I/d via the |i><j|/sqrt(d) Kraus family."""
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
    out = np.zeros_like(rho)
    for K in E.kraus:
        out += K @ rho @ dagger(K)
    return 0.5 * (out + dagger(out))


def choi_state(E: QuantumChannel) -> ChoiState:
    """J = (E tensor id)|Phi><Phi|; rank 1 for unitary channels."""
    d = E.dim
    phi = projector(maximally_entangled_state(d))
    J = np.zeros((d * d, d * d), dtype=complex)
    eye = np.eye(d, dtype=complex)
    for K in E.kraus:
        KI = np.kron(K, eye)
        J += KI @ phi @ dagger(KI)
    J = 0.5 * (J + dagger(J))
    return ChoiState(matrix=J, d=d)


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
    J = choi_state(E)
    if bipartite_spec.dim != J.d**2:
        raise ValueError("bipartite free set must live on dimension d^2")
    return robustness_dual(J.matrix, bipartite_spec, tol=tol)


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
    """Validate the free pure input and solve the output state's program."""
    sigma_in = assert_density(sigma_in)
    if np.linalg.eigvalsh(sigma_in)[-1] < 1.0 - 1e-9:
        raise ValueError("sigma_in must be pure")
    if not membership(spec, sigma_in, tol=1e-6):
        raise ValueError("sigma_in must be a free state")
    out = apply_channel(E, sigma_in)
    result = robustness_dual(out, spec, tol=tol)
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
    if R <= 1e-9:
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
    and the summary of its witness, with the Choi state as the state."""
    R = result.lower_bound
    S_J = choi.S_rho
    detail = {"R": R, "S_choi": S_J, "solver_status": result.status}
    if R <= 1e-9:
        return _report("theorem4", 1.0, 1.0, "upper", False,
                       detail={**detail, "reason": "channel is free w.r.t. the relaxation"})

    f_tau, S_tau = choi.gibbs(ctx)
    f_J, f_free = choi.free_energies(ctx)
    cost_channel = f_J - f_tau
    pre = theorem1_precondition(R, S_J, ctx)
    if cost_channel <= 0.0:
        return _report("theorem4", math.inf, math.inf, "upper", False,
                       detail={**detail, "reason": "nonpositive channel cost"})
    achieved = max(float(f_free.max()) - f_tau, 0.0) / cost_channel
    rhs = corollary1_bound(R, S_J, S_tau, ctx)
    detail["S_tau"] = S_tau
    return _report("theorem4", achieved, rhs, "upper", pre, detail=detail)


def theorem4_bound(E: QuantumChannel, bipartite_spec: FreeSet, ctx: ThermoContext,
                   tol: float = DEFAULT_TOL) -> BoundReport:
    """Choi-proxy implementation cost of the channel versus free channels.

    Achieved ratio: max over free bipartite extreme points of
    W_cost(omega) / W_cost(E) at H_AB = lambda * Z with Z the Choi witness;
    bound: (1 + S(tau)/(lam beta)) / (1 + R + (S(tau) - S(J))/(lam beta)).
    """
    result = channel_robustness_lower(E, bipartite_spec, tol=tol)
    choi = witness_summary(result.witness, choi_state(E).matrix, bipartite_spec)
    return theorem4_report(choi, result, ctx)
