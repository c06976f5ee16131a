"""Free-energy bookkeeping, the witness-Hamiltonian cycle, and bound checks.

The work functional is W_H(rho) = F_H(rho) - F_H(tau) with free energy
F_H(rho) = Tr[H rho] - S(rho)/beta and tau the Gibbs state of H; it measures
both the extractable work from rho and the cost of preparing it.  The
extraction protocol quenches a working medium between H = 0 and the witness
Hamiltonian H = lambda * Y, swaps in the fuel state, and rethermalizes; its
net output telescopes to W_{lambda Y}(rho).

Every bound verifier below evaluates an inequality with the *witness
certified* robustness Tr[Y rho] - 1 on both sides, so the checks are exact
consequences of witness feasibility rather than solver-trusted claims.
Achieved ratios maximize over the free set's extreme points only: the free
energy is convex in the state (linear energy minus concave entropy), so the
maximum over the hull is attained at an extreme point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .freesets import FreeSet, membership
from .linalg import (
    INF_BETA,
    assert_density,
    assert_hermitian,
    assert_pure,
    maximally_mixed,
    gibbs_state,
    trace_inner,
    von_neumann_entropy,
)
from .solver import DEFAULT_TOL, RobustnessResult, robustness_dual

__all__ = [
    "ThermoContext",
    "ProtocolTrace",
    "BoundReport",
    "free_energy",
    "extractable_work",
    "work_cost",
    "max_free_extractable_work",
    "theorem1_bound",
    "theorem1_precondition",
    "simulate_protocol",
    "verify_theorem1",
    "verify_eq10_ratio",
    "residual_thermal_closed_form",
    "residual_weight",
    "require_maximally_mixed",
    "theorem2_at_weight",
    "verify_theorem2",
    "corollary1_bound",
    "verify_xi_cost",
    "rank1_work_summary",
]

BOUND_TOL = 1e-9
_DEGENERATE_R = 1e-9
_ZERO_WORK = 1e-12


@dataclass(frozen=True)
class ThermoContext:
    """Inverse temperature and the multiplicative Hamiltonian scale."""

    beta: float
    lam: float

    def __post_init__(self):
        if not (self.beta >= 0.0):
            raise ValueError(f"beta must be >= 0 or inf, got {self.beta}")
        if not (self.lam > 0.0):
            raise ValueError(f"lambda must be > 0, got {self.lam}")

    @property
    def inv_lam_beta(self) -> float:
        """1/(lambda beta); zero at zero temperature."""
        if self.beta == INF_BETA:
            return 0.0
        return 1.0 / (self.lam * self.beta)


@dataclass(frozen=True)
class ProtocolTrace:
    """Per-stage work ledger of the quench/thermalization cycle."""

    dw_a: float
    dw_b: float
    dw_c: float
    dw_d: float
    total: float
    hamiltonian: np.ndarray
    final_state: np.ndarray


@dataclass(frozen=True)
class BoundReport:
    """One evaluated inequality.

    ``direction`` is "lower" (satisfied iff lhs >= rhs - tolerance) or
    "upper" (lhs <= rhs + tolerance); ``slack`` is the signed margin, and
    ``precondition_met`` records the theorem's lambda/robustness guard.
    """

    label: str
    lhs: float
    rhs: float
    direction: str
    satisfied: bool
    slack: float
    precondition_met: bool
    tolerance: float = BOUND_TOL
    detail: dict = field(default_factory=dict)


def _report(label, lhs, rhs, direction, precondition_met, tolerance=BOUND_TOL, detail=None):
    slack = (lhs - rhs) if direction == "lower" else (rhs - lhs)
    return BoundReport(
        label=label,
        lhs=float(lhs),
        rhs=float(rhs),
        direction=direction,
        satisfied=bool(slack >= -tolerance),
        slack=float(slack),
        precondition_met=bool(precondition_met),
        tolerance=tolerance,
        detail=detail or {},
    )


# ---------------------------------------------------------------------------
# work functionals
# ---------------------------------------------------------------------------


def free_energy(rho, H, beta: float) -> float:
    """F_H(rho) = Tr[H rho] - S(rho)/beta; at beta = inf just the energy."""
    rho = assert_density(rho)
    H = assert_hermitian(H, "Hamiltonian")
    if rho.shape != H.shape:
        raise ValueError(f"dimension mismatch: state {rho.shape} vs H {H.shape}")
    if beta == 0.0:
        raise ValueError("free energy is unbounded at beta = 0; use beta > 0 or inf")
    energy = trace_inner(H, rho)
    if beta == INF_BETA:
        return energy
    return energy - von_neumann_entropy(rho) / beta


def extractable_work(rho, H, beta: float) -> float:
    """F_H(rho) - F_H(Gibbs); nonnegative because the Gibbs state minimizes F."""
    tau = gibbs_state(H, beta)
    w = free_energy(rho, H, beta) - free_energy(tau, H, beta)
    if w < -BOUND_TOL:
        raise ArithmeticError(f"work {w} below -1e-9: Gibbs minimality violated")
    return max(w, 0.0)


def work_cost(rho, H, beta: float) -> float:
    """Work to prepare rho from the thermal state: the same functional."""
    return extractable_work(rho, H, beta)


def _extreme_free_energies(spec: FreeSet, H: np.ndarray, beta: float) -> np.ndarray:
    """F_H over the extreme points, ordered like spec.density_matrices()."""
    out = []
    if spec.vectors:
        V = np.stack(spec.vectors, axis=1)
        energies = np.einsum("ik,ij,jk->k", V.conj(), H, V, optimize=True).real
        out.append(energies)  # pure states carry no entropy term
    if spec.matrices:
        vals = []
        for sigma in spec.matrices:
            f = trace_inner(H, sigma)
            if beta != INF_BETA:
                f -= von_neumann_entropy(sigma) / beta
            vals.append(f)
        out.append(np.array(vals))
    return np.concatenate(out)


def max_free_extractable_work(spec: FreeSet, H, beta: float):
    """Maximum of the work functional over the free set.

    Scanning extreme points only is exact: F_H is convex in the state, so
    the maximum over the hull sits at an extreme point.  Ties break to the
    lowest index (density_matrices() order).
    """
    H = assert_hermitian(H, "Hamiltonian")
    if spec.dim != H.shape[0]:
        raise ValueError("free set and Hamiltonian dimensions differ")
    tau = gibbs_state(H, beta)
    f_tau = free_energy(tau, H, beta)
    works = _extreme_free_energies(spec, H, beta) - f_tau
    idx = int(np.argmax(works))
    return max(float(works[idx]), 0.0), idx


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def theorem1_bound(R: float, S_rho: float, S_tau: float, ctx: ThermoContext) -> float:
    """Work-advantage bound 1 + (R - S(rho)/(lam beta)) / (1 + S(tau)/(lam beta)).

    Collapses to 1 + R at zero temperature.
    """
    x = ctx.inv_lam_beta
    return 1.0 + (R - x * S_rho) / (1.0 + x * S_tau)


def corollary1_bound(R: float, S_rho: float, S_tau: float, ctx: ThermoContext) -> float:
    """Preparation-cost bound; collapses to 1/(1 + R) at zero temperature."""
    x = ctx.inv_lam_beta
    return (1.0 + x * S_tau) / (1.0 + R + x * (S_tau - S_rho))


def theorem1_precondition(R: float, S_rho: float, ctx: ThermoContext) -> bool:
    """lambda >= S(rho) / (beta R); degenerate (R ~ 0) counts as unmet."""
    if R <= _DEGENERATE_R:
        return False
    if ctx.beta == INF_BETA:
        return True
    return ctx.lam >= S_rho / (ctx.beta * R) - 1e-12


# ---------------------------------------------------------------------------
# the protocol
# ---------------------------------------------------------------------------


def simulate_protocol(rho, witness, ctx: ThermoContext) -> ProtocolTrace:
    """Four-stage cycle against the Hamiltonian lambda * witness.

    (a) isothermally raise the medium Hamiltonian from 0 to lambda*Y,
    (b) swap in the fuel state (energy preserving, zero work),
    (c) rethermalize, extracting F(rho) - F(tau),
    (d) isothermally reset the Hamiltonian, refunding stage (a) exactly.
    """
    rho = assert_density(rho)
    witness = assert_hermitian(witness, "witness")
    if np.linalg.eigvalsh(witness)[0] < -1e-9:
        raise ValueError("witness must be PSD")
    d = rho.shape[0]
    H = ctx.lam * witness
    tau = gibbs_state(H, ctx.beta)
    f_tau = free_energy(tau, H, ctx.beta)
    f_uniform = 0.0 if ctx.beta == INF_BETA else -math.log(d) / ctx.beta
    dw_a = f_uniform - f_tau
    dw_b = 0.0
    dw_c = free_energy(rho, H, ctx.beta) - f_tau
    dw_d = -dw_a
    total = dw_a + dw_b + dw_c + dw_d
    return ProtocolTrace(dw_a, dw_b, dw_c, dw_d, total, H, tau)


@dataclass(frozen=True)
class _RatioPieces:
    R: float
    S_rho: float
    S_tau: float
    work_state: float
    work_free_max: float
    argmax_index: int
    ratio: float
    skipped_free: int


def _work_ratio(rho, spec: FreeSet, witness, ctx: ThermoContext) -> _RatioPieces:
    """W(rho)/max_sigma W(sigma) under H = lambda * witness.

    Free points with work below 1e-12 cannot enter the denominator (their
    ratio is infinite); if every point is below, the ratio reports inf.
    """
    H = ctx.lam * witness
    tau = gibbs_state(H, ctx.beta)
    f_tau = free_energy(tau, H, ctx.beta)
    works = _extreme_free_energies(spec, H, ctx.beta) - f_tau
    work_state = free_energy(rho, H, ctx.beta) - f_tau
    usable = works > _ZERO_WORK
    if np.any(usable):
        idx = int(np.argmax(np.where(usable, works, -math.inf)))
        ratio = work_state / float(works[idx])
    else:
        idx = -1
        ratio = math.inf
    return _RatioPieces(
        R=trace_inner(witness, rho) - 1.0,
        S_rho=von_neumann_entropy(rho),
        S_tau=von_neumann_entropy(tau),
        work_state=float(work_state),
        work_free_max=float(works.max()) if len(works) else 0.0,
        argmax_index=idx,
        ratio=float(ratio),
        skipped_free=int((~usable).sum()),
    )


def _resolve_witness(rho, spec, witness, tol) -> tuple[np.ndarray, RobustnessResult | None]:
    if witness is not None:
        return assert_hermitian(witness, "witness"), None
    result = robustness_dual(rho, spec, tol=tol)
    return result.witness, result


def verify_theorem1(rho, spec: FreeSet, ctx: ThermoContext, witness=None,
                    tol: float = DEFAULT_TOL) -> BoundReport:
    """Achieved work ratio >= theorem1_bound, under H = lambda * Y.

    With no witness given, the solver's certified witness is used; R is
    always the witness objective Tr[Y rho] - 1, so the inequality is a
    theorem whenever the precondition holds.
    """
    rho = assert_density(rho)
    witness, _ = _resolve_witness(rho, spec, witness, tol)
    p = _work_ratio(rho, spec, witness, ctx)
    pre = theorem1_precondition(p.R, p.S_rho, ctx)
    rhs = theorem1_bound(p.R, p.S_rho, p.S_tau, ctx)
    detail = {"R": p.R, "S_rho": p.S_rho, "S_tau": p.S_tau,
              "skipped_free_states": p.skipped_free}
    return _report("theorem1", p.ratio, rhs, "lower", pre, detail=detail)


def verify_eq10_ratio(rho, spec: FreeSet, ctx: ThermoContext, epsilon: float = 0.05,
                      witness=None, min_lambda_beta_factor: float = 100.0,
                      tol: float = DEFAULT_TOL) -> BoundReport:
    """Relative work output >= (1 + R)(1 - epsilon) for large lambda*beta.

    The asymptotic condition is operationalized as
    lambda*beta >= min_lambda_beta_factor * ln d.
    """
    rho = assert_density(rho)
    witness, _ = _resolve_witness(rho, spec, witness, tol)
    p = _work_ratio(rho, spec, witness, ctx)
    d = rho.shape[0]
    if ctx.beta == INF_BETA:
        pre = True
    else:
        pre = ctx.lam * ctx.beta >= min_lambda_beta_factor * math.log(d)
    rhs = (1.0 + p.R) * (1.0 - epsilon)
    detail = {"R": p.R, "epsilon": epsilon, "skipped_free_states": p.skipped_free}
    return _report("eq10", p.ratio, rhs, "lower", pre, detail=detail)


def verify_xi_cost(rho, spec: FreeSet, ctx: ThermoContext, witness=None,
                   tol: float = DEFAULT_TOL) -> BoundReport:
    """Cost ratio max_sigma W_cost(sigma) / W_cost(rho) <= corollary1_bound.

    Evaluated at H = lambda * Y; this instantiates the minimization over
    Hamiltonians, so the measured ratio upper-bounds the optimal one.
    """
    rho = assert_density(rho)
    witness, _ = _resolve_witness(rho, spec, witness, tol)
    p = _work_ratio(rho, spec, witness, ctx)
    pre = theorem1_precondition(p.R, p.S_rho, ctx)
    if p.work_state <= _ZERO_WORK:
        return _report("corollary1", math.inf, 1.0, "upper", False,
                       detail={"reason": "state is thermal under the witness Hamiltonian"})
    achieved = max(p.work_free_max, 0.0) / p.work_state
    rhs = corollary1_bound(p.R, p.S_rho, p.S_tau, ctx)
    detail = {"R": p.R, "S_rho": p.S_rho, "S_tau": p.S_tau}
    return _report("corollary1", achieved, rhs, "upper", pre, detail=detail)


# ---------------------------------------------------------------------------
# residual resources after extraction
# ---------------------------------------------------------------------------


def residual_thermal_closed_form(y, c: float, ctx: ThermoContext, d: int) -> np.ndarray:
    """Thermal state of the rank-1 Hamiltonian lambda*c |y><y|:

        (I - (1 - e^{-beta lambda c}) |y><y|) / (d - (1 - e^{-beta lambda c}))
    """
    return _residual_state(y, residual_weight(c, ctx), d)


def residual_weight(c: float, ctx: ThermoContext) -> float:
    """a = 1 - e^{-beta lambda c}, the only way (lambda, beta) enter the residual state."""
    if c <= 0:
        raise ValueError("c must be positive")
    if ctx.beta == INF_BETA:
        return 1.0
    return 1.0 - math.exp(-ctx.beta * ctx.lam * c)


def _residual_state(y, a: float, d: int) -> np.ndarray:
    y = assert_pure(y)
    if y.shape[0] != d:
        raise ValueError(f"y has dimension {y.shape[0]}, expected {d}")
    return (np.eye(d, dtype=complex) - a * np.outer(y, y.conj())) / (d - a)


def require_maximally_mixed(spec_prime: FreeSet, d: int) -> None:
    """Theorem 2's precondition on the free set, checked by membership."""
    if not membership(spec_prime, maximally_mixed(d), tol=1e-6):
        raise ValueError("spec_prime must contain the maximally mixed state")


def theorem2_at_weight(y, a: float, d: int, spec_prime: FreeSet, tol: float = DEFAULT_TOL,
                       max_newton: int = 400) -> BoundReport:
    """Theorem 2 for the residual state of weight ``a`` (see residual_weight).

    Assumes ``require_maximally_mixed(spec_prime, d)`` has passed.  Grid
    points sharing ``a`` share this report.
    """
    result = robustness_dual(_residual_state(y, a, d), spec_prime, tol=tol, max_newton=max_newton)
    detail = {"upper_bound": result.upper_bound, "gap": result.gap, "status": result.status}
    return _report("theorem2", result.value, 1.0 / (d - 1), "upper", True,
                   tolerance=1e-7, detail=detail)


def verify_theorem2(y, c: float, ctx: ThermoContext, d: int, spec_prime: FreeSet,
                    tol: float = DEFAULT_TOL, max_newton: int = 400) -> BoundReport:
    """Residual robustness of the post-protocol thermal state is <= 1/(d-1).

    ``spec_prime`` may be any free set containing the maximally mixed state
    (checked via membership; violation is rejected, not silently computed).
    """
    require_maximally_mixed(spec_prime, d)
    return theorem2_at_weight(y, residual_weight(c, ctx), d, spec_prime, tol=tol,
                              max_newton=max_newton)


# ---------------------------------------------------------------------------
# scalar fast path for rank-1 witnesses (used by large-d sweeps)
# ---------------------------------------------------------------------------


def rank1_work_summary(c: float, overlap: float, d: int, ctx: ThermoContext,
                       free_max_constraint: float = 1.0) -> dict:
    """Protocol summary for Y = c|y><y| without building any matrix.

    ``overlap`` is |<y|psi>|^2 for the pure input state and
    ``free_max_constraint`` the known value of max_k Tr[Y sigma_k] (1 for
    every tight named witness).  The Hamiltonian spectrum is {lambda c, 0}
    with degeneracy {1, d-1}, so partition function, entropy, and free
    energies reduce to two-outcome formulas.
    """
    lam, beta = ctx.lam, ctx.beta
    R = c * overlap - 1.0
    if beta == INF_BETA:
        f_tau = 0.0
        s_tau = 0.0
    else:
        x = math.exp(-beta * lam * c)
        Z = (d - 1) + x
        f_tau = -math.log(Z) / beta
        p0 = 1.0 / Z
        s_tau = -(d - 1) * p0 * math.log(p0)
        if x > 0.0:
            pt = x / Z
            s_tau -= pt * math.log(pt)
    work_state = lam * c * overlap - f_tau  # pure state: no entropy term
    work_free = lam * free_max_constraint - f_tau
    return {
        "R": R,
        "S_tau": s_tau,
        "F_tau": f_tau,
        "work_state": work_state,
        "work_free_max": work_free,
        "ratio": work_state / work_free if work_free > _ZERO_WORK else math.inf,
        "bound": theorem1_bound(R, 0.0, s_tau, ctx),
        "cost_ratio": work_free / work_state if work_state > _ZERO_WORK else math.inf,
        "cost_bound": corollary1_bound(R, 0.0, s_tau, ctx),
    }
