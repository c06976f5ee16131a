"""Free-energy bookkeeping, the witness-Hamiltonian cycle, and bound checks.

The work functional is W_H(rho) = F_H(rho) - F_H(tau) with free energy
F_H(rho) = Tr[H rho] - S(rho)/beta and tau the Gibbs state of H; it measures
both the extractable work from rho and the cost of preparing it.  The
extraction protocol quenches a working medium between H = 0 and the witness
Hamiltonian H = lambda * Y, swaps in the fuel state, and rethermalizes; its
net output telescopes to W_{lambda Y}(rho).

Every check at H = lambda * Y reads one :class:`WitnessSummary`, built once
per witness: the spectrum of Y, Tr[Y rho], S(rho), the constraint values
Tr[Y sigma_k] and the entropies of the extreme points.  The Gibbs state of
lambda * Y is diagonal in Y's eigenbasis, so Z, F(tau) and S(tau) at any
(lambda, beta) are sums over that spectrum, and every free energy is
lambda * (energy) - (entropy)/beta.  ``witness_summary`` takes one
eigendecomposition of a general witness; ``rank1_summary`` builds the same
summary in closed form for Y = c|y><y|, without any d x d matrix.

Every bound verifier evaluates an inequality with the *witness certified*
robustness Tr[Y rho] - 1 on both sides, so the checks are exact consequences
of witness feasibility rather than solver-trusted claims.  Achieved ratios
maximize over the free set's extreme points only: the free energy is convex
in the state (linear energy minus concave entropy), so the maximum over the
hull is attained at an extreme point.

Zero temperature is beta = inf.  Each bound is one formula in x = 1/(lambda
beta), and IEEE arithmetic evaluates it at x = 0 (S/inf = 0, e^-inf = 0).
Only the Gibbs populations' ground window (``linalg``) and the protocol's
uniform free energy read beta = inf themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .freesets import FreeSet
from .linalg import (
    INF_BETA,
    _entropy,
    _thermal_weights,
    assert_hermitian,
    assert_pure,
    gibbs_state,
    trace_inner,
    von_neumann_entropy,
)
from .solver import (DEFAULT_MAX_NEWTON, DEFAULT_TOL, _feasible, _overlaps, robustness_dual,
                     witness_constraints)

__all__ = [
    "ThermoContext",
    "ProtocolTrace",
    "BoundReport",
    "WitnessSummary",
    "witness_summary",
    "rank1_summary",
    "free_energy",
    "extractable_work",
    "work_cost",
    "max_free_extractable_work",
    "theorem1_bound",
    "theorem1_precondition",
    "simulate_protocol",
    "theorem1_report",
    "eq10_report",
    "corollary1_report",
    "verify_theorem1",
    "verify_eq10_ratio",
    "residual_thermal_closed_form",
    "residual_weight",
    "require_maximally_mixed",
    "theorem2_at_weight",
    "verify_theorem2",
    "corollary1_bound",
    "verify_xi_cost",
]

BOUND_TOL = 1e-9
_DEGENERATE_R = 1e-9
_ZERO_WORK = 1e-12


@dataclass(frozen=True)
class ThermoContext:
    """Inverse temperature beta > 0, inf at zero temperature, and the Hamiltonian
    scale lambda, finite and > 0."""

    beta: float
    lam: float

    def __post_init__(self):
        if not (self.beta > 0.0):  # also rejects NaN; at beta = 0 no free energy is finite
            raise ValueError(f"beta must be > 0 or inf, got {self.beta}")
        if not (0.0 < self.lam < math.inf):  # also rejects NaN
            raise ValueError(f"lambda must be finite and > 0, got {self.lam}")

    @property
    def inv_lam_beta(self) -> float:
        """x = 1/(lambda beta), the bounds' one temperature parameter; 0.0 at beta = inf."""
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
# the witness summary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WitnessSummary:
    """Everything the work checks read of a witness Y, a state rho and a free set.

    ``energy`` and ``S_rho`` are NaN when the summary was built without a
    state; ``constraints`` and ``S_free`` are empty when it was built without
    a free set.
    """

    spectrum: np.ndarray     # eigenvalues of Y, ascending
    energy: float            # Tr[Y rho]
    S_rho: float             # S(rho)
    constraints: np.ndarray  # Tr[Y sigma_k], in density_matrices() order
    S_free: np.ndarray       # S(sigma_k); zero for pure extreme points
    _work_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def d(self) -> int:
        return len(self.spectrum)

    @property
    def R(self) -> float:
        """Witness-certified robustness Tr[Y rho] - 1."""
        return self.energy - 1.0

    def gibbs(self, ctx: ThermoContext) -> tuple[float, float]:
        """(F(tau), S(tau)) for the Gibbs state tau of H = lambda * Y, with the
        populations ``gibbs_state`` puts on the spectrum of H."""
        h = ctx.lam * self.spectrum
        p = _thermal_weights(h, ctx.beta)
        S_tau = _entropy(p)
        return float(np.dot(p, h)) - S_tau / ctx.beta, S_tau

    def free_energies(self, ctx: ThermoContext) -> tuple[float, np.ndarray]:
        """(F(rho), F(sigma_k)) under H = lambda * Y."""
        return (ctx.lam * self.energy - self.S_rho / ctx.beta,
                ctx.lam * self.constraints - self.S_free / ctx.beta)


def _free_entropies(spec: FreeSet) -> np.ndarray:
    return np.array([0.0] * len(spec.vectors) + [von_neumann_entropy(m) for m in spec.matrices])


def witness_summary(witness, rho=None, spec: FreeSet | None = None) -> WitnessSummary:
    """Summary of a general Hermitian witness: one eigendecomposition of Y."""
    witness = assert_hermitian(witness, "witness")
    energy = S_rho = math.nan
    if rho is not None:
        S_rho = von_neumann_entropy(rho)
        energy = trace_inner(witness, rho)
    constraints = S_free = np.zeros(0)
    if spec is not None:
        if spec.dim != witness.shape[0]:
            raise ValueError("free set and witness dimensions differ")
        constraints, S_free = witness_constraints(witness, spec), _free_entropies(spec)
    return WitnessSummary(np.linalg.eigvalsh(witness), energy, S_rho, constraints, S_free)


def rank1_summary(c: float, y, psi, spec: FreeSet | None) -> WitnessSummary:
    """Closed-form summary of Y = c|y><y| and the pure state |psi>.

    The spectrum is {c, 0^(d-1)}, Tr[Y rho] = c|<y|psi>|^2 and the extreme
    points give c<y|sigma_k|y>.  ``spec = None`` stands for a free set
    that cannot be enumerated; the witness is then taken as tight, with
    max_k Tr[Y sigma_k] = 1, as every named closed-form witness is.
    """
    y, psi = assert_pure(y, "y"), assert_pure(psi)
    if not 0 < c < math.inf:  # also rejects NaN
        raise ValueError(f"c must be positive and finite, got {c}")
    spectrum = np.zeros(y.shape[0])
    spectrum[-1] = c
    if spec is None:
        constraints, S_free = np.ones(1), np.zeros(1)
    else:
        if spec.dim != y.shape[0]:
            raise ValueError("free set and witness dimensions differ")
        constraints, S_free = c * _overlaps(spec.points, y[:, None])[0], _free_entropies(spec)
    energy = c * float(np.abs(np.vdot(y, psi)) ** 2)
    return WitnessSummary(spectrum, energy, 0.0, constraints, S_free)


# ---------------------------------------------------------------------------
# work functionals
# ---------------------------------------------------------------------------


def free_energy(rho, H, beta: float) -> float:
    """F_H(rho) = Tr[H rho] - S(rho)/beta; at beta = inf just the energy."""
    return witness_summary(H, rho).free_energies(ThermoContext(beta, 1.0))[0]


def _works(s: WitnessSummary, ctx: ThermoContext) -> tuple[float, np.ndarray, float]:
    """W(rho), W(sigma_k) = F(.) - F(tau) under H = lambda * Y, and S(tau); kept in the
    summary, so the checks that share a grid point evaluate it once."""
    if ctx not in s._work_cache:
        f_tau, S_tau = s.gibbs(ctx)
        f_rho, f_free = s.free_energies(ctx)
        s._work_cache[ctx] = (f_rho - f_tau, f_free - f_tau, S_tau)
    return s._work_cache[ctx]


def extractable_work(rho, H, beta: float) -> float:
    """F_H(rho) - F_H(Gibbs); nonnegative because the Gibbs state minimizes F."""
    w, _, _ = _works(witness_summary(H, rho), ThermoContext(beta=beta, lam=1.0))
    if w < -BOUND_TOL:
        raise ArithmeticError(f"work {w} below -1e-9: Gibbs minimality violated")
    return max(w, 0.0)


def work_cost(rho, H, beta: float) -> float:
    """Work to prepare rho from the thermal state: the same functional."""
    return extractable_work(rho, H, beta)


def max_free_extractable_work(spec: FreeSet, H, beta: float):
    """Maximum of the work functional over the free set.

    Scanning extreme points only is exact: F_H is convex in the state, so
    the maximum over the hull sits at an extreme point.  Ties break to the
    lowest index (density_matrices() order).
    """
    _, works, _ = _works(witness_summary(H, spec=spec), ThermoContext(beta=beta, lam=1.0))
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
    s = witness_summary(witness, rho)
    if s.spectrum[0] < -1e-9:
        raise ValueError("witness must be PSD")
    f_tau, _ = s.gibbs(ctx)
    # -log d / inf is -0.0, which would flip the sign of a zero dW_a or dW_d
    f_uniform = 0.0 if ctx.beta == INF_BETA else -math.log(s.d) / ctx.beta
    dw_a = f_uniform - f_tau
    dw_b = 0.0
    dw_c = s.free_energies(ctx)[0] - f_tau
    dw_d = -dw_a
    total = dw_a + dw_b + dw_c + dw_d
    H = ctx.lam * assert_hermitian(witness, "witness")
    return ProtocolTrace(dw_a, dw_b, dw_c, dw_d, total, H, gibbs_state(H, ctx.beta))


# ---------------------------------------------------------------------------
# state checks: pure functions of (summary, ctx)
# ---------------------------------------------------------------------------


def _advantage(w_rho: float, w_free: np.ndarray) -> tuple[float, int]:
    """W(rho) / max_k W(sigma_k) and the number of free points left out.

    Free points with work below 1e-12 cannot enter the denominator (their
    ratio is infinite); if every point is below, the ratio reports inf.
    """
    usable = w_free > _ZERO_WORK
    ratio = w_rho / float(w_free[usable].max()) if usable.any() else math.inf
    return ratio, int((~usable).sum())


def theorem1_report(s: WitnessSummary, ctx: ThermoContext) -> BoundReport:
    """Achieved work ratio >= theorem1_bound, under H = lambda * Y."""
    w_rho, w_free, S_tau = _works(s, ctx)
    ratio, skipped = _advantage(w_rho, w_free)
    pre = theorem1_precondition(s.R, s.S_rho, ctx)
    rhs = theorem1_bound(s.R, s.S_rho, S_tau, ctx)
    detail = {"R": s.R, "S_rho": s.S_rho, "S_tau": S_tau, "skipped_free_states": skipped}
    return _report("theorem1", ratio, rhs, "lower", pre, detail=detail)


def eq10_report(s: WitnessSummary, ctx: ThermoContext, epsilon: float = 0.05,
                min_lambda_beta_factor: float = 100.0) -> BoundReport:
    """Achieved work ratio >= (1 + R)(1 - epsilon), for lambda*beta >= factor * ln d."""
    w_rho, w_free, _ = _works(s, ctx)
    ratio, skipped = _advantage(w_rho, w_free)
    pre = ctx.lam * ctx.beta >= min_lambda_beta_factor * math.log(s.d)
    rhs = (1.0 + s.R) * (1.0 - epsilon)
    detail = {"R": s.R, "epsilon": epsilon, "skipped_free_states": skipped}
    return _report("eq10", ratio, rhs, "lower", pre, detail=detail)


def _cost_ratio(s: WitnessSummary, R: float, ctx: ThermoContext,
                floor: float) -> tuple[float, float, bool, float] | None:
    """Under H = lambda * Y: the cost ratio max(max_k W(sigma_k), 0) / W(rho), its
    corollary1_bound and the theorem-1 precondition at robustness R, and S(tau);
    None when W(rho) <= floor."""
    w_rho, w_free, S_tau = _works(s, ctx)
    if w_rho <= floor:
        return None
    return (max(float(w_free.max()), 0.0) / w_rho, corollary1_bound(R, s.S_rho, S_tau, ctx),
            theorem1_precondition(R, s.S_rho, ctx), S_tau)


def corollary1_report(s: WitnessSummary, ctx: ThermoContext) -> BoundReport:
    """Cost ratio max_k W(sigma_k) / W(rho) <= corollary1_bound."""
    ratio = _cost_ratio(s, s.R, ctx, _ZERO_WORK)
    if ratio is None:
        return _report("corollary1", math.inf, 1.0, "upper", False,
                       detail={"reason": "state is thermal under the witness Hamiltonian"})
    achieved, rhs, pre, S_tau = ratio
    detail = {"R": s.R, "S_rho": s.S_rho, "S_tau": S_tau}
    return _report("corollary1", achieved, rhs, "upper", pre, detail=detail)


def _state_summary(rho, spec: FreeSet, witness, tol: float) -> WitnessSummary:
    if witness is None:
        witness = _feasible(robustness_dual(rho, spec, tol=tol), spec).witness
    return witness_summary(witness, rho, spec)


def verify_theorem1(rho, spec: FreeSet, ctx: ThermoContext, witness=None,
                    tol: float = DEFAULT_TOL) -> BoundReport:
    """Achieved work ratio >= theorem1_bound, under H = lambda * Y.

    With no witness given, the solver's certified witness is used; R is
    always the witness objective Tr[Y rho] - 1, so the inequality is a
    theorem whenever the precondition holds.
    """
    return theorem1_report(_state_summary(rho, spec, witness, tol), ctx)


def verify_eq10_ratio(rho, spec: FreeSet, ctx: ThermoContext, epsilon: float = 0.05,
                      witness=None, min_lambda_beta_factor: float = 100.0,
                      tol: float = DEFAULT_TOL) -> BoundReport:
    """Relative work output >= (1 + R)(1 - epsilon) for large lambda*beta.

    The asymptotic condition is operationalized as
    lambda*beta >= min_lambda_beta_factor * ln d.
    """
    return eq10_report(_state_summary(rho, spec, witness, tol), ctx, epsilon,
                       min_lambda_beta_factor)


def verify_xi_cost(rho, spec: FreeSet, ctx: ThermoContext, witness=None,
                   tol: float = DEFAULT_TOL) -> BoundReport:
    """Cost ratio max_sigma W_cost(sigma) / W_cost(rho) <= corollary1_bound.

    Evaluated at H = lambda * Y; this instantiates the minimization over
    Hamiltonians, so the measured ratio upper-bounds the optimal one.
    """
    return corollary1_report(_state_summary(rho, spec, witness, tol), ctx)


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
    if not 0 < c < math.inf:  # also rejects NaN
        raise ValueError(f"c must be positive and finite, got {c}")
    return 1.0 - math.exp(-ctx.beta * ctx.lam * c)


def _residual_state(y, a: float, d: int) -> np.ndarray:
    y = assert_pure(y)
    if y.shape[0] != d:
        raise ValueError(f"y has dimension {y.shape[0]}, expected {d}")
    return (np.eye(d, dtype=complex) - a * np.outer(y, y.conj())) / (d - a)


def require_maximally_mixed(spec_prime: FreeSet, d: int) -> None:
    """Theorem 2's precondition on the free set: a d-dimensional hull holding I/d."""
    if spec_prime.dim != d:
        raise ValueError(f"spec_prime has dimension {spec_prime.dim}, expected {d}")
    if not spec_prime.contains_maximally_mixed:
        raise ValueError("spec_prime must contain the maximally mixed state")


def theorem2_at_weight(y, a: float, d: int, spec_prime: FreeSet, tol: float = DEFAULT_TOL,
                       max_newton: int = DEFAULT_MAX_NEWTON) -> BoundReport:
    """Theorem 2 for the residual state of weight ``a`` (see residual_weight).

    Assumes ``require_maximally_mixed(spec_prime, d)`` has passed.  Grid
    points sharing ``a`` share this report.
    """
    result = robustness_dual(_residual_state(y, a, d), spec_prime, tol=tol, max_newton=max_newton)
    detail = {"upper_bound": result.upper_bound, "gap": result.gap, "status": result.status}
    # an upper bound on R is proved only by the upper end of the certified interval
    return _report("theorem2", result.upper_bound, 1.0 / (d - 1), "upper", True,
                   tolerance=1e-7, detail=detail)


def verify_theorem2(y, c: float, ctx: ThermoContext, d: int, spec_prime: FreeSet,
                    tol: float = DEFAULT_TOL, max_newton: int = DEFAULT_MAX_NEWTON) -> BoundReport:
    """Residual robustness of the post-protocol thermal state is <= 1/(d-1).

    ``spec_prime`` may be any free set containing the maximally mixed state
    (checked via membership; violation is rejected, not silently computed).
    """
    require_maximally_mixed(spec_prime, d)
    return theorem2_at_weight(y, residual_weight(c, ctx), d, spec_prime, tol=tol,
                              max_newton=max_newton)
