"""Generalized robustness with duality certificates.

For a state rho and a finitely generated free set with extreme points
sigma_1..sigma_m, the robustness value is computed from the pair of programs

    primal:  min  sum_k q_k - 1   s.t.  sum_k q_k sigma_k - rho >= 0,  q >= 0
    dual:    max  Tr[Y rho] - 1   s.t.  Y >= 0,  Tr[Y sigma_k] <= 1  for all k

which are exact reformulations of the mixing definition of robustness for a
finitely generated hull (write rho + s*gamma = (1+s) * convex combination and
substitute q_k = (1+s) p_k).

The solver is a log-barrier interior-point method on the primal: minimize
t * sum(q) - ln det S(q) - sum ln q_k with S(q) = sum q_k sigma_k - rho,
following the central path as t grows.  The dual witness is recovered from
the barrier's PSD-slack inverse, Y = S^{-1}/t, and then explicitly repaired
to feasibility by rescaling with the largest constraint value.  Both
certificates are therefore unconditional:

* the weights q are strictly feasible (S(q) > 0 is maintained by the line
  search), so sum(q) - 1 is a true upper bound;
* the repaired witness satisfies every constraint by construction, so
  Tr[Y rho] - 1 is a true lower bound (with Y = identity as fallback, which
  certifies the trivial lower bound 0).

The reported ``value`` is the midpoint of the certified interval and ``gap``
its width.  Convergence means gap <= tol * max(1, upper bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .freesets import FreeSet
from .linalg import (
    assert_density,
    assert_pure,
    dagger,
    projector,
    trace_inner,
)
from .states import PAULI_X, PAULI_Y

__all__ = [
    "CONVERGED",
    "MAX_ITERATIONS",
    "INFEASIBLE",
    "RobustnessResult",
    "InfeasibleHullError",
    "Rank1NotTightError",
    "robustness_dual",
    "robustness_primal",
    "witness_constraints",
    "witness_is_feasible",
    "primal_slack",
    "robustness_pure_coherence",
    "pure_coherence_witness",
    "tstate_magic_robustness",
    "single_qubit_magic_witness",
    "tstate_magic_witness",
    "rank1_witness_from_pure",
    "rank1_truncation",
]

CONVERGED = "converged"
MAX_ITERATIONS = "max_iterations"
INFEASIBLE = "infeasible"

DEFAULT_TOL = 1e-7
DEFAULT_MAX_NEWTON = 200

_PATH_MULTIPLIER = 10.0
_CENTER_DEC2 = 1e-9
_MAX_INNER = 40
_T_CAP = 1e14


class InfeasibleHullError(RuntimeError):
    """No combination of extreme points dominates the state."""


class Rank1NotTightError(RuntimeError):
    """Rank-1 truncation of the optimal witness lost too much objective."""


@dataclass(frozen=True)
class RobustnessResult:
    """Certified robustness solve.

    ``lower_bound <= value <= upper_bound`` always holds, with the lower
    bound achieved by ``witness`` (PSD, every constraint <= 1) and the upper
    bound by ``primal_weights`` (nonnegative, PSD-dominating mixture).  The
    weights are ordered like ``spec.density_matrices()``.
    """

    value: float
    witness: np.ndarray | None
    primal_weights: np.ndarray | None
    gap: float
    status: str
    lower_bound: float
    upper_bound: float
    newton_iterations: int


# ---------------------------------------------------------------------------
# problem setup: compression onto the hull's support subspace
# ---------------------------------------------------------------------------


class _Program:
    def __init__(self, rho: np.ndarray, vecs: np.ndarray | None, mats: np.ndarray | None):
        d = rho.shape[0]
        if vecs is not None:
            omega = (vecs @ dagger(vecs)) / vecs.shape[1]
        else:
            omega = mats.mean(axis=0)

        w, U = np.linalg.eigh(omega)
        keep = w > max(w[-1], 1e-300) * 1e-12
        self.rank = int(keep.sum())
        self.full_dim = d
        if self.rank < d:
            B = U[:, keep]
            self.leak = float(rho.trace().real - np.trace(dagger(B) @ rho @ B).real)
            self.basis = B
            rho = dagger(B) @ rho @ B
            if vecs is not None:
                vecs = dagger(B) @ vecs
            else:
                mats = np.einsum("ia,kij,jb->kab", B.conj(), mats, B, optimize=True)
        else:
            self.basis = None
            self.leak = 0.0

        self.rho = rho
        self.vecs = vecs
        self.mats = mats
        self.m = vecs.shape[1] if vecs is not None else mats.shape[0]

    @classmethod
    def from_spec(cls, rho: np.ndarray, spec: FreeSet) -> "_Program":
        if spec.dim != rho.shape[0]:
            raise ValueError(
                f"state dimension {rho.shape[0]} does not match free set {spec.label()}"
            )
        if spec.all_pure:
            return cls(rho, np.stack(spec.vectors, axis=1), None)
        return cls(rho, None, np.stack(spec.density_matrices()))

    @property
    def feasible(self) -> bool:
        # support of rho must sit inside the hull's support
        return self.leak <= 1e-9

    def expand(self, Y: np.ndarray) -> np.ndarray:
        """Lift an operator from the compressed subspace back to this
        program's input space."""
        if self.basis is not None:
            Y = self.basis @ Y @ dagger(self.basis)
        return Y

    def slack(self, q: np.ndarray) -> np.ndarray:
        if self.vecs is not None:
            S = (self.vecs * q) @ dagger(self.vecs) - self.rho
        else:
            S = np.tensordot(q, self.mats, axes=1) - self.rho
        return 0.5 * (S + dagger(S))

    def omega(self) -> np.ndarray:
        return self.slack(np.full(self.m, 1.0 / self.m)) + self.rho

    def constraint_values(self, Y: np.ndarray) -> np.ndarray:
        """Tr[Y sigma_k] for every compressed extreme point."""
        return _constraint_values(self.vecs, self.mats, Y)

    def sigma_mix(self, coeff: np.ndarray) -> np.ndarray:
        """sum_k coeff_k sigma_k (a slack direction, no rho term)."""
        if self.vecs is not None:
            M = (self.vecs * coeff) @ dagger(self.vecs)
        else:
            M = np.tensordot(coeff, self.mats, axes=1)
        return 0.5 * (M + dagger(M))

    def gradient_pieces(self, q: np.ndarray):
        """Returns (trace of S^{-1} sigma_k, low-rank Hessian factor, S^{-1/2})."""
        S = self.slack(q)
        w, V = np.linalg.eigh(S)
        if w[0] <= 0.0:
            raise np.linalg.LinAlgError("slack left the PSD cone")
        inv_sqrt = (V / np.sqrt(w)) @ dagger(V)
        r = S.shape[0]
        if self.vecs is not None:
            U = inv_sqrt @ self.vecs  # r x m
            sinv_sig = np.einsum("ik,ik->k", U.conj(), U).real
            Wc = np.einsum("ik,jk->kij", U, U.conj()).reshape(self.m, r * r)
        else:
            Ms = np.einsum("ab,kbc,cd->kad", inv_sqrt, self.mats, inv_sqrt, optimize=True)
            sinv_sig = np.einsum("kaa->k", Ms).real
            Wc = Ms.reshape(self.m, r * r)
        F = np.concatenate([Wc.real, Wc.imag], axis=1)
        return sinv_sig, F, inv_sqrt


def _solve_shifted_once(diag: np.ndarray, F: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (diag + F F^T) x = rhs; Woodbury route when the factor is thin."""
    m, p = F.shape
    if p and m > 4 * p:
        dinv = 1.0 / diag
        DF = F * dinv[:, None]
        K = np.eye(p) + F.T @ DF
        try:
            inner = np.linalg.solve(K, F.T @ (dinv * rhs))
        except np.linalg.LinAlgError:
            inner = np.linalg.lstsq(K, F.T @ (dinv * rhs), rcond=None)[0]
        return dinv * rhs - DF @ inner
    H = F @ F.T
    H[np.diag_indices_from(H)] += diag
    try:
        return np.linalg.solve(H, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(H, rhs, rcond=None)[0]


def _solve_shifted(diag: np.ndarray, F: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Shifted solve with iterative refinement (the system gets very stiff
    late on the central path; a couple of residual corrections recover most
    of the lost digits)."""
    x = _solve_shifted_once(diag, F, rhs)
    for _ in range(2):
        resid = rhs - (diag * x + F @ (F.T @ x))
        if not np.all(np.isfinite(resid)):
            break
        if np.abs(resid).max() <= 1e-13 * max(1.0, np.abs(rhs).max()):
            break
        x = x + _solve_shifted_once(diag, F, resid)
    return x


# ---------------------------------------------------------------------------
# interior point loop
# ---------------------------------------------------------------------------


def _initial_point(prog: _Program) -> np.ndarray:
    omega = prog.omega()
    w, V = np.linalg.eigh(omega)
    w = np.maximum(w, 1e-300)
    inv_sqrt = (V / np.sqrt(w)) @ dagger(V)
    lam_max = float(np.linalg.eigvalsh(inv_sqrt @ prog.rho @ inv_sqrt)[-1])
    a = 2.0 * max(lam_max, 0.0) + 1.0
    return np.full(prog.m, a / prog.m)


def _center(prog: _Program, q: np.ndarray, t: float, budget: int) -> tuple[np.ndarray, int]:
    """Newton centering of the barrier at parameter t.

    The line search works on barrier *differences* expressed through log1p
    of the generalized step eigenvalues, so it stays accurate when t (and
    hence the absolute barrier value) is enormous.
    """
    steps = 0
    while steps < min(budget, _MAX_INNER):
        try:
            sinv_sig, F, inv_sqrt = prog.gradient_pieces(q)
        except np.linalg.LinAlgError:
            break
        grad = t - sinv_sig - 1.0 / q
        delta = _solve_shifted(1.0 / q**2, F, -grad)
        dec2 = float(-grad @ delta)
        if not np.isfinite(dec2) or dec2 <= _CENTER_DEC2:
            break

        # eigenvalues of S^{-1/2} (sum delta_k sigma_k) S^{-1/2} drive both
        # the feasible step length and the exact log-det difference
        T = inv_sqrt @ prog.sigma_mix(delta) @ dagger(inv_sqrt)
        eta = np.linalg.eigvalsh(0.5 * (T + dagger(T)))
        ratio = delta / q
        floor = min(float(eta[0]), float(ratio.min()))
        alpha = 1.0 if floor >= 0.0 else min(1.0, 0.95 / (-floor))
        slope = t * float(delta.sum()) - float(eta.sum()) - float(ratio.sum())
        for _ in range(60):
            if 1.0 + alpha * floor > 1e-14:
                dphi = (
                    t * alpha * float(delta.sum())
                    - float(np.log1p(alpha * eta).sum())
                    - float(np.log1p(alpha * ratio).sum())
                )
                if dphi <= 0.01 * alpha * slope:
                    break
            alpha *= 0.5
        else:
            break
        q = q + alpha * delta
        steps += 1
    return q, steps


def _certify(prog: _Program, q: np.ndarray, t: float):
    """Certified (upper, lower, compressed witness) at the current point."""
    upper = float(q.sum()) - 1.0
    S = prog.slack(q)
    w, V = np.linalg.eigh(S)
    w = np.maximum(w, 1e-300)
    Y = (V / w) @ dagger(V) / t
    cons = prog.constraint_values(Y)
    cmax = float(cons.max())
    if cmax <= 0.0:
        return upper, 0.0, None
    Y = Y / cmax
    lower = float(np.trace(Y @ prog.rho).real) - 1.0
    return upper, lower, Y


def _null_cluster(w: np.ndarray) -> int:
    """Size of the near-null eigenvalue cluster (largest spectral jump below
    1e-3 of the top eigenvalue); 0 when there is no convincing cluster."""
    lam_max = max(float(w[-1]), 1e-300)
    best_i, best_ratio = 0, 0.0
    for i in range(len(w) - 1):
        if w[i] > lam_max * 1e-3:
            break
        ratio = w[i + 1] / max(float(w[i]), 1e-300)
        if ratio >= best_ratio:
            best_i, best_ratio = i + 1, ratio
    return best_i if best_ratio >= 1e3 else 0


def _polish_witness(prog: _Program, q: np.ndarray, witness: np.ndarray | None,
                    tol: float, budget: int):
    """Dual refinement on the active face of the program.

    At the primal optimum the witness lives on ker(S*); restricting the dual
    to that subspace makes the restricted slack shrink isotropically along
    the central path, so the S^{-1} recovery stays well conditioned at any
    barrier parameter (the full-space recovery hits a float64 wall once a
    mixed spectrum gives cond(S) ~ t).  Constraints that are far from tight
    at the current witness and absent from the primal support are dropped:
    that relaxation can only raise the restricted optimum, and the caller
    re-checks the expanded witness against every constraint and rescales,
    so validity never depends on the pruning.  Returns
    (witness in prog coordinates, steps used).
    """
    S = prog.slack(q)
    w, V = np.linalg.eigh(S)
    n0 = _null_cluster(w)
    if n0 < 1 or n0 >= S.shape[0]:
        return None, 0
    P = V[:, :n0]
    rho_r = dagger(P) @ prog.rho @ P
    rho_r = 0.5 * (rho_r + dagger(rho_r))

    keep = None
    if witness is not None:
        cons_now = prog.constraint_values(witness)
        mask = (cons_now >= 0.8) | (q > 1e-6 * float(q.sum()))
        if 0 < int(mask.sum()) < prog.m:
            keep = np.flatnonzero(mask)
    if prog.vecs is not None:
        vecs_r = dagger(P) @ (prog.vecs if keep is None else prog.vecs[:, keep])
        sub = _Program(rho_r, vecs_r, None)
    else:
        mats = prog.mats if keep is None else prog.mats[keep]
        sub = _Program(rho_r, None,
                       np.einsum("ia,kij,jb->kab", P.conj(), mats, P, optimize=True))
    if not sub.feasible:
        return None, 0
    qs = _initial_point(sub)
    t = max(1.0, (sub.m + sub.rank) / max(float(qs.sum()) - 1.0, 0.1))
    best_lower, best_Y = -math.inf, None
    used = 0
    stalled = 0
    while used < budget and t < _T_CAP:
        qs, steps = _center(sub, qs, t, budget - used)
        used += steps
        stalled = stalled + 1 if steps == 0 else 0
        upper_r, lower_r, Y = _certify(sub, qs, t)
        if Y is not None and lower_r > best_lower:
            best_lower, best_Y = lower_r, Y
        if upper_r - best_lower <= 0.25 * tol * max(1.0, abs(upper_r)) or stalled >= 2:
            break
        t *= _PATH_MULTIPLIER
    if best_Y is None:
        return None, used
    return P @ sub.expand(best_Y) @ dagger(P), used


def _solve(rho: np.ndarray, spec: FreeSet, tol: float, max_newton: int):
    prog = _Program.from_spec(rho, spec)
    if not prog.feasible:
        return prog, None
    q = _initial_point(prog)
    t = max(1.0, (prog.m + prog.rank) / max(float(q.sum()) - 1.0, 0.1))

    best_upper = math.inf
    best_q = q
    best_lower = 0.0
    best_witness = None  # None means the identity fallback
    used = 0
    stalled = 0
    status = MAX_ITERATIONS
    while True:
        q, steps = _center(prog, q, t, max_newton - used)
        used += steps
        stalled = stalled + 1 if steps == 0 else 0
        upper, lower, Y = _certify(prog, q, t)
        if upper < best_upper:
            best_upper, best_q = upper, q.copy()
        if lower > best_lower and Y is not None:
            best_lower, best_witness = lower, Y
        gap = best_upper - best_lower
        if gap <= tol * max(1.0, abs(best_upper)):
            status = CONVERGED
            break
        if used >= max_newton or t >= _T_CAP or stalled >= 2:
            break
        t *= _PATH_MULTIPLIER

    if status != CONVERGED and used < max_newton:
        Yp, extra = _polish_witness(prog, best_q, best_witness, tol, max_newton - used)
        used += extra
        if Yp is not None:
            cons = prog.constraint_values(Yp)
            cmax = float(cons.max())
            if cmax > 0.0:
                Yp = Yp / cmax
                lower_p = float(np.trace(Yp @ prog.rho).real) - 1.0
                if lower_p > best_lower:
                    best_lower, best_witness = lower_p, Yp
        if best_upper - best_lower <= tol * max(1.0, abs(best_upper)):
            status = CONVERGED
    return prog, (best_upper, best_lower, best_witness, best_q, used, status)


def _expand_witness(prog: _Program, Y: np.ndarray | None) -> np.ndarray:
    if Y is None:
        return np.eye(prog.full_dim, dtype=complex)
    Y = prog.expand(Y)
    return 0.5 * (Y + dagger(Y))


def robustness_dual(rho, spec: FreeSet, tol: float = DEFAULT_TOL,
                    max_newton: int = DEFAULT_MAX_NEWTON) -> RobustnessResult:
    """Certified robustness of ``rho`` with respect to the free set.

    Returns a feasible witness whose objective is the certified lower bound
    and primal weights certifying the upper bound; ``status`` is
    ``max_iterations`` when the Newton budget ran out first (the bounds are
    still valid) and ``infeasible`` when no mixture dominates ``rho``.
    """
    rho = assert_density(rho)
    prog, raw = _solve(rho, spec, tol, max_newton)
    if raw is None:
        return RobustnessResult(
            value=math.inf, witness=None, primal_weights=None, gap=math.inf,
            status=INFEASIBLE, lower_bound=0.0, upper_bound=math.inf,
            newton_iterations=0,
        )
    upper, _, Ybest, q, used, status = raw

    # re-derive the lower bound from the expanded witness in the full space,
    # with a defensive rescale so the recorded certificate is self-contained
    witness = _expand_witness(prog, Ybest)
    cons = witness_constraints(witness, spec)
    cmax = float(cons.max())
    if cmax > 1.0:
        witness = witness / cmax
    lower = trace_inner(witness, rho) - 1.0
    if lower < 0.0:
        witness = np.eye(prog.full_dim, dtype=complex)
        lower = 0.0
    upper = max(upper, lower)
    gap = upper - lower
    return RobustnessResult(
        value=max(0.0, 0.5 * (lower + upper)),
        witness=witness,
        primal_weights=q,
        gap=gap,
        status=status,
        lower_bound=lower,
        upper_bound=upper,
        newton_iterations=used,
    )


def robustness_primal(rho, spec: FreeSet, tol: float = DEFAULT_TOL,
                      max_newton: int = DEFAULT_MAX_NEWTON):
    """Upper bound and mixing weights for the finite-generator program.

    Raises :class:`InfeasibleHullError` when the hull cannot dominate the
    state (impossible when the maximally mixed state is in the hull).
    """
    result = robustness_dual(rho, spec, tol=tol, max_newton=max_newton)
    if result.status == INFEASIBLE:
        raise InfeasibleHullError(f"the hull {spec.label()} cannot dominate the state")
    return result.upper_bound, result.primal_weights


# ---------------------------------------------------------------------------
# certificate re-checks (used by the result consumers and the test suite)
# ---------------------------------------------------------------------------


def _constraint_values(vecs, mats, Y: np.ndarray) -> np.ndarray:
    """Tr[Y sigma_k]: the columns of ``vecs`` first, then the stacked ``mats``."""
    vals = []
    if vecs is not None:
        vals.append(np.einsum("ik,ij,jk->k", vecs.conj(), Y, vecs, optimize=True).real)
    if mats is not None:
        vals.append(np.einsum("kij,ji->k", mats, Y, optimize=True).real)
    return np.concatenate(vals)


def witness_constraints(witness, spec: FreeSet) -> np.ndarray:
    """Tr[Y sigma_k] for every extreme point, in density_matrices() order."""
    return _constraint_values(np.stack(spec.vectors, axis=1) if spec.vectors else None,
                              np.stack(spec.matrices) if spec.matrices else None, witness)


def witness_is_feasible(witness, spec: FreeSet, psd_tol: float = 1e-9,
                        constraint_tol: float = 1e-8) -> bool:
    """Independent feasibility re-check of a dual witness."""
    witness = np.asarray(witness, dtype=complex)
    if np.abs(witness - dagger(witness)).max() > 1e-9:
        return False
    if np.linalg.eigvalsh(witness)[0] < -psd_tol:
        return False
    return bool(witness_constraints(witness, spec).max() <= 1.0 + constraint_tol)


def primal_slack(weights, rho, spec: FreeSet) -> np.ndarray:
    """sum_k q_k sigma_k - rho; PSD iff the weights are feasible."""
    weights = np.asarray(weights, dtype=float)
    if len(weights) != spec.n_points:
        raise ValueError("weight vector length does not match the extreme-point list")
    S = -np.asarray(rho, dtype=complex)
    if spec.vectors:
        V = np.stack(spec.vectors, axis=1)
        S = S + (V * weights[:V.shape[1]]) @ dagger(V)
    if spec.matrices:
        S = S + np.tensordot(weights[len(spec.vectors):], np.stack(spec.matrices), axes=1)
    return 0.5 * (S + dagger(S))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def robustness_pure_coherence(psi) -> float:
    """Coherence robustness of a pure state: (sum_j |c_j|)^2 - 1."""
    psi = assert_pure(psi)
    return float(np.abs(psi).sum() ** 2 - 1.0)


def pure_coherence_witness(psi) -> tuple[float, np.ndarray]:
    """Optimal rank-1 coherence witness c |y><y| for a pure state.

    y carries the amplitude phases over a flat magnitude profile and c = d;
    every basis-state constraint is tight and the objective equals
    (sum |c_j|)^2, so this is optimal for any pure state.
    """
    psi = assert_pure(psi)
    d = psi.shape[0]
    mags = np.abs(psi)
    phases = np.where(mags > 1e-12, psi / np.where(mags > 0, mags, 1.0), 1.0)
    y = phases / np.sqrt(d)
    return float(d), y


def tstate_magic_robustness(n: int) -> float:
    """Magic robustness of |T>^{tensor n}: (4 - 2 sqrt 2)^n - 1."""
    if n < 1:
        raise ValueError("need n >= 1")
    return float((4.0 - 2.0 * math.sqrt(2.0)) ** n - 1.0)


def single_qubit_magic_witness() -> np.ndarray:
    """Optimal magic witness (I + (X+Y)/sqrt 2) / (1 + 1/sqrt 2)."""
    s = 1.0 / math.sqrt(2.0)
    return (np.eye(2, dtype=complex) + (PAULI_X + PAULI_Y) * s) / (1.0 + s)


def tstate_magic_witness(n: int) -> np.ndarray:
    """Tensor-power witness for |T>^{tensor n} (optimal by multiplicativity)."""
    Y1 = single_qubit_magic_witness()
    out = Y1
    for _ in range(n - 1):
        out = np.kron(out, Y1)
    return out


def rank1_witness_from_pure(psi, spec: FreeSet, tol: float = DEFAULT_TOL) -> tuple[float, np.ndarray]:
    """Rank-1 witness (c, y) for a resourceful pure state.

    Projects the solved dual witness onto its top eigenpair and rescales the
    coefficient to restore feasibility (c = 1 / max_k <y|sigma_k|y>).  Raises
    :class:`Rank1NotTightError` when the truncation loses more than 10*tol
    of the certified objective.
    """
    psi = assert_pure(psi)
    return rank1_truncation(psi, spec, robustness_dual(projector(psi), spec, tol=tol), tol)


def rank1_truncation(psi: np.ndarray, spec: FreeSet, result: RobustnessResult,
                      tol: float) -> tuple[float, np.ndarray]:
    """Rank-1 witness from an already solved program for |psi><psi|."""
    if result.value <= tol:
        raise ValueError("state is free; a rank-1 witness requires robustness > tol")
    _, V = np.linalg.eigh(result.witness)
    y = V[:, -1]
    feas = float(witness_constraints(projector(y), spec).max())
    c = 1.0 / feas
    achieved = c * float(np.abs(np.vdot(y, psi)) ** 2) - 1.0
    if achieved < result.value - 10.0 * tol:
        raise Rank1NotTightError(
            f"rank-1 witness reaches {achieved:.9f} < value {result.value:.9f} - 10*tol"
        )
    return c, y
