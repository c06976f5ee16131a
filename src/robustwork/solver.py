"""Generalized robustness with duality certificates.

For a state rho and a finitely generated free set with extreme points
sigma_1..sigma_m, the robustness value is computed from the pair of programs

    primal:  min  sum_k q_k - 1   s.t.  sum_k q_k sigma_k - rho >= 0,  q >= 0
    dual:    max  Tr[Y rho] - 1   s.t.  Y >= 0,  Tr[Y sigma_k] <= 1  for all k

which are exact reformulations of the mixing definition of robustness for a
finitely generated hull (write rho + s*gamma = (1+s) * convex combination and
substitute q_k = (1+s) p_k).

The solver is a feasible primal-dual interior-point method on this pair,
with Nesterov-Todd scaling and a Mehrotra predictor-corrector (Nesterov &
Todd 1997; Vandenberghe, "The CVXOPT linear and quadratic cone program
solvers", 2010).  Its iterates are the weights q and the witness Y; the
slacks S = sum_k q_k sigma_k - rho and u_k = 1 - Tr[Y sigma_k] are
recomputed from them, so both programs stay exactly feasible and the step is
only shortened when S or Y fails a Cholesky factorisation or some u_k <= 0.
Each iteration solves one of two eliminations of the Newton system: the
m x m Schur complement in the weights step or, when the extreme points
outnumber r^2 (r the rank of the hull's support), a bordered system in the
scaled witness step y.  The latter keeps as unknowns the steps dq_k of the
r^2 weights with the largest d_k^2 |F_k|^2 (d_k^2 = q_k/u_k, F_k the real
coordinates of the scaled extreme point), since eliminating them through
dq_k = d_k t_k + d_k^2 F_k y would multiply the solve error of y by d_k^2.
Its matrix is symmetric quasi-definite and is solved as it stands (Vanderbei,
SIAM J. Optim. 5, 100-113, 1995).  Either system is built once per
iteration, and the predictor and the corrector solve it with their own
right-hand sides.  Both routes satisfy the scaled complementarity equation
dq/d + d du = t, so the slack step is read off it, du = (t - dq/d)/d.  The
predictor's cone steps add up to ds + dy = -diag(lam), so scaled by
diag(lam)^{-1/2} on both sides dy = -I - ds, and one spectrum gives both
least eigenvalues: lambda_min(dy) = -1 - lambda_max(ds).  Because every
iterate is feasible, both certificates are unconditional:

* the weights q > 0 keep S(q) > 0, so sum(q) - 1 is a true upper bound;
* the witness Y > 0 meets every constraint, so Tr[Y rho] - 1 is a true lower
  bound; it is rechecked in the full space and rescaled by its largest
  constraint value (with Y = identity as fallback, which certifies the
  trivial lower bound 0).

The reported ``value`` is the midpoint of the certified interval and ``gap``
its width.  Convergence means gap <= tol * max(1, upper bound).

When rho and every extreme point are real (golden states, real Choi states
against incoherent sets), the program is solved in real arithmetic, exactly:
if Y is dual feasible, so is Re(Y) = (Y + conj Y)/2, since conj Y = Y^T is
PSD and Tr[Re(Y) sigma] = Re Tr[Y sigma] = Tr[Y sigma] for real symmetric
sigma; the objective Tr[Y rho] is unchanged too, so real symmetric witnesses
reach the Hermitian optimum.  The NT scaling of real PSD matrices is real,
so every array of the solve inherits the program's dtype, a witness step has
r(r+1)/2 real coordinates instead of r^2, and the returned witness is cast
back to complex.

Theorem 2's residual (I - a|T^n><T^n|)/(d - a) and stabilizer(n) are invariant
under qubit permutations and (X+Y)/sqrt 2 on any qubit, which fixes |T> (Gatermann &
Parrilo, J. Pure Appl. Algebra 192, 95, 2004; Heinrich & Gross, Quantum 3, 132, 2019).
Twirling over that group keeps a feasible pair feasible at the same objective and maps
onto span{P_j}, P_j projecting onto the Hamming-weight-j class of the {|T>, |T^perp>}^n
basis, so sigma enters only through its profile p(sigma) = (Tr[P_j sigma])_j (28 at
n = 3).  robustness_dual(diag(p(rho)), hull of the diag(p(sigma))) is lifted back: its
witness's diagonal f to Y = sum_j f_j P_j, a profile's weight w to w / S on each of its
S states (their average is sum_j p_j P_j / Tr P_j), and the lower bound is re-derived.
This module owns the profile table (``_tstate_profiles``) and the test for when the
twirl applies (``_twirled_dual``: y is |T>^n up to a phase against stabilizer_set(n)).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .freesets import STABILIZER_MAX_QUBITS, FreeSet, finite_hull, stabilizer_set
from .linalg import (
    assert_density,
    assert_pure,
    dagger,
    projector,
    tensor_power,
    trace_inner,
)
from .states import PAULI_X, PAULI_Y, PAULI_Z, t_state

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

_STEP_FRACTION = 0.99
_MAX_BACKTRACK = 30


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
    weights are ordered like ``spec.density_matrices()``, and
    ``newton_iterations`` counts interior-point iterations.
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
        # omega is diag(omega_w) in its kept eigenbasis, where rho reads rho_w
        B = U[:, keep]
        self.omega_w = w[keep]
        self.rho_w = dagger(B) @ rho @ B
        if self.rank < d:
            self.leak = float(rho.trace().real - np.trace(self.rho_w).real)
            self.basis = B
            rho = self.rho_w
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
        points = spec.vector_array if spec.all_pure else np.stack(spec.density_matrices())
        if not (rho.imag.any() or points.imag.any()):
            # real data: solve over real symmetric witnesses (module docstring)
            rho, points = rho.real.copy(), points.real.copy()
        return cls(rho, points, None) if spec.all_pure else cls(rho, None, points)

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
        S = _mix(self.vecs, self.mats, q) - self.rho
        return 0.5 * (S + dagger(S))

    def constraint_values(self, Y: np.ndarray) -> np.ndarray:
        """Tr[Y sigma_k] for every compressed extreme point."""
        return _constraint_values(self.vecs, self.mats, Y)


# ---------------------------------------------------------------------------
# primal-dual interior point loop
# ---------------------------------------------------------------------------


def _initial_point(prog: _Program) -> np.ndarray:
    s = 1.0 / np.sqrt(prog.omega_w)  # every kept eigenvalue is positive
    lam_max = float(np.linalg.eigvalsh(prog.rho_w * np.outer(s, s))[-1])
    a = 2.0 * max(lam_max, 0.0) + 1.0
    return np.full(prog.m, a / prog.m)


@lru_cache(maxsize=None)
def _triu(r: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strict upper triangle of an r x r matrix."""
    i, j = np.triu_indices(r, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _hvec(X: np.ndarray) -> np.ndarray:
    """Real coordinates of Hermitian matrices (last two axes): the diagonal,
    then sqrt(2) Re and, for complex X, sqrt(2) Im of the strict upper
    triangle, so that ``_hvec(X) @ _hvec(Z) == Tr[X Z]``."""
    i, j = _triu(X.shape[-1])
    return _real_coords(np.diagonal(X, axis1=-2, axis2=-1), math.sqrt(2.0) * X[..., i, j], -1)


def _real_coords(diag: np.ndarray, off: np.ndarray, axis: int) -> np.ndarray:
    """Join diagonal and scaled off-diagonal parts; Im parts only for complex data."""
    parts = [diag.real, off.real, off.imag] if np.iscomplexobj(off) else [diag, off]
    return np.concatenate(parts, axis=axis)


def _hmat(x: np.ndarray, r: int) -> np.ndarray:
    """The Hermitian r x r matrix with real coordinates ``x``; real symmetric
    when ``x`` has no imaginary part (r(r+1)/2 entries)."""
    i, j = _triu(r)
    n = r + len(i)
    off = (x[r:n] + 1j * x[n:] if len(x) > n else x[r:n]) / math.sqrt(2.0)
    X = np.diag(x[:r]).astype(off.dtype)
    X[i, j] = off
    X[j, i] = off.conj()
    return X


class _Iterate:
    """A strictly feasible primal-dual point and its Nesterov-Todd scaling.

    The slacks S = sum_k q_k sigma_k - rho and u = 1 - Tr[Y sigma_k] are
    recomputed from q and Y, so every iterate is exactly feasible; the
    constructor raises ``LinAlgError`` unless q > 0, u > 0 and both S and Y
    pass a Cholesky factorisation.  With S = Ls Ls^H, Y = Ly Ly^H and the SVD
    Ly^H Ls = U diag(lam) V^H, the scaling R = Ls V diag(lam)^{-1/2} gives
    R^{-1} S R^{-H} = R^H Y R = diag(lam) and R^{-1} = diag(lam)^{-1/2} (Ly U)^H.
    The scaled extreme points G_k = R^{-1} sigma_k R^{-H} are kept as vectors
    (pure hulls) or as matrices.
    """

    def __init__(self, prog: _Program, q: np.ndarray, Y: np.ndarray):
        self.q = q
        self.Y = 0.5 * (Y + dagger(Y))
        self.u = 1.0 - prog.constraint_values(self.Y)
        if not (q.min() > 0.0 and self.u.min() > 0.0):  # also catches NaN
            raise np.linalg.LinAlgError("a weight or a constraint slack left the cone")
        Ls = np.linalg.cholesky(prog.slack(q))
        Ly = np.linalg.cholesky(self.Y)
        U, lam, _ = np.linalg.svd(dagger(Ly) @ Ls)
        self.lam = lam
        isqrt = 1.0 / np.sqrt(lam)
        self.rinv = dagger(Ly @ U) * isqrt[:, None]
        self.scale = isqrt[:, None] * isqrt  # X * scale = diag(lam)^{-1/2} X diag(lam)^{-1/2}
        self.d = np.sqrt(q / self.u)
        self.lam_lp = np.sqrt(q * self.u)
        self.mu = float(self.lam_lp @ self.lam_lp + lam @ lam) / (prog.m + prog.rank)
        if prog.vecs is not None:
            self.gvecs, self.gmats = self.rinv @ prog.vecs, None
        else:
            self.gvecs, self.gmats = None, self.rinv @ prog.mats @ dagger(self.rinv)
        self.upper = float(q.sum()) - 1.0
        self.lower = float(np.vdot(self.Y, prog.rho).real) - 1.0

    def coords(self) -> np.ndarray:
        """Real coordinates of every G_k, one row each (m x r^2)."""
        if self.gvecs is None:
            return _hvec(self.gmats)
        g = self.gvecs
        i, j = _triu(g.shape[0])
        return _real_coords(np.abs(g) ** 2, math.sqrt(2.0) * (g[i] * g[j].conj()), 0).T


# Both routes solve the same scaled Newton system.  With the scaled steps
# dq/d + d du = t (weights) and ds + dy = T (cone), where ds = sum_k dq_k G_k
# and du_k = -Tr[G_k dy], they eliminate different unknowns.  Each builds its
# matrix once per iterate and returns the solver of (t, T) that the predictor
# and the corrector share; du is then read off the weights equation.


def _schur_direction(it: _Iterate):
    """m x m system in dq: (diag(u/q) + [Tr G_k G_l]) dq = t/d + Tr[G_k T]."""
    if it.gvecs is not None:
        H = np.abs(dagger(it.gvecs) @ it.gvecs) ** 2
    else:
        F = it.coords()
        H = F @ F.T
    H.reshape(-1)[::len(H) + 1] += it.u / it.q

    def solve(t: np.ndarray, T: np.ndarray):
        dq = np.linalg.solve(H, t / it.d + _constraint_values(it.gvecs, it.gmats, T))
        ds = _mix(it.gvecs, it.gmats, dq)
        ds = 0.5 * (ds + dagger(ds))
        return dq, ds, T - ds

    return solve


def _witness_direction(it: _Iterate):
    """Scaled witness step dy = R^H dY R in its n real coordinates y (r^2, or
    r(r+1)/2 when real), with dq_B kept for the n rows B of largest
    d_k^2 |F_k|^2: with K = I + F_S^T diag(d_S^2) F_S over the other rows S,
    it solves the quasi-definite system
    [[K, F_B^T], [F_B, -diag(1/d_B^2)]] [y; dq_B] = [hvec(T) - F_S^T (d_S t_S);
    -t_B/d_B] once per right-hand side."""
    F = it.coords()
    n = F.shape[1]
    big = np.argsort(it.d**2 * (F * F).sum(axis=1))[::-1][:n]
    d_small = it.d.copy()
    d_small[big] = 0.0
    A = np.zeros((n + len(big),) * 2)
    A[:n, :n] = F.T @ (F * (d_small**2)[:, None])
    A[n:, :n] = F[big]
    A[:n, n:] = A[n:, :n].T
    A.reshape(-1)[::len(A) + 1] += np.concatenate([np.ones(n), -1.0 / it.d[big] ** 2])

    def solve(t: np.ndarray, T: np.ndarray):
        rhs = np.concatenate([_hvec(T) - F.T @ (d_small * t), -t[big] / it.d[big]])
        x = np.linalg.solve(A, rhs)
        dq = it.d * t + it.d**2 * (F @ x[:n])
        dq[big] = x[n:]
        dy = _hmat(x[:n], T.shape[0])
        return dq, T - dy, dy

    return solve


def _max_step(it: _Iterate, dq, du, ds, dy=None) -> float:
    """Largest step keeping q, u, diag(lam) + a ds and diag(lam) + a dy in their
    cones; without ``dy``, the predictor's dy = -diag(lam) - ds (module docstring)."""
    if dy is None:
        w = np.linalg.eigvalsh(ds * it.scale)
        cone = min(w[0], -1.0 - w[-1])
    else:
        cone = np.linalg.eigvalsh(np.stack([ds, dy]) * it.scale)[:, 0].min()
    floor = min(float((dq / it.q).min()), float((du / it.u).min()), float(cone))
    return math.inf if floor >= 0.0 else -1.0 / floor


def _mehrotra_step(prog: _Program, it: _Iterate, direction) -> _Iterate | None:
    """One predictor-corrector iteration; None when no step could be taken."""
    lam = it.lam
    newton = direction(it)

    def solve(t, T):
        dq, ds, dy = newton(t, T)
        return dq, (t - dq / it.d) / it.d, ds, dy

    try:
        dq, du, ds, dy = solve(-it.lam_lp, np.diag(-lam).astype(prog.rho.dtype))
        a = min(1.0, _max_step(it, dq, du, ds))
        # L = diag(lam) = -(ds + dy): Tr[(L + a ds)(L + a dy)] = (1 - a) Tr L^2 + a^2 Tr[ds dy]
        mu_aff = (float((it.q + a * dq) @ (it.u + a * du)) + (1.0 - a) * float(lam @ lam)
                  + a * a * float(np.vdot(ds, dy).real)) / (prog.m + prog.rank)
        target = (mu_aff / it.mu) ** 3 * it.mu
        t = (target - it.lam_lp**2 - dq * du) / it.lam_lp
        P = ds @ dy
        M = -0.5 * (P + dagger(P))  # -(ds dy + dy ds)/2, as (ds dy)^H = dy ds
        M.reshape(-1)[::prog.rank + 1] += target - lam * lam
        dq, du, ds, dy = solve(t, 2.0 * M / np.add.outer(lam, lam))
    except np.linalg.LinAlgError:
        return None
    alpha = min(1.0, _STEP_FRACTION * _max_step(it, dq, du, ds, dy))
    dY = dagger(it.rinv) @ dy @ it.rinv
    for _ in range(_MAX_BACKTRACK):
        try:
            return _Iterate(prog, it.q + alpha * dq, it.Y + alpha * dY)
        except np.linalg.LinAlgError:
            alpha *= 0.5
    return None


def _solve(rho: np.ndarray, spec: FreeSet, tol: float, max_newton: int):
    """(program, iterate with the smallest gap, iterations, status), or
    (program, None, 0, INFEASIBLE) when the hull cannot dominate rho."""
    prog = _Program.from_spec(rho, spec)
    if not prog.feasible:
        return prog, None, 0, INFEASIBLE
    eye = np.eye(prog.rank, dtype=prog.rho.dtype)
    it = best = _Iterate(prog, _initial_point(prog),
                         0.5 * eye / prog.constraint_values(eye).max())
    # m x m in the weights, or the bordered system (2r^2 square, or r(r+1) when
    # real) once m > r^2
    direction = _witness_direction if prog.m > prog.rank**2 else _schur_direction
    used = 0
    while best.upper - best.lower > tol * max(1.0, abs(best.upper)):
        it = _mehrotra_step(prog, it, direction) if used < max_newton else None
        if it is None:
            return prog, best, used, MAX_ITERATIONS
        used += 1
        if it.upper - it.lower < best.upper - best.lower:
            best = it
    return prog, best, used, CONVERGED


def robustness_dual(rho, spec: FreeSet, tol: float = DEFAULT_TOL,
                    max_newton: int = DEFAULT_MAX_NEWTON) -> RobustnessResult:
    """Certified robustness of ``rho`` with respect to the free set.

    Returns a feasible witness whose objective is the certified lower bound
    and primal weights certifying the upper bound; ``status`` is
    ``max_iterations`` when ``max_newton`` interior-point iterations did not
    close the gap or no step kept the point feasible (the bounds are still
    valid) and ``infeasible`` when no mixture dominates ``rho``.  Raises
    ValueError unless ``tol`` is finite and > 0 and ``max_newton`` an integer >= 0.
    """
    if isinstance(tol, bool) or not (isinstance(tol, numbers.Real) and 0.0 < tol < math.inf):
        raise ValueError(f"tol must be a finite number > 0, got {tol!r}")
    if isinstance(max_newton, bool) or not (isinstance(max_newton, numbers.Integral)
                                            and max_newton >= 0):
        raise ValueError(f"max_newton must be an integer >= 0, got {max_newton!r}")
    rho = assert_density(rho)
    prog, it, used, status = _solve(rho, spec, tol, max_newton)
    if it is None:
        return RobustnessResult(
            value=math.inf, witness=None, primal_weights=None, gap=math.inf,
            status=status, lower_bound=0.0, upper_bound=math.inf,
            newton_iterations=0,
        )
    return _certify(rho, spec, prog.expand(it.Y), it.q, status, used)


def _certify(rho, spec: FreeSet, witness, weights, status: str, used: int) -> RobustnessResult:
    """Re-derive the lower bound of a witness in ``rho``'s space from every extreme point."""
    witness = witness.astype(complex)
    witness = 0.5 * (witness + dagger(witness))
    cons = witness_constraints(witness, spec)
    cmax = float(cons.max())
    if cmax > 1.0:
        witness = witness / cmax
    lower = trace_inner(witness, rho) - 1.0
    if lower < 0.0:
        witness = np.eye(rho.shape[0], dtype=complex)
        lower = 0.0
    upper = max(float(weights.sum()) - 1.0, lower)
    gap = upper - lower
    return RobustnessResult(
        value=max(0.0, 0.5 * (lower + upper)),
        witness=witness,
        primal_weights=weights,
        gap=gap,
        status=status,
        lower_bound=lower,
        upper_bound=upper,
        newton_iterations=used,
    )


@lru_cache(maxsize=STABILIZER_MAX_QUBITS)
def _tstate_profiles(n: int):
    """Twirl table around |T>^n (module docstring): basis V = [|T>, |T^perp>]^n,
    classes[x, j] = [|x| = j], profile hull, state k's profile index[k], counts."""
    V = tensor_power(np.stack([t_state(1), PAULI_Z @ t_state(1)], axis=1), n)
    classes = np.eye(n + 1)[[bin(x).count("1") for x in range(2**n)]]
    profiles = (np.abs(dagger(V) @ stabilizer_set(n).vector_array) ** 2).T @ classes
    _, first, index, counts = np.unique(np.round(profiles, 8), axis=0, return_index=True,
                                        return_inverse=True, return_counts=True)
    hull = finite_hull(np.diag(p).astype(complex) for p in profiles[first])
    return V, classes, hull, index.reshape(-1), counts


def _twirled_dual(rho, y, spec: FreeSet, tol: float, max_newton: int) -> RobustnessResult | None:
    """robustness_dual(rho, spec) for rho in span{P_j} (module docstring) when y is
    |T>^n up to a phase and spec is stabilizer_set(n); None for any other pair."""
    n = spec.dim.bit_length() - 1
    if not (spec.kind == "stabilizer" and n <= STABILIZER_MAX_QUBITS and spec is stabilizer_set(n)
            and abs(np.vdot(t_state(n), y)) >= 1.0 - 1e-14):
        return None
    V, classes, hull, index, counts = _tstate_profiles(n)
    p = (dagger(V) @ rho @ V).diagonal().real @ classes
    res = robustness_dual(np.diag(p), hull, tol=tol, max_newton=max_newton)  # I/d in the hull
    Y = (V * (classes @ res.witness.diagonal().real)) @ dagger(V)
    weights = (res.primal_weights / counts)[index]
    return _certify(rho, spec, Y, weights, res.status, res.newton_iterations)


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


def _mix(vecs, mats, coeff: np.ndarray) -> np.ndarray:
    """sum_k coeff_k sigma_k over the columns of ``vecs`` or the stacked ``mats``."""
    if vecs is not None:
        return (vecs * coeff) @ dagger(vecs)
    return np.tensordot(coeff, mats, axes=1)


def _constraint_values(vecs, mats, Y: np.ndarray) -> np.ndarray:
    """Tr[Y sigma_k]: the columns of ``vecs`` first, then the stacked ``mats``."""
    vals = []
    if vecs is not None:
        vals.append(((Y @ vecs) * vecs.conj()).real.sum(axis=0))
    if mats is not None:
        vals.append((mats.reshape(mats.shape[0], -1) @ Y.T.reshape(-1)).real)
    return np.concatenate(vals)


def witness_constraints(witness, spec: FreeSet) -> np.ndarray:
    """Tr[Y sigma_k] for every extreme point, in density_matrices() order."""
    return _constraint_values(spec.vector_array,
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
    V = spec.vector_array
    if V is not None:
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
    return tensor_power(single_qubit_magic_witness(), n)


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
