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
back to complex.  Outside the loop the same data stays real: a real free set's points are
float64 (``FreeSet.points``), so the closed pairs' placements and the public rechecks mix and
overlap them in real products, a constraint value reads Re Y (Tr[Y sigma] = Tr[Re(Y) sigma] for
real sigma), and ``_psd_within`` factorises a matrix with no imaginary part as real; a golden
state's validation, slack recheck and witness recheck take no complex O(d^3) step.

Theorem 2's residual (I - a|T^n><T^n|)/(d - a) and stabilizer(n) are invariant
under qubit permutations and (X+Y)/sqrt 2 on any qubit, which fixes |T> (Gatermann &
Parrilo, J. Pure Appl. Algebra 192, 95, 2004; Heinrich & Gross, Quantum 3, 132, 2019).
Twirling over that group keeps a feasible pair feasible at the same objective and maps
onto span{P_j}, P_j projecting onto the Hamming-weight-j class of the {|T>, |T^perp>}^n
basis, so sigma enters only through its profile p(sigma) = (Tr[P_j sigma])_j (28 at
n = 3).  The loop solves diag(p(rho)) on the hull of the diag(p(sigma)); with no nested call,
its witness's diagonal f lifts to Y = sum_j f_j P_j, a profile's weight w to w / S on each of
its S states (their average is sum_j p_j P_j / Tr P_j), and one ``_certify`` on rho follows.
``robustness_dual`` tries this route (``_twirled_dual``) first, for a free set with
stabilizer(n)'s point count in any order (a copy of the cached set is matched by overlap) and
rho = lambda_max I - (lambda_max - lambda_min)|T^n><T^n| to rounding, lambda_max above
lambda_min.  Both are read off rho, lambda_min = <T^n|rho|T^n> and lambda_max = (Tr rho -
lambda_min)/(d - 1), and one O(d^2) comparison decides, with no spectrum; no other input builds
stabilizer(n).

Against an incoherent set, rho is tried next with the l1 pair (Napoli et al., PRL 116,
150502, 2016; Piani et al., PRA 93, 042107, 2016).  Let r be the column of rho with the most
coherence, B the rows j with |rho_jr| above rounding and y_j = phase(rho_jr) on B.  The
witness Y = y y^H on B plus I off B is PSD by construction, with a unit diagonal; the weights
q_j = sum_k |rho_jk| leave diag(q) - rho diagonally dominant, hence PSD.  So Tr[Y rho] - 1 <=
R <= sum_jk |rho_jk| - 1, and the ends meet when rho's coherences lie in B x B with the phases
rho_jk = |rho_jk| y_j conj(y_k), as in a pure state or a depolarizing channel's Choi state.
Else the spectral pair, the one route here that takes rho's spectrum: Y = (rho - l I)/max_j
(rho_jj - l) is PSD with a diagonal <= 1, l lambda_min less _round_off(d) lambda_max for its
rounding, and the weights lambda_max on every basis state leave lambda_max I - rho >= 0.  A
constant diagonal and a (d-1)-fold top eigenvalue give Tr[Y rho] = d lambda_max at l =
lambda_min, so the ends meet at R = a/(d - a) on theorem 2's residual of a flat y (|y_k|^2 =
1/d); other states fail this O(d^2) test.  Against any other set, a rho with <T^n|rho|T^n> >=
(1 - 1e-14)^2, so lambda_max(rho) >= 1 - 2e-14, has the product pair against any hull holding
the 2^n products of |+> and |+i>: R = 1/F - 1 = (4 - 2 sqrt 2)^n - 1, F = cos^{2n}(pi/8)
(Heinrich & Gross, Quantum 3, 132, 2019).  The witness (1 + R)|T><T|^n is rechecked against
every extreme point, and the weights (2 - sqrt 2)^n on the products leave the slack
A^n - |T><T|^n >= 0: A = (2 - sqrt 2)(|+><+| + |+i><+i|) = |T><T| + (3 - 2 sqrt 2)|T^perp><T^perp|
>= |T><T| >= 0, and A >= B >= 0 gives A^n >= B^n.

A free state needs no iteration either when it mixes orthonormal pure extreme points,
rho = sum_i w_i sigma_k(i) (Regula, J. Phys. A 51, 045303, 2018): the witness I is
feasible and reaches Tr[rho] - 1 = 0, and the eigenvalues w_i as weights meet
sum(q) - 1 = 0, so R = 0 is certified exactly.  ``robustness_dual`` tries this last, and
not against an incoherent set: a free state there is diagonal, and its l1 pair is already this
certificate.  One eigendecomposition of rho gives the eigenvectors; each with an eigenvalue
above rounding must overlap some extreme point to 1 - _PURE_FREE_SLACK, and the slack of the
matched weights is rechecked down to rounding; a spectrum whose eigenbasis is not made of
extreme points (say, a degenerate one) is left to the interior-point loop.

These certificates sit on the boundary, with the slack's least eigenvalue at rounding
(about -1e-15).  Every pair's weights and the free mixture's are placed on the set's own
points by overlap (``_placed``), and their slack is rechecked against the rounding bound 8 d
eps by one Cholesky factorisation shifted by half of it (``_psd_within``; the spectrum decides
only where it fails).  A completed factorisation proves only lambda_min >= -O(d eps Tr), about
4x that bound for a golden slack of trace d - 1 at d = 60: the order of eigvalsh's own
rounding on it.  Every witness is scaled by 1 - 8 ulps: rounding put Tr[Y rho] up to 2.8 ulps
of 1 + R above R.  Each goes through ``_certify`` with ``newton_iterations`` 0; an input whose
certificate fails a recheck or does not close within ``tol`` runs the loop instead.  rho is
validated by the same shifted factorisation, at psd_tol.  Only the spectral pair and the free
mixture decompose rho, so a call takes at most one decomposition of it, and golden states,
|T>^n and the twirl's residuals take none.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .freesets import (STABILIZER_MAX_QUBITS, FreeSet, finite_hull, stabilizer_set,
                       stabilizer_state_count)
from .linalg import (
    _check_count,
    _psd_within,
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
# rounding bound on 1 - <e|sigma_k|e> when the unit vector e is the pure extreme point sigma_k:
# ``_placed`` matches columns to points by it, and theorem 3's free-input test uses it too
_PURE_FREE_SLACK = 1e-13


def _round_off(d: int) -> float:
    """Rounding bound on the eigenvalues and the trace of a d x d operator of unit trace."""
    return 8.0 * d * np.finfo(float).eps


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


def _feasible(result: RobustnessResult, spec: FreeSet) -> RobustnessResult:
    """``result`` for a caller that reads its witness or weights, which an infeasible
    result lacks: InfeasibleHullError when the hull cannot dominate the state."""
    if result.status == INFEASIBLE:
        raise InfeasibleHullError(f"the hull {spec.label()} cannot dominate the state")
    return result


# ---------------------------------------------------------------------------
# problem setup: compression onto the hull's support subspace
# ---------------------------------------------------------------------------


class _Program:
    def __init__(self, rho: np.ndarray, points: np.ndarray):
        d, pure = rho.shape[0], points.ndim == 2  # the layout of ``FreeSet.points``
        omega = (points @ dagger(points)) / points.shape[1] if pure else points.mean(axis=0)

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
            if pure:
                points = dagger(B) @ points
            else:
                points = np.einsum("ia,kij,jb->kab", B.conj(), points, B, optimize=True)
        else:
            self.basis = None
            self.leak = 0.0

        self.feasible = self.leak <= _round_off(d)  # rho's weight outside the hull's support
        self.rho = rho
        self.points = points
        self.m = points.shape[1] if pure else len(points)

    @classmethod
    def from_spec(cls, rho: np.ndarray, spec: FreeSet) -> "_Program":
        if not (np.iscomplexobj(spec.points) or rho.imag.any()):
            rho = rho.real.copy()  # real data: solve over real symmetric witnesses (module docstring)
        return cls(rho, spec.points)

    def expand(self, Y: np.ndarray) -> np.ndarray:
        """Lift an operator from the compressed subspace back to this
        program's input space."""
        if self.basis is not None:
            Y = self.basis @ Y @ dagger(self.basis)
        return Y

    def slack(self, q: np.ndarray) -> np.ndarray:
        S = _mix(self.points, q) - self.rho
        return 0.5 * (S + dagger(S))

    def constraint_values(self, Y: np.ndarray) -> np.ndarray:
        """Tr[Y sigma_k] for every compressed extreme point."""
        return _constraint_values(self.points, Y)


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
    The scaled extreme points G_k = R^{-1} sigma_k R^{-H} are kept in ``g``, in the
    layout of the program's points: as the columns R^{-1} v_k when every point is
    pure, else as a stack of matrices.
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
        g = self.rinv @ prog.points
        self.g = g @ dagger(self.rinv) if g.ndim == 3 else g
        self.upper = float(q.sum()) - 1.0
        self.lower = float(np.vdot(self.Y, prog.rho).real) - 1.0

    def coords(self) -> np.ndarray:
        """Real coordinates of every G_k, one row each (m x r^2)."""
        g = self.g
        if g.ndim == 3:
            return _hvec(g)
        i, j = _triu(g.shape[0])
        return _real_coords(np.abs(g) ** 2, math.sqrt(2.0) * (g[i] * g[j].conj()), 0).T


# Both routes solve the same scaled Newton system.  With the scaled steps
# dq/d + d du = t (weights) and ds + dy = T (cone), where ds = sum_k dq_k G_k
# and du_k = -Tr[G_k dy], they eliminate different unknowns.  Each builds its
# matrix once per iterate and returns the solver of (t, T) that the predictor
# and the corrector share; du is then read off the weights equation.


def _schur_direction(it: _Iterate):
    """m x m system in dq: (diag(u/q) + [Tr G_k G_l]) dq = t/d + Tr[G_k T]."""
    if it.g.ndim == 2:
        H = _overlaps(it.g, it.g)  # Tr[G_k G_l] = |<g_k|g_l>|^2
    else:
        F = it.coords()
        H = F @ F.T
    H.reshape(-1)[::len(H) + 1] += it.u / it.q

    def solve(t: np.ndarray, T: np.ndarray):
        dq = np.linalg.solve(H, t / it.d + _constraint_values(it.g, T))
        ds = _mix(it.g, dq)
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


def _check_tol(tol) -> None:
    if isinstance(tol, bool) or not (isinstance(tol, numbers.Real) and 0.0 < tol < math.inf):
        raise ValueError(f"tol must be a finite number > 0, got {tol!r}")


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
    _check_tol(tol)
    _check_count(max_newton, "max_newton", 0)
    rho = assert_density(rho, "state")
    if spec.dim != rho.shape[0]:
        raise ValueError(f"state dimension {rho.shape[0]} does not match free set {spec.label()}")
    exact = _twirled_dual(rho, spec, tol, max_newton) or _closed_pair(rho, spec, tol)
    if exact is not None:
        return exact
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


def _exact(rho, spec: FreeSet, witness, weights, tol: float) -> RobustnessResult | None:
    """``_certify`` of a certificate found without iterating, its witness scaled by
    1 - 8 ulps; None when there are no weights or its gap does not close within ``tol``."""
    pad = 1.0 - 8.0 * np.finfo(float).eps  # rounding lifted Tr[Y rho] up to 2.8 ulps of 1 + R
    res = None if weights is None else _certify(rho, spec, pad * witness, weights, CONVERGED, 0)
    return res if res is not None and res.gap <= tol * max(1.0, res.upper_bound) else None


def _free_mixture(rho, spec: FreeSet, tol: float) -> RobustnessResult | None:
    """R = 0 certified by the witness I and rho's eigenvalues as weights, when rho mixes
    orthonormal pure extreme points (module docstring); None for any other rho."""
    w, E = np.linalg.eigh(rho)
    keep = w > _round_off(len(w))
    return _exact(rho, spec, np.eye(len(w)), _placed(rho, spec, E[:, keep], w[keep]), tol)


def _closed_pair(rho, spec: FreeSet, tol: float) -> RobustnessResult | None:
    """Against an incoherent set, the l1 or else the spectral pair; against any other, the
    product pair of a rho that overlaps |T>^n to 1e-14, or else the free mixture (module
    docstring).  None for any other rho."""
    d = spec.dim
    n = d.bit_length() - 1
    if spec.kind == "incoherent":
        mags = np.abs(rho)
        w = mags.sum(axis=1)  # q_j = sum_k |rho_jk|: diag(q) - rho is diagonally dominant
        r = int((w - mags.diagonal()).argmax())  # the column with the most coherence
        block = mags[:, r] > _round_off(d)
        y = np.where(block, rho[:, r] / np.where(block, mags[:, r], 1.0), 0.0)  # phase(rho_jr)
        Y = np.outer(y, y.conj()) + np.diag(~block)  # y y^H on B, I off B
        if w.sum() - np.vdot(Y, rho).real > tol * max(1.0, w.sum() - 1.0):
            lo, hi = np.linalg.eigvalsh(rho)[[0, -1]]
            Y = rho - (lo - _round_off(d) * hi) * np.eye(d)  # >= 0 despite lambda_min's rounding
            Y /= Y.diagonal().real.max()  # the spectral pair; lambda_max I - rho >= 0 holds
            w = np.full(d, hi)
            if w.sum() - np.vdot(Y, rho).real > tol * max(1.0, w.sum() - 1.0):
                return None
        return _exact(rho, spec, Y, _placed(rho, spec, np.eye(d), w), tol)
    product = None
    if 1 < d == 2**n and np.vdot(t := _tstate_table(n)[0], rho @ t).real >= (1 - 1e-14)**2:
        _, T, points = _tstate_table(n)
        w = np.full(d, (2.0 - math.sqrt(2.0)) ** n)  # on the products of |+> and |+i>
        product = _exact(rho, spec, (1.0 + tstate_magic_robustness(n)) * T,
                         _placed(rho, spec, points, w), tol)
    return product or _free_mixture(rho, spec, tol)


def _placed(rho, spec: FreeSet, E, w) -> np.ndarray | None:
    """The weights w on the extreme points that the columns of E overlap to
    1 - _PURE_FREE_SLACK, once their slack is rechecked down to rounding; None when a column
    matches no point or the slack fails the recheck."""
    overlaps = _overlaps(spec.points, E)
    match = overlaps.argmax(axis=1)
    if not overlaps[np.arange(len(match)), match].min() >= 1.0 - _PURE_FREE_SLACK:
        return None
    q = np.zeros(spec.n_points)
    q[match] = w  # columns that overlap by <= 1/2 cannot share a point they each overlap by ~1
    if not _psd_within(primal_slack(q, rho, spec), _round_off(len(rho))):
        return None
    return q


@lru_cache(maxsize=None)
def _tstate_table(n: int):
    """|T>^n, |T^n><T^n| and the products of |+> and |+i> as columns; read-only, one build per n."""
    t = t_state(n)
    T, points = projector(t), tensor_power(np.array([[1.0, 1.0], [1.0, 1j]]) / math.sqrt(2.0), n)
    t.flags.writeable = T.flags.writeable = points.flags.writeable = False
    return t, T, points


@lru_cache(maxsize=STABILIZER_MAX_QUBITS)
def _tstate_profiles(n: int):
    """Twirl table around |T>^n (module docstring): basis V = [|T>, |T^perp>]^n,
    classes[x, j] = [|x| = j], profile hull, state k's profile index[k], counts."""
    t = _tstate_table(1)[0]
    V = tensor_power(np.stack([t, PAULI_Z @ t], axis=1), n)
    classes = np.eye(n + 1)[[bin(x).count("1") for x in range(2**n)]]
    profiles = _overlaps(stabilizer_set(n).points, V).T @ classes
    _, first, index, counts = np.unique(np.round(profiles, 8), axis=0, return_index=True,
                                        return_inverse=True, return_counts=True)
    hull = finite_hull(np.diag(p).astype(complex) for p in profiles[first])
    return V, classes, hull, index.reshape(-1), counts


def _twirled_dual(rho, spec: FreeSet, tol: float, max_newton: int) -> RobustnessResult | None:
    """rho's certificate against spec, solved over the |T>^n profiles (module docstring), when spec
    has stabilizer(n)'s point count and rho = lambda_max I - (lambda_max - lambda_min)|T^n><T^n|,
    lambda_max above lambda_min, to rounding; spec's points are found by overlap unless it is
    the cached set.  None for any other pair, before any stabilizer set is built."""
    d = spec.dim
    n = d.bit_length() - 1
    if not (0 < n <= STABILIZER_MAX_QUBITS and d == 2**n
            and spec.n_points == stabilizer_state_count(n)):
        return None
    t, T, _ = _tstate_table(n)
    lo = np.vdot(t, rho @ t).real  # lambda_min, and lambda_max (d-1)-fold from the trace
    hi = (rho.trace().real - lo) / (d - 1)
    if not (lo < hi - _round_off(d) and np.abs(rho - hi * np.eye(d) + (hi - lo) * T).max()
            <= _round_off(d)):
        return None
    stab = stabilizer_set(n)
    V, classes, hull, index, counts = _tstate_profiles(n)
    p = (dagger(V) @ rho @ V).diagonal().real @ classes
    prog, it, used, status = _solve(np.diag(p), hull, tol, max_newton)  # I/d in the hull
    Y = (V * (classes @ prog.expand(it.Y).diagonal().real)) @ dagger(V)
    weights = (it.q / counts)[index]
    if spec is not stab:  # a copy, in any order: its points are found by overlap
        weights = _placed(rho, spec, stab.points, weights)
    return None if weights is None else _certify(rho, spec, Y, weights, status, used)


def robustness_primal(rho, spec: FreeSet, tol: float = DEFAULT_TOL,
                      max_newton: int = DEFAULT_MAX_NEWTON):
    """Upper bound and mixing weights for the finite-generator program.

    Raises :class:`InfeasibleHullError` when the hull cannot dominate the
    state (impossible when the maximally mixed state is in the hull).
    """
    result = _feasible(robustness_dual(rho, spec, tol=tol, max_newton=max_newton), spec)
    return result.upper_bound, result.primal_weights


# ---------------------------------------------------------------------------
# certificate re-checks (used by the result consumers and the test suite)
# ---------------------------------------------------------------------------


def _mix(points: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """sum_k coeff_k sigma_k, the points laid out as in ``FreeSet.points``: the columns
    v_k of a (d, m) array, sigma_k = |v_k><v_k|, or an (m, d, d) stack of matrices."""
    if points.ndim == 2:
        return (points * coeff) @ dagger(points)
    return np.tensordot(coeff, points, axes=1)


def _constraint_values(points: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Tr[Y sigma_k] for every point; against real points, Tr[Re(Y) sigma_k] in real arithmetic,
    which is Re Tr[Y sigma_k] for any Y."""
    if not np.iscomplexobj(points):
        Y = Y.real
    if points.ndim == 2:
        return ((Y @ points) * points.conj()).real.sum(axis=0)
    return (points.reshape(len(points), -1) @ Y.T.reshape(-1)).real


def _overlaps(points: np.ndarray, E: np.ndarray) -> np.ndarray:
    """<e_i|sigma_k|e_i> for the columns e_i of E, one row per column."""
    if points.ndim == 2:
        return np.abs(dagger(E) @ points) ** 2
    return np.einsum("ai,kab,bi->ik", E.conj(), points, E).real


def _sized(A, spec: FreeSet, name: str) -> np.ndarray:
    """``A`` as a complex array, once its shape is checked against spec's d x d operators."""
    A = np.asarray(A, dtype=complex)
    if A.shape != (spec.dim, spec.dim):
        raise ValueError(f"{name} has shape {A.shape}, expected ({spec.dim}, {spec.dim}) "
                         f"for free set {spec.label()}")
    return A


def witness_constraints(witness, spec: FreeSet) -> np.ndarray:
    """Tr[Y sigma_k] for every extreme point, in density_matrices() order."""
    return _constraint_values(spec.points, _sized(witness, spec, "witness"))


def witness_is_feasible(witness, spec: FreeSet, psd_tol: float = 1e-9,
                        constraint_tol: float = 1e-8) -> bool:
    """Independent feasibility re-check of a dual witness: False for a non-finite or
    non-Hermitian witness, else Y >= 0 within ``psd_tol``, proved by one shifted Cholesky
    factorisation (the spectrum decides only where it fails; the proof holds psd_tol while
    (d + 1) eps Tr Y / 2 stays below psd_tol / 2, see ``linalg._psd_within``), and every
    constraint within ``constraint_tol``.  Raises ValueError for a witness of the wrong shape."""
    witness = _sized(witness, spec, "witness")
    # _psd_within is False for a non-finite witness, before the Hermiticity test's arithmetic
    if not (_psd_within(witness, psd_tol) and np.abs(witness - dagger(witness)).max() <= 1e-9):
        return False
    return bool(_constraint_values(spec.points, witness).max() <= 1.0 + constraint_tol)


def primal_slack(weights, rho, spec: FreeSet) -> np.ndarray:
    """sum_k q_k sigma_k - rho; PSD iff the weights are feasible."""
    weights = np.asarray(weights, dtype=float)
    if len(weights) != spec.n_points:
        raise ValueError("weight vector length does not match the extreme-point list")
    S = _mix(spec.points, weights) - _sized(rho, spec, "rho")
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
    _check_count(n, "n", 1)
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
    of the certified objective, and :class:`InfeasibleHullError` when the
    hull cannot dominate the state.
    """
    psi = assert_pure(psi)
    result = robustness_dual(np.outer(psi, psi.conj()), spec, tol=tol)
    return rank1_truncation(psi, spec, result, tol)


def rank1_truncation(psi: np.ndarray, spec: FreeSet, result: RobustnessResult,
                      tol: float) -> tuple[float, np.ndarray]:
    """Rank-1 witness from an already solved program for |psi><psi|."""
    if _feasible(result, spec).value <= tol:
        raise ValueError("state is free; a rank-1 witness requires robustness > tol")
    _, V = np.linalg.eigh(result.witness)
    y = V[:, -1]
    feas = float(witness_constraints(np.outer(y, y.conj()), spec).max())  # y: unit eigenvector
    c = 1.0 / feas
    achieved = c * float(np.abs(np.vdot(y, psi)) ** 2) - 1.0
    if achieved < result.value - 10.0 * tol:
        raise Rank1NotTightError(
            f"rank-1 witness reaches {achieved:.9f} < value {result.value:.9f} - 10*tol"
        )
    return c, y
