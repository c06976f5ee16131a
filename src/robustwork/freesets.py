"""Finitely generated free sets: incoherent states, stabilizer states, custom hulls.

A free set is stored extensionally as its list of extreme points, because the
robustness programs need the constraint list explicitly.  Pure extreme points
are kept as state vectors, mixed ones (hulls only) as density matrices, and
every program and recheck reads one array, ``FreeSet.points``: the vectors as
columns when all points are pure, else every point as a matrix, in float64 when
every entry is real.

Stabilizer states are written in their affine form 2^{-k/2} sum_u i^{l.u}
(-1)^{m.u + u^T Q u} |t + uG> (Dehaene & De Moor, PRA 68, 042318, 2003; Van den
Nest, QIC 10, 258, 2010), u in F_2^k: G in reduced row echelon form, t zero on
its pivots, Q strictly upper triangular, l and m in F_2^k.  Each choice is a
distinct state, so the loop lists each once, in generator order (by k, G, t,
then Q, l, m); the counts are checked against 6, 60, 1080.  A free set proves
I/d in its hull once (``contains_maximally_mixed``), and the incoherent and
stabilizer sets are cached, so each of them proves it once per process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations, product

import numpy as np

from .linalg import assert_density, assert_pure, maximally_mixed, policy
from .states import basis_state

__all__ = [
    "FreeSet",
    "incoherent_extreme_points",
    "incoherent_set",
    "enumerate_stabilizer_states",
    "stabilizer_set",
    "stabilizer_state_count",
    "finite_hull",
    "membership",
]

STABILIZER_MAX_QUBITS = 3


@dataclass(frozen=True, eq=False)
class FreeSet:
    """Extensional description of a convex free set.

    ``vectors`` holds pure extreme points as state vectors; ``matrices``
    holds any mixed extreme points (finite hulls only).  At least one entry
    must exist overall.  ``points`` stacks them.  Sets compare and hash by
    identity, so a set can key a dict or a cache.
    """

    kind: str
    dim: int
    vectors: tuple = field(default_factory=tuple)
    matrices: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not self.vectors and not self.matrices:
            raise ValueError("free set needs at least one extreme point")

    @property
    def n_points(self) -> int:
        return len(self.vectors) + len(self.matrices)

    @cached_property
    def points(self) -> np.ndarray:
        """The extreme points in one read-only array, stacked and checked on first use: the
        columns of a (d, m) array when every point is pure, else the (m, d, d) stack of
        ``density_matrices()``; float64 when every entry is real (every incoherent set), so the
        solver's products with it run in real arithmetic.  ValueError unless each has dimension
        d and unit norm or trace."""
        if self.matrices:
            P = np.stack(self.density_matrices())
            unit, what = np.trace(P, axis1=1, axis2=2).real, "trace"
        else:
            P, what = np.stack(self.vectors, axis=1), "squared norm"
            re, im = P.real, P.imag  # views: the column norms take no d x m temporary
            unit = np.einsum("ij,ij->j", re, re) + np.einsum("ij,ij->j", im, im)
        if P.shape[-2] != self.dim:
            raise ValueError(f"{self.label()}: extreme points have dimension {P.shape[-2]}")
        if (bad := np.flatnonzero(~(np.abs(unit - 1.0) <= policy.trace_tol))).size:  # or NaN
            raise ValueError(f"{self.label()}: extreme point {bad[0]} has {what} "
                             f"{float(unit[bad[0]])!r}, expected 1")
        P = P if P.imag.any() else P.real.copy()
        P.flags.writeable = False
        return P

    @cached_property
    def contains_maximally_mixed(self) -> bool:
        """Whether I/d lies in the hull (theorem 2's precondition), proved by
        ``membership`` on first read and kept for the life of the set."""
        return membership(self, maximally_mixed(self.dim), tol=1e-6)

    def density_matrices(self) -> list[np.ndarray]:
        """All extreme points as density matrices (pure ones first); ``points`` checks them."""
        pure = [np.outer(v, np.conj(v)) for v in self.vectors]
        return pure + [np.array(m) for m in self.matrices]

    def label(self) -> str:
        return f"{self.kind}(d={self.dim}, m={self.n_points})"


def incoherent_extreme_points(dim: int) -> list[np.ndarray]:
    """The d computational-basis vectors: extreme points of the incoherent set."""
    if dim < 2:
        raise ValueError(f"incoherent set needs dim >= 2, got {dim}")
    return [basis_state(dim, j) for j in range(dim)]


@lru_cache(maxsize=16)
def incoherent_set(dim: int) -> FreeSet:
    # cached like stabilizer_set: scenarios rebuild the same basis on every run
    return FreeSet("incoherent", dim, vectors=tuple(incoherent_extreme_points(dim)))


def finite_hull(points) -> FreeSet:
    """Free set from explicit extreme points (vectors or density matrices)."""
    vectors, matrices, dim = [], [], None
    for i, p in enumerate(points):
        arr, name = np.asarray(p, dtype=complex), f"extreme point {i}"
        if arr.ndim == 1:
            vectors.append(assert_pure(arr, name))
        else:
            matrices.append(assert_density(arr, name))
        dim = arr.shape[0] if dim is None else dim
        if arr.shape[0] != dim:
            raise ValueError(f"{name} has dimension {arr.shape[0]}, expected {dim}")
    if dim is None:
        raise ValueError("finite hull needs at least one extreme point")
    return FreeSet("finite_hull", int(dim), vectors=tuple(vectors), matrices=tuple(matrices))


# ---------------------------------------------------------------------------
# stabilizer enumeration
# ---------------------------------------------------------------------------


_PHASES = np.array([1, 1j, -1, 0 - 1j])  # i^p; 0 - 1j has the real part +0.0 that -1j lacks


def _bits(k: int) -> np.ndarray:
    """All of F_2^k, in counting order, as the rows of a (2^k, k) integer array."""
    return np.array(list(product((0, 1), repeat=k)), dtype=np.int64).reshape(2**k, k)


def _affine_states(n: int) -> np.ndarray:
    """Every n-qubit stabilizer state once, as the rows 2^{-k/2} sum_u i^{l.u}
    (-1)^{m.u + u^T Q u} |t + uG> (module docstring), qubit 0 the leading bit of t + uG.

    Each of G's rows has a leading bit that the other rows and t lack, so t is the
    least index in t + span(G), and its amplitude is real and positive."""
    d, blocks = 2**n, []
    for k in range(n + 1):
        U, (i, j) = _bits(k), np.triu_indices(k, 1)
        quad = _bits(len(i)) @ (U[:, i] * U[:, j]).T  # [Q, u] = u^T Q u
        lin = U @ U.T  # [l, u] = l.u
        phase = lin[None, :, None] + 2 * (lin[None, None] + quad[:, None, None])  # [Q, l, m, u]
        amp = (_PHASES / np.sqrt(2.0**k))[phase.reshape(-1, 2**k) % 4]
        for leads in combinations([1 << b for b in range(n)], k):
            lead = sum(leads)
            for rows in product(*([p | f for f in range(p) if not f & lead] for p in leads)):
                span = np.bitwise_xor.reduce(U * np.array(rows, dtype=np.int64), axis=1)
                for t in [s for s in range(d) if not s & lead]:
                    blocks.append(np.zeros((len(amp), d), dtype=complex))
                    blocks[-1][:, t ^ span] = amp
    return np.concatenate(blocks)


def stabilizer_state_count(n: int) -> int:
    """Closed-form count 2^n * prod_{k=1..n} (2^k + 1)."""
    out = 2**n
    for k in range(1, n + 1):
        out *= 2**k + 1
    return out


def enumerate_stabilizer_states(n: int) -> list[np.ndarray]:
    """All n-qubit pure stabilizer states, each once, phase-normalized, in generator order."""
    if not 1 <= n <= STABILIZER_MAX_QUBITS:
        raise ValueError(f"stabilizer enumeration supports n in 1..{STABILIZER_MAX_QUBITS}")
    states = _affine_states(n)
    if len(states) != (count := stabilizer_state_count(n)):
        raise RuntimeError(f"enumerated {len(states)} states, expected {count}")
    return list(states)


@lru_cache(maxsize=STABILIZER_MAX_QUBITS)
def stabilizer_set(n: int) -> FreeSet:
    # cached: every caller of stabilizer(n) shares one tuple of extreme points
    return FreeSet("stabilizer", 2**n, vectors=tuple(enumerate_stabilizer_states(n)))


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def membership(spec: FreeSet, rho, tol: float = 1e-7) -> bool:
    """True iff the certified upper bound on the robustness of ``rho`` w.r.t.
    the hull is <= tol; ``robustness_dual`` validates rho, and tol by its rule."""
    from .solver import _check_tol, robustness_dual  # deferred: solver builds on this module

    _check_tol(tol)  # before the min below hides an infinite tol or halves a negative one
    return robustness_dual(rho, spec, tol=min(tol, 1e-7) / 2).upper_bound <= tol
