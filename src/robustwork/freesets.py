"""Finitely generated free sets: incoherent states, stabilizer states, custom hulls.

A free set is stored extensionally as its list of extreme points, because the
robustness programs need the constraint list explicitly.  Pure extreme points
are kept as state vectors (the solver has a fast path for them); arbitrary
hulls may also carry mixed density matrices.

Stabilizer states are enumerated from GF(2) symplectic generator matrices: a
depth-first search lists each maximal isotropic (Lagrangian) subspace of
F_2^{2n} once, by its least basis.  All (subspace, sign pattern) pairs form one
batch: generator position k gathers its half-projectors (I + s_k G_k)/2 from a
table of all 4^n Pauli rows and multiplies that (N, d, d) stack into the
products, whose small dyadic entries make them exact.  Distinct (subspace,
sign pattern) pairs are distinct states, so the batch lists each state once,
phase-normalized; the counts are checked against 6, 60, 1080.  A free set
proves I/d in its hull once (``contains_maximally_mixed``), and the incoherent
and stabilizer sets are cached, so each of them proves it once per process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from itertools import product

import numpy as np

from .linalg import assert_density, assert_pure, maximally_mixed, projector
from .states import basis_state, pauli_string

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


@dataclass(frozen=True)
class FreeSet:
    """Extensional description of a convex free set.

    ``vectors`` holds pure extreme points as state vectors; ``matrices``
    holds any mixed extreme points (finite hulls only).  At least one entry
    must exist overall.
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

    @property
    def all_pure(self) -> bool:
        return not self.matrices

    @cached_property
    def vector_array(self) -> np.ndarray | None:
        """The pure extreme points as the columns of one read-only (d, m) array,
        stacked on first use; None when there are none."""
        if not self.vectors:
            return None
        V = np.stack(self.vectors, axis=1)
        V.flags.writeable = False
        return V

    @cached_property
    def contains_maximally_mixed(self) -> bool:
        """Whether I/d lies in the hull (theorem 2's precondition), proved by
        ``membership`` on first read and kept for the life of the set."""
        return membership(self, maximally_mixed(self.dim), tol=1e-6)

    def density_matrices(self) -> list[np.ndarray]:
        """All extreme points as density matrices (pure ones first)."""
        return [projector(v) for v in self.vectors] + [np.array(m) for m in self.matrices]

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
    vectors, matrices = [], []
    dim = None
    for p in points:
        arr = np.asarray(p, dtype=complex)
        if arr.ndim == 1:
            vectors.append(assert_pure(arr))
            d = arr.shape[0]
        else:
            matrices.append(assert_density(arr))
            d = arr.shape[0]
        if dim is None:
            dim = d
        elif dim != d:
            raise ValueError("hull points have mixed dimensions")
    if dim is None:
        raise ValueError("finite hull needs at least one extreme point")
    return FreeSet("finite_hull", int(dim), vectors=tuple(vectors), matrices=tuple(matrices))


# ---------------------------------------------------------------------------
# stabilizer enumeration
# ---------------------------------------------------------------------------


def _joint_eigenvectors(halves) -> np.ndarray:
    """Row i: unit vector spanning the range of the i-th product of half-projectors
    (I + s G)/2; ``halves`` yields one (N, d, d) stack per generator, in order."""
    P = reduce(np.matmul, halves)
    if np.any(np.abs(np.trace(P, axis1=1, axis2=2).real - 1.0) > 1e-9):
        raise ValueError("projector is not rank 1")
    cols = np.argmax(np.linalg.norm(P, axis=1), axis=1)
    V = P[np.arange(len(P)), :, cols]
    return _phase_normalize(V / np.linalg.norm(V, axis=1, keepdims=True))


def _split_row(row: int, n: int):
    x = [(row >> i) & 1 for i in range(n)]
    z = [(row >> (n + i)) & 1 for i in range(n)]
    return x, z


def _symplectic_product(a: int, b: int, n: int) -> int:
    ax, az = a & ((1 << n) - 1), a >> n
    bx, bz = b & ((1 << n) - 1), b >> n
    return (bin(ax & bz).count("1") + bin(az & bx).count("1")) % 2


def _phase_normalize(V: np.ndarray) -> np.ndarray:
    first = V[np.arange(len(V)), np.argmax(np.abs(V) > 1e-8, axis=1)]
    W = V * (np.abs(first) / first)[:, None]
    W[np.abs(W) < 1e-12] = 0.0
    return W


def _lagrangian_subspaces(n: int) -> list[tuple[int, ...]]:
    """All maximal isotropic subspaces of F_2^{2n}, each once by its least basis, sorted.

    Depth-first: a tuple grows only by a ``v`` above its last entry that commutes
    with it and is least in its coset ``v + span``, which makes ``v`` independent."""
    out = []

    def extend(rows: tuple[int, ...], span: list[int]) -> None:
        if len(rows) == n:
            out.append(rows)
            return
        for v in range(rows[-1] + 1 if rows else 1, 1 << (2 * n)):
            least_in_coset = min(v ^ s for s in span) == v
            if least_in_coset and not any(_symplectic_product(v, r, n) for r in rows):
                extend(rows + (v,), span + [v ^ s for s in span])

    extend((), [0])
    return out


def stabilizer_state_count(n: int) -> int:
    """Closed-form count 2^n * prod_{k=1..n} (2^k + 1)."""
    out = 2**n
    for k in range(1, n + 1):
        out *= 2**k + 1
    return out


def enumerate_stabilizer_states(n: int) -> list[np.ndarray]:
    """All n-qubit pure stabilizer states, each once, phase-normalized."""
    if not 1 <= n <= STABILIZER_MAX_QUBITS:
        raise ValueError(f"stabilizer enumeration supports n in 1..{STABILIZER_MAX_QUBITS}")
    eye = np.eye(2**n, dtype=complex)
    paulis = np.stack([pauli_string(*_split_row(row, n)) for row in range(4**n)])
    halves = np.stack([(eye + s * paulis) / 2.0 for s in (1, -1)], axis=1)  # [row, c] = (I + (-1)^c G)/2
    # state i has subspace i // 2^n and sign pattern i % 2^n, in product((0, 1), repeat=n) order
    subspaces = np.array(_lagrangian_subspaces(n))
    patterns = np.array(list(product((0, 1), repeat=n)))
    index = np.repeat(subspaces, len(patterns), axis=0)
    choice = np.tile(patterns, (len(subspaces), 1))
    vectors = _joint_eigenvectors(halves[index[:, j], choice[:, j]] for j in range(n))
    if len(vectors) != (count := stabilizer_state_count(n)):
        raise RuntimeError(f"enumerated {len(vectors)} states, expected {count}")
    return list(vectors)


@lru_cache(maxsize=STABILIZER_MAX_QUBITS)
def stabilizer_set(n: int) -> FreeSet:
    # cached: every caller of stabilizer(n) shares one tuple of extreme points
    return FreeSet("stabilizer", 2**n, vectors=tuple(enumerate_stabilizer_states(n)))


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def membership(spec: FreeSet, rho, tol: float = 1e-7) -> bool:
    """True iff the certified upper bound on the robustness of ``rho`` w.r.t.
    the hull is <= tol."""
    from .solver import robustness_dual  # deferred: solver builds on this module

    rho = assert_density(rho)
    result = robustness_dual(rho, spec, tol=min(tol, 1e-7) / 2)
    return result.upper_bound <= tol
