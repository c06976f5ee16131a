"""Finitely generated free sets: incoherent states, stabilizer states, custom hulls.

A free set is stored extensionally as its list of extreme points, because the
robustness programs need the constraint list explicitly.  Pure extreme points
are kept as state vectors (the solver has a fast path for them); arbitrary
hulls may also carry mixed density matrices.

Stabilizer states are enumerated from GF(2) symplectic generator matrices: a
depth-first search lists each maximal isotropic (Lagrangian) subspace of
F_2^{2n} once, by its least basis; each of its 2^n sign patterns multiplies
the half-projectors (I + s_k G_k)/2, built once per call, in generator order;
and the rank-1 states are deduplicated by hashing the phase-normalized
amplitude vector at 1e-8 granularity.  Expected counts are 6, 60, 1080.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations, product

import numpy as np

from .linalg import assert_density, assert_pure, projector
from .states import basis_state, pauli_string

__all__ = [
    "FreeSet",
    "StabilizerGroup",
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


@dataclass(frozen=True)
class StabilizerGroup:
    """n commuting independent Pauli generators with signs.

    Rows are symplectic bit vectors (x|z) of length 2n encoded as python
    ints; signs are +-1.
    """

    n: int
    rows: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) != self.n or len(self.signs) != self.n:
            raise ValueError("need exactly n generators and n signs")
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be +-1")
        span = {0}
        for r in self.rows:
            span |= {s ^ r for s in span}
        if len(span) != 2**self.n:
            raise ValueError("generators are dependent over GF(2)")
        for a, b in combinations(self.rows, 2):
            if _symplectic_product(a, b, self.n):
                raise ValueError("generators do not commute")

    def state_vector(self) -> np.ndarray:
        """Joint +1 eigenstate of the signed generators."""
        eye = np.eye(2**self.n, dtype=complex)
        return _joint_eigenvector([(eye + s * pauli_string(*_split_row(row, self.n))) / 2.0
                                   for row, s in zip(self.rows, self.signs)])


def _joint_eigenvector(halves) -> np.ndarray:
    """Unit vector spanning the range of the product of the half-projectors (I + s G)/2."""
    P = np.eye(halves[0].shape[0], dtype=complex)
    for H in halves:
        P = P @ H
    if abs(P.trace().real - 1.0) > 1e-9:
        raise ValueError("projector is not rank 1")
    col = int(np.argmax(np.linalg.norm(P, axis=0)))
    v = P[:, col]
    return _phase_normalize(v / np.linalg.norm(v))


def _split_row(row: int, n: int):
    x = [(row >> i) & 1 for i in range(n)]
    z = [(row >> (n + i)) & 1 for i in range(n)]
    return x, z


def _symplectic_product(a: int, b: int, n: int) -> int:
    ax, az = a & ((1 << n) - 1), a >> n
    bx, bz = b & ((1 << n) - 1), b >> n
    return (bin(ax & bz).count("1") + bin(az & bx).count("1")) % 2


def _phase_normalize(v: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(v) > 1e-8))
    w = v * (abs(v[k]) / v[k])
    w[np.abs(w) < 1e-12] = 0.0
    return w


def _vector_key(v: np.ndarray) -> tuple:
    """Dedup key of a vector that ``_joint_eigenvector`` has already phase-normalized."""
    return tuple(np.round(v.view(float), 8).tolist())


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
    """All n-qubit pure stabilizer states, deduplicated up to global phase."""
    if not 1 <= n <= STABILIZER_MAX_QUBITS:
        raise ValueError(f"stabilizer enumeration supports n in 1..{STABILIZER_MAX_QUBITS}")
    eye = np.eye(2**n, dtype=complex)
    halves: dict[int, list[np.ndarray]] = {}  # row -> [(I + G)/2, (I - G)/2]
    states = {}
    for rows in _lagrangian_subspaces(n):
        for row in set(rows) - halves.keys():
            G = pauli_string(*_split_row(row, n))
            halves[row] = [(eye + s * G) / 2.0 for s in (1, -1)]
        for choice in product((0, 1), repeat=n):
            v = _joint_eigenvector([halves[row][c] for row, c in zip(rows, choice)])
            states.setdefault(_vector_key(v), v)
    out = list(states.values())
    if len(out) != stabilizer_state_count(n):
        raise RuntimeError(f"enumerated {len(out)} states, expected {stabilizer_state_count(n)}")
    return out


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
