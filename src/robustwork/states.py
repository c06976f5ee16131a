"""Named states, gates, and seeded random generators used across the library."""

from __future__ import annotations

import numpy as np

from .linalg import assert_pure, dagger

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "HADAMARD",
    "S_GATE",
    "T_GATE",
    "basis_state",
    "golden_state",
    "t_state",
    "maximally_entangled_state",
    "random_pure_state",
    "random_density_matrix",
    "random_hermitian",
]

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S_GATE = np.array([[1, 0], [0, 1j]], dtype=complex)
T_GATE = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex)


def basis_state(d: int, j: int) -> np.ndarray:
    """Computational basis vector |j> in dimension d."""
    if not 0 <= j < d:
        raise ValueError(f"basis index {j} out of range for dimension {d}")
    e = np.zeros(d, dtype=complex)
    e[j] = 1.0
    return e


def golden_state(d: int) -> np.ndarray:
    """Maximally coherent state with equal real amplitudes 1/sqrt(d)."""
    if d < 2:
        raise ValueError("golden state needs dimension >= 2")
    return np.full(d, 1.0 / np.sqrt(d), dtype=complex)


def t_state(n: int = 1) -> np.ndarray:
    """|T>^{tensor n} with |T> = (|0> + e^{i pi/4}|1>)/sqrt(2)."""
    single = np.array([1.0, np.exp(1j * np.pi / 4)], dtype=complex) / np.sqrt(2)
    if n == 1:
        return single
    out = single
    for _ in range(n - 1):
        out = np.kron(out, single)
    return out


def maximally_entangled_state(d: int) -> np.ndarray:
    """(1/sqrt(d)) sum_j |j>|j> on a d x d bipartite space."""
    phi = np.zeros(d * d, dtype=complex)
    phi[:: d + 1] = 1.0 / np.sqrt(d)
    return phi


def random_pure_state(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return assert_pure(v / np.linalg.norm(v))


def random_density_matrix(d: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Ginibre-ensemble mixed state of the given rank (full rank by default)."""
    r = d if rank is None else rank
    G = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    rho = G @ dagger(G)
    return rho / rho.trace().real


def random_hermitian(d: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * 0.5 * (A + dagger(A))


def pauli_string(bits_x, bits_z) -> np.ndarray:
    """Hermitian Pauli operator from X/Z bit rows (I, X, Z, Y per qubit)."""
    table = {(0, 0): np.eye(2, dtype=complex), (1, 0): PAULI_X, (0, 1): PAULI_Z, (1, 1): PAULI_Y}
    ops = [table[(int(x), int(z))] for x, z in zip(bits_x, bits_z, strict=True)]
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def clifford_unitaries_1q() -> list[np.ndarray]:
    """The 24 single-qubit Clifford unitaries (up to global phase).

    Generated by closing {H, S} under multiplication; phases are normalized
    so the set deduplicates cleanly.
    """

    def normalize(U):
        # fix global phase: first nonzero entry real positive
        flat = U.reshape(-1)
        k = np.argmax(np.abs(flat) > 1e-9)
        return U * (abs(flat[k]) / flat[k])

    seen = {}
    frontier = [normalize(np.eye(2, dtype=complex))]
    while frontier:
        U = frontier.pop()
        key = tuple(np.round(U.reshape(-1), 9).tolist())
        if key in seen:
            continue
        seen[key] = U
        for G in (HADAMARD, S_GATE):
            frontier.append(normalize(G @ U))
    assert len(seen) == 24
    return list(seen.values())
