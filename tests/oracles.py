"""Independent oracles used to cross-check library outputs.

Everything here is deliberately written from scratch against the library's
implementation choices: the stabilizer enumeration below walks the Clifford
orbit of |0..0> (the library writes states in their affine form instead), the
Pauli strings are Kronecker products of 2 x 2 matrices, and the helpers
recompute scalar quantities from first principles.
"""

from __future__ import annotations

import numpy as np

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)
_PAULI = {(0, 0): np.eye(2, dtype=complex), (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
          (0, 1): np.diag([1.0, -1.0]).astype(complex), (1, 1): np.array([[0, -1j], [1j, 0]])}


def phase_key(v: np.ndarray, digits: int = 8) -> tuple:
    """Hashable key identifying a state vector up to global phase."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    k = int(np.argmax(np.abs(v) > 1e-8))
    w = v * (abs(v[k]) / v[k])
    return tuple(np.round(np.concatenate([w.real, w.imag]), digits).tolist())


def _single_qubit_op(U: np.ndarray, qubit: int, n: int) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for k in range(n):
        out = np.kron(out, U if k == qubit else np.eye(2, dtype=complex))
    return out


def _cnot_op(control: int, target: int, n: int) -> np.ndarray:
    d = 2**n
    M = np.zeros((d, d), dtype=complex)
    for b in range(d):
        cbit = (b >> (n - 1 - control)) & 1
        out = b ^ (cbit << (n - 1 - target))
        M[out, b] = 1.0
    return M


def clifford_orbit_states(n: int) -> list[np.ndarray]:
    """All n-qubit stabilizer states as the Clifford orbit of |0..0>."""
    gates = []
    for q in range(n):
        gates.append(_single_qubit_op(_H, q, n))
        gates.append(_single_qubit_op(_S, q, n))
    for c in range(n):
        for t in range(n):
            if c != t:
                gates.append(_cnot_op(c, t, n))
    start = np.zeros(2**n, dtype=complex)
    start[0] = 1.0
    seen = {phase_key(start): start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for G in gates:
            w = G @ v
            key = phase_key(w)
            if key not in seen:
                seen[key] = w
                frontier.append(w)
    return list(seen.values())


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
        for G in (_H, _S):
            frontier.append(normalize(G @ U))
    assert len(seen) == 24
    return list(seen.values())


def pauli_string(bits_x, bits_z) -> np.ndarray:
    """Hermitian Pauli operator from X/Z bit rows (I, X, Z, Y per qubit)."""
    out = np.eye(1, dtype=complex)
    for x, z in zip(bits_x, bits_z, strict=True):
        out = np.kron(out, _PAULI[(int(x), int(z))])
    return out


def pauli_table(n: int) -> np.ndarray:
    """All 4^n Pauli strings, stacked by bit row: x bits low, z bits shifted left by n,
    qubit j at bit j."""
    return np.stack([pauli_string([(row >> j) & 1 for j in range(n)],
                                  [(row >> (n + j)) & 1 for j in range(n)])
                     for row in range(4**n)])


def stabilizer_count_formula(n: int) -> int:
    """2^n * prod_{k=1}^{n} (2^k + 1), computed by an explicit loop."""
    total = 2**n
    for k in range(1, n + 1):
        total *= 2**k + 1
    return total


def shannon_entropy(probs) -> float:
    """Plain scalar Shannon entropy in nats."""
    total = 0.0
    for p in probs:
        if p > 0:
            total -= p * np.log(p)
    return float(total)


def two_level_gibbs_probs(gap: float, beta: float) -> tuple[float, float]:
    """Occupations of a two-level system with energies (0, gap)."""
    z = 1.0 + np.exp(-beta * gap)
    return 1.0 / z, np.exp(-beta * gap) / z


def random_kraus_channel(d: int, n_kraus: int, rng: np.random.Generator):
    """Trace-preserving Kraus list by normalizing random Ginibre blocks."""
    blocks = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(n_kraus)]
    M = sum(B.conj().T @ B for B in blocks)
    w, V = np.linalg.eigh(M)
    inv_sqrt = (V / np.sqrt(w)) @ V.conj().T
    return [B @ inv_sqrt for B in blocks]


def old_report_to_json_text(report) -> str:
    """The two-pass emitter the library used before its one-pass one: a
    sanitizing copy (NaN -> null, +-inf -> "inf"/"-inf"), then the
    pure-Python ``json.dumps`` with sorted keys and an indent of 2."""
    import json
    import math

    def sanitize(obj):
        if isinstance(obj, float) and not math.isfinite(obj):
            return None if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
        if isinstance(obj, dict):
            return {k: sanitize(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [sanitize(v) for v in obj]
        return obj

    def default(x):
        if isinstance(x, (np.floating, np.integer)):
            return x.item()
        raise TypeError(f"not JSON serializable: {type(x)}")

    return json.dumps(sanitize(report), sort_keys=True, indent=2, default=default,
                      allow_nan=False)
