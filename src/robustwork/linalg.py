"""Dense complex Hermitian linear algebra for small quantum systems.

Everything downstream (free sets, the robustness solver, the thermodynamic
protocol, channel costs) is built on the handful of primitives in this
module: validated Hermitian/density/pure-state constructors, exact
eigendecomposition-based matrix functions (Gibbs states, entropies), and
tensor/partial-trace algebra.  All matrices are plain ``numpy`` complex
arrays; all operations are pure functions of immutable inputs.

Units: entropies are in nats, ``beta`` carries inverse energy, and every
work/energy quantity is in the same unit as the Hamiltonian it came from.
``beta = math.inf`` is a first-class zero-temperature sentinel.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NumericPolicy",
    "policy",
    "INF_BETA",
    "as_complex_matrix",
    "assert_hermitian",
    "assert_density",
    "assert_pure",
    "dagger",
    "projector",
    "maximally_mixed",
    "hermitian_eig",
    "gibbs_state",
    "von_neumann_entropy",
    "tensor",
    "tensor_power",
    "partial_trace",
    "transpose",
    "trace_inner",
]

INF_BETA = math.inf


@dataclass(frozen=True)
class NumericPolicy:
    """Global numeric tolerances, fixed for the whole library."""

    herm_tol: float = 1e-10       # max-entry deviation from A^dagger
    psd_tol: float = 1e-9         # eigenvalues may dip this far below 0
    trace_tol: float = 1e-9       # density-matrix trace deviation from 1
    pure_norm_tol: float = 1e-10  # squared-norm deviation from 1
    imag_tol: float = 1e-10       # imaginary residue allowed in real traces
    ground_tol: float = 1e-9      # eigenvalue window counted as ground space


policy = NumericPolicy()


def as_complex_matrix(A, name: str = "matrix") -> np.ndarray:
    """Coerce to a square, finite, complex ndarray."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    if not (np.all(np.isfinite(A.real)) and np.all(np.isfinite(A.imag))):
        raise ValueError(f"{name} has non-finite entries")
    return A


def assert_hermitian(A, name: str = "operator") -> np.ndarray:
    """Validate Hermiticity (max-entry norm) and return the array."""
    A = as_complex_matrix(A, name)
    dev = np.abs(A - A.conj().T).max()
    if dev > policy.herm_tol:
        raise ValueError(f"{name} is not Hermitian (deviation {dev:.3e})")
    return A


def _psd_within(A: np.ndarray, tol: float) -> bool:
    """Whether lambda_min(A) >= -tol for a Hermitian A; a non-finite A is False.  A Cholesky
    factorisation of A + (tol/2) I that completes proves lambda_min(A) >=
    -tol/2 - gamma_{d+1} Tr[A + (tol/2) I], gamma_k ~ k eps/2 (Higham, Accuracy and Stability of
    Numerical Algorithms, Thm 10.3; Rump, BIT 46, 433, 2006).  That is -tol while the gamma term
    stays below tol/2: at tol 1e-9, for a state up to d ~ 10^6 and a witness of trace d up to
    d ~ 2000.  For a large trace at a tolerance near rounding it is looser: the solver's slack
    recheck (tol 8 d eps, trace R) proves only about -(4d + (d+1) R/2) eps, O(d^2 eps) for a
    golden state (about 4x tol at d = 60, 17x at 256), the order of eigvalsh's own backward error
    on that slack.  Only where the factorisation fails does lambda_min decide.  A complex A whose
    imaginary part is exactly zero is the real symmetric A.real, factorised in real arithmetic."""
    if not np.isfinite(A).all():  # numpy factors a NaN matrix into NaNs without raising
        return False
    A = A.real if np.iscomplexobj(A) and not A.imag.any() else A
    shifted = A.copy()
    shifted.flat[::len(A) + 1] += 0.5 * tol
    try:
        np.linalg.cholesky(shifted)  # finite: a non-finite entry fails a later pivot
        return True
    except np.linalg.LinAlgError:
        return bool(np.linalg.eigvalsh(A)[0] >= -tol)


def assert_density(rho, name: str = "state") -> np.ndarray:
    """Validate a density matrix: Hermitian, unit trace, PSD.  PSD is proved by one
    shifted Cholesky factorisation (``_psd_within``), so a valid state costs no
    eigendecomposition; the spectrum names lambda_min only on a failure."""
    rho = assert_hermitian(rho, name)
    tr = rho.trace().real
    if abs(tr - 1.0) > policy.trace_tol:
        raise ValueError(f"{name} has trace {float(tr)!r}, expected 1")
    if not _psd_within(rho, policy.psd_tol):
        raise ValueError(f"{name} has negative eigenvalue {np.linalg.eigvalsh(rho)[0]:.3e}")
    return rho


def assert_pure(psi, name: str = "state vector") -> np.ndarray:
    """Validate a normalized state vector."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if not (np.all(np.isfinite(psi.real)) and np.all(np.isfinite(psi.imag))):
        raise ValueError(f"{name} has non-finite entries")
    n2 = float(np.vdot(psi, psi).real)
    if abs(n2 - 1.0) > policy.pure_norm_tol:
        raise ValueError(f"{name} has squared norm {n2!r}, expected 1")
    return psi


def dagger(A: np.ndarray) -> np.ndarray:
    return A.conj().T


def projector(psi) -> np.ndarray:
    """Rank-1 projector |psi><psi|."""
    psi = assert_pure(psi)
    return np.outer(psi, psi.conj())


def maximally_mixed(d: int) -> np.ndarray:
    return np.eye(d, dtype=complex) / d


def hermitian_eig(A):
    """Eigendecomposition of a Hermitian operator.

    Returns ``(w, V)`` with real eigenvalues ``w`` sorted ascending and
    unitary ``V`` such that ``A = V @ diag(w) @ V^dagger``.
    """
    A = assert_hermitian(A)
    w, V = np.linalg.eigh(A)
    return w, V


def gibbs_state(H, beta: float) -> np.ndarray:
    """Thermal state exp(-beta H) / Tr exp(-beta H).

    ``beta = inf`` returns the normalized projector onto the ground
    eigenspace (eigenvalues within ``policy.ground_tol`` of the minimum).
    Computed through the eigendecomposition, so it commutes with ``H``
    exactly up to float error and never under/overflows (energies are
    shifted by the ground energy first).
    """
    H = assert_hermitian(H, "Hamiltonian")
    if not beta >= 0:  # also rejects NaN
        raise ValueError(f"beta must be >= 0 or inf, got {beta}")
    w, V = np.linalg.eigh(H)
    out = (V * _thermal_weights(w, beta)) @ V.conj().T
    return 0.5 * (out + out.conj().T)


def _thermal_weights(w: np.ndarray, beta: float) -> np.ndarray:
    """Gibbs populations of the ascending spectrum ``w``: uniform on the ground
    window ``policy.ground_tol`` at beta = inf, else exp(-beta (w - w[0])), normalized."""
    if beta == INF_BETA:  # inf * 0 is NaN, and the ground window is a tolerance, not a limit
        p = (w <= w[0] + policy.ground_tol).astype(float)
    else:
        p = np.exp(-beta * (w - w[0]))
    return p / p.sum()


def _entropy(p: np.ndarray) -> float:
    """-sum p ln p in nats over probabilities ``p`` in [0, 1], with 0 ln 0 = 0."""
    p = p[p > 0.0]
    return float(max(0.0, -np.dot(p, np.log(p))))


def von_neumann_entropy(rho) -> float:
    """Entropy -Tr[rho ln rho] in nats, with 0 ln 0 = 0.

    Eigenvalues are clamped to [0, 1] before the log, so states that pass
    the PSD tolerance never produce NaNs.
    """
    return _entropy(np.clip(np.linalg.eigvalsh(assert_density(rho)), 0.0, 1.0))


def tensor(*ops) -> np.ndarray:
    """Kronecker product of one or more matrices, left to right."""
    if not ops:
        raise ValueError("tensor() needs at least one operand")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def _check_count(n, name: str, least: int) -> None:
    """ValueError unless ``n`` is an integer >= ``least``; numpy integers pass, bool does not."""
    if isinstance(n, bool) or not (isinstance(n, numbers.Integral) and n >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {n!r}")


def tensor_power(A, n: int) -> np.ndarray:
    _check_count(n, "n", 1)
    return tensor(*([A] * n))


def partial_trace(rho, which_subsystem: int, dims) -> np.ndarray:
    """Trace out one subsystem of a multipartite operator.

    ``dims`` lists the subsystem dimensions (product must match the matrix
    size); ``which_subsystem`` is the 0-based index of the factor that is
    traced out.  Returns the operator on the remaining factors, in order.
    """
    rho = as_complex_matrix(rho)
    dims = [int(x) for x in dims]
    if int(np.prod(dims)) != rho.shape[0]:
        raise ValueError(f"dims {dims} do not match matrix size {rho.shape[0]}")
    k = len(dims)
    if not 0 <= which_subsystem < k:
        raise ValueError(f"subsystem index {which_subsystem} out of range")
    t = rho.reshape(dims + dims)
    t = np.trace(t, axis1=which_subsystem, axis2=k + which_subsystem)
    d_keep = int(np.prod([d for i, d in enumerate(dims) if i != which_subsystem]))
    return t.reshape(d_keep, d_keep)


def transpose(A) -> np.ndarray:
    return as_complex_matrix(A).T.copy()


def trace_inner(A, B) -> float:
    """Tr[A B] for Hermitian A, B; asserts the imaginary residue is noise."""
    A = as_complex_matrix(A, "first factor")
    B = as_complex_matrix(B, "second factor")
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch {A.shape} vs {B.shape}")
    val = complex(np.sum(A.T * B))  # Tr[AB] = sum_ij A_ij B_ji
    scale = max(1.0, abs(val))
    if abs(val.imag) > policy.imag_tol * scale:
        raise ValueError(f"trace inner product has imaginary part {val.imag:.3e}")
    return float(val.real)
