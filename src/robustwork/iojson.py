"""JSON conventions shared by the CLI and the scenario runner.

Complex numbers serialize as two-element arrays [re, im]; matrices as
row-major nested arrays; vectors as flat arrays of pairs.  ``beta``
round-trips the infinity sentinel as the string "inf".
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "pair_to_complex",
    "matrix_to_json",
    "json_to_matrix",
    "vector_to_json",
    "json_to_vector",
    "beta_to_json",
    "parse_beta",
]


def _is_number(x) -> bool:
    """A finite number: JSON booleans and the Infinity/NaN tokens are not numbers."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def pair_to_complex(obj, where: str = "value") -> complex:
    if _is_number(obj):
        return complex(obj)
    if isinstance(obj, (list, tuple)) and len(obj) == 2 and all(_is_number(x) for x in obj):
        return complex(obj[0], obj[1])
    raise ValueError(f"{where}: expected a number or [re, im] pair, got {obj!r}")


def matrix_to_json(A) -> list:
    A = np.asarray(A)
    return np.ascontiguousarray(A, dtype=complex).view(float).reshape(*A.shape, 2).tolist()


def json_to_matrix(obj, where: str = "matrix") -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ValueError(f"{where}: expected a nonempty nested array")
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list):
            raise ValueError(f"{where}[{i}]: expected an array of entries")
        if i and len(row) != len(obj[0]):
            raise ValueError(f"{where}[{i}]: expected an array of {len(obj[0])} entries")
        rows.append([pair_to_complex(z, f"{where}[{i}][{j}]") for j, z in enumerate(row)])
    return np.array(rows, dtype=complex)


def vector_to_json(v) -> list:
    return matrix_to_json(np.ravel(v))


def json_to_vector(obj, where: str = "vector") -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ValueError(f"{where}: expected a nonempty array")
    return np.array([pair_to_complex(z, f"{where}[{j}]") for j, z in enumerate(obj)], dtype=complex)


def beta_to_json(beta: float):
    return "inf" if beta == math.inf else float(beta)


def parse_beta(obj, where: str = "beta") -> float:
    if obj == "inf":
        return math.inf
    if isinstance(obj, (int, float)) and not isinstance(obj, bool) and obj > 0:
        return float(obj)
    raise ValueError(f'{where}: expected a positive number or "inf", got {obj!r}')
