"""JSON conventions shared by the CLI and the scenario runner.

Complex numbers serialize as two-element arrays [re, im]; matrices as
row-major nested arrays; vectors as flat arrays of pairs.  ``beta``
round-trips the infinity sentinel as the string "inf".
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "complex_to_pair",
    "pair_to_complex",
    "matrix_to_json",
    "json_to_matrix",
    "vector_to_json",
    "json_to_vector",
    "beta_to_json",
    "parse_beta",
]


def complex_to_pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def pair_to_complex(obj, where: str = "value") -> complex:
    if isinstance(obj, (int, float)):
        return complex(obj)
    if isinstance(obj, (list, tuple)) and len(obj) == 2 and all(
        isinstance(x, (int, float)) for x in obj
    ):
        return complex(obj[0], obj[1])
    raise ValueError(f"{where}: expected a number or [re, im] pair, got {obj!r}")


def matrix_to_json(A) -> list:
    A = np.asarray(A, dtype=complex)
    return [[complex_to_pair(z) for z in row] for row in A]


def json_to_matrix(obj, where: str = "matrix") -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ValueError(f"{where}: expected a nonempty nested array")
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list):
            raise ValueError(f"{where}[{i}]: expected an array of entries")
        rows.append([pair_to_complex(z, f"{where}[{i}][{j}]") for j, z in enumerate(row)])
    return np.array(rows, dtype=complex)


def vector_to_json(v) -> list:
    v = np.asarray(v, dtype=complex).reshape(-1)
    return [complex_to_pair(z) for z in v]


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
