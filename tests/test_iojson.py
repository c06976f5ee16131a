import numpy as np
import pytest

from robustwork.iojson import json_to_matrix, json_to_vector, matrix_to_json, vector_to_json

# -0.0 in both parts, so the sign of zero is part of every comparison below
Z = np.array([[complex(1.5, -0.0), complex(-0.0, 2.0)],
              [complex(-0.0, -0.0), complex(3.0, -0.0)],
              [0.1 + 0.2j, complex(-1e-300, 7.0)]])


def pairs(a) -> list:
    """The reference conversion: one [re, im] pair of Python floats per entry."""
    a = np.asarray(a)
    if a.ndim == 1:
        return [[complex(z).real, complex(z).imag] for z in a]
    return [pairs(row) for row in a]


@pytest.mark.parametrize("A", [
    pytest.param(Z, id="complex"),
    pytest.param(Z.T, id="transposed-view"),
    pytest.param(np.asfortranarray(Z), id="fortran-order"),
    pytest.param(np.array([[-0.0, 1.25], [2.0, -3.5]]), id="real"),
])
def test_matrix_to_json_is_exact(A):
    out = matrix_to_json(A)
    assert repr(out) == repr(pairs(A))
    assert json_to_matrix(out).tobytes() == np.asarray(A, dtype=complex).tobytes()


@pytest.mark.parametrize("v", [
    pytest.param(Z[:, 1], id="complex-strided"),
    pytest.param(np.array([-0.0, 0.5, -2.0]), id="real"),
])
def test_vector_to_json_is_exact(v):
    out = vector_to_json(v)
    assert repr(out) == repr(pairs(v))
    assert json_to_vector(out).tobytes() == np.asarray(v, dtype=complex).tobytes()
