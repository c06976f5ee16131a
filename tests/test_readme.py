"""README states the library's tolerances, defaults and caps; each number is read from the code."""

import math
from pathlib import Path

import pytest

from robustwork.solver import _PURE_FREE_SLACK
from robustwork.freesets import STABILIZER_MAX_QUBITS, stabilizer_state_count
from robustwork.linalg import NumericPolicy
from robustwork.scenarios import _FAMILY_DIM_CAP, _SDP_DIM_CAP
from robustwork.solver import DEFAULT_MAX_NEWTON, DEFAULT_TOL

# phrases may wrap anywhere, so whitespace runs compare as one space
README = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8").split())


def sci(x: float) -> str:
    """The README spelling of a power of ten: 1e-9, where Python writes 1e-09."""
    mantissa, exponent = f"{x:.0e}".split("e")
    return f"{mantissa}e{int(exponent)}"


POLICY = NumericPolicy()
COUNTS = " / ".join(str(stabilizer_state_count(n)) for n in range(1, STABILIZER_MAX_QUBITS + 1))


@pytest.mark.parametrize("phrase", [
    pytest.param(f"(Hermiticity {sci(POLICY.herm_tol)}, PSD -{sci(POLICY.psd_tol)}, "
                 f"trace {sci(POLICY.trace_tol)})", id="policy"),
    pytest.param(f"(default `tol = {sci(DEFAULT_TOL)}`)", id="default-tol"),
    pytest.param(f"`max_k Tr[sigma_in sigma_k] >= 1 - {sci(_PURE_FREE_SLACK)}`",
                 id="theorem3-free-input"),
    pytest.param(f"overlap a pure extreme point (a vector or a pure matrix) to "
                 f"`1 - {sci(_PURE_FREE_SLACK)}`", id="free-mixture"),
    pytest.param(f"`tol` must be positive (default `{sci(DEFAULT_TOL)}`)", id="cli-tol"),
    pytest.param(f"`max_newton` interior-point iterations (default {DEFAULT_MAX_NEWTON})",
                 id="max-newton"),
    pytest.param(f"capped at {STABILIZER_MAX_QUBITS} qubits ({COUNTS} states)",
                 id="stabilizer-qubits"),
    pytest.param(f"has dimension at most {_SDP_DIM_CAP}.", id="single-state"),
    pytest.param(f"have dimension at most {_FAMILY_DIM_CAP}, and channels `d <= {_SDP_DIM_CAP}`",
                 id="family-and-channel"),
    pytest.param(f"Choi dimension `d^2` is above {_SDP_DIM_CAP} skips `theorem4`",
                 id="choi"),
    pytest.param(f"take `d^4` memory: it has `d <= {math.isqrt(_SDP_DIM_CAP)}`",
                 id="depolarizing"),
    pytest.param(f"`stabilizer(2n)` above the {STABILIZER_MAX_QUBITS}-qubit enumeration cap",
                 id="theorem4-lift"),
    pytest.param(f"a channel on {STABILIZER_MAX_QUBITS + 1} to {_SDP_DIM_CAP.bit_length() - 1} "
                 f"qubits skips it with the reason `stabilizer(n) is above the "
                 f"{STABILIZER_MAX_QUBITS}-qubit enumeration cap`", id="theorem3-cap"),
    pytest.param(f"SDPs are capped at dimension {_SDP_DIM_CAP}; named families and free sets "
                 f"at {_FAMILY_DIM_CAP}.", id="scope"),
    pytest.param(f"`dimension d above the SDP cap of {_SDP_DIM_CAP}`", id="theorem2-skip"),
    pytest.param("A hull that mixes vectors and matrices is solved and rechecked on projectors.",
                 id="mixed-hull"),
    pytest.param(f"unit squared norm or trace within {sci(POLICY.trace_tol)}", id="point-check"),
    pytest.param("only a failed factorisation computes its spectrum, so validation costs no "
                 "eigendecomposition.", id="validation"),
])
def test_readme_states_the_code_value(phrase):
    assert phrase in README
