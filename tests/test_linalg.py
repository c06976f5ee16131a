import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustwork.linalg import (
    INF_BETA,
    NumericPolicy,
    _psd_within,
    assert_density,
    assert_hermitian,
    assert_pure,
    gibbs_state,
    hermitian_eig,
    maximally_mixed,
    partial_trace,
    policy,
    projector,
    tensor,
    tensor_power,
    trace_inner,
    transpose,
    von_neumann_entropy,
)
from robustwork.states import (
    PAULI_Z,
    basis_state,
    maximally_entangled_state,
    random_density_matrix,
    random_hermitian,
    random_pure_state,
)
from robustwork.solver import _round_off

from conftest import SEEDS
from oracles import shannon_entropy, two_level_gibbs_probs

rng = np.random.default_rng(SEEDS["linalg"])


def test_policy_is_immutable():
    with pytest.raises(AttributeError):
        policy.psd_tol = 1.0
    assert policy == NumericPolicy()


class TestHermitianEig:
    def test_identity(self):
        w, V = hermitian_eig(np.eye(2))
        assert np.allclose(w, [1.0, 1.0])
        assert np.allclose(V @ V.conj().T, np.eye(2))

    def test_pauli_z(self):
        w, _ = hermitian_eig(PAULI_Z)
        assert np.allclose(w, [-1.0, 1.0])

    def test_random_reconstruction(self):
        for _ in range(10):
            A = random_hermitian(8, rng)
            w, V = hermitian_eig(A)
            assert np.all(np.diff(w) >= 0)
            assert np.abs(A - (V * w) @ V.conj().T).max() < 1e-9
            assert abs(w.sum() - A.trace().real) < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


class TestGibbs:
    def test_zero_hamiltonian(self):
        tau = gibbs_state(np.zeros((4, 4)), beta=2.7)
        assert np.abs(tau - np.eye(4) / 4).max() < 1e-12

    def test_ground_state_limit(self):
        H = np.diag([0.0, 3.0]).astype(complex)
        tau = gibbs_state(H, beta=INF_BETA)
        assert np.abs(tau - projector(basis_state(2, 0))).max() < 1e-12

    def test_rank1_closed_form(self):
        # thermal state of c*lam |y><y| has the explicit two-parameter form
        y = random_pure_state(4, rng)
        for blc in (0.1, 1.0, 7.0):
            H = blc * projector(y)
            tau = gibbs_state(H, beta=1.0)
            a = 1.0 - math.exp(-blc)
            expected = (np.eye(4) - a * projector(y)) / (4.0 - a)
            assert np.abs(tau - expected).max() < 1e-10

    def test_commutes_with_hamiltonian(self):
        H = random_hermitian(6, rng)
        tau = gibbs_state(H, beta=0.8)
        assert np.abs(H @ tau - tau @ H).max() < 1e-9

    def test_minimizes_free_energy(self):
        # F(tau) <= F(rho') for 100 random perturbation states
        beta = 1.3
        H = random_hermitian(4, rng)
        tau = gibbs_state(H, beta)

        def F(rho):
            return trace_inner(H, rho) - von_neumann_entropy(rho) / beta

        f_tau = F(tau)
        for _ in range(100):
            rho = random_density_matrix(4, rng)
            assert f_tau <= F(rho) + 1e-9

    def test_beta_zero_is_uniform(self):
        H = random_hermitian(3, rng)
        assert np.abs(gibbs_state(H, 0.0) - np.eye(3) / 3).max() < 1e-12

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            gibbs_state(np.eye(2), -1.0)

    def test_nan_beta_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            gibbs_state(np.eye(2), math.nan)


class TestEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(projector(random_pure_state(5, rng))) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        for d in (2, 3, 8):
            assert abs(von_neumann_entropy(maximally_mixed(d)) - math.log(d)) < 1e-12

    def test_two_level_gibbs_matches_shannon(self):
        H = np.diag([0.0, 1.0]).astype(complex)
        tau = gibbs_state(H, beta=1.0)
        expected = shannon_entropy(two_level_gibbs_probs(1.0, 1.0))
        assert abs(von_neumann_entropy(tau) - expected) < 1e-12

    def test_random_product_state_entropy_adds(self):
        a = random_density_matrix(2, rng)
        b = random_density_matrix(3, rng)
        s = von_neumann_entropy(tensor(a, b))
        assert abs(s - von_neumann_entropy(a) - von_neumann_entropy(b)) < 1e-9

    def test_one_eigendecomposition_validates_and_measures(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(A):
            calls.append(A.shape)
            return eigvalsh(A)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        rho = random_density_matrix(4, rng)
        assert von_neumann_entropy(rho) > 0.0
        assert calls == [(4, 4)]


class TestTensorAlgebra:
    def test_entangled_marginal(self):
        phi = projector(maximally_entangled_state(2))
        assert np.abs(partial_trace(phi, 1, (2, 2)) - np.eye(2) / 2).max() < 1e-12

    def test_tensor_identity(self):
        assert np.abs(tensor(np.eye(2), np.eye(2)) - np.eye(4)).max() == 0.0

    def test_product_state_factors(self):
        a = random_density_matrix(2, rng)
        b = random_density_matrix(4, rng)
        ab = tensor(a, b)
        assert np.abs(partial_trace(ab, 1, (2, 4)) - a).max() < 1e-12
        assert np.abs(partial_trace(ab, 0, (2, 4)) - b).max() < 1e-12

    @pytest.mark.parametrize("n", [0, 1.5, True, "2"])
    def test_tensor_power_needs_an_integer_count(self, n):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            tensor_power(PAULI_Z, n)

    def test_tensor_power_takes_numpy_integers(self):
        assert np.array_equal(tensor_power(PAULI_Z, np.int64(2)), tensor(PAULI_Z, PAULI_Z))

    def test_trace_inner_pauli(self):
        assert trace_inner(PAULI_Z, PAULI_Z) == pytest.approx(2.0, abs=1e-12)

    def test_trace_inner_shape_mismatch(self):
        with pytest.raises(ValueError):
            trace_inner(np.eye(2), np.eye(3))

    def test_partial_trace_dims_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), 0, (2, 3))

    def test_transpose(self):
        A = random_hermitian(3, rng)
        assert np.abs(transpose(A) - A.T).max() == 0.0


class TestValidation:
    def test_density_constructors_satisfy_invariants(self):
        for d in (2, 3, 5):
            for _ in range(20):
                rho = random_density_matrix(d, rng)
                assert_density(rho)
                assert_pure(random_pure_state(d, rng))
                tau = gibbs_state(random_hermitian(d, rng), beta=rng.uniform(0.1, 5.0))
                assert_density(tau)

    def test_bad_trace_rejected(self):
        with pytest.raises(ValueError):
            assert_density(2.0 * np.eye(2))

    def test_bad_trace_message_prints_a_plain_float(self):
        with pytest.raises(ValueError, match=r"^state has trace 1\.5, expected 1$"):
            assert_density(np.diag([1.0, 0.5]))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            assert_density(np.diag([1.5, -0.5]).astype(complex))

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            assert_hermitian(np.array([[0, 1], [0.5, 0]], dtype=complex))

    def test_unnormalized_vector_rejected(self):
        with pytest.raises(ValueError):
            assert_pure(np.array([1.0, 1.0]))


def _cholesky(fallback: bool):
    """np.linalg.cholesky patched to fail, so the spectrum decides, or wrapped as it is."""
    kernel = {"side_effect": np.linalg.LinAlgError} if fallback else {"wraps": np.linalg.cholesky}
    return mock.patch.object(np.linalg, "cholesky", **kernel)


class TestPsdWithin:
    """``_psd_within(A, tol)`` decides lambda_min(A) >= -tol: a shifted Cholesky factorisation
    proves it, and the spectrum decides where that fails; forcing the fallback keeps the verdict."""

    @settings(max_examples=80, deadline=None)
    @given(d=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           tol=st.sampled_from([1e-9, 1e-6, 1e-3]),
           depth=st.one_of(st.floats(-0.4, 1.0), st.floats(-100.0, -1.6)),
           fallback=st.booleans())
    def test_decides_by_the_least_eigenvalue(self, d, seed, tol, depth, fallback):
        gen = np.random.default_rng(seed)
        U = np.linalg.qr(gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d)))[0]
        w = depth * tol + np.concatenate([[0.0], gen.uniform(0.0, 1.0, d - 1)])  # lambda_min first
        A = (U * w) @ U.conj().T
        A = 0.5 * (A + A.conj().T)
        with _cholesky(fallback), \
                mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as spectrum:
            assert _psd_within(A, tol) is (depth >= -0.4)
        # the factorisation alone proves every PSD verdict; the spectrum decides the others
        assert spectrum.call_count == int(fallback or depth < -0.4)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("fallback", [False, True])
    def test_non_finite_matrix_fails(self, value, fallback):
        with _cholesky(fallback):
            assert _psd_within(np.full((3, 3), value, dtype=complex), 1e-9) is False

    @settings(max_examples=80, deadline=None)
    @given(d=st.integers(1, 16), seed=st.integers(0, 2**32 - 1),
           tol=st.sampled_from([1e-9, 1e-6, 1e-3]),
           depth=st.one_of(st.floats(-0.98, 1.0), st.floats(-2.0, -1.02)))
    def test_real_symmetric_matrix_keeps_its_verdict_as_complex(self, d, seed, tol, depth):
        # a complex A with no imaginary part is factorised as A.real: within +-tol of the PSD
        # boundary the verdict on A and on A.astype(complex) is the same, and it is right
        gen = np.random.default_rng(seed)
        U = np.linalg.qr(gen.normal(size=(d, d)))[0]
        w = depth * tol + np.concatenate([[0.0], gen.uniform(0.0, 1.0, d - 1)])
        A = (U * w) @ U.T
        A = 0.5 * (A + A.T)
        with _cholesky(False) as factor:
            verdicts = [_psd_within(A, tol), _psd_within(A.astype(complex), tol)]
        assert verdicts == [depth >= -1.0] * 2
        assert [call.args[0].dtype for call in factor.call_args_list] == [np.float64] * 2

    @pytest.mark.parametrize("d", [32, 60, 256])
    @pytest.mark.parametrize("seed", range(3))
    def test_slack_recheck_scale(self, d, seed):
        # the solver's slack recheck: tol 8 d eps on I - (1 - depth)|g><g|, golden's slack shape
        # of trace d - 1.  A completed factorisation proves only lambda_min >= -proved, several
        # tol here (docstring), yet it accepts every depth >= -0.4 tol alone and nothing below
        # -1.6 tol, where the spectrum agrees
        tol, eps = _round_off(d), np.finfo(float).eps
        proved = tol / 2 + (d + 1) * eps * (d - 1 + d * tol)  # gamma_{d+1} <= (d + 1) eps, complex
        assert proved > 3 * tol
        gen = np.random.default_rng(seed)
        g = gen.normal(size=d) + 1j * gen.normal(size=d)
        g /= np.linalg.norm(g)
        for depth, verdict in [(0.0, True), (-0.4 * tol, True), (-1.6 * tol, False),
                               (-1.6 * proved, False)]:
            A = np.eye(d) + (depth - 1.0) * np.outer(g, g.conj())
            with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as spectrum:
                assert _psd_within(A, tol) is verdict
            assert spectrum.call_count == int(not verdict)
