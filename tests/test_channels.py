import math
import re

import numpy as np
import pytest

from robustwork.channels import (
    QuantumChannel,
    apply_channel,
    apply_via_choi,
    channel_cost_proxy,
    channel_robustness_lower,
    choi_state,
    depolarizing_channel,
    make_channel,
    theorem3_bound,
    theorem3_output_witness,
    theorem4_bound,
    theorem4_report,
    unitary_channel,
)
from robustwork.freesets import finite_hull, incoherent_set, membership, stabilizer_set
from robustwork.linalg import INF_BETA, maximally_mixed, projector, von_neumann_entropy
from robustwork.solver import (_PURE_FREE_SLACK, InfeasibleHullError, robustness_dual,
                               tstate_magic_robustness)
from robustwork.states import (
    HADAMARD,
    T_GATE,
    basis_state,
    golden_state,
    maximally_entangled_state,
    random_density_matrix,
    t_state,
)
from robustwork.thermo import ThermoContext, corollary1_report, witness_summary

from conftest import SEEDS
from oracles import clifford_unitaries_1q, random_kraus_channel

rng = np.random.default_rng(SEEDS["channels"])

# computed once from the 60-constraint SDP and frozen; numerically equal to
# the single-qubit T-state magic, consistent with the Choi state being
# Clifford-equivalent to |T> tensor |0>
TGATE_STAB2_LOWER = 0.1715729


class TestChoi:
    def test_identity_channel(self):
        J = choi_state(unitary_channel(np.eye(2)))
        assert np.abs(J.matrix - projector(maximally_entangled_state(2))).max() < 1e-12

    def test_completely_depolarizing(self):
        J = choi_state(depolarizing_channel(2, 1.0))
        assert np.abs(J.matrix - np.eye(4) / 4).max() < 1e-12

    def test_t_gate_choi_is_pure(self):
        J = choi_state(unitary_channel(T_GATE))
        want = np.zeros(4, dtype=complex)
        want[0] = 1 / np.sqrt(2)
        want[3] = np.exp(1j * np.pi / 4) / np.sqrt(2)
        assert np.abs(J.matrix - projector(want)).max() < 1e-12

    def test_unitary_choi_entropy_zero(self):
        for U in (np.eye(2), HADAMARD, T_GATE):
            J = choi_state(unitary_channel(U))
            assert von_neumann_entropy(J.matrix) < 1e-10

    def test_non_trace_preserving_rejected(self):
        with pytest.raises(ValueError):
            QuantumChannel(kraus=(0.5 * np.eye(2),), dim=2)


class TestChannelAction:
    def test_identity_roundtrip(self):
        rho = random_density_matrix(2, rng)
        J = choi_state(unitary_channel(np.eye(2)))
        assert np.abs(apply_via_choi(J, rho) - rho).max() < 1e-12

    def test_t_gate_on_plus(self):
        out = apply_channel(unitary_channel(T_GATE), projector(golden_state(2)))
        assert np.abs(out - projector(t_state(1))).max() < 1e-12

    def test_depolarizing_sends_to_uniform(self):
        for d in (2, 3):
            rho = random_density_matrix(d, rng)
            out = apply_channel(depolarizing_channel(d, 1.0), rho)
            assert np.abs(out - maximally_mixed(d)).max() < 1e-12

    def test_choi_matches_kraus_on_random_channels(self):
        for d in (2, 4):
            for _ in range(10):
                E = make_channel(random_kraus_channel(d, int(rng.integers(1, 4)), rng))
                J = choi_state(E)
                rho = random_density_matrix(d, rng)
                assert np.abs(apply_via_choi(J, rho) - apply_channel(E, rho)).max() < 1e-10

    def test_dimension_mismatch(self):
        J = choi_state(unitary_channel(np.eye(2)))
        with pytest.raises(ValueError):
            apply_via_choi(J, maximally_mixed(3))

    def test_unitary_channel_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="K\\^dag K = I"):
            unitary_channel(np.diag([1.0, 0.5]))
        with pytest.raises(ValueError, match="shape"):
            unitary_channel(np.ones((2, 3)) / np.sqrt(2))

    def test_make_channel_names_an_empty_kraus_list(self):
        with pytest.raises(ValueError, match="kraus must hold at least one operator"):
            make_channel([])

    @pytest.mark.parametrize("kraus, shape", [([1.0], "()"), ([[1.0, 0.0]], "(2,)"),
                                              ([1.0, np.eye(2)], "()")])
    def test_make_channel_names_a_kraus_entry_that_is_not_a_matrix(self, kraus, shape):
        with pytest.raises(ValueError, match=f"Kraus operator shape {re.escape(shape)} "):
            make_channel(kraus)

    @pytest.mark.parametrize("d", [0, 1.5, True])
    def test_depolarizing_channel_names_a_bad_dimension(self, d):
        with pytest.raises(ValueError, match="d must be an integer >= 1"):
            depolarizing_channel(d, 0.5)

    def test_apply_channel_names_a_mismatched_state(self):
        with pytest.raises(ValueError, match=r"rho has shape \(3, 3\), expected \(2, 2\)"):
            apply_channel(unitary_channel(np.eye(2)), np.eye(3) / 3)

    def test_unitary_channel_rejects_nan(self):
        # the completeness residual is NaN here, and NaN > tol is False
        with pytest.raises(ValueError, match="K\\^dag K = I"):
            unitary_channel([[np.nan, 0], [0, 1]])


class TestChannelRobustness:
    def test_hadamard_is_free(self):
        res = channel_robustness_lower(unitary_channel(HADAMARD), stabilizer_set(2), tol=1e-8)
        assert res.value < 1e-6

    def test_t_gate_regression_value(self):
        res = channel_robustness_lower(unitary_channel(T_GATE), stabilizer_set(2), tol=1e-8)
        assert res.value == pytest.approx(TGATE_STAB2_LOWER, abs=1e-6)

    def test_clifford_conjugation_invariance(self):
        base = channel_robustness_lower(unitary_channel(T_GATE), stabilizer_set(2), tol=1e-8).value
        for C in clifford_unitaries_1q()[:8]:
            E = unitary_channel(C @ T_GATE @ C.conj().T)
            val = channel_robustness_lower(E, stabilizer_set(2), tol=1e-8).value
            assert val == pytest.approx(base, abs=1e-6)

    def test_identity_not_free_for_coherence(self):
        # |Phi> is coherent, so the incoherent relaxation flags the identity:
        # the bipartite free set must match the intended channel theory
        res = channel_robustness_lower(unitary_channel(np.eye(2)), incoherent_set(4), tol=1e-8)
        assert res.value > 0.5

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError):
            channel_robustness_lower(unitary_channel(np.eye(2)), stabilizer_set(1))


class TestCostProxy:
    def test_thermal_choi_costs_nothing(self):
        # the completely depolarizing Choi state is I/d^2, thermal for H = 0
        cost = channel_cost_proxy(depolarizing_channel(2, 1.0), np.zeros((4, 4)), beta=1.3)
        assert cost == pytest.approx(0.0, abs=1e-9)

    def test_t_gate_witness_objective_identity(self):
        res = channel_robustness_lower(unitary_channel(T_GATE), stabilizer_set(2), tol=1e-8)
        lam = 7.0
        cost = channel_cost_proxy(unitary_channel(T_GATE), lam * res.witness, INF_BETA)
        # equals lam * (1 + R_lower) up to lam * (witness ground energy ~ 0)
        assert cost == pytest.approx(lam * (1.0 + res.lower_bound), abs=1e-6)

    def test_identity_channel_flat_hamiltonian(self):
        beta = 2.0
        cost = channel_cost_proxy(unitary_channel(np.eye(2)), np.zeros((4, 4)), beta)
        assert cost == pytest.approx(math.log(4) / beta, abs=1e-9)


class TestTheorem3:
    def test_infeasible_hull_raises(self):
        # the Hadamard output |+> of the free input |0> is not dominated by |0><0|
        with pytest.raises(InfeasibleHullError, match="cannot dominate"):
            theorem3_bound(unitary_channel(HADAMARD), projector(basis_state(2, 0)),
                           finite_hull([basis_state(2, 0)]), ThermoContext(beta=1.0, lam=1.0))

    def test_t_circuit_bound(self):
        E = make_channel([T_GATE @ HADAMARD])
        ctx = ThermoContext(beta=INF_BETA, lam=50.0)
        rep = theorem3_bound(E, projector(basis_state(2, 0)), stabilizer_set(1), ctx)
        assert rep.precondition_met
        assert rep.satisfied
        # zero-entropy output: bound = 1/R
        assert rep.rhs == pytest.approx(1.0 / tstate_magic_robustness(1), abs=1e-4)

    def test_finite_beta(self):
        E = make_channel([T_GATE @ HADAMARD])
        ctx = ThermoContext(beta=1.0, lam=1e4)
        rep = theorem3_bound(E, projector(basis_state(2, 0)), stabilizer_set(1), ctx)
        assert rep.precondition_met and rep.satisfied

    def test_free_channel_flagged(self):
        ctx = ThermoContext(beta=1.0, lam=10.0)
        rep = theorem3_bound(unitary_channel(HADAMARD), projector(basis_state(2, 0)),
                             stabilizer_set(1), ctx)
        assert not rep.precondition_met
        assert "free" in rep.detail["reason"]

    def test_resourceful_input_rejected(self):
        ctx = ThermoContext(beta=1.0, lam=10.0)
        with pytest.raises(ValueError):
            theorem3_bound(unitary_channel(T_GATE), projector(t_state(1)), stabilizer_set(1), ctx)

    def test_mixed_free_input_rejected(self):
        # I/2 is free, but theorem 3 needs a pure input
        with pytest.raises(ValueError, match="must be a pure state of the free set"):
            theorem3_bound(unitary_channel(T_GATE), maximally_mixed(2), incoherent_set(2),
                           ThermoContext(beta=1.0, lam=10.0))

    def test_input_of_another_dimension_rejected(self):
        ctx = ThermoContext(beta=1.0, lam=10.0)
        with pytest.raises(ValueError, match="sigma_in has dimension 4 and the free set 2, "
                                             "but the channel acts on dimension 2"):
            theorem3_bound(unitary_channel(T_GATE), projector(basis_state(4, 0)),
                           stabilizer_set(1), ctx)
        with pytest.raises(ValueError, match="the free set 4, but the channel acts on dimension 2"):
            theorem3_bound(unitary_channel(T_GATE), projector(basis_state(2, 0)),
                           stabilizer_set(2), ctx)


def free_input_accepted(spec, sigma_in) -> bool:
    """Whether theorem 3 takes ``sigma_in`` as a free pure input of the identity channel."""
    try:
        theorem3_output_witness(unitary_channel(np.eye(spec.dim)), sigma_in, spec)
    except ValueError as exc:
        assert "must be a pure state of the free set" in str(exc)
        return False
    return True


def near_basis_state(eps: float) -> np.ndarray:
    return projector(np.array([math.sqrt(1.0 - eps), math.sqrt(eps)], dtype=complex))


class TestFreePureInput:
    """The extremality test of theorem 3's input against the membership solve it replaced."""

    @pytest.mark.parametrize("spec", [incoherent_set(2), incoherent_set(3), incoherent_set(4),
                                      stabilizer_set(1), stabilizer_set(2)],
                             ids=["inc2", "inc3", "inc4", "stab1", "stab2"])
    def test_every_generator_is_free(self, spec):
        for sigma in spec.density_matrices():
            assert free_input_accepted(spec, sigma)
            assert membership(spec, sigma, tol=1e-6)

    @pytest.mark.parametrize("spec, sigma_in, free", [
        (stabilizer_set(1), projector(t_state(1)), False),
        # a pure generator given as a matrix
        (finite_hull([projector(t_state(1)), maximally_mixed(2)]), projector(t_state(1)), True),
        # the mixed generator's support contains sigma_in, which is still not in the hull
        (finite_hull([basis_state(2, 1), maximally_mixed(2)]), projector(basis_state(2, 0)), False),
    ], ids=["tstate", "pure-matrix-generator", "inside-mixed-support"])
    def test_matches_membership(self, spec, sigma_in, free):
        assert free_input_accepted(spec, sigma_in) is free
        assert membership(spec, sigma_in, tol=1e-6) is free

    # accepted iff 1 - |<0|psi>|^2 <= _PURE_FREE_SLACK; the float nearest 1 - 1e-13 lies one
    # ulp below 1 - _PURE_FREE_SLACK, so eps = 1e-13 is rejected
    @pytest.mark.parametrize("eps, free", [
        (1e-9, False), (1e-12, False), (1e-13, False), (1e-14, True), (0.0, True)])
    @pytest.mark.parametrize("spec", [incoherent_set(2), stabilizer_set(1)], ids=["inc2", "stab1"])
    def test_near_free_inputs(self, spec, eps, free):
        assert _PURE_FREE_SLACK == 1e-13
        sigma_in = near_basis_state(eps)
        assert free_input_accepted(spec, sigma_in) is free
        # nothing the membership solve rejects is accepted
        assert membership(spec, sigma_in, tol=1e-6) or not free


class TestTheorem4:
    def test_infeasible_hull_raises(self):
        # the Hadamard Choi state is not dominated by |00><00|
        with pytest.raises(InfeasibleHullError, match="cannot dominate"):
            theorem4_bound(unitary_channel(HADAMARD), finite_hull([basis_state(4, 0)]),
                           ThermoContext(beta=1.0, lam=1.0))

    def test_zero_temperature_value(self):
        ctx = ThermoContext(beta=INF_BETA, lam=5.0)
        rep = theorem4_bound(unitary_channel(T_GATE), stabilizer_set(2), ctx)
        assert rep.precondition_met and rep.satisfied
        assert rep.rhs == pytest.approx(1.0 / (1.0 + TGATE_STAB2_LOWER), abs=1e-5)

    def test_large_lambda_beta(self):
        ctx = ThermoContext(beta=1.0, lam=1e4)
        rep = theorem4_bound(unitary_channel(T_GATE), stabilizer_set(2), ctx)
        assert rep.precondition_met and rep.satisfied
        assert rep.lhs <= rep.rhs + 1e-9

    def test_clifford_degenerate(self):
        ctx = ThermoContext(beta=1.0, lam=1e4)
        rep = theorem4_bound(unitary_channel(HADAMARD), stabilizer_set(2), ctx)
        assert not rep.precondition_met
        assert rep.rhs == 1.0

    @pytest.mark.parametrize("spec", [incoherent_set(4), stabilizer_set(2)], ids=["inc", "stab"])
    def test_is_corollary1_on_the_choi_state(self, spec):
        # theorem 4 is corollary 1's cost ratio evaluated on the Choi state: from
        # one Choi summary, every nondegenerate pair of reports agrees exactly
        gen = np.random.default_rng(SEEDS["channels"] + 1)
        compared = 0
        for n_kraus in (1, 1, 2, 3):
            J = choi_state(make_channel(random_kraus_channel(2, n_kraus, gen)))
            result = robustness_dual(J.matrix, spec)
            summary = witness_summary(result.witness, J.matrix, spec)
            for lam in (0.5, 10.0, 1e4):
                for beta in (0.3, 1.0, 50.0, INF_BETA):
                    ctx = ThermoContext(beta=beta, lam=lam)
                    t4, c1 = theorem4_report(summary, result, ctx), corollary1_report(summary, ctx)
                    if "reason" in t4.detail or "reason" in c1.detail:
                        continue
                    compared += 1
                    assert (t4.lhs, t4.rhs, t4.precondition_met) == (
                        c1.lhs, c1.rhs, c1.precondition_met)
        assert compared >= 24
