import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robustwork.linalg as linalg_module
import robustwork.solver as solver_module
from robustwork import thermo
from robustwork.freesets import FreeSet, finite_hull, incoherent_set, membership, stabilizer_set
from robustwork.channels import choi_state, depolarizing_channel, unitary_channel
from robustwork.linalg import maximally_mixed, projector, trace_inner
from robustwork.solver import (
    CONVERGED,
    DEFAULT_MAX_NEWTON,
    DEFAULT_TOL,
    INFEASIBLE,
    MAX_ITERATIONS,
    InfeasibleHullError,
    _Iterate,
    _Program,
    _constraint_values,
    _max_step,
    _schur_direction,
    _witness_direction,
    primal_slack,
    pure_coherence_witness,
    rank1_witness_from_pure,
    robustness_dual,
    robustness_primal,
    robustness_pure_coherence,
    single_qubit_magic_witness,
    tstate_magic_robustness,
    tstate_magic_witness,
    witness_constraints,
    witness_is_feasible,
)
from robustwork.states import (
    HADAMARD,
    T_GATE,
    basis_state,
    golden_state,
    random_density_matrix,
    random_hermitian,
    random_pure_state,
    t_state,
)

from conftest import SEEDS
from oracles import _H, _S, _cnot_op, _single_qubit_op

rng = np.random.default_rng(SEEDS["solver"])


def assert_certified(result, rho, spec):
    """Independent re-check of both certificates in a RobustnessResult."""
    assert result.lower_bound - 1e-12 <= result.value <= result.upper_bound + 1e-12
    assert result.gap >= -1e-12
    # witness side
    assert witness_is_feasible(result.witness, spec)
    assert trace_inner(result.witness, rho) - 1.0 == pytest.approx(result.lower_bound, abs=1e-9)
    # primal side
    q = result.primal_weights
    assert np.all(q >= 0.0)
    assert q.sum() - 1.0 == pytest.approx(result.upper_bound, abs=1e-9)
    slack = primal_slack(q, rho, spec)
    assert np.linalg.eigvalsh(slack)[0] >= -1e-9


class TestNamedValues:
    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_golden_states(self, d):
        spec = incoherent_set(d)
        rho = projector(golden_state(d))
        res = robustness_dual(rho, spec, tol=1e-8)
        assert res.status == CONVERGED
        assert res.value == pytest.approx(d - 1, abs=1e-6)
        assert_certified(res, rho, spec)

    def test_t_state_magic(self):
        res = robustness_dual(projector(t_state(1)), stabilizer_set(1), tol=1e-8)
        assert res.value == pytest.approx(4 - 2 * math.sqrt(2) - 1, abs=1e-6)

    def test_t_state_magic_two_copies(self):
        res = robustness_dual(projector(t_state(2)), stabilizer_set(2), tol=1e-8)
        assert res.value == pytest.approx(23 - 16 * math.sqrt(2), abs=1e-6)

    def test_free_state_zero(self):
        res = robustness_dual(projector(basis_state(2, 0)), stabilizer_set(1), tol=1e-8)
        assert res.value <= 1e-7
        assert res.status == CONVERGED

    def test_real_state_against_complex_hull(self):
        # |+> is real but one extreme point is not, so the program must stay
        # complex.  The hull is the Bloch triangle |0>, |1>, e = (cos t, sin t, 0)
        # with t = pi/8; 1 + R = min over the hull of <+|sigma^{-1}|+>, reached
        # on the segment from I/2 to e at 1 + sin t, so R = sin(pi/8)
        tilted = (basis_state(2, 0) + np.exp(1j * np.pi / 8) * basis_state(2, 1)) / math.sqrt(2)
        spec = finite_hull([basis_state(2, 0), basis_state(2, 1), tilted])
        rho = projector(golden_state(2))
        res = robustness_dual(rho, spec)
        assert res.status == CONVERGED
        assert res.lower_bound <= math.sin(math.pi / 8) <= res.upper_bound
        assert_certified(res, rho, spec)


class TestArguments:
    # with tol = nan, `gap > tol` is False at once: "converged" after 0
    # iterations with a gap of 8; a negative tol runs out the whole budget
    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-7, True])
    def test_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="tol"):
            robustness_dual(projector(golden_state(4)), incoherent_set(4), tol=tol)

    @pytest.mark.parametrize("max_newton", [-1, 2.0, True])
    def test_max_newton_must_be_a_nonnegative_integer(self, max_newton):
        with pytest.raises(ValueError, match="max_newton"):
            robustness_dual(projector(golden_state(4)), incoherent_set(4), max_newton=max_newton)

    # membership passes min(tol, 1e-7) / 2 on, so its own tol is checked first: tol = inf
    # must not read a resourceful state as free, and -1.0 must not be reported as -0.5
    @pytest.mark.parametrize("tol", [math.inf, -1.0, 0.0, math.nan, True])
    def test_membership_inherits_the_tol_check(self, tol):
        with pytest.raises(ValueError) as err:
            membership(incoherent_set(2), projector(golden_state(2)), tol=tol)
        assert str(err.value) == f"tol must be a finite number > 0, got {tol!r}"


class TestPrimal:
    def test_extreme_point_gives_indicator(self):
        spec = incoherent_set(3)
        upper, q = robustness_primal(projector(basis_state(3, 1)), spec, tol=1e-8)
        assert upper <= 1e-7
        assert q[1] > 0.99
        assert q[0] < 1e-3 and q[2] < 1e-3

    def test_plus_state(self):
        upper, q = robustness_primal(projector(golden_state(2)), incoherent_set(2), tol=1e-8)
        assert upper == pytest.approx(1.0, abs=1e-6)
        assert np.allclose(q, [1.0, 1.0], atol=1e-4)

    def test_gamma_reconstruction_is_state(self):
        # gamma = (sum q_k sigma_k - rho) / s must be a valid density matrix
        spec = incoherent_set(2)
        rho = projector(golden_state(2))
        upper, q = robustness_primal(rho, spec, tol=1e-8)
        gamma = primal_slack(q, rho, spec) / upper
        assert abs(gamma.trace().real - 1.0) < 1e-6
        assert np.linalg.eigvalsh(gamma)[0] >= -1e-8

    def test_duality_gap_on_random_mixed(self):
        spec = incoherent_set(2)
        for _ in range(10):
            rho = random_density_matrix(2, rng)
            res = robustness_dual(rho, spec, tol=1e-8)
            upper, _ = robustness_primal(rho, spec, tol=1e-8)
            assert abs(res.value - upper) <= 2e-8 + res.gap

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleHullError):
            robustness_primal(projector(basis_state(2, 1)), finite_hull([basis_state(2, 0)]))


class TestClosedForms:
    def test_basis_state_coherence(self):
        assert robustness_pure_coherence(basis_state(4, 2)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_golden_coherence(self, d):
        assert robustness_pure_coherence(golden_state(d)) == pytest.approx(d - 1, abs=1e-12)

    def test_t_state_coherence(self):
        assert robustness_pure_coherence(t_state(1)) == pytest.approx(1.0, abs=1e-12)
        for n in (2, 3, 6):
            assert robustness_pure_coherence(t_state(n)) == pytest.approx(2**n - 1, abs=1e-9)

    def test_tstate_magic_values(self):
        assert tstate_magic_robustness(1) == pytest.approx(0.17157287525381, abs=1e-12)
        assert tstate_magic_robustness(2) == pytest.approx(0.37258300203048, abs=1e-12)

    def test_tstate_magic_power_oracle(self):
        # repeated multiplication as the independent scalar oracle
        base = 4.0 - 2.0 * math.sqrt(2.0)
        acc = 1.0
        for n in range(1, 11):
            acc *= base
            assert tstate_magic_robustness(n) == pytest.approx(acc - 1.0, rel=1e-13)

    def test_agreement_with_sdp_on_random_pure_states(self):
        worst = 0.0
        for _ in range(50):
            d = int(rng.integers(2, 9))
            psi = random_pure_state(d, rng)
            res = robustness_dual(projector(psi), incoherent_set(d), tol=1e-8)
            worst = max(worst, abs(res.value - robustness_pure_coherence(psi)))
        assert worst < 1e-5


class TestWitnesses:
    def test_single_qubit_magic_witness_values(self):
        Y1 = single_qubit_magic_witness()
        assert trace_inner(Y1, projector(t_state(1))) == pytest.approx(4 - 2 * math.sqrt(2), abs=1e-12)
        cons = witness_constraints(Y1, stabilizer_set(1))
        assert cons.max() == pytest.approx(1.0, abs=1e-12)

    def test_tensor_power_witness(self):
        for n in (2, 3):
            Yn = tstate_magic_witness(n)
            obj = trace_inner(Yn, projector(t_state(n)))
            assert obj == pytest.approx((4 - 2 * math.sqrt(2)) ** n, abs=1e-10)
        cons = witness_constraints(tstate_magic_witness(2), stabilizer_set(2))
        assert cons.max() == pytest.approx(1.0, abs=1e-12)

    def test_zero_copies_rejected(self):
        with pytest.raises(ValueError):
            t_state(0)
        with pytest.raises(ValueError):
            tstate_magic_witness(0)

    @pytest.mark.parametrize("n", [1.5, True])
    @pytest.mark.parametrize("make", [t_state, tstate_magic_witness, tstate_magic_robustness])
    def test_copies_must_be_an_integer(self, make, n):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            make(n)

    def test_numpy_integer_copies(self):
        assert tstate_magic_robustness(np.int64(2)) == tstate_magic_robustness(2)

    def test_pure_coherence_witness_is_optimal(self):
        for _ in range(10):
            d = int(rng.integers(2, 7))
            psi = random_pure_state(d, rng)
            c, y = pure_coherence_witness(psi)
            W = c * projector(y)
            assert witness_constraints(W, incoherent_set(d)).max() <= 1.0 + 1e-12
            achieved = c * abs(np.vdot(y, psi)) ** 2 - 1.0
            assert achieved == pytest.approx(robustness_pure_coherence(psi), abs=1e-10)

    def test_rank1_golden(self):
        c, y = rank1_witness_from_pure(golden_state(4), incoherent_set(4))
        assert c == pytest.approx(4.0, abs=1e-5)
        assert abs(np.vdot(y, golden_state(4))) ** 2 == pytest.approx(1.0, abs=1e-6)

    def test_rank1_plus_state(self):
        c, y = rank1_witness_from_pure(golden_state(2), incoherent_set(2))
        assert c == pytest.approx(2.0, abs=1e-6)

    def test_rank1_t_state(self):
        c, y = rank1_witness_from_pure(t_state(1), stabilizer_set(1))
        achieved = c * abs(np.vdot(y, t_state(1))) ** 2 - 1.0
        assert achieved == pytest.approx(tstate_magic_robustness(1), abs=1e-6)

    def test_rank1_rejects_infeasible_hull(self):
        with pytest.raises(InfeasibleHullError, match="cannot dominate"):
            rank1_witness_from_pure(golden_state(2), finite_hull([basis_state(2, 0)]))

    def test_rank1_rejects_free_state(self):
        with pytest.raises(ValueError):
            rank1_witness_from_pure(basis_state(2, 0), incoherent_set(2))

    def test_perturbed_witness_rejected(self):
        spec = incoherent_set(3)
        good = robustness_dual(projector(golden_state(3)), spec, tol=1e-8).witness
        assert witness_is_feasible(good, spec)
        assert not witness_is_feasible(1.5 * good, spec)  # constraint violation
        bad = good - 0.5 * np.eye(3)
        assert not witness_is_feasible(bad, spec)  # PSD violation


class TestInvariants:
    def test_zero_iff_free(self):
        # random convex combinations of extreme points have zero robustness
        for spec in (incoherent_set(4), stabilizer_set(1)):
            pts = spec.density_matrices()
            for _ in range(5):
                w = rng.dirichlet(np.ones(len(pts)))
                rho = sum(wi * s for wi, s in zip(w, pts))
                res = robustness_dual(rho, spec, tol=1e-8)
                assert res.value <= 1e-7
        # named resource states are robustly nonzero
        assert robustness_dual(projector(t_state(1)), stabilizer_set(1)).value > 0.01
        assert robustness_dual(projector(golden_state(4)), incoherent_set(4)).value > 0.01

    def test_monotone_under_mixing(self):
        spec = incoherent_set(2)
        rho = projector(golden_state(2))
        sigma = projector(basis_state(2, 0))
        base = robustness_dual(rho, spec, tol=1e-8).value
        prev = base
        for p in np.linspace(1.0, 0.0, 6):
            mixed = p * rho + (1 - p) * sigma
            val = robustness_dual(mixed, spec, tol=1e-8).value
            assert val <= base + 1e-6
            assert val <= prev + 1e-7  # mixing with a free state never raises it
            prev = val

    def test_multiplicativity_two_copies(self):
        r1 = robustness_dual(projector(t_state(1)), stabilizer_set(1), tol=1e-8).value
        r2 = robustness_dual(projector(t_state(2)), stabilizer_set(2), tol=1e-8).value
        assert r2 == pytest.approx((1 + r1) ** 2 - 1, abs=1e-5)

    def test_certificates_on_mixed_hull(self):
        hull = finite_hull([maximally_mixed(2), basis_state(2, 0)])
        rho = projector(basis_state(2, 1))
        res = robustness_dual(rho, hull, tol=1e-8)
        assert res.value == pytest.approx(1.0, abs=1e-6)
        assert_certified(res, rho, hull)

    def test_infeasible_status(self):
        res = robustness_dual(projector(basis_state(2, 1)), finite_hull([basis_state(2, 0)]))
        assert res.status == INFEASIBLE
        assert res.value == math.inf

    def test_support_leak_above_rounding_is_infeasible(self):
        # 1e-10 of rho's weight on |2>, outside the hull's support: R is infinite,
        # however small the leak is next to the old 1e-9 allowance
        rho = np.diag([0.5 - 1e-10, 0.5, 1e-10])
        res = robustness_dual(rho, finite_hull([basis_state(3, 0), basis_state(3, 1)]))
        assert res.status == INFEASIBLE
        assert res.value == res.upper_bound == math.inf

    def test_converged_gap_within_tolerance(self):
        spec = incoherent_set(4)
        rho = random_density_matrix(4, rng)
        res = robustness_dual(rho, spec, tol=1e-7)
        assert res.status == CONVERGED
        assert res.gap <= 1e-7 * max(1.0, res.upper_bound)


class TestRoadmapInstances:
    """Instances the log-barrier solver stopped on at max_iterations."""

    def test_tstate_three_copies_against_stabilizer3(self):
        spec = stabilizer_set(3)
        rho = projector(t_state(3))
        res = robustness_dual(rho, spec)
        assert res.status == CONVERGED
        assert res.newton_iterations <= 40
        assert res.lower_bound <= tstate_magic_robustness(3) <= res.upper_bound
        assert (4 - 2 * math.sqrt(2)) ** 3 - 1 == pytest.approx(tstate_magic_robustness(3), rel=1e-14)
        assert_certified(res, rho, spec)

    def test_ginibre_d32_against_incoherent(self):
        spec = incoherent_set(32)
        rho = random_density_matrix(32, np.random.default_rng(0))
        res = robustness_dual(rho, spec)
        assert res.status == CONVERGED
        assert res.newton_iterations <= 40
        assert_certified(res, rho, spec)

    def test_haar_state_against_stabilizer3(self):
        spec = stabilizer_set(3)
        rho = projector(random_pure_state(8, np.random.default_rng(0)))
        res = robustness_dual(rho, spec)
        assert res.status == CONVERGED
        assert res.newton_iterations <= 40
        assert_certified(res, rho, spec)

    def test_haar_state_against_stabilizer3_at_tol_1e11(self):
        # the witness route's block of large-scaling weights lifts the floor
        # that held the gap near 3e-10
        spec = stabilizer_set(3)
        rho = projector(random_pure_state(8, np.random.default_rng(0)))
        res = robustness_dual(rho, spec, tol=1e-11)
        assert res.status == CONVERGED
        assert_certified(res, rho, spec)

    def test_random_pure_states_against_stabilizer_converge_at_tol_1e10(self):
        for k in range(20):
            n = 2 + k % 2
            spec = stabilizer_set(n)
            rho = projector(random_pure_state(2**n, np.random.default_rng(100 + k)))
            res = robustness_dual(rho, spec, tol=1e-10)
            assert res.status == CONVERGED, k
            assert res.gap <= 1e-10 * max(1.0, res.upper_bound)

    def test_haar_state_against_stabilizer3_at_tol_1e12(self):
        # with the bordered witness-route system the tail below a relative gap
        # of 1e-10 takes a few iterations, not dozens
        spec = stabilizer_set(3)
        rho = projector(random_pure_state(8, np.random.default_rng(0)))
        res = robustness_dual(rho, spec, tol=1e-12)
        assert res.status == CONVERGED
        assert res.newton_iterations <= 25
        assert_certified(res, rho, spec)

    def test_random_pure_states_against_stabilizer_converge_at_tol_1e12(self):
        for k in range(20):
            n = 2 + k % 2
            spec = stabilizer_set(n)
            rho = projector(random_pure_state(2**n, np.random.default_rng(100 + k)))
            res = robustness_dual(rho, spec, tol=1e-12)
            assert res.status == CONVERGED, k
            assert res.newton_iterations <= 40, k
            assert res.gap <= 1e-12 * max(1.0, res.upper_bound)
            assert_certified(res, rho, spec)

    def test_budget_stop_returns_the_smallest_gap(self, monkeypatch):
        # near the float64 reach of this program the steps shrink and the gap
        # may wander; the certificates come from the best iterate, not the last
        step = solver_module._mehrotra_step
        gaps = []

        def recorded(prog, it, direction):
            nxt = step(prog, it, direction)
            if nxt is not None:
                gaps.append(nxt.upper - nxt.lower)
            return nxt

        monkeypatch.setattr(solver_module, "_mehrotra_step", recorded)
        spec = stabilizer_set(3)
        rho = projector(random_pure_state(8, np.random.default_rng(0)))
        res = robustness_dual(rho, spec, tol=1e-15, max_newton=30)
        assert res.status == MAX_ITERATIONS and res.newton_iterations == 30
        assert res.gap == pytest.approx(min(gaps), abs=1e-12)
        assert_certified(res, rho, spec)


def _loop(rho, spec):
    """(status, iterations) of the interior-point loop alone, without the exact routes."""
    _, _, used, status = solver_module._solve(rho, spec, DEFAULT_TOL, DEFAULT_MAX_NEWTON)
    return status, used


def _dual(rho, spec):
    res = robustness_dual(rho, spec)
    return res.status, res.newton_iterations


def _depolarizing_choi(p: float) -> np.ndarray:
    return choi_state(depolarizing_channel(2, p)).matrix


def _residual(y: np.ndarray, a: float) -> np.ndarray:
    """Theorem 2's residual state (I - a|y><y|)/(d - a)."""
    return thermo._residual_state(y, a, len(y))


class TestIterationCounts:
    """Status and interior-point iterations of the certify_mix benchmark instances and of
    verify_grid's depolarizing Choi states and theorem-2 residuals.  The pure golden and T
    states, the Choi states and the flat residuals are certified by ``robustness_dual``
    without iterating, so the loop is pinned on them through ``_solve``; the |T>^n residuals
    take the twirl's reduced counts."""

    @pytest.mark.parametrize("rho, spec, run, iterations", [
        (projector(golden_state(2)), incoherent_set(2), _loop, 6),
        (projector(golden_state(32)), incoherent_set(32), _loop, 6),
        (projector(golden_state(64)), incoherent_set(64), _loop, 6),
        (projector(t_state(1)), stabilizer_set(1), _loop, 6),
        (projector(t_state(2)), stabilizer_set(2), _loop, 7),
        (projector(t_state(3)), stabilizer_set(3), _loop, 8),
        (projector(golden_state(2)), incoherent_set(2), _dual, 0),
        (projector(golden_state(32)), incoherent_set(32), _dual, 0),
        (projector(golden_state(64)), incoherent_set(64), _dual, 0),
        (projector(t_state(1)), stabilizer_set(1), _dual, 0),
        (projector(t_state(2)), stabilizer_set(2), _dual, 0),
        (projector(t_state(3)), stabilizer_set(3), _dual, 0),
        (random_density_matrix(32, np.random.default_rng(0)), incoherent_set(32), _dual, 14),
        (projector(random_pure_state(8, np.random.default_rng(0))), stabilizer_set(3), _dual, 15),
        (choi_state(unitary_channel(T_GATE)).matrix, stabilizer_set(2), _dual, 7),
        # a stabilizer state: a free mixture, certified without iterating
        (choi_state(unitary_channel(HADAMARD)).matrix, stabilizer_set(2), _dual, 0),
        (_depolarizing_choi(0.25), incoherent_set(4), _loop, 6),
        (_depolarizing_choi(0.75), incoherent_set(4), _loop, 6),
        (_depolarizing_choi(0.25), incoherent_set(4), _dual, 0),
        (_depolarizing_choi(0.75), incoherent_set(4), _dual, 0),
        (_residual(golden_state(4), 1.0), incoherent_set(4), _loop, 5),
        (_residual(golden_state(32), 1.0), incoherent_set(32), _loop, 5),
        (_residual(golden_state(64), 1.0), incoherent_set(64), _loop, 5),
        (_residual(golden_state(4), 1.0), incoherent_set(4), _dual, 0),
        (_residual(golden_state(32), 1.0), incoherent_set(32), _dual, 0),
        (_residual(golden_state(64), 1.0), incoherent_set(64), _dual, 0),
        (_residual(t_state(1), 1.0), stabilizer_set(1), _dual, 6),
        (_residual(t_state(2), 1.0), stabilizer_set(2), _dual, 7),
        (_residual(t_state(3), 1.0), stabilizer_set(3), _dual, 7),
    ], ids=["golden-2", "golden-32", "golden-64", "tstate-1", "tstate-2", "tstate-3",
            "golden-2-exact", "golden-32-exact", "golden-64-exact",
            "tstate-1-exact", "tstate-2-exact", "tstate-3-exact",
            "ginibre-32", "haar-stab3", "choi-t_gate", "choi-hadamard",
            "choi-depolarizing-0.25", "choi-depolarizing-0.75",
            "choi-depolarizing-0.25-exact", "choi-depolarizing-0.75-exact",
            "residual-golden-4", "residual-golden-32", "residual-golden-64",
            "residual-golden-4-exact", "residual-golden-32-exact", "residual-golden-64-exact",
            "residual-tstate-1-twirl", "residual-tstate-2-twirl", "residual-tstate-3-twirl"])
    def test_converges_in(self, rho, spec, run, iterations):
        assert run(rho, spec) == (CONVERGED, iterations)


class TestPaddedCertificates:
    """A certificate found without iterating sits on the boundary of the witness cone, and its
    witness is scaled by 1 - 8 ulps (solver docstring), so rounding in Tr[Y rho] cannot lift
    the lower end above R.  The upper end is not asserted: rounding in the weights can put it
    below R by a few ulps."""

    @pytest.mark.parametrize("d", range(2, 65))
    def test_golden_state(self, d):
        res = robustness_dual(projector(golden_state(d)), incoherent_set(d))
        assert res.newton_iterations == 0
        assert res.lower_bound <= d - 1.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tstate(self, n):
        res = robustness_dual(projector(t_state(n)), stabilizer_set(n))
        assert res.newton_iterations == 0
        assert res.lower_bound <= tstate_magic_robustness(n)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 8, 16, 32, 48, 56, 60, 64])
    @pytest.mark.parametrize("a", [0.3, 0.7, 1.0])
    def test_flat_residual(self, d, a):
        res = robustness_dual(_residual(golden_state(d), a), incoherent_set(d))
        assert res.newton_iterations == 0
        assert res.lower_bound <= a / (d - a)


def _pauli_eigenbasis_mixture(n: int, weights) -> tuple[np.ndarray, np.ndarray]:
    """An orthonormal basis of n-qubit stabilizer states (the X eigenbasis on the first
    qubit, Y on the second, Z on the third), as columns, and its mixture with ``weights``."""
    x = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    y = np.array([[1, 1], [1j, -1j]], dtype=complex) / math.sqrt(2)
    B = np.eye(1, dtype=complex)
    for U in (x, y, np.eye(2, dtype=complex))[:n]:
        B = np.kron(B, U)
    return B, (B * np.asarray(weights)) @ B.conj().T


class TestExactCertificates:
    """A free state that mixes orthonormal pure extreme points is certified without
    iterating (solver docstring); every other free state still runs the loop."""

    @pytest.mark.parametrize("spec", [*map(incoherent_set, range(2, 6)),
                                      *map(stabilizer_set, (1, 2, 3))],
                             ids=lambda spec: spec.label())
    def test_maximally_mixed_state(self, spec):
        rho = maximally_mixed(spec.dim)
        res = robustness_dual(rho, spec)
        assert (res.status, res.newton_iterations) == (CONVERGED, 0)
        assert res.lower_bound == res.value == 0.0 and res.gap <= 1e-15
        assert_certified(res, rho, spec)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pauli_eigenbasis_with_distinct_weights(self, n):
        weights = np.arange(1.0, 2**n + 1.0)
        B, rho = _pauli_eigenbasis_mixture(n, weights / weights.sum())
        spec = stabilizer_set(n)
        res = robustness_dual(rho, spec)
        assert (res.status, res.newton_iterations) == (CONVERGED, 0)
        assert np.count_nonzero(res.primal_weights) == 2**n
        assert res.gap <= 1e-15
        assert_certified(res, rho, spec)

    def test_mixture_with_a_non_extreme_eigenbasis_runs_the_loop(self):
        # (|0><0| + |+><+|)/2 is free, but its eigenvectors are not stabilizer states
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        rho = 0.5 * (projector(basis_state(2, 0)) + projector(plus))
        spec = stabilizer_set(1)
        res = robustness_dual(rho, spec)
        assert res.status == CONVERGED and res.newton_iterations > 0
        assert res.lower_bound <= 0.0 <= res.upper_bound
        assert_certified(res, rho, spec)

    def test_pure_matrix_generator_matches(self):
        spec = finite_hull([maximally_mixed(2), projector(t_state(1))])
        rho = projector(t_state(1))
        res = robustness_dual(rho, spec)
        assert (res.status, res.newton_iterations) == (CONVERGED, 0)
        assert res.primal_weights.tolist() == pytest.approx([0.0, 1.0], abs=1e-15)
        assert_certified(res, rho, spec)

    def test_pair_weights_sit_on_the_sets_own_points(self):
        # a set labelled "incoherent" whose points are not the basis: the spectral pair's
        # weights on e_0, e_1, e_2 are placed on the set's points by overlap, and e_2 is none of
        # them, so the loop solves the flat residual; without e_2 in the hull it is infeasible
        e, rho = np.eye(3), _residual(np.ones(3) / math.sqrt(3), 1.0)
        spec = FreeSet("incoherent", 3, vectors=(e[0], e[1], (e[1] + e[2]) / math.sqrt(2)))
        res = robustness_dual(rho, spec)
        assert res.status == CONVERGED and res.newton_iterations > 0
        assert res.lower_bound > 2.8  # R = 2.886; the unplaced weights claimed R <= 0.5
        assert_certified(res, rho, spec)
        assert robustness_dual(rho, FreeSet("incoherent", 3, vectors=(e[0], e[1]))).status \
            == INFEASIBLE

    def test_overlap_just_below_one_fails_the_recheck(self):
        # |<0|psi>|^2 = 1 - 1e-14 passes the overlap test, but |0><0| - rho has the
        # eigenvalue -1e-7: a rounding-sized recheck declines the free mixture; rho is
        # pure, so the l1 pair certifies it instead, and the loop agrees
        psi = np.array([math.sqrt(1.0 - 1e-14), 1e-7])
        rho, spec = projector(psi), incoherent_set(2)
        assert solver_module._free_mixture(rho, spec, DEFAULT_TOL) is None
        assert _loop(rho, spec)[0] == CONVERGED
        res = robustness_dual(rho, spec)
        assert (res.status, res.newton_iterations) == (CONVERGED, 0)
        assert res.value == pytest.approx(robustness_pure_coherence(psi), abs=1e-12)
        assert_certified(res, rho, spec)


def _random_diagonal(d: int, seed: int) -> np.ndarray:
    w = np.random.default_rng([d, seed]).random(d)
    return np.diag(w / w.sum()).astype(complex)


_INCOHERENT_FREE = [maximally_mixed(d) for d in range(2, 6)] + [
    _random_diagonal(d, seed) for d, seed in [(2, 0), (3, 1), (16, 2), (64, 3)]]
_INCOHERENT_FREE_IDS = [f"mixed-{d}" for d in range(2, 6)] + [
    f"diagonal-{d}" for d in (2, 3, 16, 64)]


def _spectra(monkeypatch) -> list:
    """The operands of every later np.linalg.eigh and eigvalsh call, in call order."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(a, *args, _kernel=getattr(np.linalg, name), **kwargs):
            calls.append(a)
            return _kernel(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestOneCertificatePerInput:
    """``robustness_dual`` is one flat chain (solver docstring): the twirl's reduced program is
    solved by the loop in place, not by a nested ``robustness_dual`` call, and the free mixture
    is not tried against an incoherent set, since the l1 pair certifies every free state there
    on its own with the free mixture's witness, weights and bounds.  Each route reads rho
    itself, so a call decomposes rho at most once."""

    @pytest.mark.parametrize("a", [0.5, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_twirl_makes_no_nested_call(self, monkeypatch, n, a):
        calls = []

        def counted(rho, spec, *args, **kwargs):
            calls.append(spec.label())
            return dual(rho, spec, *args, **kwargs)

        dual = solver_module.robustness_dual
        monkeypatch.setattr(solver_module, "robustness_dual", counted)
        rho, spec = _residual(t_state(n), a), stabilizer_set(n)
        res = solver_module.robustness_dual(rho, spec)
        assert calls == [spec.label()]
        assert res.status == CONVERGED
        assert_certified(res, rho, spec)

    @pytest.mark.parametrize("rho", [
        *(projector(golden_state(d)) for d in (2, 32, 64)),
        *_INCOHERENT_FREE,
        *(_depolarizing_choi(p) for p in (0.2, 0.5, 0.8)),
    ], ids=[*(f"golden-{d}" for d in (2, 32, 64)), *_INCOHERENT_FREE_IDS,
            *(f"choi-depolarizing-{p}" for p in (0.2, 0.5, 0.8))])
    def test_incoherent_pairs_come_before_the_free_mixture(self, monkeypatch, rho):
        calls = []
        monkeypatch.setattr(solver_module, "_free_mixture", lambda *args: calls.append(args))
        spec = incoherent_set(len(rho))
        res = robustness_dual(rho, spec)
        assert calls == []
        assert (res.status, res.newton_iterations) == (CONVERGED, 0)
        assert_certified(res, rho, spec)

    @pytest.mark.parametrize("d", [2, 32, 60])
    def test_golden_certificate_and_its_recheck_take_no_eigendecomposition(self, monkeypatch, d):
        # validation, the slack recheck and witness_is_feasible each prove PSD by Cholesky
        calls = _spectra(monkeypatch)
        rho, spec = projector(golden_state(d)), incoherent_set(d)
        res = robustness_dual(rho, spec)
        assert witness_is_feasible(res.witness, spec)
        assert (res.newton_iterations, len(calls)) == (0, 0)

    @pytest.mark.parametrize("rho, spec, most", [
        *((projector(golden_state(d)), incoherent_set(d), 0) for d in (2, 32, 48, 56, 60, 64)),
        *((projector(t_state(n)), stabilizer_set(n), 0) for n in (1, 2, 3)),
        *((_residual(t_state(n), a), stabilizer_set(n), 0) for n in (1, 2, 3) for a in (0.5, 1.0)),
        *((_residual(golden_state(d), 1.0), incoherent_set(d), 1) for d in (4, 32)),
        (random_density_matrix(32, np.random.default_rng(0)), incoherent_set(32), 1),
        (random_density_matrix(4, np.random.default_rng(1)), incoherent_set(4), 1),
        (projector(random_pure_state(4, np.random.default_rng(1))), stabilizer_set(2), 1),
        (projector(random_pure_state(8, np.random.default_rng(0))), stabilizer_set(3), 1),
        (choi_state(unitary_channel(T_GATE)).matrix, stabilizer_set(2), 1),
        (choi_state(unitary_channel(HADAMARD)).matrix, stabilizer_set(2), 1),
    ], ids=[*(f"golden-{d}" for d in (2, 32, 48, 56, 60, 64)),
            *(f"tstate-{n}" for n in (1, 2, 3)),
            *(f"residual-tstate-{n}-{a}" for n in (1, 2, 3) for a in (0.5, 1.0)),
            "flat-residual-4", "flat-residual-32", "ginibre-32", "ginibre-4", "haar-stab2",
            "haar-stab3", "choi-t_gate", "choi-hadamard"])
    def test_decompositions_of_rho_per_call(self, monkeypatch, rho, spec, most):
        # the twirl reads lambda_min and lambda_max off rho, the product pair its overlap with
        # |T>^n; only the spectral pair (eigvalsh) and the free mixture (eigh) decompose rho
        calls = _spectra(monkeypatch)
        res = robustness_dual(rho, spec)
        assert sum(np.array_equal(a, rho) for a in calls) <= most
        assert_certified(res, rho, spec)

    def test_a_loop_instance_takes_one_spectrum_of_rho(self, monkeypatch):
        rho = random_density_matrix(4, np.random.default_rng(SEEDS["solver"]))
        calls = _spectra(monkeypatch)
        res = robustness_dual(rho, incoherent_set(4))
        assert res.newton_iterations > 0
        assert sum(np.array_equal(a, rho) for a in calls) == 1

    @pytest.mark.parametrize("rho", _INCOHERENT_FREE, ids=_INCOHERENT_FREE_IDS)
    def test_l1_pair_of_a_free_state_is_the_free_mixture(self, rho):
        spec = incoherent_set(len(rho))
        res = robustness_dual(rho, spec)
        mix = solver_module._free_mixture(rho, spec, DEFAULT_TOL)
        assert res.witness.tobytes() == mix.witness.tobytes()
        assert res.primal_weights.tobytes() == mix.primal_weights.tobytes()
        fields = ("value", "gap", "status", "lower_bound", "upper_bound", "newton_iterations")
        assert [getattr(res, f) for f in fields] == [getattr(mix, f) for f in fields]

    @pytest.mark.parametrize("psi", [
        golden_state(4), random_pure_state(8, np.random.default_rng(1))], ids=["golden-4", "haar-8"])
    def test_rank1_witness_validates_psi_once(self, monkeypatch, psi):
        calls = []

        def counted(psi, *args):
            calls.append(psi)
            return validate(psi, *args)

        validate = linalg_module.assert_pure
        monkeypatch.setattr(linalg_module, "assert_pure", counted)
        monkeypatch.setattr(solver_module, "assert_pure", counted)
        rank1_witness_from_pure(psi, incoherent_set(len(psi)))
        assert len(calls) == 1


def _amplitudes(d: int, seed: int, zeros: int) -> np.ndarray:
    """A complex unit vector of length d with ``zeros`` of its amplitudes set to 0 (at most
    d - 1 of them)."""
    gen = np.random.default_rng(seed)
    psi = gen.normal(size=d) + 1j * gen.normal(size=d)
    psi[gen.permutation(d)[:min(zeros, d - 1)]] = 0.0
    return psi / np.linalg.norm(psi)


def _loop_result(rho, spec):
    """Certified result of the interior-point loop alone, without the exact routes."""
    prog, it, used, status = solver_module._solve(rho, spec, DEFAULT_TOL, DEFAULT_MAX_NEWTON)
    return solver_module._certify(rho, spec, prog.expand(it.Y), it.q, status, used)


def _loop_interval(rho, spec) -> tuple[float, float]:
    """Certified [lower, upper] of the interior-point loop alone."""
    res = _loop_result(rho, spec)
    assert res.status == CONVERGED
    return res.lower_bound, res.upper_bound


class TestPurePairs:
    """A pure state against an incoherent set (the l1 pair), and |T>^n against a hull
    holding the products of |+> and |+i>, are certified by closed-form pairs without
    iterating (solver docstring); the extreme points are found by content, not by identity."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tstate_against_a_stabilizer_set_built_before_a_cache_clear(self, n):
        spec = stabilizer_set(n)
        stabilizer_set.cache_clear()
        assert stabilizer_set(n) is not spec
        rho = projector(t_state(n))
        res = robustness_dual(rho, spec)
        assert (res.status, res.newton_iterations) == (CONVERGED, 0)
        assert res.value == pytest.approx(tstate_magic_robustness(n), abs=1e-12)
        assert_certified(res, rho, spec)

    @pytest.mark.parametrize("n, as_matrices", [(1, True), (2, False), (3, False)])
    def test_tstate_against_a_finite_hull_copy(self, n, as_matrices):
        # reversed, so the products sit at other indices than in stabilizer_set(n)
        points = stabilizer_set(n).density_matrices() if as_matrices else stabilizer_set(n).vectors
        spec = finite_hull(points[::-1])
        rho = projector(np.exp(0.7j) * t_state(n))
        res = robustness_dual(rho, spec)
        assert (res.status, res.newton_iterations) == (CONVERGED, 0)
        assert res.value == pytest.approx(tstate_magic_robustness(n), abs=1e-12)
        assert_certified(res, rho, spec)

    def test_tstate_against_a_hull_without_the_products_runs_the_loop(self):
        # without |+i> the product weights match no point, so the pair is declined
        spec = finite_hull([basis_state(2, 0), basis_state(2, 1), np.array([1.0, 1.0]) / math.sqrt(2)])
        rho = projector(t_state(1))
        res = robustness_dual(rho, spec)
        assert res.status == CONVERGED and res.newton_iterations > 0
        assert_certified(res, rho, spec)

    @settings(max_examples=25, deadline=None)
    @given(d=st.integers(2, 64), seed=st.integers(0, 2**32 - 1), zeros=st.integers(0, 63))
    def test_pure_state_against_incoherent_set(self, d, seed, zeros):
        psi = _amplitudes(d, seed, zeros)
        rho, spec = projector(psi), incoherent_set(d)
        res = robustness_dual(rho, spec)
        assert (res.status, res.newton_iterations) == (CONVERGED, 0)
        assert_certified(res, rho, spec)
        value = robustness_pure_coherence(psi)
        assert res.lower_bound - 1e-12 <= value <= res.upper_bound + 1e-12
        lower, upper = _loop_interval(rho, spec)
        assert max(lower, res.lower_bound) <= min(upper, res.upper_bound) + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(d=st.integers(2, 64), seed=st.integers(0, 2**32 - 1), zeros=st.integers(0, 63))
    def test_phased_permutation_keeps_the_pair_value(self, d, seed, zeros):
        gen = np.random.default_rng(seed)
        psi = _amplitudes(d, seed, zeros)
        image = TestMetamorphic._phased_permutation(d, gen) @ psi
        values = [robustness_dual(projector(v), incoherent_set(d)) for v in (psi, image)]
        assert [res.newton_iterations for res in values] == [0, 0]
        assert values[0].value == pytest.approx(values[1].value, abs=1e-12)

    def test_near_pure_state_runs_the_loop(self):
        # <T^n|rho|T^n> = 1 - 1e-9 + 1e-9/d fails the product pair's overlap gate
        for n in (1, 2, 3):
            rho = (1.0 - 1e-9) * projector(t_state(n)) + 1e-9 * maximally_mixed(2**n)
            spec = stabilizer_set(n)
            res = robustness_dual(rho, spec)
            assert res.status == CONVERGED and res.newton_iterations > 0
            assert_certified(res, rho, spec)

    @pytest.mark.parametrize("n", [1, 2])
    def test_state_within_the_overlap_gate_takes_the_product_pair(self, n):
        # <T^n|rho|T^n> = 1 - 1e-14 + 1e-14/d passes the overlap gate although lambda_max is
        # more than 8 d ulps below 1: the slack recheck accepts the product pair's weights
        rho = (1.0 - 1e-14) * projector(t_state(n)) + 1e-14 * maximally_mixed(2**n)
        spec = stabilizer_set(n)
        res = robustness_dual(rho, spec)
        assert (res.status, res.newton_iterations) == (CONVERGED, 0)
        assert_certified(res, rho, spec)
        lower, upper = _loop_interval(rho, spec)
        assert max(lower, res.lower_bound) <= min(upper, res.upper_bound)

    @settings(max_examples=10, deadline=None)
    @given(d=st.integers(2, 32), seed=st.integers(0, 2**32 - 1))
    def test_near_pure_state_gets_the_l1_pair(self, d, seed):
        # a pure state mixed with I/d keeps one coherent block with one phase pattern
        rho = (1.0 - 1e-9) * projector(_amplitudes(d, seed, 0)) + 1e-9 * maximally_mixed(d)
        spec = incoherent_set(d)
        res = robustness_dual(rho, spec)
        assert (res.status, res.newton_iterations) == (CONVERGED, 0)
        assert_certified(res, rho, spec)
        value = _l1_coherence(rho)
        assert res.lower_bound - 1e-12 <= value <= res.upper_bound + 1e-12


def _l1_coherence(rho: np.ndarray) -> float:
    return float(np.abs(rho).sum() - np.trace(rho).real)


class TestL1Pair:
    """Every state whose coherences lie in one block with one phase pattern is certified by
    the l1 pair without iterating (solver docstring): its robustness against an incoherent
    set is its l1 coherence.  Any other state fails an O(d^2) test and runs the loop."""

    @staticmethod
    def one_block_state(d: int, seed: int, t: float) -> np.ndarray:
        """t|psi><psi| + (1 - t) diag(p), psi supported on a random subset of the basis."""
        gen = np.random.default_rng(seed)
        psi = _amplitudes(d, seed, int(gen.integers(0, d)))
        return t * projector(psi) + (1.0 - t) * np.diag(gen.dirichlet(np.ones(d)))

    @settings(max_examples=25, deadline=None)
    @given(d=st.integers(2, 32), seed=st.integers(0, 2**32 - 1), t=st.floats(0.05, 1.0))
    def test_one_block_state(self, d, seed, t):
        rho, spec = self.one_block_state(d, seed, t), incoherent_set(d)
        res = robustness_dual(rho, spec)
        assert (res.status, res.newton_iterations) == (CONVERGED, 0)
        assert_certified(res, rho, spec)
        value = _l1_coherence(rho)
        assert res.lower_bound - 1e-12 <= value <= res.upper_bound + 1e-12
        lower, upper = _loop_interval(rho, spec)
        assert max(lower, res.lower_bound) <= min(upper, res.upper_bound) + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(d=st.integers(2, 32), seed=st.integers(0, 2**32 - 1), t=st.floats(0.05, 1.0))
    def test_phased_permutation_keeps_the_pair_value(self, d, seed, t):
        rho = self.one_block_state(d, seed, t)
        U = TestMetamorphic._phased_permutation(d, np.random.default_rng(seed))
        values = [robustness_dual(x, incoherent_set(d)) for x in (rho, U @ rho @ U.conj().T)]
        assert [res.newton_iterations for res in values] == [0, 0]
        assert values[0].value == pytest.approx(values[1].value, abs=1e-12)

    @pytest.mark.parametrize("rho", [
        # two pure blocks on {0, 1} and {2, 3}: no column sees both
        np.kron(np.diag([0.5, 0.0]), projector(golden_state(2)))
        + np.kron(np.diag([0.0, 0.5]), projector(random_pure_state(2, np.random.default_rng(1)))),
        random_density_matrix(4, np.random.default_rng(SEEDS["solver"])),
        random_density_matrix(16, np.random.default_rng(SEEDS["solver"])),
    ], ids=["two-blocks", "ginibre-4", "ginibre-16"])
    def test_other_states_run_the_loop(self, rho):
        spec = incoherent_set(len(rho))
        # declined by both incoherent pairs: the l1 pair and the spectral pair
        assert solver_module._closed_pair(rho, spec, DEFAULT_TOL) is None
        res = robustness_dual(rho, spec)
        assert res.status == CONVERGED and res.newton_iterations > 0
        assert_certified(res, rho, spec)


class TestNewtonSolve:
    @pytest.mark.parametrize("spec", [
        stabilizer_set(1),
        incoherent_set(3),
        finite_hull([basis_state(2, 0), maximally_mixed(2),
                     random_density_matrix(2, np.random.default_rng(3))]),
    ], ids=["stabilizer1", "incoherent3", "mixed-hull"])
    def test_schur_and_witness_routes_agree(self, spec):
        # the m x m system in the weights and the bordered system in the
        # scaled witness step are two eliminations of one Newton system
        rho = random_density_matrix(spec.dim, rng)
        prog = _Program.from_spec(rho, spec)
        Y = random_density_matrix(prog.rank, rng)
        Y = 0.9 * Y / prog.constraint_values(Y).max()
        it = _Iterate(prog, rng.uniform(2.0, 3.0, size=prog.m), Y)
        t = rng.normal(size=prog.m)
        T = random_hermitian(prog.rank, rng)
        for a, b in zip(_schur_direction(it)(t, T), _witness_direction(it)(t, T)):
            assert np.abs(a - b).max() < 1e-8

    @pytest.mark.parametrize("n_heavy", [0, 3, 6])
    def test_witness_route_block_agrees_with_schur_route(self, n_heavy):
        # weights with a large scaling d^2 = q/u enter the witness route's
        # explicit block; stabilizer(1) has 6 points and r^2 = 4, so 6 heavy
        # weights overflow the block's cap
        spec = stabilizer_set(1)
        prog = _Program.from_spec(random_density_matrix(2, rng), spec)
        Y = random_density_matrix(2, rng)
        it = _Iterate(prog, rng.uniform(2.0, 3.0, size=prog.m),
                      0.9 * Y / prog.constraint_values(Y).max())
        boost = np.ones(prog.m)
        boost[:n_heavy] = 1e3
        it.q, it.u, it.d = it.q * boost, it.u / boost, it.d * boost
        t = rng.normal(size=prog.m)
        T = random_hermitian(2, rng)
        for a, b in zip(_schur_direction(it)(t, T), _witness_direction(it)(t, T)):
            assert np.abs(a - b).max() <= 1e-8 * max(1.0, np.abs(a).max())

    @pytest.mark.parametrize("route, spec, rho", [
        ("_schur_direction", incoherent_set(4), random_density_matrix(4, np.random.default_rng(7))),
        ("_schur_direction", incoherent_set(8), projector(golden_state(8))),  # real arithmetic
        ("_witness_direction", stabilizer_set(2), projector(t_state(2))),
        ("_witness_direction", stabilizer_set(3),
         projector(random_pure_state(8, np.random.default_rng(0)))),
    ], ids=["schur-ginibre4", "schur-golden8", "witness-tstate2", "witness-haar-stab3"])
    def test_du_solves_the_weights_equation(self, monkeypatch, route, spec, rho):
        # du = (t - dq/d)/d, read off dq/d + d du = t, is the du = -Tr[G_k dy]
        # of the cone equations on every iterate of a solve
        errors = []
        original = getattr(solver_module, route)

        def checking(it):
            newton = original(it)

            def solve(t, T):
                dq, ds, dy = newton(t, T)
                du = -_constraint_values(it.g, dy)
                err = np.abs((t - dq / it.d) / it.d - du).max()
                errors.append(err / max(1.0, np.abs(du).max()))
                return dq, ds, dy
            return solve

        monkeypatch.setattr(solver_module, route, checking)
        status, used = _loop(rho, spec)  # golden8 and tstate2 skip the loop in robustness_dual
        assert status == CONVERGED and used > 0
        assert len(errors) == 2 * used
        assert max(errors) <= 1e-12

    @pytest.mark.parametrize("spec, rho", [
        (stabilizer_set(2), projector(random_pure_state(4, np.random.default_rng(5)))),
        (stabilizer_set(3), projector(t_state(3))),
        (incoherent_set(8), random_density_matrix(8, np.random.default_rng(6))),
    ], ids=["stabilizer2", "stabilizer3", "incoherent8"])
    def test_one_newton_build_per_iteration(self, monkeypatch, spec, rho):
        # the predictor and the corrector share the Newton matrix of their
        # iterate, and each right-hand side takes one linear solve
        counts = {"build": 0, "coords": 0, "solve": 0}

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        for route in ("_schur_direction", "_witness_direction"):
            monkeypatch.setattr(solver_module, route,
                                counted("build", getattr(solver_module, route)))
        monkeypatch.setattr(_Iterate, "coords", counted("coords", _Iterate.coords))
        monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve))
        status, used = _loop(rho, spec)  # |T>^3 skips the loop in robustness_dual
        assert status == CONVERGED and used > 0
        assert counts["build"] == used
        assert counts["solve"] == 2 * used
        # pure hulls build F only on the witness route, where m > r^2
        witness_route = spec.n_points > spec.dim**2
        assert counts["coords"] == (used if witness_route else 0)


class TestPredictorStep:
    @settings(max_examples=200)
    @given(lam=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=6),
           seed=st.integers(0, 2**32 - 1), spread=st.floats(1e-3, 1e3))
    def test_one_spectrum_step_equals_two_spectrum_step(self, lam, seed, spread):
        # with ds + dy = -diag(lam), the scaled dy is -I - scaled ds, so the
        # least eigenvalue of the scaled dy is -1 - the largest of the scaled ds
        lam = np.array(lam)
        ds = random_hermitian(len(lam), np.random.default_rng(seed), scale=spread)
        dy = -np.diag(lam) - ds
        it = SimpleNamespace(q=np.ones(1), u=np.ones(1), scale=1.0 / np.sqrt(np.outer(lam, lam)))
        none = np.zeros(1)
        assert _max_step(it, none, none, ds) == pytest.approx(
            _max_step(it, none, none, ds, dy), rel=1e-12)


class TestContractions:
    # the matrix-product contractions against numpy's planned einsum, to
    # rounding: 1e-12 relative to |Y| max_k |sigma_k|
    @pytest.mark.parametrize("r, m", [(1, 6), (2, 6), (4, 60), (8, 1080), (64, 64), (64, 1080)])
    def test_vector_path_matches_planner_bitwise(self, r, m):
        gen = np.random.default_rng(r * m)
        V = gen.normal(size=(r, m)) + 1j * gen.normal(size=(r, m))
        Y = random_hermitian(r, gen)
        planned = np.einsum("ik,ij,jk->k", V.conj(), Y, V, optimize=True).real
        scale = np.linalg.norm(Y) * (np.abs(V) ** 2).sum(axis=0).max()
        assert np.abs(_constraint_values(V, Y) - planned).max() <= 1e-12 * scale

    @pytest.mark.parametrize("r, m", [(2, 6), (4, 60), (8, 1080), (64, 64)])
    def test_matrix_path_matches_planner_bitwise(self, r, m):
        gen = np.random.default_rng(r * m)
        M = gen.normal(size=(m, r, r)) + 1j * gen.normal(size=(m, r, r))
        Y = random_hermitian(r, gen)
        planned = np.einsum("kij,ji->k", M, Y, optimize=True).real
        scale = np.linalg.norm(Y) * np.linalg.norm(M, axis=(1, 2)).max()
        assert np.abs(_constraint_values(M, Y) - planned).max() <= 1e-12 * scale


def _factorised_dtypes(monkeypatch) -> list:
    """np.linalg.cholesky wrapped to record the dtype of every array it factorises."""
    dtypes, cholesky = [], np.linalg.cholesky

    def recorded(A, *args, **kwargs):
        dtypes.append(np.asarray(A).dtype)
        return cholesky(A, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", recorded)
    return dtypes


class TestRealArithmetic:
    # real data stays real: incoherent points are float64, so a golden state's validation, its
    # l1 pair's slack recheck and the public rechecks factorise real matrices; stabilizer
    # points are complex and keep every factorisation complex
    def _certify(self, rho, spec):
        res = robustness_dual(rho, spec)
        assert witness_is_feasible(res.witness, spec)
        primal_slack(res.primal_weights, rho, spec)
        return res

    @pytest.mark.parametrize("d", [32, 64])
    def test_golden_state_factorises_no_complex_array(self, monkeypatch, d):
        spec = incoherent_set(d)
        assert spec.points.dtype == np.float64
        dtypes = _factorised_dtypes(monkeypatch)
        res = self._certify(projector(golden_state(d)), spec)
        assert res.newton_iterations == 0
        assert dtypes == [np.float64] * 3  # assert_density, _placed's recheck, witness_is_feasible

    def test_tstate_keeps_complex_factorisations(self, monkeypatch):
        spec = stabilizer_set(2)
        assert spec.points.dtype == np.complex128
        dtypes = _factorised_dtypes(monkeypatch)
        self._certify(projector(t_state(2)), spec)
        assert dtypes == [np.complex128] * 3

    def test_real_hull_points_are_float64(self):
        assert finite_hull([basis_state(2, 0), maximally_mixed(2)]).points.dtype == np.float64
        assert finite_hull([basis_state(2, 0), t_state(1)]).points.dtype == np.complex128


class TestIndependentOracles:
    @settings(max_examples=60, deadline=None)
    @given(bloch=st.tuples(*[st.floats(-1.0, 1.0)] * 3))
    def test_qubit_coherence_robustness_is_l1_coherence(self, bloch):
        # for a qubit, R = C_l1 = 2|rho_01| (Napoli et al., PRL 116, 150502, 2016)
        x, y, z = np.array(bloch) / max(1.0, float(np.linalg.norm(bloch)))
        rho = 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]])
        spec = incoherent_set(2)
        res = robustness_dual(rho, spec)
        assert res.status == CONVERGED
        assert res.lower_bound - 1e-12 <= 2 * abs(rho[0, 1]) <= res.upper_bound + 1e-12
        assert_certified(res, rho, spec)


class TestMetamorphic:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_clifford_word_keeps_stabilizer_robustness(self, n, seed, data):
        # Cliffords permute the stabilizer states, so R(U psi) = R(psi)
        # (Howard & Campbell, PRL 118, 090501, 2017): the certified intervals
        # of psi and of its image after each prefix of the word share a point
        gates = [_single_qubit_op(G, q, n) for G in (_H, _S) for q in range(n)]
        gates += [_cnot_op(c, t, n) for c in range(n) for t in range(n) if c != t]
        word = data.draw(st.lists(st.sampled_from(gates), min_size=6, max_size=6))
        psi = random_pure_state(2**n, np.random.default_rng(seed))
        spec = stabilizer_set(n)
        lower, upper = -np.inf, np.inf
        for G in [np.eye(2**n)] + word:
            psi = G @ psi
            rho = projector(psi)
            res = robustness_dual(rho, spec)
            assert res.status == CONVERGED
            assert_certified(res, rho, spec)
            lower, upper = max(lower, res.lower_bound), min(upper, res.upper_bound)
        assert lower <= upper + 1e-12

    @staticmethod
    def _phased_permutation(d: int, gen: np.random.Generator) -> np.ndarray:
        """D P: a random permutation followed by random diagonal phases."""
        phases = np.exp(2j * np.pi * gen.uniform(size=d))
        return phases[:, None] * np.eye(d)[gen.permutation(d)]

    def _assert_same_robustness(self, pairs, dtypes):
        """Solve each (rho, spec), check its arithmetic and certificates, and
        require the certified intervals to share a point."""
        lower, upper = -np.inf, np.inf
        for (rho, spec), dtype in zip(pairs, dtypes, strict=True):
            assert _Program.from_spec(rho, spec).rho.dtype == dtype
            res = robustness_dual(rho, spec)
            assert res.status == CONVERGED
            assert res.witness.dtype == np.complex128
            assert_certified(res, rho, spec)
            lower, upper = max(lower, res.lower_bound), min(upper, res.upper_bound)
        assert lower <= upper + 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_stabilizer_point_order_keeps_robustness(self, n, seed):
        # R is a function of the hull, not of the order its extreme points are listed in:
        # stabilizer(n) and a finite hull of the same points, shuffled, share a point of
        # their certified intervals for a Haar, a Ginibre and the |T>^n state
        gen = np.random.default_rng(seed)
        spec = stabilizer_set(n)
        shuffled = finite_hull([spec.vectors[k] for k in gen.permutation(spec.n_points)])
        for rho in (projector(random_pure_state(spec.dim, gen)),
                    random_density_matrix(spec.dim, gen), projector(t_state(n))):
            self._assert_same_robustness([(rho, spec), (rho, shuffled)], [np.complex128] * 2)

    @settings(max_examples=20, deadline=None)
    @given(d=st.integers(2, 16), seed=st.integers(0, 2**32 - 1))
    def test_incoherent_point_order_keeps_robustness(self, d, seed):
        # the same for incoherent(d) against its basis in a random order
        gen = np.random.default_rng(seed)
        spec = incoherent_set(d)
        shuffled = finite_hull([spec.vectors[k] for k in gen.permutation(d)])
        for rho in (projector(random_pure_state(d, gen)), random_density_matrix(d, gen)):
            self._assert_same_robustness([(rho, spec), (rho, shuffled)], [np.complex128] * 2)

    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(2, 16), seed=st.integers(0, 2**32 - 1))
    def test_phased_permutation_keeps_coherence_robustness(self, d, seed):
        # D P maps incoherent states onto incoherent states, so R(rho) is
        # invariant under rho -> D P rho P^T D^dag (Baumgratz et al., PRL 113,
        # 140401, 2014).  A real rho is solved in real arithmetic and its image
        # in complex arithmetic, so this also cross-checks the two dtypes.
        gen = np.random.default_rng(seed)
        G = gen.normal(size=(d, d))
        rho = G @ G.T / np.trace(G @ G.T)
        U = self._phased_permutation(d, gen)
        spec = incoherent_set(d)
        self._assert_same_robustness([(rho, spec), (U @ rho @ U.conj().T, spec)],
                                     [np.float64, np.complex128])

    def test_phased_permutation_of_real_hull(self):
        # 12 real extreme points in d = 3 exceed r^2 = 9, so both programs take
        # the witness route; rotating the state and the hull by one unitary
        # keeps R
        gen = np.random.default_rng(SEEDS["solver"])
        vecs = gen.normal(size=(12, 3))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        G = gen.normal(size=(3, 3))
        rho = G @ G.T / np.trace(G @ G.T)
        U = self._phased_permutation(3, gen)
        pairs = [(rho, finite_hull(list(vecs))),
                 (U @ rho @ U.conj().T, finite_hull(list(vecs @ U.T)))]
        assert all(spec.n_points > spec.dim**2 for _, spec in pairs)
        self._assert_same_robustness(pairs, [np.float64, np.complex128])

    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(2, 16), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["golden", "ginibre", "flat residual"]))
    def test_phased_points_keep_every_recheck(self, d, seed, kind):
        # e^{i theta_k}|k> leaves every sigma_k = |k><k| as it is, but its array is complex, so the
        # phased copy of incoherent(d) is solved and rechecked in complex arithmetic and the
        # float64 set in real arithmetic: every recheck agrees to rounding, every solve's status
        # too, and the intervals agree to rounding where no iteration runs, else share a point
        gen = np.random.default_rng(seed)
        spec = incoherent_set(d)
        phases = np.exp(2j * np.pi * gen.uniform(size=d))
        phased = FreeSet("incoherent", d, vectors=tuple(phases * np.eye(d)))
        assert phased.points.dtype == np.complex128
        if kind == "ginibre":
            G = gen.normal(size=(d, d))
            rho = G @ G.T / np.trace(G @ G.T)
        else:
            rho = projector(golden_state(d))
            rho = rho if kind == "golden" else _residual(golden_state(d), gen.uniform(0.05, 0.95))
        res, ref = robustness_dual(rho, spec), robustness_dual(rho, phased)
        assert res.status == ref.status == CONVERGED
        assert max(res.lower_bound, ref.lower_bound) <= min(res.upper_bound, ref.upper_bound) + 1e-12
        if res.newton_iterations == ref.newton_iterations == 0:
            assert res.lower_bound == pytest.approx(ref.lower_bound, rel=1e-12, abs=1e-12)
            assert res.upper_bound == pytest.approx(ref.upper_bound, rel=1e-12, abs=1e-12)
        Z = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))  # Re Tr[Z sigma] for any Z
        for Y in (res.witness, ref.witness, random_hermitian(d, gen), Z):
            scale = np.abs(Y).max()
            assert np.abs(witness_constraints(Y, spec)
                          - witness_constraints(Y, phased)).max() <= 1e-12 * scale
        for W in (res.witness, ref.witness):
            assert witness_is_feasible(W, spec) is witness_is_feasible(W, phased) is True
        for q in (res.primal_weights, ref.primal_weights):
            assert np.abs(primal_slack(q, rho, spec)
                          - primal_slack(q, rho, phased)).max() <= 1e-12 * max(1.0, q.max())

    @settings(max_examples=25, deadline=None)
    @given(d=st.integers(2, 5), ranks=st.tuples(st.integers(1, 5), st.integers(1, 5)),
           p=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_robustness_is_convex(self, d, ranks, p, seed):
        # R(p rho + (1-p) sigma) <= p R(rho) + (1-p) R(sigma): a convex
        # combination of the two optimal decompositions decomposes the mixture
        # (Napoli et al., PRL 116, 150502, 2016).  The lower end of the
        # mixture's interval must stay below the upper ends' combination.
        gen = np.random.default_rng(seed)
        rho, sigma = (random_density_matrix(d, gen, rank=min(r, d)) for r in ranks)
        spec = incoherent_set(d)
        mix, a, b = (robustness_dual(x, spec) for x in (p * rho + (1 - p) * sigma, rho, sigma))
        assert mix.lower_bound <= p * a.upper_bound + (1 - p) * b.upper_bound + 1e-12

    @settings(max_examples=30, deadline=None)
    @given(spec=st.sampled_from([*map(incoherent_set, range(2, 6)), *map(stabilizer_set, (1, 2))]),
           p=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_mixing_with_a_free_state_never_raises_robustness(self, spec, p, seed, data):
        # rho + s gamma = (1 + s) tau gives p rho + (1-p) sigma + p s gamma =
        # (1 + p s) (a free mixture) for free sigma, so R(p rho + (1-p) sigma)
        # <= p R(rho): the mixture's lower end stays below p times rho's upper end
        gen = np.random.default_rng(seed)
        rho = random_density_matrix(spec.dim, gen, rank=int(gen.integers(1, spec.dim + 1)))
        k = data.draw(st.integers(0, spec.n_points))  # n_points stands for I/d
        sigma = (spec.density_matrices() + [maximally_mixed(spec.dim)])[k]
        mix, base = (robustness_dual(x, spec) for x in (p * rho + (1 - p) * sigma, rho))
        assert mix.lower_bound <= p * base.upper_bound + 1e-12

    @settings(max_examples=20, deadline=None)
    @given(dims=st.tuples(st.integers(2, 4), st.integers(2, 4)), seed=st.integers(0, 2**32 - 1))
    def test_product_witness_bounds_tensor_robustness(self, dims, seed):
        # Y1 (x) Y2 is dual feasible for incoherent(d1 d2), so 1 + R(rho (x) sigma)
        # >= (1 + R(rho)) (1 + R(sigma)) (Regula, J. Phys. A 51, 045303, 2018):
        # the product of the lower ends must stay below the upper end of the product
        gen = np.random.default_rng(seed)
        rho, sigma = (random_density_matrix(d, gen, rank=int(gen.integers(1, d + 1)))
                      for d in dims)
        a = robustness_dual(rho, incoherent_set(dims[0]))
        b = robustness_dual(sigma, incoherent_set(dims[1]))
        ab = robustness_dual(np.kron(rho, sigma), incoherent_set(dims[0] * dims[1]))
        assert (1 + a.lower_bound) * (1 + b.lower_bound) <= 1 + ab.upper_bound + 1e-12


# pure-only hulls take the matrix-product path; the mixed hull adds the tensordot one
RECHECK_SPECS = [
    incoherent_set(4),
    stabilizer_set(2),
    finite_hull([basis_state(2, 0), random_density_matrix(2, np.random.default_rng(1)),
                 maximally_mixed(2), random_pure_state(2, np.random.default_rng(2))]),
]


def loop_primal_slack(weights, rho, spec):
    """Reference: the plain sum  sum_k w_k sigma_k - rho, one extreme point at a time."""
    S = -np.asarray(rho, dtype=complex)
    for w, sigma in zip(weights, spec.density_matrices()):
        S = S + w * sigma
    return 0.5 * (S + S.conj().T)


class TestRechecks:
    @settings(max_examples=60, deadline=None)
    @given(spec=st.sampled_from(RECHECK_SPECS), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_primal_slack_matches_plain_sum(self, spec, seed, data):
        weights = data.draw(st.lists(st.floats(0.0, 1.0), min_size=spec.n_points,
                                     max_size=spec.n_points))
        rho = random_density_matrix(spec.dim, np.random.default_rng(seed))
        S = primal_slack(weights, rho, spec)
        assert np.abs(S - loop_primal_slack(weights, rho, spec)).max() <= 1e-12
        assert np.array_equal(S, S.conj().T)

    def test_primal_slack_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            primal_slack(np.ones(3), maximally_mixed(4), incoherent_set(4))

    @pytest.mark.parametrize("call, name", [
        (lambda spec: witness_is_feasible(np.eye(3), spec), "witness"),
        (lambda spec: witness_constraints(np.eye(3), spec), "witness"),
        (lambda spec: primal_slack(np.ones(2), np.eye(3) / 3, spec), "rho"),
    ], ids=["witness_is_feasible", "witness_constraints", "primal_slack"])
    def test_operator_of_the_wrong_shape_names_its_argument(self, call, name):
        with pytest.raises(ValueError, match=rf"^{name} has shape \(3, 3\), expected \(2, 2\) "
                                             r"for free set incoherent\(d=2, m=2\)$"):
            call(incoherent_set(2))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entries", [(0, 0), (0, 1), slice(None)],
                             ids=["diagonal", "off-diagonal", "everywhere"])
    def test_non_finite_witness_is_infeasible_without_arithmetic(self, value, entries):
        witness = np.eye(2, dtype=complex)
        witness[entries] = value
        assert witness_is_feasible(witness, incoherent_set(2)) is False

    @pytest.mark.parametrize("spec", RECHECK_SPECS[:2], ids=["incoherent4", "stabilizer2"])
    def test_witness_constraints_match_program_bitwise(self, spec):
        # full-rank hulls are not compressed, so both paths see the same points
        prog = _Program.from_spec(maximally_mixed(spec.dim), spec)
        assert prog.basis is None
        for _ in range(3):
            Y = random_hermitian(spec.dim, rng)
            assert np.array_equal(witness_constraints(Y, spec), prog.constraint_values(Y))


# pure points given as vectors next to a mixed point: both layouts in one hull
MIXED_HULLS = [
    finite_hull([*stabilizer_set(1).vectors, random_density_matrix(2, np.random.default_rng(11))]),
    finite_hull([*incoherent_set(3).vectors, maximally_mixed(3)]),
]


class TestMixedHulls:
    @pytest.mark.parametrize("spec", MIXED_HULLS, ids=["stabilizer1-ginibre", "incoherent3-flat"])
    def test_rechecks_match_a_loop_over_density_matrices(self, spec):
        gen = np.random.default_rng(spec.n_points)
        sigmas = spec.density_matrices()
        for _ in range(3):
            Y = random_hermitian(spec.dim, gen)
            loop = [np.trace(Y @ sigma).real for sigma in sigmas]
            assert np.abs(witness_constraints(Y, spec) - loop).max() <= 1e-12
            weights, rho = gen.uniform(size=spec.n_points), random_density_matrix(spec.dim, gen)
            assert np.abs(primal_slack(weights, rho, spec)
                          - loop_primal_slack(weights, rho, spec)).max() <= 1e-12
            c, y, psi = 1.5, random_pure_state(spec.dim, gen), random_pure_state(spec.dim, gen)
            loop = [c * np.vdot(y, sigma @ y).real for sigma in sigmas]
            assert np.abs(thermo.rank1_summary(c, y, psi, spec).constraints - loop).max() <= 1e-12

    @pytest.mark.parametrize("spec", MIXED_HULLS, ids=["stabilizer1-ginibre", "incoherent3-flat"])
    def test_solve_agrees_with_the_all_matrix_hull(self, spec):
        rho = random_density_matrix(spec.dim, np.random.default_rng(spec.dim))
        res = robustness_dual(rho, spec)
        assert res.status == CONVERGED and len(res.primal_weights) == spec.n_points
        assert_certified(res, rho, spec)
        ref = robustness_dual(rho, finite_hull(spec.density_matrices()))
        assert max(res.lower_bound, ref.lower_bound) <= min(res.upper_bound, ref.upper_bound) + 1e-12
