import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustwork.freesets import finite_hull, incoherent_set, stabilizer_set
from robustwork.linalg import (
    INF_BETA,
    gibbs_state,
    maximally_mixed,
    projector,
    tensor_power,
    trace_inner,
    von_neumann_entropy,
)
from robustwork import thermo
from robustwork.solver import (
    DEFAULT_MAX_NEWTON,
    DEFAULT_TOL,
    RobustnessResult,
    _tstate_profiles,
    _twirled_dual,
    primal_slack,
    pure_coherence_witness,
    robustness_dual,
    tstate_magic_witness,
    witness_is_feasible,
)
from robustwork.states import (
    PAULI_Z,
    basis_state,
    golden_state,
    random_density_matrix,
    random_hermitian,
    random_pure_state,
    t_state,
)
from robustwork.thermo import (
    ThermoContext,
    corollary1_bound,
    extractable_work,
    free_energy,
    corollary1_report,
    eq10_report,
    max_free_extractable_work,
    rank1_summary,
    require_maximally_mixed,
    residual_thermal_closed_form,
    simulate_protocol,
    theorem1_bound,
    theorem1_precondition,
    theorem1_report,
    theorem2_at_weight,
    verify_eq10_ratio,
    verify_theorem1,
    verify_theorem2,
    verify_xi_cost,
    witness_summary,
    work_cost,
)

from conftest import SEEDS

rng = np.random.default_rng(SEEDS["thermo"])


def random_psd_witness(d, generator):
    A = random_hermitian(d, generator)
    W = A @ A.conj().T
    return W / np.linalg.eigvalsh(W)[-1]


class TestFreeEnergy:
    def test_pure_state_is_energy(self):
        psi = random_pure_state(3, rng)
        H = random_hermitian(3, rng)
        expected = np.vdot(psi, H @ psi).real
        assert free_energy(projector(psi), H, beta=0.7) == pytest.approx(expected, abs=1e-9)

    def test_uniform_state_zero_hamiltonian(self):
        for d, beta in ((2, 1.0), (4, 0.3)):
            val = free_energy(maximally_mixed(d), np.zeros((d, d)), beta)
            assert val == pytest.approx(-math.log(d) / beta, abs=1e-12)

    def test_gibbs_free_energy_is_log_partition(self):
        # oracle: -ln Z / beta from the eigenvalue sum
        H = random_hermitian(5, rng)
        beta = 1.7
        tau = gibbs_state(H, beta)
        z = np.exp(-beta * np.linalg.eigvalsh(H)).sum()
        assert free_energy(tau, H, beta) == pytest.approx(-math.log(z) / beta, abs=1e-9)

    def test_beta_zero_rejected(self):
        with pytest.raises(ValueError):
            free_energy(maximally_mixed(2), np.eye(2), beta=0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            free_energy(maximally_mixed(2), np.eye(3), beta=1.0)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            free_energy(maximally_mixed(2), np.eye(2), beta=-1.0)


class TestSummaryGibbs:
    @pytest.mark.parametrize("beta", [INF_BETA, 0.7])
    def test_summary_gibbs_matches_gibbs_state(self, beta):
        # a doubly degenerate ground level: at beta = inf tau is uniform on it
        U = np.linalg.qr(random_hermitian(4, rng) + 1j * np.eye(4))[0]
        Y = U @ np.diag([0.5, 0.5, 1.5, 3.0]) @ U.conj().T
        ctx = ThermoContext(beta=beta, lam=2.0)
        tau = gibbs_state(ctx.lam * Y, beta)
        S_tau = von_neumann_entropy(tau)
        F_tau = trace_inner(ctx.lam * Y, tau) - (0.0 if beta == INF_BETA else S_tau / beta)
        got_F, got_S = witness_summary(Y).gibbs(ctx)
        assert got_S == pytest.approx(S_tau, abs=1e-12)
        assert got_F == pytest.approx(F_tau, abs=1e-12)
        if beta == INF_BETA:
            assert got_S == pytest.approx(math.log(2.0), abs=1e-12)


class TestWork:
    def test_thermal_state_gives_zero(self):
        H = random_hermitian(4, rng)
        tau = gibbs_state(H, beta=2.0)
        assert extractable_work(tau, H, beta=2.0) == pytest.approx(0.0, abs=1e-9)

    def test_golden_state_zero_temperature(self):
        d, lam = 4, 1.5
        psi = golden_state(d)
        H = lam * d * projector(psi)
        assert extractable_work(projector(psi), H, INF_BETA) == pytest.approx(lam * d, abs=1e-9)

    def test_nonnegative_on_random_inputs(self):
        for _ in range(100):
            d = int(rng.integers(2, 5))
            rho = random_density_matrix(d, rng)
            H = random_hermitian(d, rng)
            beta = float(rng.uniform(0.1, 10.0))
            assert extractable_work(rho, H, beta) >= 0.0

    def test_cost_equals_extractable_functional(self):
        rho = random_density_matrix(3, rng)
        H = random_hermitian(3, rng)
        assert work_cost(rho, H, 1.1) == extractable_work(rho, H, 1.1)

    def test_t_state_under_magic_witness(self):
        # energy part is lam*(4 - 2 sqrt 2); the Gibbs free energy comes from
        # the two-level spectrum {0, lam*(4 - 2 sqrt 2)}
        lam, beta = 3.0, 0.7
        H = lam * tstate_magic_witness(1)
        gap = lam * (4.0 - 2.0 * math.sqrt(2.0))
        f_tau = -math.log(1.0 + math.exp(-beta * gap)) / beta
        expected = gap - f_tau
        got = extractable_work(projector(t_state(1)), H, beta)
        assert got == pytest.approx(expected, abs=1e-10)


class TestMaxFreeWork:
    def test_witness_hamiltonian_capped_by_lambda(self):
        lam = 3.0
        spec = stabilizer_set(1)
        H = lam * tstate_magic_witness(1)
        value, _ = max_free_extractable_work(spec, H, INF_BETA)
        assert value <= lam + 1e-9

    def test_zero_hamiltonian(self):
        # at zero temperature every state is thermal for H = 0; at finite
        # beta a pure free state still yields ln(d)/beta from its entropy
        value, idx = max_free_extractable_work(incoherent_set(3), np.zeros((3, 3)), INF_BETA)
        assert value == pytest.approx(0.0, abs=1e-9)
        assert idx == 0  # ties break to the lowest index
        finite, _ = max_free_extractable_work(incoherent_set(3), np.zeros((3, 3)), beta=2.0)
        assert finite == pytest.approx(math.log(3) / 2.0, abs=1e-9)

    def test_two_level_scan(self):
        # highest-energy basis state wins for H = diag(0, E)
        H = np.diag([0.0, 2.0]).astype(complex)
        value, idx = max_free_extractable_work(incoherent_set(2), H, beta=1.0)
        assert idx == 1
        expected = extractable_work(projector(basis_state(2, 1)), H, 1.0)
        assert value == pytest.approx(expected, abs=1e-10)


class TestTheorem1Bound:
    def test_zero_temperature(self):
        ctx = ThermoContext(beta=INF_BETA, lam=1.0)
        assert theorem1_bound(3.0, 0.4, 1.2, ctx) == 4.0

    def test_pure_state_form(self):
        ctx = ThermoContext(beta=2.0, lam=5.0)
        R, S_tau = 1.5, 0.8
        expected = 1 + R / (1 + S_tau / 10.0)
        assert theorem1_bound(R, 0.0, S_tau, ctx) == pytest.approx(expected, abs=1e-12)

    def test_precondition(self):
        ctx = ThermoContext(beta=1.0, lam=1.0)
        assert theorem1_precondition(1.0, 0.5, ctx)
        assert not theorem1_precondition(0.1, 0.5, ctx)
        assert not theorem1_precondition(0.0, 0.5, ctx)  # unsatisfiable at zero robustness
        assert theorem1_precondition(0.1, 0.5, ThermoContext(beta=INF_BETA, lam=1.0))


class TestProtocol:
    def test_thermal_input_extracts_nothing(self):
        ctx = ThermoContext(beta=1.0, lam=2.0)
        W = random_psd_witness(3, rng)
        tau = gibbs_state(ctx.lam * W, ctx.beta)
        trace = simulate_protocol(tau, W, ctx)
        assert trace.total == pytest.approx(0.0, abs=1e-9)

    def test_golden_state_zero_temperature_total(self):
        d, lam = 4, 2.5
        ctx = ThermoContext(beta=INF_BETA, lam=lam)
        psi = golden_state(d)
        trace = simulate_protocol(projector(psi), d * projector(psi), ctx)
        assert trace.total == pytest.approx(lam * d, abs=1e-9)

    def test_two_tstate_total(self):
        ctx = ThermoContext(beta=1.0, lam=50.0)
        W = tstate_magic_witness(2)
        rho = projector(t_state(2))
        trace = simulate_protocol(rho, W, ctx)
        expected = extractable_work(rho, ctx.lam * W, ctx.beta)
        assert trace.total == pytest.approx(expected, abs=1e-9)

    def test_bookkeeping_random(self):
        for _ in range(50):
            d = int(rng.integers(2, 5))
            rho = random_density_matrix(d, rng)
            W = random_psd_witness(d, rng)
            beta = float(rng.choice([0.5, 1.0, 4.0]))
            ctx = ThermoContext(beta=beta, lam=float(rng.uniform(0.5, 20.0)))
            trace = simulate_protocol(rho, W, ctx)
            assert trace.dw_b == 0.0
            assert trace.dw_a + trace.dw_d == 0.0
            assert trace.total == pytest.approx(
                extractable_work(rho, ctx.lam * W, beta), abs=1e-9
            )

    def test_rejects_non_psd_witness(self):
        ctx = ThermoContext(beta=1.0, lam=1.0)
        with pytest.raises(ValueError):
            simulate_protocol(maximally_mixed(2), np.diag([1.0, -0.5]).astype(complex), ctx)


class TestAdvantageChecks:
    def test_eq10_golden_d8(self):
        d = 8
        ctx = ThermoContext(beta=1.0, lam=1e4)
        rep = verify_eq10_ratio(projector(golden_state(d)), incoherent_set(d), ctx,
                                witness=d * projector(golden_state(d)))
        assert rep.precondition_met and rep.satisfied
        assert rep.lhs >= d * 0.95

    def test_eq10_free_state_trivial(self):
        ctx = ThermoContext(beta=1.0, lam=1e4)
        rep = verify_eq10_ratio(projector(basis_state(2, 0)), incoherent_set(2), ctx)
        assert rep.rhs == pytest.approx(0.95, abs=1e-6)
        assert rep.satisfied

    def test_eq10_t_state(self):
        ctx = ThermoContext(beta=1.0, lam=1e4)
        rep = verify_eq10_ratio(projector(t_state(1)), stabilizer_set(1), ctx,
                                witness=tstate_magic_witness(1))
        assert rep.satisfied
        assert rep.lhs >= 1.1715 * 0.95

    def test_eq10_precondition_guard(self):
        ctx = ThermoContext(beta=1.0, lam=1.0)  # lambda*beta far below 100 ln d
        rep = verify_eq10_ratio(projector(golden_state(2)), incoherent_set(2), ctx)
        assert not rep.precondition_met

    def test_theorem1_with_sdp_witness(self):
        rho = projector(golden_state(4))
        spec = incoherent_set(4)
        ctx = ThermoContext(beta=1.0, lam=1e4 * math.log(4))
        rep = verify_theorem1(rho, spec, ctx)
        assert rep.precondition_met
        assert rep.lhs >= rep.rhs - 1e-6

    def test_theorem1_grid_over_named_states(self):
        # achieved ratio >= bound - 1e-6 at lambda*beta in {1e2, 1e3, 1e4} ln d
        cases = []
        for d in (2, 4, 8):
            psi = golden_state(d)
            cases.append((projector(psi), incoherent_set(d), d * projector(psi), d))
        for n in (1, 2):
            cases.append((projector(t_state(n)), stabilizer_set(n),
                          tstate_magic_witness(n), 2**n))
        for rho, spec, W, d in cases:
            for factor in (1e2, 1e3, 1e4):
                ctx = ThermoContext(beta=1.0, lam=factor * math.log(d))
                rep = verify_theorem1(rho, spec, ctx, witness=W)
                assert rep.precondition_met
                assert rep.lhs >= rep.rhs - 1e-6

    def test_theorem1_monotone_in_lambda_beta(self):
        rho = projector(golden_state(4))
        spec = incoherent_set(4)
        W = 4 * projector(golden_state(4))
        prev = -math.inf
        for lam in (1e2, 1e3, 1e4, 1e5):
            rep = verify_theorem1(rho, spec, ThermoContext(beta=1.0, lam=lam), witness=W)
            assert rep.lhs >= prev - 1e-9
            prev = rep.lhs

    def test_xi_cost_zero_temperature(self):
        d = 8
        ctx = ThermoContext(beta=INF_BETA, lam=3.0)
        rep = verify_xi_cost(projector(golden_state(d)), incoherent_set(d), ctx,
                             witness=d * projector(golden_state(d)))
        assert rep.satisfied
        assert rep.lhs <= 1.0 / d + 1e-9
        assert rep.rhs == pytest.approx(1.0 / d, abs=1e-9)

    def test_corollary1_values(self):
        ctx = ThermoContext(beta=INF_BETA, lam=1.0)
        assert corollary1_bound(1.0, 0.0, 0.0, ctx) == 0.5
        assert corollary1_bound(0.0, 0.0, 0.0, ctx) == 1.0


class TestResidualThermal:
    def test_high_temperature_limit(self):
        ctx = ThermoContext(beta=1e-9, lam=1.0)
        tau = residual_thermal_closed_form(golden_state(4), 4.0, ctx, 4)
        assert np.abs(tau - maximally_mixed(4)).max() < 1e-8

    def test_zero_temperature_limit(self):
        ctx = ThermoContext(beta=INF_BETA, lam=1.0)
        y = golden_state(4)
        tau = residual_thermal_closed_form(y, 4.0, ctx, 4)
        expected = (np.eye(4) - projector(y)) / 3.0
        assert np.abs(tau - expected).max() < 1e-12

    def test_matches_gibbs_entrywise(self):
        y = random_pure_state(4, rng)
        for beta, lam, c in ((1.0, 1.0, 1.0), (0.25, 2.0, 3.0), (INF_BETA, 1.0, 2.0)):
            ctx = ThermoContext(beta=beta, lam=lam)
            tau1 = residual_thermal_closed_form(y, c, ctx, 4)
            tau2 = gibbs_state(lam * c * projector(y), beta)
            assert np.abs(tau1 - tau2).max() < 1e-10

    def test_two_outcome_eigenvalues(self):
        # beta*lam*c = 1, d = 2, y = |+>: eigenvalues e^-1/(1+e^-1), 1/(1+e^-1)
        ctx = ThermoContext(beta=1.0, lam=1.0)
        tau = residual_thermal_closed_form(golden_state(2), 1.0, ctx, 2)
        w = np.linalg.eigvalsh(tau)
        e = math.exp(-1.0)
        assert w[0] == pytest.approx(e / (1 + e), abs=1e-12)
        assert w[1] == pytest.approx(1 / (1 + e), abs=1e-12)


class TestTheorem2:
    @pytest.mark.parametrize("blc", [0.1, 1.0, INF_BETA])
    def test_qubit_stabilizer(self, blc):
        c = 4 - 2 * math.sqrt(2)
        beta = 1.0 if blc != INF_BETA else INF_BETA
        lam = blc / c if blc != INF_BETA else 1.0
        ctx = ThermoContext(beta=beta, lam=lam)
        rep = verify_theorem2(t_state(1), c, ctx, 2, stabilizer_set(1))
        assert rep.satisfied
        assert rep.lhs <= 1.0 + 1e-7

    def test_incoherent_d4(self):
        ctx = ThermoContext(beta=1.0, lam=10.0 / 4.0)
        rep = verify_theorem2(golden_state(4), 4.0, ctx, 4, incoherent_set(4))
        assert rep.satisfied
        assert rep.lhs <= 1.0 / 3.0 + 1e-7

    @pytest.mark.parametrize("d", [4, 8, 16, 32, 64])
    def test_golden_equality_case(self, d):
        # at beta = inf (a = 1) the residual (I - |g><g|)/(d - 1) of a golden
        # state meets theorem 2 with equality, R = 1/(d - 1); the certified
        # interval itself must hold that value
        g = golden_state(d)
        rho = (np.eye(d) - np.outer(g, g.conj())) / (d - 1)
        res = robustness_dual(rho, incoherent_set(d))
        assert res.status == "converged"
        assert res.lower_bound <= 1.0 / (d - 1) <= res.upper_bound

    def test_zero_coupling_leaves_no_resource(self):
        ctx = ThermoContext(beta=1e-12, lam=1.0)
        rep = verify_theorem2(golden_state(2), 2.0, ctx, 2, incoherent_set(2))
        assert rep.lhs <= 1e-6

    def test_rejects_hull_without_maximally_mixed(self):
        from robustwork.freesets import finite_hull

        ctx = ThermoContext(beta=1.0, lam=1.0)
        bad = finite_hull([basis_state(2, 0)])
        with pytest.raises(ValueError):
            verify_theorem2(golden_state(2), 2.0, ctx, 2, bad)

    def test_require_maximally_mixed_rejects(self):
        from robustwork.freesets import finite_hull

        plus = (basis_state(2, 0) + basis_state(2, 1)) / np.sqrt(2)
        with pytest.raises(ValueError, match="maximally mixed"):
            require_maximally_mixed(finite_hull([basis_state(2, 0), plus]), 2)
        with pytest.raises(ValueError, match="dimension 2, expected 4"):
            require_maximally_mixed(incoherent_set(2), 4)
        require_maximally_mixed(incoherent_set(4), 4)


    def test_midpoint_inside_upper_end_outside_fails(self, monkeypatch):
        # the claim is R <= 1/(d-1): only the upper end of the interval proves it
        d = 4
        fake = RobustnessResult(value=1.0 / 3.0, witness=np.eye(d, dtype=complex),
                                primal_weights=None, gap=2e-3, status="converged",
                                lower_bound=1.0 / 3.0 - 1e-3, upper_bound=1.0 / 3.0 + 1e-3,
                                newton_iterations=0)
        monkeypatch.setattr(thermo, "robustness_dual", lambda *args, **kwargs: fake)
        rep = theorem2_at_weight(golden_state(d), 1.0, d, incoherent_set(d))
        assert rep.lhs == fake.upper_bound
        assert rep.satisfied is False


class TestTwirlReduction:
    """Theorem 2's |T>^n residuals are solved over the stabilizer profiles
    (solver docstring); the lifted certificates must hold in the full space."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("a", [0.5, 0.9, 1.0])
    def test_reduced_solve_matches_full_solve(self, n, a):
        d, spec = 2**n, stabilizer_set(n)
        rho = thermo._residual_state(t_state(n), a, d)
        red = _twirled_dual(rho, t_state(n), spec, DEFAULT_TOL, DEFAULT_MAX_NEWTON)
        full = robustness_dual(rho, spec)
        assert red.status == full.status == "converged"
        assert max(red.lower_bound, full.lower_bound) <= min(red.upper_bound, full.upper_bound)
        assert red.gap <= DEFAULT_TOL * max(1.0, red.upper_bound)  # the lift keeps it closed
        assert witness_is_feasible(red.witness, spec)
        assert trace_inner(red.witness, rho) - 1.0 == pytest.approx(red.lower_bound, abs=1e-12)
        assert red.primal_weights.shape == (spec.n_points,) and red.primal_weights.min() >= 0.0
        assert red.primal_weights.sum() - 1.0 == pytest.approx(red.upper_bound, abs=1e-12)
        assert np.linalg.eigvalsh(primal_slack(red.primal_weights, rho, spec))[0] >= -1e-9

    @pytest.mark.parametrize("n, rows", [(1, 3), (2, 9), (3, 28)])
    def test_profile_table(self, n, rows):
        V, classes, hull, index, counts = _tstate_profiles(n)
        assert hull.n_points == rows == len(counts)
        assert np.bincount(index).tolist() == counts.tolist()
        assert np.allclose(V[:, 0], t_state(n))
        # P_j = V diag(classes[:, j]) V^dag: each profile is (Tr[P_j sigma])_j
        P = [(V * classes[:, j]) @ V.conj().T for j in range(n + 1)]
        for k in range(0, stabilizer_set(n).n_points, 7):
            sigma = projector(stabilizer_set(n).vectors[k])
            profile = [trace_inner(Pj, sigma) for Pj in P]
            assert np.allclose(np.diag(hull.matrices[index[k]]).real, profile, atol=1e-12)

    @staticmethod
    def other_pairs(n):
        """(y, free set) pairs the twirl does not apply to."""
        d, spec = 2**n, stabilizer_set(n)
        return [
            (tensor_power(PAULI_Z @ t_state(1), n), spec),  # |T^perp>^n
            (random_pure_state(d, np.random.default_rng(SEEDS["thermo"] + n)), spec),
            (t_state(n), finite_hull(spec.vectors)),
        ]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dispatch_takes_the_reduced_route_only_for_t_states(self, n, monkeypatch):
        reduced = []

        def spy(*args, **kwargs):
            result = _twirled_dual(*args, **kwargs)
            if result is not None:
                reduced.append(len(args[1]))
            return result

        monkeypatch.setattr(thermo, "_twirled_dual", spy)
        d, spec = 2**n, stabilizer_set(n)
        theorem2_at_weight(np.exp(0.3j) * t_state(n), 1.0, d, spec)
        assert reduced == [d]
        for y, free in self.other_pairs(n):
            theorem2_at_weight(y, 1.0, d, free)
        assert reduced == [d]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_twirl_declines_other_pairs(self, n):
        for y, free in self.other_pairs(n):
            rho = thermo._residual_state(y, 1.0, 2**n)
            assert _twirled_dual(rho, y, free, DEFAULT_TOL, DEFAULT_MAX_NEWTON) is None


def state_reports(summary, ctx):
    return (theorem1_report(summary, ctx), eq10_report(summary, ctx),
            corollary1_report(summary, ctx))


def assert_reports_close(got, want, rel):
    for a, b in zip(got, want):
        assert (a.label, a.direction, a.satisfied, a.precondition_met) == \
            (b.label, b.direction, b.satisfied, b.precondition_met)
        assert a.detail.keys() == b.detail.keys()
        for x, y in [(a.lhs, b.lhs), (a.rhs, b.rhs), (a.slack, b.slack)] + \
                [(a.detail[k], b.detail[k]) for k in a.detail]:
            assert x == pytest.approx(y, rel=rel, abs=1e-12)


LAMBDAS = st.floats(0.1, 1e4)
BETAS = st.one_of(st.just(INF_BETA), st.floats(0.1, 100.0))


class TestWitnessSummary:
    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(2, 12), seed=st.integers(0, 2**32 - 1), lam=LAMBDAS, beta=BETAS)
    def test_rank1_closed_form_matches_eigh(self, d, seed, lam, beta):
        psi = random_pure_state(d, np.random.default_rng(seed))
        spec = incoherent_set(d)
        c, y = pure_coherence_witness(psi)
        ctx = ThermoContext(beta=beta, lam=lam)
        closed = rank1_summary(c, y, psi, spec)
        dense = witness_summary(c * projector(y), projector(psi), spec)
        assert_reports_close(state_reports(closed, ctx), state_reports(dense, ctx), rel=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(2, 6), seed=st.integers(0, 2**32 - 1), lam=LAMBDAS, beta=BETAS)
    def test_free_unitary_invariance(self, d, seed, lam, beta):
        # a permutation with phases maps the incoherent set onto itself, so
        # applying it to both rho and Y leaves every report unchanged
        g = np.random.default_rng(seed)
        rho = random_density_matrix(d, g)
        W = random_psd_witness(d, g)
        U = np.eye(d)[g.permutation(d)] * np.exp(2j * np.pi * g.random(d))
        spec, ctx = incoherent_set(d), ThermoContext(beta=beta, lam=lam)
        moved = witness_summary(U @ W @ U.conj().T, U @ rho @ U.conj().T, spec)
        assert_reports_close(state_reports(moved, ctx),
                             state_reports(witness_summary(W, rho, spec), ctx), rel=1e-9)

    def test_unenumerable_free_set_is_tight(self):
        c, psi = 4.0 - 2.0 * math.sqrt(2.0), t_state(1)
        closed = rank1_summary(c, psi, psi, None)
        full = rank1_summary(c, psi, psi, stabilizer_set(1))
        assert closed.constraints.tolist() == [1.0]
        assert full.constraints.max() == pytest.approx(1.0, abs=1e-12)
        for beta in (1.0, INF_BETA):
            ctx = ThermoContext(beta=beta, lam=100.0)
            assert theorem1_report(closed, ctx).lhs == pytest.approx(
                theorem1_report(full, ctx).lhs, rel=1e-12)
