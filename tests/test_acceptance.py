"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
summary lines stream).  Every tolerance is pinned in the assertions below.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from robustwork.channels import (
    apply_channel,
    apply_via_choi,
    channel_robustness_lower,
    choi_state,
    make_channel,
    theorem3_bound,
    theorem4_bound,
    unitary_channel,
)
from robustwork.freesets import (
    enumerate_stabilizer_states,
    finite_hull,
    incoherent_set,
    stabilizer_set,
    stabilizer_state_count,
)
from robustwork.linalg import INF_BETA, gibbs_state, projector, trace_inner
from robustwork.solver import (
    primal_slack,
    robustness_dual,
    robustness_pure_coherence,
    tstate_magic_robustness,
    tstate_magic_witness,
    witness_is_feasible,
)
from robustwork.states import (
    HADAMARD,
    T_GATE,
    golden_state,
    random_density_matrix,
    random_hermitian,
    random_pure_state,
    t_state,
)
from robustwork.thermo import (
    ThermoContext,
    extractable_work,
    residual_thermal_closed_form,
    simulate_protocol,
    verify_eq10_ratio,
    verify_theorem1,
    verify_theorem2,
    verify_xi_cost,
)

from conftest import SEEDS
from oracles import (
    clifford_orbit_states,
    clifford_unitaries_1q,
    phase_key,
    random_kraus_channel,
    stabilizer_count_formula,
)

SQRT2 = math.sqrt(2.0)


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL  {text}")
        raise
    print(f"[criterion {num:02d}] PASS  {text}")


def test_criterion_01_golden_state_robustness():
    with criterion(1, "coherence robustness of golden states is d-1"):
        for d in (2, 4, 8, 16):
            start = time.perf_counter()
            res = robustness_dual(projector(golden_state(d)), incoherent_set(d), tol=5e-8)
            elapsed = time.perf_counter() - start
            assert abs(res.value - (d - 1)) <= 1e-6, (d, res.value)
            assert elapsed < 5.0, (d, elapsed)


def test_criterion_02_tstate_magic_robustness():
    with criterion(2, "magic robustness of |T> and |T>^2 matches (4-2sqrt2)^N - 1"):
        start = time.perf_counter()
        res1 = robustness_dual(projector(t_state(1)), stabilizer_set(1), tol=5e-8)
        assert abs(res1.value - (4 - 2 * SQRT2 - 1)) <= 1e-6
        res2 = robustness_dual(projector(t_state(2)), stabilizer_set(2), tol=5e-8)
        assert abs(res2.value - (23 - 16 * SQRT2)) <= 1e-6
        assert time.perf_counter() - start < 30.0


def test_criterion_03_tstate_coherence_beats_magic():
    with criterion(3, "coherence of |T>^N is 2^N - 1 and always beats magic"):
        for n in range(1, 11):
            closed = robustness_pure_coherence(t_state(n))
            assert closed == pytest.approx(2**n - 1, rel=1e-12)
            assert closed > tstate_magic_robustness(n)
        for n in (1, 2, 3):
            res = robustness_dual(projector(t_state(n)), incoherent_set(2**n), tol=5e-8)
            assert abs(res.value - (2**n - 1)) <= 1e-5


def test_criterion_04_duality_certification_battery():
    with criterion(4, ">= 200 solves certify gap <= 1e-6 with valid certificates"):
        rng = np.random.default_rng(SEEDS["acceptance"])
        instances = []
        for _ in range(50):
            d = int(rng.integers(2, 9))
            instances.append((projector(random_pure_state(d, rng)), incoherent_set(d)))
        for _ in range(60):
            d = int(rng.integers(2, 5))
            instances.append((random_density_matrix(d, rng), incoherent_set(d)))
        for _ in range(30):
            instances.append((random_density_matrix(2, rng), stabilizer_set(1)))
        for _ in range(12):
            instances.append((random_density_matrix(4, rng), stabilizer_set(2)))
        for spec in (incoherent_set(4), stabilizer_set(1)):
            pts = spec.density_matrices()
            for _ in range(15):
                w = rng.dirichlet(np.ones(len(pts)))
                instances.append((sum(wi * s for wi, s in zip(w, pts)), spec))
        for _ in range(20):
            hull = finite_hull([random_pure_state(3, rng) for _ in range(6)])
            instances.append((random_density_matrix(3, rng), hull))
        assert len(instances) >= 200

        for rho, spec in instances:
            res = robustness_dual(rho, spec, tol=5e-8)
            assert res.gap <= 1e-6, (spec.label(), res.gap, res.status)
            # independent witness re-check
            assert witness_is_feasible(res.witness, spec)
            assert abs(trace_inner(res.witness, rho) - 1.0 - res.lower_bound) <= 1e-9
            # independent primal re-check
            assert np.all(res.primal_weights >= 0.0)
            assert abs(res.primal_weights.sum() - 1.0 - res.upper_bound) <= 1e-9
            assert np.linalg.eigvalsh(primal_slack(res.primal_weights, rho, spec))[0] >= -1e-9


def _named_resource_cases():
    # (state, free set, closed-form witness, closed-form robustness, d)
    cases = []
    for d in (2, 4, 8):
        psi = golden_state(d)
        cases.append((projector(psi), incoherent_set(d), d * projector(psi), d - 1.0, d))
    for n in (1, 2):
        psi = t_state(n)
        cases.append((projector(psi), stabilizer_set(n), tstate_magic_witness(n),
                      tstate_magic_robustness(n), 2**n))
    return cases


def test_criterion_05_theorem1_and_eq10_at_large_lambda_beta():
    with criterion(5, "work ratio meets (1+R)(1-eps) and the theorem1 bound at lambda*beta = 1e4 ln d"):
        start = time.perf_counter()
        for rho, spec, witness, R, d in _named_resource_cases():
            ctx = ThermoContext(beta=1.0, lam=1e4 * math.log(d))
            rep10 = verify_eq10_ratio(rho, spec, ctx, epsilon=0.05, witness=witness)
            assert rep10.precondition_met
            assert rep10.lhs >= (1 + R) * 0.95, (spec.label(), rep10.lhs)
            rep1 = verify_theorem1(rho, spec, ctx, witness=witness)
            assert rep1.precondition_met
            assert rep1.lhs >= rep1.rhs - 1e-6, (spec.label(), rep1.lhs, rep1.rhs)
        assert time.perf_counter() - start < 120.0


def test_criterion_06_zero_temperature_limits():
    with criterion(6, "beta=inf: ratio equals 1+R to 1e-8 and cost ratio <= 1/(1+R)"):
        for rho, spec, witness, R, d in _named_resource_cases() + [
            (projector(golden_state(16)), incoherent_set(16),
             16 * projector(golden_state(16)), 15.0, 16),
        ]:
            ctx = ThermoContext(beta=INF_BETA, lam=3.0)
            rep = verify_theorem1(rho, spec, ctx, witness=witness)
            assert abs(rep.lhs - (1.0 + R)) <= 1e-8, (spec.label(), rep.lhs, R)
            cost = verify_xi_cost(rho, spec, ctx, witness=witness)
            assert cost.lhs <= 1.0 / (1.0 + R) + 1e-9, (spec.label(), cost.lhs)


def test_criterion_07_theorem2_residual_robustness():
    with criterion(7, "residual thermal state robustness <= 1/(d-1) on the full grid"):
        grids = []
        for d in (2, 4, 8, 16):
            grids.append((golden_state(d), float(d), d, incoherent_set(d)))
        for n in (1, 2, 3):
            grids.append((t_state(n), (4 - 2 * SQRT2) ** n, 2**n, stabilizer_set(n)))
        for y, c, d, spec_prime in grids:
            for blc in (0.1, 1.0, 10.0, INF_BETA):
                beta = 1.0 if blc != INF_BETA else INF_BETA
                lam = blc / c if blc != INF_BETA else 1.0
                ctx = ThermoContext(beta=beta, lam=lam)
                # closed form matches the generic Gibbs construction
                tau_closed = residual_thermal_closed_form(y, c, ctx, d)
                tau_eig = gibbs_state(ctx.lam * c * projector(y), ctx.beta)
                assert np.abs(tau_closed - tau_eig).max() <= 1e-10
                rep = verify_theorem2(y, c, ctx, d, spec_prime, tol=5e-8)
                assert rep.lhs <= 1.0 / (d - 1) + 1e-7, (d, blc, spec_prime.kind, rep.lhs)


def test_criterion_08_protocol_bookkeeping():
    with criterion(8, "protocol ledger identities hold on 500 randomized inputs"):
        rng = np.random.default_rng(SEEDS["acceptance"] + 1)
        for _ in range(500):
            d = int(rng.integers(2, 5))
            rho = random_density_matrix(d, rng)
            A = random_hermitian(d, rng)
            witness = A @ A.conj().T
            witness = witness / np.linalg.eigvalsh(witness)[-1]
            beta = float(rng.choice([0.4, 1.0, 3.0, INF_BETA]))
            ctx = ThermoContext(beta=beta, lam=float(rng.uniform(0.5, 30.0)))
            trace = simulate_protocol(rho, witness, ctx)
            assert trace.dw_b == 0.0
            assert trace.dw_a + trace.dw_d == 0.0
            expected = extractable_work(rho, ctx.lam * witness, beta)
            assert abs(trace.total - expected) <= 1e-9


def test_criterion_09_channel_suite():
    with criterion(9, "Choi round-trips, Hadamard free, T-gate stable, theorems 3-4 hold"):
        rng = np.random.default_rng(SEEDS["acceptance"] + 2)
        for _ in range(100):
            d = int(rng.choice([2, 4]))
            E = make_channel(random_kraus_channel(d, int(rng.integers(1, 4)), rng))
            J = choi_state(E)
            rho = random_density_matrix(d, rng)
            assert np.abs(apply_via_choi(J, rho) - apply_channel(E, rho)).max() <= 1e-9

        res_h = channel_robustness_lower(unitary_channel(HADAMARD), stabilizer_set(2), tol=5e-8)
        assert res_h.value <= 1e-6

        base = channel_robustness_lower(unitary_channel(T_GATE), stabilizer_set(2), tol=5e-8)
        assert base.value > 0.1
        assert abs(base.value - 0.1715729) <= 1e-6  # frozen regression value
        for C in clifford_unitaries_1q():
            E = unitary_channel(C @ T_GATE @ C.conj().T)
            val = channel_robustness_lower(E, stabilizer_set(2), tol=5e-8).value
            assert abs(val - base.value) <= 1e-6

        t_circuit = make_channel([T_GATE @ HADAMARD])
        for beta, lam in ((INF_BETA, 10.0), (1.0, 1e4)):
            ctx = ThermoContext(beta=beta, lam=lam)
            rep3 = theorem3_bound(t_circuit, projector(np.array([1, 0], dtype=complex)),
                                  stabilizer_set(1), ctx, tol=5e-8)
            assert rep3.precondition_met and rep3.satisfied
            rep4 = theorem4_bound(unitary_channel(T_GATE), stabilizer_set(2), ctx, tol=5e-8)
            assert rep4.precondition_met and rep4.satisfied


def test_criterion_10_stabilizer_enumeration():
    with criterion(10, "stabilizer counts are 6/60/1080 and match the Clifford orbit"):
        start = time.perf_counter()
        for n, want in ((1, 6), (2, 60), (3, 1080)):
            states = enumerate_stabilizer_states(n)
            assert len(states) == want
            assert stabilizer_state_count(n) == stabilizer_count_formula(n) == want
            orbit = clifford_orbit_states(n)
            assert {phase_key(v) for v in states} == {phase_key(v) for v in orbit}
        assert time.perf_counter() - start < 60.0
