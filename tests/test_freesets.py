import hashlib
from functools import lru_cache

import numpy as np
import pytest

import robustwork.freesets as freesets_module
import robustwork.linalg as linalg_module
import robustwork.solver as solver_module
from robustwork.freesets import (
    FreeSet,
    enumerate_stabilizer_states,
    finite_hull,
    incoherent_extreme_points,
    incoherent_set,
    membership,
    stabilizer_set,
    stabilizer_state_count,
)
from robustwork.linalg import maximally_mixed, projector
from robustwork.states import HADAMARD, S_GATE, basis_state, t_state

from conftest import SEEDS
from oracles import (
    _cnot_op,
    clifford_orbit_states,
    pauli_table,
    phase_key,
    stabilizer_count_formula,
)

rng = np.random.default_rng(SEEDS["freesets"])


class TestIncoherent:
    def test_points_are_basis_vectors(self):
        for d in (2, 4):
            pts = incoherent_extreme_points(d)
            assert len(pts) == d
            for j, v in enumerate(pts):
                assert np.abs(v - basis_state(d, j)).max() == 0.0

    def test_dim_too_small(self):
        with pytest.raises(ValueError):
            incoherent_extreme_points(1)
        with pytest.raises(ValueError):
            incoherent_set(1)

    def test_set_is_built_once_per_dimension(self):
        assert incoherent_set(5) is incoherent_set(5)

    def test_own_points_have_zero_robustness(self):
        spec = incoherent_set(3)
        for v in spec.vectors:
            assert membership(spec, projector(v), tol=1e-7)

    def test_random_diagonal_state_is_member(self):
        for d in (2, 4):
            p = rng.dirichlet(np.ones(d))
            rho = np.diag(p).astype(complex)
            assert membership(incoherent_set(d), rho, tol=1e-7)


class TestStabilizerEnumeration:
    def test_counts_small(self):
        assert len(enumerate_stabilizer_states(1)) == 6
        assert len(enumerate_stabilizer_states(2)) == 60

    def test_count_formula_oracle(self):
        for n in (1, 2, 3):
            assert stabilizer_state_count(n) == stabilizer_count_formula(n)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_stabilizer_states(0)
        with pytest.raises(ValueError):
            enumerate_stabilizer_states(4)

    def test_single_qubit_octahedron(self):
        # the 6 eigenstates of X, Y, Z
        states = enumerate_stabilizer_states(1)
        keys = {phase_key(v) for v in states}
        s = 1 / np.sqrt(2)
        expected = [
            [1, 0], [0, 1], [s, s], [s, -s], [s, 1j * s], [s, -1j * s],
        ]
        assert keys == {phase_key(np.array(v, dtype=complex)) for v in expected}

    # SHA-256 of np.stack(states).tobytes(), recorded from the affine generator:
    # its loop order, its phase convention and every bit of every amplitude,
    # signed zeros included, are pinned, so every solve, report and freeset
    # dump built on these lists stays byte-identical
    @pytest.mark.parametrize("n, digest", [
        (1, "8340176fb771d8eb2a259de2d4970e28f37efb0b5ee720b73e5a48af581d7f8c"),
        (2, "4070783bbd7b1a890c972d1d400b997189688704d6c8c86b7587e2b496d99302"),
        (3, "d061772d3a9a034efdab058187ac21da94555b3568f73f3b0ffad3d0bd2f0618"),
    ])
    def test_bytes_match_reference(self, n, digest):
        states = np.stack(enumerate_stabilizer_states(n))
        assert hashlib.sha256(states.tobytes()).hexdigest() == digest

    @staticmethod
    def _expectations(n):
        # <v|P|v> of every listed state v (rows) and Pauli string P (columns, by bit row), with
        # the ones where P v = +-v; dense products, independent of the library's transform
        V = np.stack(enumerate_stabilizer_states(n))
        PV = np.einsum("rab,sb->sra", pauli_table(n), V)
        E = np.einsum("sa,sra->sr", V.conj(), PV)
        eigen = np.linalg.norm(PV - E[:, :, None] * V[:, None, :], axis=2) < 1e-12
        return E.real, eigen & (np.abs(np.abs(E) - 1.0) < 1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_each_state_is_stabilized_by_2n_paulis(self, n):
        _, eigen = self._expectations(n)
        assert (eigen.sum(axis=1) == 2**n).all()

    @pytest.mark.parametrize("n, count", [(1, 3), (2, 15), (3, 135)])
    def test_groups_and_sign_patterns_in_order(self, n, count):
        # prod_k (2^k + 1) stabilizer groups, each with all 2^n sign patterns, every
        # (group's bit rows, sign bits over those rows) key once
        E, eigen = self._expectations(n)
        keys = [(tuple(np.flatnonzero(row)), tuple(e[row] < 0)) for e, row in zip(E, eigen)]
        assert len(set(keys)) == len(keys)
        groups = {}
        for group, signs in keys:
            groups.setdefault(group, set()).add(signs)
        assert len(groups) == count
        assert all(len(patterns) == 2**n for patterns in groups.values())

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_clifford_orbit(self, n):
        ours = {phase_key(v) for v in enumerate_stabilizer_states(n)}
        orbit = {phase_key(v) for v in clifford_orbit_states(n)}
        assert ours == orbit

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_closed_under_clifford_generators(self, n):
        states = enumerate_stabilizer_states(n)
        keys = {phase_key(v) for v in states}
        gates = [_cnot_op(c, t, n) for c in range(n) for t in range(n) if c != t]
        for q in range(n):
            ops = [np.eye(2, dtype=complex)] * n
            for G in (HADAMARD, S_GATE):
                ops_q = list(ops)
                ops_q[q] = G
                full = ops_q[0]
                for M in ops_q[1:]:
                    full = np.kron(full, M)
                gates.append(full)
        for v in states:
            for G in gates:
                assert phase_key(G @ v) in keys

    def test_all_points_pure(self):
        for v in enumerate_stabilizer_states(2):
            assert abs(np.vdot(v, v).real - 1.0) < 1e-10

    def test_dropped_state_fails_the_count_check(self, monkeypatch):
        generate = freesets_module._affine_states
        monkeypatch.setattr(freesets_module, "_affine_states", lambda n: generate(n)[1:])
        with pytest.raises(RuntimeError, match="enumerated 59 states, expected 60"):
            enumerate_stabilizer_states(2)


class TestMembership:
    def test_basis_state_incoherent(self):
        assert membership(incoherent_set(2), projector(basis_state(2, 0)))

    def test_t_state_not_stabilizer(self):
        assert not membership(stabilizer_set(1), projector(t_state(1)))

    def test_maximally_mixed_is_stabilizer(self):
        assert membership(stabilizer_set(1), maximally_mixed(2))

    def test_random_stabilizer_mixture_is_member(self):
        spec = stabilizer_set(1)
        w = rng.dirichlet(np.ones(6))
        rho = sum(wi * projector(v) for wi, v in zip(w, spec.vectors))
        assert membership(spec, rho, tol=1e-7)

    def test_membership_reads_the_upper_bound(self, monkeypatch):
        # an interval whose midpoint is below tol proves nothing while its
        # upper end is above it
        def unresolved(rho, spec, tol):
            return solver_module.RobustnessResult(
                value=0.75e-7, witness=None, primal_weights=None, gap=1.5e-7,
                status=solver_module.MAX_ITERATIONS, lower_bound=0.0,
                upper_bound=1.5e-7, newton_iterations=1)

        monkeypatch.setattr(solver_module, "robustness_dual", unresolved)
        assert not membership(stabilizer_set(1), maximally_mixed(2), tol=1e-7)

    @pytest.mark.parametrize("spec, rho", [
        (incoherent_set(2), maximally_mixed(2)),
        (incoherent_set(4), projector(np.full(4, 0.5))),
        (stabilizer_set(1), projector(t_state(1))),
    ], ids=["incoherent-2-mixed", "incoherent-4-golden", "stabilizer-1-tstate"])
    def test_one_validation_per_call(self, monkeypatch, spec, rho):
        # robustness_dual validates rho, so membership does not do it first; every
        # assert_density, under whichever module's binding, runs linalg's assert_hermitian
        calls = []

        def counted(A, name="operator"):
            calls.append(name)
            return hermitian(A, name)

        hermitian = linalg_module.assert_hermitian
        monkeypatch.setattr(linalg_module, "assert_hermitian", counted)
        membership(spec, rho)
        assert calls == ["state"]

    @pytest.mark.parametrize("rho, message", [
        (np.diag([1.0, 0.5]), "state has trace 1.5, expected 1"),
        (np.diag([1.5, -0.5]), "state has negative eigenvalue -5.000e-01"),
        (np.array([[0.5, 1.0], [0.0, 0.5]]), "state is not Hermitian (deviation 1.000e+00)"),
        (np.diag([np.nan, 0.5]), "state has non-finite entries"),
    ], ids=["trace", "psd", "hermitian", "non-finite"])
    def test_invalid_state_message(self, rho, message):
        with pytest.raises(ValueError) as err:
            membership(incoherent_set(2), rho)
        assert str(err.value) == message


class TestContainsMaximallyMixed:
    @pytest.mark.parametrize("build, k", [(incoherent_set, d) for d in range(2, 9)]
                             + [(stabilizer_set, n) for n in (1, 2, 3)])
    def test_standard_sets_contain_it(self, build, k):
        assert build(k).contains_maximally_mixed

    def test_is_proved_once_per_set(self, monkeypatch):
        calls = []
        original = solver_module.robustness_dual

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(solver_module, "robustness_dual", counting)
        hull = finite_hull([basis_state(2, 0), (basis_state(2, 0) + basis_state(2, 1)) / np.sqrt(2)])
        assert not hull.contains_maximally_mixed
        assert not hull.contains_maximally_mixed
        assert len(calls) == 1


class TestFiniteHull:
    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            finite_hull([basis_state(2, 0), basis_state(3, 0)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            finite_hull([])

    def test_accepts_vectors_and_matrices(self):
        hull = finite_hull([basis_state(2, 0), maximally_mixed(2)])
        assert hull.n_points == 2
        assert hull.points.ndim == 3
        assert len(hull.density_matrices()) == 2

    def test_points_are_stacked_once(self):
        pure = finite_hull([basis_state(3, 0), basis_state(3, 2)])
        V = pure.points
        assert V is pure.points
        assert np.array_equal(V, np.stack(pure.vectors, axis=1))
        assert not V.flags.writeable
        mixed = finite_hull([maximally_mixed(3), basis_state(3, 0), basis_state(3, 2)])
        M = mixed.points
        assert M is mixed.points
        assert np.array_equal(M, np.stack(mixed.density_matrices()))  # pure points first
        assert np.array_equal(M[0], projector(basis_state(3, 0)))
        assert not M.flags.writeable


class TestDirectlyBuiltSet:
    def test_sets_compare_and_hash_by_identity(self):
        v0, v1 = basis_state(2, 0), basis_state(2, 1)
        a, b = finite_hull([v0, v1]), finite_hull([v0, v1])
        assert a == a and a != b
        assert {a: "a", b: "b"}[a] == "a"
        assert hash(incoherent_set(2)) == hash(incoherent_set(2))
        count = lru_cache(maxsize=None)(lambda spec: spec.n_points)
        assert count(incoherent_set(2)) == count(incoherent_set(2)) == 2
        assert count.cache_info().hits == 1

    def test_unnormalised_vectors_rejected(self):
        spec = FreeSet("custom", 2, vectors=(np.array([1, 1]), np.array([1, -1])))
        with pytest.raises(ValueError, match=r"^custom\(d=2, m=2\): extreme point 0 has "
                                             r"squared norm 2\.0, expected 1$"):
            solver_module.robustness_dual(maximally_mixed(2), spec)

    @pytest.mark.parametrize("vectors, matrices, k", [
        ((basis_state(2, 0),), (np.eye(2),), 1),
        ((np.array([1, 1]),), (maximally_mixed(2),), 0),
    ], ids=["matrix", "vector-beside-a-matrix"])
    def test_points_without_unit_trace_rejected(self, vectors, matrices, k):
        spec = FreeSet("custom", 2, vectors=vectors, matrices=matrices)
        with pytest.raises(ValueError, match=rf"^custom\(d=2, m=2\): extreme point {k} has "
                                             r"trace 2\.0, expected 1$"):
            solver_module.robustness_dual(maximally_mixed(2), spec)

    @pytest.mark.parametrize("vectors, matrices", [
        ((basis_state(2, 0), basis_state(2, 1)), ()),
        ((), (maximally_mixed(2),)),
    ], ids=["vectors", "matrix"])
    def test_points_of_another_dimension_rejected(self, vectors, matrices):
        spec = FreeSet("custom", 3, vectors=vectors, matrices=matrices)
        with pytest.raises(ValueError, match=r"^custom\(d=3, m=\d\): extreme points have "
                                             r"dimension 2$"):
            solver_module.robustness_dual(maximally_mixed(3), spec)
