"""Each distinct robustness program is solved once per scenario run.

Solves are counted by wrapping ``solver.robustness_dual`` at every module
binding; the split checks used by the scenario runner must agree exactly
with the public bound functions evaluated at the same (lambda, beta).
"""

import json
import math

import numpy as np
import pytest

from robustwork import channels, cli, scenarios, solver, thermo
from robustwork.channels import theorem3_bound, theorem4_bound, unitary_channel
from robustwork.freesets import incoherent_set, stabilizer_set
from robustwork.linalg import projector
from robustwork.scenarios import load_scenario, run_scenario
from robustwork.solver import pure_coherence_witness, rank1_witness_from_pure
from robustwork.iojson import matrix_to_json
from robustwork.states import HADAMARD, T_GATE, basis_state, golden_state
from robustwork.thermo import ThermoContext, verify_theorem2

GRID3 = {"lambda_grid": [100.0, 1000.0, 10000.0], "beta_grid": [1.0, 10.0, "inf"]}


def scenario(**body):
    return load_scenario({"schema_version": 1, "name": "reuse", **GRID3, **body})


@pytest.fixture
def solves(monkeypatch):
    """List that grows by one per robustness_dual call, from any module."""
    calls = []
    original = solver.robustness_dual

    def counting(*args, **kwargs):
        calls.append(args[1].label())
        return original(*args, **kwargs)

    for mod in (solver, thermo, channels, scenarios, cli):
        if getattr(mod, "robustness_dual", None) is original:
            monkeypatch.setattr(mod, "robustness_dual", counting)
    return calls


@pytest.fixture
def eigs(monkeypatch):
    """List that grows by one per numpy eigh/eigvalsh call."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counting(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


def ctx_of(entry) -> ThermoContext:
    beta = math.inf if entry["beta"] == "inf" else entry["beta"]
    return ThermoContext(beta=beta, lam=entry["lambda"])


def as_entry_report(rep) -> dict:
    return {"lhs": rep.lhs, "rhs": rep.rhs, "direction": rep.direction,
            "satisfied": rep.satisfied, "slack": rep.slack,
            "precondition_met": rep.precondition_met, "tolerance": rep.tolerance,
            "detail": dict(rep.detail)}


class TestSolveCounts:
    def test_golden_grid_solves_each_program_once(self, solves):
        # closed-form witnesses; theorem2 needs one membership check and one
        # residual solve per dimension (a = 1.0 at every point)
        report = run_scenario(scenario(
            state={"named": "golden", "d": [2, 4]}, free_set={"kind": "incoherent"},
            checks=["theorem1", "eq10", "theorem2", "corollary1"]))
        assert len(report["entries"]) == 2 * 9 * 4
        assert len(solves) == 4, solves

    def test_channel_grid_solves_each_program_once(self, solves):
        # Choi program, theorem3 input membership, theorem3 output program
        report = run_scenario(scenario(channel={"named": "t_gate"},
                                       free_set={"kind": "stabilizer"},
                                       checks=["theorem3", "theorem4"]))
        assert len(report["entries"]) == 9 * 2
        assert len(solves) == 3, solves

    def test_sdp_witness_is_reused_for_rank1(self, solves):
        sc = scenario(state={"vector": [[0.8, 0.0], [0.0, 0.6]]},
                      free_set={"kind": "stabilizer"}, checks=["theorem1", "theorem2"])
        run_scenario(sc)
        # state program, membership of I/2, one residual program
        assert len(solves) == 3, solves

    def test_residual_solved_once_per_distinct_weight(self, solves):
        # small lambda*beta*c: every lambda gives its own residual weight
        run_scenario(load_scenario({
            "schema_version": 1, "name": "warm", "state": {"named": "golden", "d": 2},
            "free_set": {"kind": "incoherent"}, "lambda_grid": [0.1, 0.2],
            "beta_grid": [0.5], "checks": ["theorem2"]}))
        assert len(solves) == 1 + 2, solves

    def test_cli_channel_verb(self, solves, tmp_path, capsys):
        path = tmp_path / "ch.json"
        path.write_text(json.dumps({"channel": {"named": "t_gate"},
                                    "free_set": {"kind": "stabilizer"},
                                    "lambda": 100.0, "beta": "inf"}))
        assert cli.main(["channel", "--input", str(path)]) == 0
        assert set(json.loads(capsys.readouterr().out)["bounds"]) == {"theorem3", "theorem4"}
        assert len(solves) == 3, solves

    def test_cli_witness_verb(self, solves, tmp_path, capsys):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"state": {"named": "tstate", "n": 2},
                                    "free_set": {"kind": "stabilizer"}}))
        assert cli.main(["witness", "--input", str(path)]) == 0
        assert "c" in json.loads(capsys.readouterr().out)["rank1"]
        assert len(solves) == 1, solves

    def test_public_rank1_witness_solves_once(self, solves):
        c, y = rank1_witness_from_pure(golden_state(4), incoherent_set(4))
        assert c == pytest.approx(4.0, abs=1e-5)
        assert len(solves) == 1, solves


    def test_eigendecompositions_do_not_grow_with_the_grid(self, eigs):
        # lambda and beta enter only through the witness spectrum: the grid adds
        # no eigendecomposition (theorem2's residual weight is 1.0 throughout)
        counts = []
        for grid in ({"lambda_grid": [1000.0], "beta_grid": ["inf"]}, GRID3):
            eigs.clear()
            run_scenario(load_scenario({
                "schema_version": 1, "name": "eigs", "state": {"named": "golden", "d": 8},
                "free_set": {"kind": "incoherent"},
                "checks": ["theorem1", "eq10", "theorem2", "corollary1"], **grid}))
            counts.append(len(eigs))
        assert counts[0] == counts[1], counts


class TestSplitMatchesPublic:
    def test_theorem2_entries(self):
        for grid in (GRID3, {"lambda_grid": [0.1, 0.3], "beta_grid": [0.5, 2.0]}):
            report = run_scenario(load_scenario({
                "schema_version": 1, "name": "t2", "state": {"named": "golden", "d": [2, 4]},
                "free_set": {"kind": "incoherent"}, "checks": ["theorem2"], **grid}))
            for e in report["entries"]:
                c, y = pure_coherence_witness(golden_state(e["d"]))
                rep = verify_theorem2(y, c, ctx_of(e), e["d"], incoherent_set(e["d"]))
                assert e["report"] == as_entry_report(rep)

    def test_theorem3_and_theorem4_entries(self):
        # T after H maps |0> to the T state: both bounds are nondegenerate
        U = T_GATE @ HADAMARD
        report = run_scenario(scenario(channel={"kraus": [matrix_to_json(U)]},
                                       free_set={"kind": "stabilizer"},
                                       checks=["theorem3", "theorem4"]))
        E = unitary_channel(U)
        for e in report["entries"]:
            if e["check"] == "theorem3":
                rep = theorem3_bound(E, projector(basis_state(2, 0)), stabilizer_set(1), ctx_of(e))
            else:
                rep = theorem4_bound(E, stabilizer_set(2), ctx_of(e))
            assert rep.precondition_met and math.isfinite(rep.lhs)
            assert e["report"] == as_entry_report(rep)
