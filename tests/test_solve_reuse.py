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


def clear_free_set_caches():
    """Drop the cached free sets, and with them each set's proved I/d membership."""
    incoherent_set.cache_clear()
    stabilizer_set.cache_clear()


@pytest.fixture
def solves(monkeypatch):
    """List that grows by one per robustness_dual call, from any module.

    The free-set caches are cleared before and after the test, so each run
    counts the one I/d membership solve per free set its theorem 2 needs."""
    calls = []
    original = solver.robustness_dual

    def counting(*args, **kwargs):
        calls.append(args[1].label())
        return original(*args, **kwargs)

    for mod in (solver, thermo, channels, scenarios, cli):
        if getattr(mod, "robustness_dual", None) is original:
            monkeypatch.setattr(mod, "robustness_dual", counting)
    clear_free_set_caches()
    yield calls
    clear_free_set_caches()


def count_calls(monkeypatch, name: str, modules) -> list:
    """List that grows by one per call of the function ``name``, patched at every
    module binding of it among ``modules`` (the first one defines it)."""
    calls = []
    original = getattr(modules[0], name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for mod in modules:
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
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

    def test_second_run_reuses_the_maximally_mixed_proof(self, solves):
        # I/d membership is a fact of the cached free set: a rerun solves only the residuals
        sc = scenario(state={"named": "golden", "d": [2, 4]}, free_set={"kind": "incoherent"},
                      checks=["theorem2"])
        run_scenario(sc)
        assert len(solves) == 4, solves
        solves.clear()
        run_scenario(sc)
        assert len(solves) == 2, solves

    def test_channel_grid_solves_each_program_once(self, solves):
        # Choi program and theorem3 output program; the free pure input is an overlap test
        report = run_scenario(scenario(channel={"named": "t_gate"},
                                       free_set={"kind": "stabilizer"},
                                       checks=["theorem3", "theorem4"]))
        assert len(report["entries"]) == 9 * 2
        assert len(solves) == 2, solves

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
        assert len(solves) == 2, solves

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
            clear_free_set_caches()
            eigs.clear()
            run_scenario(load_scenario({
                "schema_version": 1, "name": "eigs", "state": {"named": "golden", "d": 8},
                "free_set": {"kind": "incoherent"},
                "checks": ["theorem1", "eq10", "theorem2", "corollary1"], **grid}))
            counts.append(len(eigs))
        assert counts[0] == counts[1], counts


class TestBuildCounts:
    """Each Choi state is built once per channel run, and each scenario spec is
    parsed once, by load_scenario."""

    def test_channel_run_builds_one_choi_state(self, monkeypatch):
        builds = count_calls(monkeypatch, "choi_state", (channels, scenarios, cli))
        report = run_scenario(scenario(channel={"named": "t_gate"},
                                       free_set={"kind": "stabilizer"},
                                       checks=["theorem3", "theorem4"]))
        assert report["entries"][0]["robustness"]["status"] == "converged"
        assert len(builds) == 1
        builds.clear()
        theorem4_bound(unitary_channel(T_GATE), stabilizer_set(2), ThermoContext(1.0, 100.0))
        assert len(builds) == 1

    def test_channel_verb_builds_one_choi_state(self, monkeypatch, tmp_path, capsys):
        builds = count_calls(monkeypatch, "choi_state", (channels, scenarios, cli))
        path = tmp_path / "t_gate.json"
        path.write_text(json.dumps({"channel": {"named": "t_gate"},
                                    "free_set": {"kind": "stabilizer"},
                                    "lambda": 100.0, "beta": "inf"}))
        assert cli.main(["channel", "--input", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["choi"] is not None
        assert len(builds) == 1

    def test_verify_builds_no_choi_state_for_a_finite_hull(self, monkeypatch):
        builds = count_calls(monkeypatch, "choi_state", (channels, scenarios, cli))
        hull = {"kind": "finite_hull", "states": [[[1.0, 0.0], [0.0, 0.0]],
                                                  [[0.0, 0.0], [1.0, 0.0]]]}
        report = run_scenario(scenario(channel={"named": "t_gate"}, free_set=hull,
                                       checks=["theorem3", "theorem4"]))
        t4 = [e for e in report["entries"] if e["check"] == "theorem4"]
        assert t4 and all(e["reason"] == "free set kind cannot be lifted to the bipartite space"
                          for e in t4)
        assert builds == []

    def test_specs_are_parsed_once(self, monkeypatch):
        states = count_calls(monkeypatch, "parse_state_spec", (scenarios,))
        chans = count_calls(monkeypatch, "parse_channel_spec", (scenarios,))
        run_scenario(scenario(state={"named": "golden", "d": [2, 4]},
                              free_set={"kind": "incoherent"}, checks=["theorem1"]))
        assert (len(states), len(chans)) == (1, 0)
        states.clear()
        run_scenario(scenario(channel={"named": "hadamard"}, free_set={"kind": "stabilizer"},
                              input_state={"named": "basis", "d": 2, "j": 1},
                              checks=["theorem3", "theorem4"]))
        assert (len(states), len(chans)) == (1, 1)


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
