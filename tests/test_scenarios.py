import json
import math
import subprocess
import sys

import pytest

from robustwork.freesets import stabilizer_set
from robustwork.linalg import projector
from robustwork.scenarios import (
    ScenarioError,
    SWEEP_COLUMNS,
    load_scenario,
    report_to_json_text,
    run_scenario,
    sweep,
    sweep_to_csv,
)
from robustwork.states import t_state
from robustwork.thermo import ThermoContext, verify_eq10_ratio
from robustwork.solver import tstate_magic_witness


def scenario_dict(**overrides):
    base = {
        "schema_version": 1,
        "name": "golden-coherence",
        "seed": 7,
        "state": {"named": "golden", "d": [2, 4]},
        "free_set": {"kind": "incoherent"},
        "lambda_grid": [10000.0],
        "beta_grid": [1.0, "inf"],
        "checks": ["theorem1", "eq10"],
    }
    base.update(overrides)
    return base


class TestParsing:
    def test_unknown_field_rejected_with_path(self):
        with pytest.raises(ScenarioError, match="scenario.bogus"):
            load_scenario(scenario_dict(bogus=1))

    def test_unknown_check(self):
        with pytest.raises(ScenarioError, match="checks"):
            load_scenario(scenario_dict(checks=["theorem9"]))

    def test_state_and_channel_exclusive(self):
        with pytest.raises(ScenarioError, match="exactly one"):
            load_scenario(scenario_dict(channel={"named": "t_gate"}))

    def test_channel_checks_require_channel(self):
        with pytest.raises(ScenarioError, match="theorem4"):
            load_scenario(scenario_dict(checks=["theorem4"]))

    def test_empty_grid_rejected(self):
        with pytest.raises(ScenarioError, match="lambda_grid"):
            load_scenario(scenario_dict(lambda_grid=[]))

    def test_bad_beta(self):
        with pytest.raises(ScenarioError, match="beta_grid"):
            load_scenario(scenario_dict(beta_grid=[-1.0]))

    def test_bad_schema_version(self):
        with pytest.raises(ScenarioError, match="schema_version"):
            load_scenario(scenario_dict(schema_version=2))

    def test_free_set_dimension_mismatch(self):
        sc = load_scenario(scenario_dict(free_set={"kind": "incoherent", "dim": 3}))
        with pytest.raises(ScenarioError, match="free_set.dim"):
            run_scenario(sc)

    def test_unknown_state_field(self):
        with pytest.raises(ScenarioError, match="state"):
            load_scenario(scenario_dict(state={"named": "golden", "d": 2, "extra": 1}))


class TestRunScenario:
    def test_golden_all_satisfied(self):
        report = run_scenario(load_scenario(scenario_dict()))
        assert report["exit_code"] == 0
        assert len(report["entries"]) == 2 * 2 * 2  # d x beta x checks
        for e in report["entries"]:
            assert not e["skipped"]
            assert e["report"]["satisfied"]

    def test_every_check_appears_once_per_point(self):
        report = run_scenario(load_scenario(scenario_dict(checks=["theorem1", "eq10", "corollary1"])))
        seen = {(e["check"], e["d"], e["lambda"], e["beta"]) for e in report["entries"]}
        assert len(seen) == len(report["entries"])
        assert len(report["entries"]) == 2 * 2 * 3

    def test_lambda_below_precondition_skips_with_reason(self):
        sc = load_scenario(scenario_dict(
            name="tstate-low-lambda",
            state={"named": "tstate", "n": 1},
            free_set={"kind": "stabilizer"},
            lambda_grid=[0.001],
            beta_grid=[1.0],
            checks=["eq10"],
        ))
        report = run_scenario(sc)
        entry = report["entries"][0]
        assert entry["skipped"]
        assert entry["reason"] == "precondition not met"
        assert not entry["report"]["precondition_met"]
        assert report["exit_code"] == 0  # skipped checks never fail the run

    def test_free_state_degenerate_report(self):
        sc = load_scenario(scenario_dict(
            name="basis-degenerate",
            state={"named": "basis", "d": 2, "j": 0},
            free_set={"kind": "stabilizer"},
            lambda_grid=[100.0],
            beta_grid=[1.0],
            checks=["theorem1"],
        ))
        report = run_scenario(sc)
        entry = report["entries"][0]
        assert entry["robustness"]["value"] <= 1e-6
        assert not entry["report"]["precondition_met"]

    def test_determinism_modulo_meta(self):
        sc = load_scenario(scenario_dict())
        r1, r2 = run_scenario(sc), run_scenario(sc)
        for r in (r1, r2):
            del r["meta"]
        assert report_to_json_text(r1) == report_to_json_text(r2)

    def test_theorem2_runs_with_closed_form_witness(self):
        sc = load_scenario(scenario_dict(checks=["theorem2"], beta_grid=[1.0]))
        report = run_scenario(sc)
        for e in report["entries"]:
            assert not e["skipped"]
            assert e["report"]["satisfied"]

    def test_theorem2_skipped_above_dimension_cap(self):
        sc = load_scenario(scenario_dict(
            state={"named": "golden", "d": 32},
            checks=["theorem2"],
            beta_grid=[1.0],
        ))
        report = run_scenario(sc)
        entry = report["entries"][0]
        assert entry["skipped"]
        assert "cap" in entry["reason"]
        assert report["exit_code"] == 0

    def test_custom_matrix_state_uses_sdp_witness(self):
        rho = [[[0.5, 0.0], [0.25, 0.25]], [[0.25, -0.25], [0.5, 0.0]]]
        sc = load_scenario(scenario_dict(
            name="custom-mixed",
            state={"matrix": rho},
            free_set={"kind": "incoherent"},
            lambda_grid=[5000.0],
            beta_grid=[1.0],
            checks=["theorem1", "theorem2"],
        ))
        report = run_scenario(sc)
        by_check = {e["check"]: e for e in report["entries"]}
        assert by_check["theorem1"]["robustness"]["status"] == "converged"
        assert by_check["theorem1"]["report"]["satisfied"]
        # mixed states carry no rank-1 witness, so theorem2 must skip loudly
        assert by_check["theorem2"]["skipped"]
        assert "rank-1" in by_check["theorem2"]["reason"]

    def test_finite_hull_free_set_from_json(self):
        s = 1 / math.sqrt(2)
        sc = load_scenario(scenario_dict(
            name="hull",
            state={"named": "basis", "d": 2, "j": 1},
            free_set={"kind": "finite_hull", "states": [
                [[1.0, 0.0], [0.0, 0.0]],                      # |0> as a vector
                [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],  # I/2 as a matrix
            ]},
            lambda_grid=[100.0],
            beta_grid=[1.0],
            checks=["theorem1"],
        ))
        report = run_scenario(sc)
        entry = report["entries"][0]
        assert entry["robustness"]["value"] == pytest.approx(1.0, abs=1e-6)


class TestSweep:
    def test_columns_and_sorting(self):
        rows = sweep(load_scenario(scenario_dict()))
        assert rows[0] == list(SWEEP_COLUMNS)
        ds = [int(r[2]) for r in rows[1:]]
        assert ds == sorted(ds)

    def test_golden_bound_column_is_d_at_zero_temperature(self):
        sc = load_scenario(scenario_dict(
            state={"named": "golden", "d": [2, 4, 8, 16]},
            beta_grid=["inf"],
            checks=["theorem1"],
        ))
        rows = sweep(sc)[1:]
        for row in rows:
            assert float(row[7]) == pytest.approx(float(row[2]), abs=1e-8)

    def test_tstate_magic_robustness_column(self):
        sc = load_scenario(scenario_dict(
            name="tstate-magic",
            state={"named": "tstate", "n": [1, 2]},
            free_set={"kind": "stabilizer"},
            lambda_grid=[10000.0],
            beta_grid=["inf"],
            checks=["theorem1"],
        ))
        rows = sweep(sc)[1:]
        want = {1: 1.1715729**1 - 1, 2: 1.1715729**2 - 1}
        for row in rows:
            assert float(row[6]) == pytest.approx(want[int(row[3])], abs=1e-6)

    def test_tstate_coherence_column_to_n10(self):
        sc = load_scenario(scenario_dict(
            name="tstate-coherence",
            state={"named": "tstate", "n": list(range(1, 11))},
            free_set={"kind": "incoherent"},
            lambda_grid=[100000.0],
            beta_grid=["inf"],
            checks=["theorem1"],
        ))
        rows = sweep(sc)[1:]
        for row in rows:
            n = int(row[3])
            assert float(row[6]) == pytest.approx(2**n - 1, rel=1e-12)

    def test_csv_round_trip(self):
        text = sweep_to_csv(sweep(load_scenario(scenario_dict())))
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert all(len(line.split(",")) == len(SWEEP_COLUMNS) for line in lines)


class TestNamedScenarioInvariants:
    def test_coherence_beats_magic_for_tstates(self):
        # the coherence-tailored protocol wins for every tested N
        from robustwork.solver import robustness_pure_coherence, tstate_magic_robustness

        for n in range(1, 11):
            assert robustness_pure_coherence(t_state(n)) > tstate_magic_robustness(n)

    def test_suboptimal_witness_still_gives_advantage(self):
        # a scaled-down feasible witness with 0 < Tr[Y rho] - 1 < R still
        # produces a work ratio above 1
        rho = projector(t_state(1))
        spec = stabilizer_set(1)
        R = 4 - 2 * math.sqrt(2) - 1
        alpha = 0.5 * (1.0 + 1.0 / (1.0 + R))  # keeps the objective strictly positive
        Y_sub = alpha * tstate_magic_witness(1)
        sub_objective = (1 + R) * alpha - 1
        assert 0 < sub_objective < R
        ctx = ThermoContext(beta=1.0, lam=2e4)
        rep = verify_eq10_ratio(rho, spec, ctx, witness=Y_sub)
        assert rep.lhs > 1.0


class TestExitCodes:
    def test_check_failure_gives_two(self):
        # epsilon = 0 makes eq10 demand the full 1 + R, which the finite
        # lambda*beta ratio undershoots by an entropic correction
        from robustwork.scenarios import exit_code_of_report, run_scenario, load_scenario

        sc = load_scenario(scenario_dict(
            name="forced-failure",
            state={"named": "golden", "d": 4},
            lambda_grid=[200.0],
            beta_grid=[1.0],
            checks=["eq10"],
            epsilon=0.0,
        ))
        report = run_scenario(sc)
        entry = report["entries"][0]
        assert entry["report"]["precondition_met"] and not entry["report"]["satisfied"]
        assert report["exit_code"] == 2

    def test_nonconvergence_gives_three(self):
        from robustwork.scenarios import exit_code_of_report

        report = {"entries": [{
            "skipped": False,
            "report": {"satisfied": True},
            "robustness": {"value": 0.1, "gap": 1e-3, "status": "max_iterations"},
        }]}
        assert exit_code_of_report(report) == 3

    @pytest.mark.parametrize("key", ["status", "solver_status"])
    def test_nonconverged_report_detail_gives_three(self, key):
        # theorem2 reports its residual solve as detail.status, theorem3/4
        # their solves as detail.solver_status
        from robustwork.scenarios import exit_code_of_report

        report = {"entries": [
            {"skipped": False, "robustness": None,
             "report": {"satisfied": True, "detail": {key: "converged"}}},
            {"skipped": False, "robustness": {"value": 1.0, "gap": 0.0, "status": "closed_form"},
             "report": {"satisfied": True, "detail": {key: "max_iterations"}}},
        ]}
        assert exit_code_of_report(report) == 3

    def test_converged_details_give_zero(self):
        from robustwork.scenarios import exit_code_of_report

        report = {"entries": [
            {"skipped": False, "robustness": {"value": 1.0, "gap": 0.0, "status": "closed_form"},
             "report": {"satisfied": True, "detail": {"status": "converged"}}},
            {"skipped": True, "robustness": None, "report": None},
        ]}
        assert exit_code_of_report(report) == 0

    def test_failure_outranks_nonconverged_detail(self):
        from robustwork.scenarios import exit_code_of_report

        report = {"entries": [
            {"skipped": False, "robustness": None,
             "report": {"satisfied": False, "detail": {"solver_status": "max_iterations"}}},
        ]}
        assert exit_code_of_report(report) == 2

    def test_failure_outranks_nonconvergence(self):
        from robustwork.scenarios import exit_code_of_report

        report = {"entries": [
            {"skipped": False, "report": {"satisfied": False},
             "robustness": {"value": 0.1, "gap": 1e-3, "status": "max_iterations"}},
        ]}
        assert exit_code_of_report(report) == 2


class TestCli:
    def run_cli(self, *args, files=None, tmp_path=None):
        cmd = [sys.executable, "-m", "robustwork.cli", *args]
        return subprocess.run(cmd, capture_output=True, text=True)

    def write(self, tmp_path, name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)

    def test_robustness_verb(self, tmp_path):
        path = self.write(tmp_path, "in.json", {
            "state": {"named": "golden", "d": 4},
            "free_set": {"kind": "incoherent"},
            "tol": 1e-8,
        })
        proc = self.run_cli("robustness", "--input", path)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["value"] == pytest.approx(3.0, abs=1e-6)
        assert out["status"] == "converged"
        assert len(out["witness"]) == 4

    def test_verify_exit_zero(self, tmp_path):
        path = self.write(tmp_path, "sc.json", scenario_dict())
        proc = self.run_cli("verify", "--input", path, "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["exit_code"] == 0

    def test_verify_reports_are_reproducible(self, tmp_path):
        path = self.write(tmp_path, "sc.json", scenario_dict())
        texts = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            proc = self.run_cli("verify", "--input", path, "--out", str(out))
            assert proc.returncode == 0, proc.stderr
            report = json.loads((out / "report.json").read_text())
            del report["meta"]
            texts.append(json.dumps(report, sort_keys=True))
        assert texts[0] == texts[1]

    def test_sweep_verb(self, tmp_path):
        path = self.write(tmp_path, "sc.json", scenario_dict(beta_grid=["inf"]))
        proc = self.run_cli("sweep", "--input", path, "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 1 + 2 * 1 * 2

    def test_check_failure_exit_code(self, tmp_path):
        path = self.write(tmp_path, "sc.json", scenario_dict(
            name="forced-failure",
            state={"named": "golden", "d": 4},
            lambda_grid=[200.0],
            beta_grid=[1.0],
            checks=["eq10"],
            epsilon=0.0,
        ))
        proc = self.run_cli("verify", "--input", path)
        assert proc.returncode == 2

    def test_input_error_exit_code(self, tmp_path):
        path = self.write(tmp_path, "sc.json", scenario_dict(checks=["theorem9"]))
        proc = self.run_cli("verify", "--input", path)
        assert proc.returncode == 4
        assert "theorem9" in proc.stderr

    def test_missing_file_exit_code(self):
        proc = self.run_cli("verify", "--input", "/nonexistent/x.json")
        assert proc.returncode == 4

    def test_freeset_dump(self, tmp_path):
        proc = self.run_cli("freeset", "dump", "--kind", "stabilizer", "--n", "2")
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out["count"] == 60
        assert out["dim"] == 4
        assert len(out["states"]) == 60

    def test_channel_verb(self, tmp_path):
        path = self.write(tmp_path, "ch.json", {
            "channel": {"named": "t_gate"},
            "free_set": {"kind": "stabilizer"},
            "lambda": 10000.0,
            "beta": 1.0,
        })
        proc = self.run_cli("channel", "--input", path)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["robustness_lower"]["value"] == pytest.approx(0.1715729, abs=1e-5)
        assert out["bounds"]["theorem4"]["satisfied"]

    def test_channel_verb_with_input_state(self, tmp_path):
        # Hadamard-then-T circuit turns |0> into the T state, so the
        # generation-cost check has a resourceful output and must pass
        s = 1 / math.sqrt(2)
        t = [math.cos(math.pi / 4) / math.sqrt(2), math.sin(math.pi / 4) / math.sqrt(2)]
        kraus = [[[[s, 0.0], [s, 0.0]], [[t[0], t[1]], [-t[0], -t[1]]]]]
        path = self.write(tmp_path, "ch.json", {
            "channel": {"kraus": kraus},
            "free_set": {"kind": "stabilizer"},
            "input_state": {"named": "basis", "d": 2, "j": 0},
            "lambda": 10000.0,
            "beta": 1.0,
        })
        proc = self.run_cli("channel", "--input", path)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["bounds"]["theorem3"]["satisfied"]
        assert out["bounds"]["theorem3"]["precondition_met"]

    def test_witness_verb(self, tmp_path):
        path = self.write(tmp_path, "in.json", {
            "state": {"named": "tstate", "n": 1},
            "free_set": {"kind": "stabilizer"},
        })
        proc = self.run_cli("witness", "--input", path)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["rank1"] is not None and "c" in out["rank1"]
        assert out["rank1"]["c"] == pytest.approx(4 - 2 * math.sqrt(2), abs=1e-5)

    def test_protocol_verb(self, tmp_path):
        path = self.write(tmp_path, "in.json", {
            "state": {"named": "golden", "d": 2},
            "free_set": {"kind": "incoherent"},
            "lambda": 5000.0,
            "beta": 1.0,
        })
        proc = self.run_cli("protocol", "--input", path)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["dW_b"] == 0.0
        assert out["dW_a"] + out["dW_d"] == pytest.approx(0.0, abs=1e-12)
        assert out["theorem1"]["satisfied"]
