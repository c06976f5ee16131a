import json
import math
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustwork import channels, cli, scenarios
from robustwork.freesets import stabilizer_set
from robustwork.linalg import projector
from robustwork.scenarios import (
    ScenarioError,
    SWEEP_COLUMNS,
    load_scenario,
    parse_input,
    parse_state_spec,
    report_to_json_text,
    run_scenario,
    sweep,
    sweep_to_csv,
)
from robustwork.states import t_state
from robustwork.thermo import ThermoContext, verify_eq10_ratio
from robustwork.solver import tstate_magic_witness

from oracles import old_report_to_json_text

# report-like documents: non-ASCII text, NaN, +-inf, numpy scalars, tuples,
# empty containers and nesting
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), st.floats(), st.text(),
    st.floats().map(np.float64), st.integers(-2**62, 2**62).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
)
JSON_DOCS = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=40,
)


def strict_json(text: str):
    """json.loads that refuses the NaN/Infinity tokens strict JSON does not have."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


GOLDEN2 = {"state": {"named": "golden", "d": 2}, "free_set": {"kind": "incoherent"}}
HULL0 = {"kind": "finite_hull", "states": [[[1.0, 0.0], [0.0, 0.0]]]}  # |0> alone


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

    @pytest.mark.parametrize("overrides, field", [
        ({"lambda_grid": [True]}, "lambda_grid"),
        ({"seed": True}, "seed"),
        ({"tol": "x"}, "tol"),
        ({"state": {"named": "golden", "d": [2, True]}}, "state.d"),
        ({"beta_grid": [True]}, "beta_grid"),
    ])
    def test_numeric_fields_reject_booleans_and_strings(self, overrides, field):
        with pytest.raises(ScenarioError, match=field):
            load_scenario(scenario_dict(**overrides))

    @pytest.mark.parametrize("overrides, field", [
        ({"tol": math.inf}, "scenario.tol"),
        ({"lambda_grid": [100.0, math.inf]}, "scenario.lambda_grid"),
        ({"lambda_grid": [math.nan]}, "scenario.lambda_grid"),
        ({"min_lambda_beta_factor": math.inf}, "scenario.min_lambda_beta_factor"),
    ])
    def test_numeric_fields_reject_non_finite(self, overrides, field):
        with pytest.raises(ScenarioError, match=field):
            load_scenario(scenario_dict(**overrides))

    def test_input_lambda_rejects_infinity(self):
        with pytest.raises(ScenarioError, match="input.lambda"):
            parse_input({**GOLDEN2, "lambda": math.inf, "beta": 1.0},
                        ("state", "lambda", "beta", "free_set"))

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

    def test_channel_input_state_dimension_mismatch(self):
        with pytest.raises(ScenarioError, match=r"scenario\.input_state: dimension 4 does not "
                                                r"match the channel's dimension 2"):
            load_scenario({**CHANNEL_DOC, "channel": {"named": "t_gate"},
                           "input_state": {"named": "basis", "d": 4, "j": 0}})

    def test_free_set_dimension_mismatch(self):
        # checked against every variant of the family golden(2), golden(4)
        with pytest.raises(ScenarioError, match="free_set.dim: 2 does not match dimension 4"):
            load_scenario(scenario_dict(free_set={"kind": "incoherent", "dim": 2}))

    @pytest.mark.parametrize("free_set, field", [
        pytest.param({"kind": "bogus"}, "free_set.kind", id="unknown-kind"),
        pytest.param({"kind": "incoherent", "extra": 1}, "free_set.extra: unknown field",
                     id="unknown-field"),
        pytest.param({"kind": "incoherent", "dim": 5}, "free_set.dim: 5 does not match "
                     "dimension 4", id="dimension"),
    ])
    def test_malformed_free_set_fails_at_load(self, free_set, field):
        with pytest.raises(ScenarioError, match=field):
            load_scenario(scenario_dict(state={"named": "golden", "d": 4}, free_set=free_set))

    def test_unknown_state_field(self):
        with pytest.raises(ScenarioError, match="state"):
            load_scenario(scenario_dict(state={"named": "golden", "d": 2, "extra": 1}))

    @pytest.mark.parametrize("d", [1, [2, 1]], ids=["scalar", "list"])
    def test_golden_below_two_names_the_field(self, d):
        with pytest.raises(ScenarioError,
                           match=r"^state\.d: expected an integer in 2\.\.1024, got 1$"):
            load_scenario(scenario_dict(state={"named": "golden", "d": d}))

    @pytest.mark.parametrize("doc, row", [
        pytest.param(scenario_dict(state={"matrix": [[1, 0], [0]]}), "state.matrix[1]",
                     id="state-matrix"),
        pytest.param({**{k: v for k, v in scenario_dict().items() if k != "state"},
                      "channel": {"kraus": [[[1, 0], [0]]]}, "checks": ["theorem3"]},
                     "channel.kraus[0][1]", id="kraus"),
        pytest.param(scenario_dict(state={"named": "basis", "d": 2, "j": 0},
                                   free_set={"kind": "finite_hull",
                                             "states": [[[[1, 0], [0, 0]], [[0, 0]]]]}),
                     "free_set.states[0][1]", id="finite-hull-matrix"),
    ])
    def test_ragged_matrix_names_the_row(self, doc, row):
        with pytest.raises(ValueError, match=re.escape(f"{row}: expected an array of 2 entries")):
            load_scenario(doc)

    @pytest.mark.parametrize("states, message", [
        pytest.param([[[1, 0], [1, 0]]], "extreme point 0 has squared norm 2.0, expected 1",
                     id="vector-norm"),
        pytest.param([[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]],
                     "extreme point 0 has trace 2.0, expected 1", id="matrix-trace"),
        pytest.param([[[1, 0], [0, 0]], [[1, 0], [0, 0], [0, 0]]],
                     "extreme point 1 has dimension 3, expected 2", id="dimension"),
    ])
    def test_bad_hull_point_names_the_field(self, states, message):
        with pytest.raises(ScenarioError, match=f"^{re.escape(f'free_set.states: {message}')}$"):
            load_scenario(scenario_dict(state={"named": "basis", "d": 2, "j": 0},
                                        free_set={"kind": "finite_hull", "states": states}))


def peak_traced_bytes(fn) -> int:
    """Peak bytes allocated while ``fn`` runs; numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        fn()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


CHANNEL_DOC = {**{k: v for k, v in scenario_dict().items() if k != "state"},
               "checks": ["theorem3", "theorem4"]}
# one 16 x 16 identity Kraus operator: a channel on four qubits
IDENTITY16 = [[[float(i == j), 0.0] for j in range(16)] for i in range(16)]


class TestDimensionCaps:
    """Every dimension a document gives is checked before anything that size is built."""

    @pytest.mark.parametrize("doc, field", [
        pytest.param(scenario_dict(state={"named": "basis", "d": 10**12, "j": 0}), "state.d",
                     id="basis"),
        pytest.param(scenario_dict(state={"named": "golden", "d": [2, 2048]}), "state.d",
                     id="golden-family"),
        pytest.param(scenario_dict(state={"named": "tstate", "n": 11}), "state.n", id="tstate"),
        pytest.param({**CHANNEL_DOC, "channel": {"named": "depolarizing", "d": 65}}, "channel.d",
                     id="depolarizing"),
        pytest.param({**CHANNEL_DOC, "channel": {"named": "identity", "d": 10**12}}, "channel.d",
                     id="identity"),
        pytest.param({**CHANNEL_DOC, "channel": {"kraus": [np.eye(65).tolist()]}},
                     "channel.kraus: dimension 65", id="kraus"),
    ])
    def test_load_rejects_before_building(self, doc, field):
        def load():
            with pytest.raises(ScenarioError, match=field):
                load_scenario(doc)

        assert peak_traced_bytes(load) < 2**20

    @pytest.mark.parametrize("state, free_set, field", [
        ({"named": "golden", "d": 2}, {"kind": "incoherent", "dim": 10**9}, "free_set.dim"),
        ({"named": "tstate", "n": 1}, {"kind": "stabilizer", "n": 10**12}, "free_set.n"),
    ], ids=["incoherent", "stabilizer"])
    def test_free_set_rejected_before_building(self, state, free_set, field):
        def load():
            with pytest.raises(ScenarioError, match=field):
                load_scenario(scenario_dict(state=state, free_set=free_set))

        assert peak_traced_bytes(load) < 2**20

    def test_largest_family_in_use_is_accepted(self):
        sc = load_scenario(scenario_dict(state={"named": "tstate", "n": 10}))
        assert sc.state[0].d == 1024

    def test_freeset_dump_flag_rejected_before_building(self, capsys):
        argv = ["freeset", "dump", "--kind", "incoherent", "--dim", str(10**9)]
        codes = []
        assert peak_traced_bytes(lambda: codes.append(cli.main(argv))) < 2**20
        assert codes == [4]
        assert "error: freeset.dim" in capsys.readouterr().err

    @pytest.mark.parametrize("d", [9, 64])
    def test_depolarizing_capped_at_the_choi_cap(self, d, tmp_path, capsys):
        # d^2 dense Kraus operators: about 256 MB at d = 64 if it were built
        path = tmp_path / "dep.json"
        path.write_text(json.dumps({"channel": {"named": "depolarizing", "d": d},
                                    "free_set": {"kind": "incoherent"},
                                    "lambda": 1.0, "beta": 1.0}))
        codes = []
        assert peak_traced_bytes(lambda: codes.append(
            cli.main(["channel", "--input", str(path)]))) < 2**20
        assert codes == [4]
        assert "channel.d: expected an integer in 1..8" in capsys.readouterr().err

    def test_theorem4_skipped_above_the_choi_cap(self, monkeypatch, tmp_path, capsys):
        def no_choi(E):
            raise AssertionError("no Choi state above the cap")

        monkeypatch.setattr(channels, "choi_state", no_choi)
        monkeypatch.setattr(scenarios, "choi_state", no_choi)
        doc = {**CHANNEL_DOC, "channel": {"named": "identity", "d": 9},
               "free_set": {"kind": "incoherent"}}
        report = run_scenario(load_scenario(doc))
        t4 = [e for e in report["entries"] if e["check"] == "theorem4"]
        assert t4 and all(e["skipped"] and e["reason"] == "Choi dimension 81 above the SDP cap "
                          "of 64" and e["robustness"] is None for e in t4)
        assert any(e["check"] == "theorem3" for e in report["entries"])
        path = tmp_path / "ch.json"
        path.write_text(json.dumps({"channel": doc["channel"], "free_set": doc["free_set"],
                                    "lambda": 1.0, "beta": 1.0}))
        assert cli.main(["channel", "--input", str(path)]) == 0
        out = strict_json(capsys.readouterr().out)
        assert out["choi"] is None and out["skips"]["theorem4"] == t4[0]["reason"]


class TestRunScenario:
    def test_two_qubit_stabilizer_channel_names_the_enumeration_cap(self):
        # stabilizer(2) lifts to stabilizer(4), which is not enumerated
        cnot = np.eye(4)[[0, 1, 3, 2]]
        doc = {**CHANNEL_DOC, "channel": {"kraus": [[[[x, 0.0] for x in row] for row in cnot]]},
               "free_set": {"kind": "stabilizer"}}
        report = run_scenario(load_scenario(doc))
        t4 = [e for e in report["entries"] if e["check"] == "theorem4"]
        assert t4 and all(e["skipped"] and e["reason"] == "stabilizer(4) is above the 3-qubit "
                          "enumeration cap" for e in t4)

    def test_four_qubit_stabilizer_channel_skips_theorem3_at_the_enumeration_cap(self):
        # the output witness of theorem3 needs stabilizer(4), which is not enumerated
        doc = {**CHANNEL_DOC, "channel": {"kraus": [IDENTITY16]},
               "free_set": {"kind": "stabilizer"}}
        report = run_scenario(load_scenario(doc))
        t3 = [e for e in report["entries"] if e["check"] == "theorem3"]
        assert t3 and all(e["skipped"] and e["reason"] == "stabilizer(4) is above the 3-qubit "
                          "enumeration cap" for e in t3)
        assert report["exit_code"] == 0

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

        # a channel check takes the same skip rule: its report names no reason
        doc = scenario_dict(name="depolarizing-low-lambda",
                            channel={"named": "depolarizing", "d": 2, "p": 0.5},
                            lambda_grid=[0.01], beta_grid=[0.1], checks=["theorem4"])
        del doc["state"]
        entries = run_scenario(load_scenario(doc))["entries"]
        assert any(e["skipped"] for e in entries)
        assert all(e["reason"] is not None for e in entries if e["skipped"])

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
        # at zero temperature the state is thermal under its witness Hamiltonian,
        # and the corollary-1 skip names that rather than the generic reason
        sc = load_scenario(scenario_dict(
            name="basis-degenerate",
            state={"named": "basis", "d": 2, "j": 0},
            free_set={"kind": "stabilizer"},
            lambda_grid=[100.0],
            beta_grid=["inf"],
            checks=["corollary1"],
        ))
        entry = run_scenario(sc)["entries"][0]
        assert entry["skipped"]
        assert entry["reason"] == "state is thermal under the witness Hamiltonian"

    def test_determinism_modulo_meta(self):
        sc = load_scenario(scenario_dict())
        r1, r2 = run_scenario(sc), run_scenario(sc)
        for r in (r1, r2):
            del r["meta"]
        assert report_to_json_text(r1) == report_to_json_text(r2)

    def test_degenerate_channel_report_is_strict_json(self):
        # the default input |0> stays |0> under the T gate, a free output, so
        # the theorem-3 report takes the degenerate path with lhs = rhs = inf
        doc = scenario_dict(name="t-gate", channel={"named": "t_gate"},
                            free_set={"kind": "stabilizer"}, lambda_grid=[100.0],
                            beta_grid=["inf"], checks=["theorem3", "theorem4"])
        del doc["state"]
        report = strict_json(report_to_json_text(run_scenario(load_scenario(doc))))
        slacks = [e["report"]["slack"] for e in report["entries"] if e["report"]]
        assert None in slacks

    def test_json_text_refuses_nan(self):
        # a NaN that is no float subclass (np.float32) must raise, not leak
        with pytest.raises(ValueError):
            report_to_json_text({"entries": [], "x": np.float32("nan")})
        with pytest.raises(ValueError):
            report_to_json_text([np.float32("-inf")])

    @pytest.mark.parametrize("key", [1, 1.5, None, True, ("a",)])
    def test_json_text_rejects_non_string_keys(self, key):
        # json.dumps would coerce 1, 1.5, None and True to strings
        with pytest.raises(TypeError):
            report_to_json_text({"entries": [{key: 0.0}]})

    def test_json_text_handles_deep_nesting(self):
        doc = {"x": -0.0}
        for depth in range(60):
            doc = [doc, {}, "\u00e9"] if depth % 2 else {"d": doc, "e": (), "f": float("nan")}
        assert report_to_json_text(doc) == old_report_to_json_text(doc)

    @settings(max_examples=300, deadline=None)
    @given(doc=JSON_DOCS)
    def test_json_text_matches_two_pass_emitter(self, doc):
        assert report_to_json_text(doc) == old_report_to_json_text(doc)

    @pytest.mark.parametrize("doc", [
        pytest.param(scenario_dict(state={"named": "golden", "d": [2, 4, 8]},
                                   lambda_grid=[100.0, 10000.0],
                                   checks=["theorem1", "eq10", "theorem2", "corollary1"]),
                     id="golden-2..8"),
        pytest.param({**CHANNEL_DOC, "channel": {"named": "depolarizing", "d": 2, "p": 0.4}},
                     id="depolarizing"),
        # |0> is free under the T gate, so theorem3 reports a null slack
        pytest.param({**CHANNEL_DOC, "channel": {"named": "t_gate"},
                      "free_set": {"kind": "stabilizer"}}, id="t_gate-degenerate"),
    ])
    def test_real_reports_match_two_pass_emitter(self, doc):
        report = run_scenario(load_scenario(doc))
        assert report_to_json_text(report) == old_report_to_json_text(report)

    @pytest.mark.parametrize("argv, doc", [
        pytest.param(["robustness"], {**GOLDEN2, "state": {"named": "golden", "d": 4}},
                     id="robustness"),
        pytest.param(["freeset", "dump", "--kind", "stabilizer", "--n", "2"], None,
                     id="freeset-dump"),
    ])
    def test_cli_payloads_match_two_pass_emitter(self, argv, doc, monkeypatch, tmp_path,
                                                 capsys):
        payloads = []
        monkeypatch.setattr(cli, "report_to_json_text",
                            lambda p: payloads.append(p) or report_to_json_text(p))
        if doc is not None:
            (path := tmp_path / "in.json").write_text(json.dumps(doc))
            argv = [*argv, "--input", str(path)]
        assert cli.main(argv) == 0
        (payload,) = payloads
        assert capsys.readouterr().out.strip() == old_report_to_json_text(payload)

    def test_theorem2_runs_with_closed_form_witness(self):
        sc = load_scenario(scenario_dict(checks=["theorem2"], beta_grid=[1.0]))
        report = run_scenario(sc)
        for e in report["entries"]:
            assert not e["skipped"]
            assert e["report"]["satisfied"]

    def test_tstate_scenario_up_to_three_copies_exits_zero(self):
        # the n = 3 theorem-2 residual solve used to stop at max_iterations
        report = run_scenario(load_scenario(scenario_dict(
            name="tstate", state={"named": "tstate", "n": [1, 2, 3]},
            free_set={"kind": "stabilizer"}, lambda_grid=[10000.0],
            checks=["theorem1", "eq10", "theorem2", "corollary1"])))
        statuses = {e["report"]["detail"]["status"] for e in report["entries"]
                    if e["check"] == "theorem2" and not e["skipped"]}
        assert statuses == {"converged"}
        assert report["exit_code"] == 0

    def test_infeasible_hull_is_a_scenario_error(self):
        sc = load_scenario(scenario_dict(
            state={"named": "golden", "d": 2},
            free_set={"kind": "finite_hull", "states": [[[1.0, 0.0], [0.0, 0.0]]]},
        ))
        with pytest.raises(ScenarioError, match="cannot dominate"):
            run_scenario(sc)

    def test_theorem2_skipped_above_dimension_cap(self):
        sc = load_scenario(scenario_dict(
            state={"named": "golden", "d": 128},
            checks=["theorem2"],
            beta_grid=[1.0],
        ))
        report = run_scenario(sc)
        entry = report["entries"][0]
        assert entry["skipped"]
        assert entry["reason"] == f"dimension 128 above the SDP cap of {scenarios._SDP_DIM_CAP}"
        assert report["exit_code"] == 0

    def test_theorem2_runs_up_to_the_sdp_cap(self):
        report = run_scenario(load_scenario(scenario_dict(
            state={"named": "golden", "d": [32, 64]}, checks=["theorem2"])))
        assert [e["d"] for e in report["entries"]] == [32, 32, 64, 64]
        for e in report["entries"]:
            assert not e["skipped"] and e["report"]["satisfied"]
            assert e["report"]["detail"]["status"] == "converged"
            assert e["report"]["lhs"] <= 1.0 / (e["d"] - 1) + 1e-12
        assert report["exit_code"] == 0

    def test_theorem2_skipped_without_the_maximally_mixed_state(self):
        # I/2 is outside the hull of |0> and |+>; theorem 1 is still reported
        plus = [[2**-0.5, 0.0], [2**-0.5, 0.0]]
        report = run_scenario(load_scenario(scenario_dict(
            state={"vector": [[0.6, 0.0], [0.8, 0.0]]},
            free_set={"kind": "finite_hull", "states": [[[1.0, 0.0], [0.0, 0.0]], plus]},
            lambda_grid=[100.0], beta_grid=[1.0], checks=["theorem1", "theorem2"])))
        by_check = {e["check"]: e for e in report["entries"]}
        assert by_check["theorem2"]["skipped"]
        assert by_check["theorem2"]["reason"] == \
            "theorem2 needs the maximally mixed state in the free set"
        assert not by_check["theorem1"]["skipped"]
        assert by_check["theorem1"]["report"]["satisfied"]
        assert report["exit_code"] == 0

    def test_tstate_beyond_stabilizer_enumeration(self):
        # n = 4 has no enumerated stabilizer set: the closed-form witness and its
        # tight constraint value serve theorem1, eq10 and corollary1
        report = run_scenario(load_scenario(scenario_dict(
            name="tstate-4", state={"named": "tstate", "n": 4},
            free_set={"kind": "stabilizer"}, lambda_grid=[100.0],
            checks=["theorem1", "eq10", "theorem2", "corollary1"])))
        assert len(report["entries"]) == 2 * 4
        for e in report["entries"]:
            if e["check"] == "theorem2":
                assert e["skipped"] and "enumerable" in e["reason"]
            elif not e["skipped"]:
                assert e["report"]["satisfied"]
        (zero_t,) = [e for e in report["entries"]
                     if e["check"] == "theorem1" and e["beta"] == "inf"]
        assert zero_t["report"]["lhs"] == pytest.approx((4 - 2 * math.sqrt(2)) ** 4, rel=1e-12)
        assert report["exit_code"] == 0

    def test_golden_above_the_cap_runs_through_the_closed_form(self):
        state = {"named": "golden", "d": [128, 256]}
        assert [v.rho for v in parse_state_spec(state)] == [None, None]
        report = run_scenario(load_scenario(scenario_dict(state=state)))
        for e in report["entries"]:
            assert e["robustness"]["status"] == "closed_form"
            assert e["robustness"]["value"] == pytest.approx(e["d"] - 1.0, rel=1e-12)
            assert e["report"]["satisfied"]
        assert report["exit_code"] == 0

    def test_detail_keys_do_not_depend_on_dimension(self):
        report = run_scenario(load_scenario(scenario_dict(
            state={"named": "golden", "d": [8, 128]}, checks=["theorem1", "eq10", "corollary1"])))
        keys = {}
        for e in report["entries"]:
            keys.setdefault(e["check"], set()).add(tuple(sorted(e["report"]["detail"])))
        assert all(len(v) == 1 for v in keys.values()), keys

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

    @pytest.mark.parametrize("x, text", [(math.inf, "inf"), (-math.inf, "-inf"),
                                         (np.float64(-np.inf), "-inf")])
    def test_fmt_writes_signed_infinities(self, x, text):
        assert scenarios._fmt(x) == text

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

    def test_robustness_verb_infeasible_hull_is_strict_json(self, tmp_path):
        path = self.write(tmp_path, "in.json", {
            "state": {"named": "basis", "d": 2, "j": 1},
            "free_set": {"kind": "finite_hull", "states": [[[1.0, 0.0], [0.0, 0.0]]]},
        })
        proc = self.run_cli("robustness", "--input", path)
        assert proc.returncode == 0, proc.stderr
        out = strict_json(proc.stdout)
        assert out["status"] == "infeasible"
        assert out["value"] == out["upper_bound"] == "inf"

    def test_robustness_verb_tstate_three_copies_converges(self, tmp_path):
        path = self.write(tmp_path, "in.json", {
            "state": {"named": "tstate", "n": 3},
            "free_set": {"kind": "stabilizer"},
        })
        proc = self.run_cli("robustness", "--input", path)
        assert proc.returncode == 0, proc.stderr
        out = strict_json(proc.stdout)
        assert out["status"] == "converged"
        assert out["lower_bound"] <= (4 - 2 * math.sqrt(2)) ** 3 - 1 <= out["upper_bound"]

    def test_witness_verb_infeasible_hull_has_no_rank1(self, tmp_path):
        path = self.write(tmp_path, "in.json", {
            "state": {"named": "golden", "d": 2},
            "free_set": {"kind": "finite_hull", "states": [[[1.0, 0.0], [0.0, 0.0]]]},
        })
        proc = self.run_cli("witness", "--input", path)
        assert proc.returncode == 0, proc.stderr
        out = strict_json(proc.stdout)
        assert out["status"] == "infeasible"
        assert out["witness"] is None and out["rank1"] is None

    @pytest.mark.parametrize("verb, doc", [
        pytest.param("protocol", {**GOLDEN2, "free_set": HULL0, "lambda": 1.0, "beta": 1.0},
                     id="protocol"),
        pytest.param("channel", {"channel": {"named": "hadamard"}, "free_set": HULL0,
                                 "lambda": 1.0, "beta": 1.0}, id="channel-theorem3"),
    ])
    def test_infeasible_hull_is_an_input_error(self, tmp_path, verb, doc):
        proc = self.run_cli(verb, "--input", self.write(tmp_path, "in.json", doc))
        assert proc.returncode == 4
        assert "Traceback" not in proc.stderr
        assert "cannot dominate" in proc.stderr

    def test_verify_verb_infeasible_hull_says_so(self, tmp_path):
        path = self.write(tmp_path, "sc.json", scenario_dict(
            state={"named": "golden", "d": 2},
            free_set={"kind": "finite_hull", "states": [[[1.0, 0.0], [0.0, 0.0]]]},
        ))
        proc = self.run_cli("verify", "--input", path)
        assert proc.returncode == 4
        assert "cannot dominate" in proc.stderr

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

    @pytest.mark.parametrize("argv, doc, field", [
        pytest.param(["verify"], scenario_dict(checks=["theorem9"]), "theorem9",
                     id="unknown-check"),
        pytest.param(["robustness"], {**GOLDEN2, "tol": "x"}, "input.tol", id="tol-string"),
        pytest.param(["robustness"], {**GOLDEN2, "tol": -1}, "input.tol", id="tol-negative"),
        pytest.param(["robustness", "--tol", "0"], GOLDEN2, "--tol", id="tol-flag-zero"),
        pytest.param(["robustness", "--tol", "abc"], GOLDEN2, "--tol", id="tol-flag-not-a-number"),
        pytest.param(["protocol"], {**GOLDEN2, "lambda": True, "beta": 1.0}, "input.lambda",
                     id="lambda-boolean"),
        pytest.param(["verify"], scenario_dict(state={"named": "tstate", "n": 1},
                                               free_set={"kind": "stabilizer", "n": "1"}),
                     "free_set.n", id="stabilizer-n-string"),
        pytest.param(["verify"], {**{k: v for k, v in scenario_dict().items() if k != "state"},
                                  "channel": {"named": "hadamard"}, "checks": ["theorem4"],
                                  "free_set": {"kind": "incoherent", "dim": 3}},
                     "free_set.dim", id="channel-incoherent-dim-mismatch"),
        pytest.param(["verify"], scenario_dict(state={"named": "tstate", "n": 4},
                                               free_set={"kind": "stabilizer", "n": 9}),
                     "free_set.n", id="tstate-stabilizer-n-mismatch"),
        pytest.param(["freeset", "dump"], {"kind": "incoherent", "dim": "3"}, "freeset.dim",
                     id="dump-dim-string"),
        pytest.param(["freeset", "dump"], {"kind": "stabilizer", "bogus": 1}, "freeset.bogus",
                     id="dump-unknown-field"),
        pytest.param(["freeset", "dump", "--kind", "stabilizer", "--tol", "1e-7"], None, "--tol",
                     id="dump-unknown-flag"),
        pytest.param(["verify"], None, "--input", id="verify-without-input"),
        pytest.param(["robustness"], {**GOLDEN2, "tol": math.inf}, "input.tol", id="tol-infinity"),
        pytest.param(["protocol"], {**GOLDEN2, "lambda": math.inf, "beta": 1.0}, "input.lambda",
                     id="lambda-infinity"),
        pytest.param(["verify"], scenario_dict(lambda_grid=[math.inf]), "scenario.lambda_grid",
                     id="lambda-grid-infinity"),
        pytest.param(["verify"], scenario_dict(min_lambda_beta_factor=math.inf),
                     "scenario.min_lambda_beta_factor", id="min-lambda-beta-factor-infinity"),
        pytest.param(["robustness"], {"state": {"named": "golden", "d": 100},
                                      "free_set": {"kind": "incoherent"}},
                     "golden(100) has dimension 100, above the cap of 64", id="golden-above-cap"),
        pytest.param(["robustness"], {**GOLDEN2, "free_set": {"kind": "finite_hull",
                                                              "states": [[[1, 0], [1, 0]]]}},
                     "free_set.states: extreme point 0 has squared norm 2.0", id="hull-point-norm"),
        pytest.param(["robustness"], {"state": {"named": "basis", "d": 10**12, "j": 0},
                                      "free_set": {"kind": "incoherent"}},
                     "state.d: expected an integer in 2..1024", id="basis-above-family-cap"),
        pytest.param(["robustness"], {"state": {"named": "golden", "d": 1},
                                      "free_set": {"kind": "incoherent"}},
                     "state.d: expected an integer in 2..1024, got 1", id="golden-below-two"),
        pytest.param(["robustness"], {"state": {"matrix": [[1, 0], [0]]},
                                      "free_set": {"kind": "incoherent"}},
                     "state.matrix[1]: expected an array of 2 entries", id="matrix-ragged"),
        pytest.param(["robustness"], {"state": {"named": "basis", "d": 100, "j": 0},
                                      "free_set": {"kind": "incoherent"}},
                     "basis(100,0) has dimension 100, above the cap of 64", id="basis-above-cap"),
        pytest.param(["witness"], {"state": {"vector": [[0.1, 0.0]] * 100},
                                   "free_set": {"kind": "incoherent"}},
                     "custom-pure has dimension 100, above the cap of 64", id="vector-above-cap"),
        pytest.param(["robustness"], {"state": {"matrix": [[True, 0], [0, False]]},
                                      "free_set": {"kind": "incoherent"}},
                     "state.matrix[0][0]", id="matrix-boolean-entry"),
        pytest.param(["robustness"], {"state": {"vector": [[True, False], [0, 0]]},
                                      "free_set": {"kind": "incoherent"}},
                     "state.vector[0]", id="vector-boolean-entry"),
        pytest.param(["channel"], {"channel": {"kraus": [[[1, 0], [0, True]]]},
                                   "free_set": {"kind": "incoherent"}, "lambda": 1.0,
                                   "beta": 1.0},
                     "channel.kraus", id="kraus-boolean-entry"),
        pytest.param(["robustness"], {"state": {"named": "basis", "d": 2, "j": 0},
                                      "free_set": {"kind": "finite_hull",
                                                   "states": [[True, 0], [0, 1]]}},
                     "free_set.states[0]", id="finite-hull-boolean-entry"),
        pytest.param(["protocol"], {"state": {"named": "golden", "d": 2}, "lambda": 1.0,
                                    "beta": 1.0, "witness": [[True, 0], [0, 1]]},
                     "input.witness", id="protocol-witness-boolean-entry"),
        pytest.param(["channel"], {"channel": {"named": "t_gate"},
                                   "free_set": {"kind": "stabilizer"}, "lambda": 100.0,
                                   "beta": "inf",
                                   "input_state": {"named": "basis", "d": 4, "j": 0}},
                     "input_state: dimension 4 does not match the channel's dimension 2",
                     id="channel-input-state-dimension"),
    ])
    def test_input_error_exit_code(self, tmp_path, argv, doc, field):
        if doc is not None:
            argv = [*argv, "--input", self.write(tmp_path, "in.json", doc)]
        proc = self.run_cli(*argv)
        assert proc.returncode == 4, proc.stderr
        assert "Traceback" not in proc.stderr
        assert any("error:" in line and field in line for line in proc.stderr.splitlines())

    def test_bad_trace_message_prints_a_plain_float(self, tmp_path):
        path = self.write(tmp_path, "in.json", {
            "state": {"matrix": [[1, 0], [0, 0.5]]},
            "free_set": {"kind": "incoherent"},
        })
        proc = self.run_cli("robustness", "--input", path)
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr == "error: state has trace 1.5, expected 1\n"

    @pytest.mark.parametrize("verb", ["robustness", "witness"])
    def test_single_state_above_the_cap_is_an_input_error(self, tmp_path, verb):
        path = self.write(tmp_path, "in.json", {
            "state": {"named": "tstate", "n": 7},
            "free_set": {"kind": "incoherent"},
        })
        proc = self.run_cli(verb, "--input", path)
        assert proc.returncode == 4, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "error: state: tstate(7) has dimension 128, above the cap of 64" in proc.stderr

    def test_stdout_closed_by_the_reader(self):
        # the dump is larger than a pipe buffer, so the write fails once the
        # reader has gone
        cmd = [sys.executable, "-m", "robustwork.cli", "freeset", "dump",
               "--kind", "stabilizer", "--n", "3"]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert stderr == ""

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
        out = strict_json(proc.stdout)
        assert out["robustness_lower"]["value"] == pytest.approx(0.1715729, abs=1e-5)
        assert out["bounds"]["theorem4"]["satisfied"]
        assert out["bounds"]["theorem3"]["slack"] is None

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

    def test_channel_verb_above_the_enumeration_cap(self, tmp_path, capsys):
        path = self.write(tmp_path, "ch.json", {
            "channel": {"kraus": [IDENTITY16]},
            "free_set": {"kind": "stabilizer"},
            "lambda": 1.0,
            "beta": 1.0,
        })
        assert cli.main(["channel", "--input", path]) == 0
        out = strict_json(capsys.readouterr().out)
        assert out["skips"] == {
            "theorem3": "stabilizer(4) is above the 3-qubit enumeration cap",
            "theorem4": "Choi dimension 256 above the SDP cap of 64",
        }

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
