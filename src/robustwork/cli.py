"""Command-line interface.

Verbs: robustness, witness, protocol, verify, channel, sweep, freeset dump.
Inputs are JSON files (``--input``); results go to stdout or, with
``--out DIR``, to files in that directory.  Exit codes: 0 all checks pass,
2 a precondition-met check failed, 3 solver non-convergence, 4 input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .channels import choi_state
from .freesets import incoherent_set, stabilizer_set
from .iojson import beta_to_json, matrix_to_json, parse_beta, vector_to_json
from .linalg import assert_hermitian
from .scenarios import (
    ScenarioError,
    _channel_entries,
    build_free_set,
    exit_code_of_report,
    load_scenario,
    parse_channel_spec,
    parse_state_spec,
    report_to_json_text,
    run_scenario,
    sweep,
    sweep_to_csv,
)
from .solver import Rank1NotTightError, _rank1_truncation, robustness_dual
from .thermo import ThermoContext, simulate_protocol, verify_eq10_ratio, verify_theorem1
from .iojson import json_to_matrix

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_NONCONVERGED = 3
EXIT_INPUT_ERROR = 4


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from None


def _emit(payload: str, out_dir: str | None, filename: str):
    if out_dir is None:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")
        return
    target = Path(out_dir)
    target.mkdir(parents=True, exist_ok=True)
    (target / filename).write_text(payload, encoding="utf-8")
    print(str(target / filename))


def _single_state(obj, path="state"):
    variants = parse_state_spec(obj, path)
    if len(variants) != 1:
        raise ScenarioError(f"{path}: expected a single state, got a family of {len(variants)}")
    return variants[0]


def _robustness_payload(result):
    return {
        "value": result.value,
        "gap": result.gap,
        "status": result.status,
        "lower_bound": result.lower_bound,
        "upper_bound": result.upper_bound,
        "witness": None if result.witness is None else matrix_to_json(result.witness),
    }


def _cmd_robustness(args) -> int:
    obj = _load_json(args.input)
    if not isinstance(obj, dict) or "state" not in obj or "free_set" not in obj:
        raise ScenarioError("input: expected an object with 'state' and 'free_set'")
    variant = _single_state(obj["state"])
    spec = build_free_set(obj["free_set"], variant.d)
    tol = args.tol if args.tol is not None else obj.get("tol", 1e-7)
    result = robustness_dual(variant.rho, spec, tol=tol)
    payload = _robustness_payload(result)
    payload["primal_weights"] = None if result.primal_weights is None else [
        float(x) for x in result.primal_weights
    ]
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.out, "robustness.json")
    return EXIT_NONCONVERGED if result.status == "max_iterations" else EXIT_OK


def _cmd_witness(args) -> int:
    obj = _load_json(args.input)
    if not isinstance(obj, dict) or "state" not in obj or "free_set" not in obj:
        raise ScenarioError("input: expected an object with 'state' and 'free_set'")
    variant = _single_state(obj["state"])
    spec = build_free_set(obj["free_set"], variant.d)
    tol = args.tol if args.tol is not None else obj.get("tol", 1e-7)
    result = robustness_dual(variant.rho, spec, tol=tol)
    payload = _robustness_payload(result)
    payload["rank1"] = None
    if variant.psi is not None and result.value > 10 * tol:
        try:
            c, y = _rank1_truncation(variant.psi, spec, result, tol)
            payload["rank1"] = {"c": c, "y": vector_to_json(y)}
        except Rank1NotTightError as exc:
            payload["rank1"] = {"error": str(exc)}
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.out, "witness.json")
    return EXIT_NONCONVERGED if result.status == "max_iterations" else EXIT_OK


def _cmd_protocol(args) -> int:
    obj = _load_json(args.input)
    if not isinstance(obj, dict) or "state" not in obj:
        raise ScenarioError("input: expected an object with 'state'")
    for key in ("lambda", "beta"):
        if key not in obj:
            raise ScenarioError(f"input: missing required field '{key}'")
    variant = _single_state(obj["state"])
    ctx = ThermoContext(beta=parse_beta(obj["beta"]), lam=float(obj["lambda"]))
    tol = args.tol if args.tol is not None else obj.get("tol", 1e-7)

    spec = None
    if "witness" in obj:
        witness = assert_hermitian(json_to_matrix(obj["witness"], "witness"))
    elif "free_set" in obj:
        spec = build_free_set(obj["free_set"], variant.d)
        witness = robustness_dual(variant.rho, spec, tol=tol).witness
    else:
        raise ScenarioError("input: provide 'witness' or 'free_set'")

    trace = simulate_protocol(variant.rho, witness, ctx)
    payload = {
        "dW_a": trace.dw_a,
        "dW_b": trace.dw_b,
        "dW_c": trace.dw_c,
        "dW_d": trace.dw_d,
        "total": trace.total,
        "hamiltonian": matrix_to_json(trace.hamiltonian),
        "final_state": matrix_to_json(trace.final_state),
        "beta": beta_to_json(ctx.beta),
        "lambda": ctx.lam,
    }
    if spec is not None:
        for rep in (verify_theorem1(variant.rho, spec, ctx, witness=witness),
                    verify_eq10_ratio(variant.rho, spec, ctx, witness=witness)):
            payload[rep.label] = {
                "lhs": rep.lhs if math.isfinite(rep.lhs) else "inf",
                "rhs": rep.rhs,
                "satisfied": rep.satisfied,
                "precondition_met": rep.precondition_met,
            }
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.out, "protocol.json")
    return EXIT_OK


def _cmd_verify(args) -> int:
    scenario = load_scenario(_load_json(args.input))
    if args.seed is not None:
        scenario = _override(scenario, seed=args.seed)
    if args.tol is not None:
        scenario = _override(scenario, tol=args.tol)
    report = run_scenario(scenario)
    _emit(report_to_json_text(report), args.out, "report.json")
    return exit_code_of_report(report)


def _cmd_sweep(args) -> int:
    scenario = load_scenario(_load_json(args.input))
    if args.seed is not None:
        scenario = _override(scenario, seed=args.seed)
    if args.tol is not None:
        scenario = _override(scenario, tol=args.tol)
    rows = sweep(scenario)
    _emit(sweep_to_csv(rows), args.out, "sweep.csv")
    return EXIT_OK


def _override(scenario, **kw):
    from dataclasses import replace

    return replace(scenario, **kw)


def _cmd_channel(args) -> int:
    obj = _load_json(args.input)
    if not isinstance(obj, dict) or "channel" not in obj or "free_set" not in obj:
        raise ScenarioError("input: expected an object with 'channel' and 'free_set'")
    for key in ("lambda", "beta"):
        if key not in obj:
            raise ScenarioError(f"input: missing required field '{key}'")
    channel, label = parse_channel_spec(obj["channel"])
    tol = args.tol if args.tol is not None else obj.get("tol", 1e-7)
    scenario_like = load_scenario({
        "schema_version": 1,
        "name": label,
        "channel": obj["channel"],
        "free_set": obj["free_set"],
        "lambda_grid": [float(obj["lambda"])],
        "beta_grid": [obj["beta"]],
        "checks": ["theorem3", "theorem4"],
        "tol": tol,
        **({"input_state": obj["input_state"]} if "input_state" in obj else {}),
    })
    entries = _channel_entries(scenario_like, channel, label)
    payload = {
        "channel": label,
        "choi": matrix_to_json(choi_state(channel).matrix),
        "robustness_lower": entries[0]["robustness"],
        "bounds": {e["check"]: e["report"] for e in entries},
        "skips": {e["check"]: e["reason"] for e in entries if e["skipped"]},
    }
    from .scenarios import _sanitize

    _emit(json.dumps(_sanitize(payload), indent=2, sort_keys=True), args.out, "channel.json")
    report = {"entries": entries}
    return exit_code_of_report(report)


def _cmd_freeset_dump(args) -> int:
    if args.input is not None:
        obj = _load_json(args.input)
    else:
        if args.kind is None:
            raise ScenarioError("freeset dump: provide --input FILE or --kind")
        obj = {"kind": args.kind}
        if args.dim is not None:
            obj["dim"] = args.dim
        if args.n is not None:
            obj["n"] = args.n
    kind = obj.get("kind")
    if kind == "incoherent":
        spec = incoherent_set(obj.get("dim", 2))
    elif kind == "stabilizer":
        spec = stabilizer_set(obj.get("n", 1))
    else:
        dim = obj.get("dim")
        if dim is None:
            raise ScenarioError("freeset dump: finite_hull dumps need 'dim'")
        spec = build_free_set(obj, dim, "freeset")
    payload = {
        "kind": spec.kind,
        "dim": spec.dim,
        "count": spec.n_points,
        "states": [vector_to_json(v) for v in spec.vectors]
        + [matrix_to_json(m) for m in spec.matrices],
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.out, "freeset.json")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustwork",
        description="Resource robustness SDPs and witness-Hamiltonian work bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True, help="input JSON file")
        p.add_argument("--out", default=None, help="output directory (default: stdout)")
        p.add_argument("--tol", type=float, default=None, help="solver tolerance override")
        p.add_argument("--seed", type=int, default=None, help="seed override")

    for name, fn in (
        ("robustness", _cmd_robustness),
        ("witness", _cmd_witness),
        ("protocol", _cmd_protocol),
        ("verify", _cmd_verify),
        ("channel", _cmd_channel),
        ("sweep", _cmd_sweep),
    ):
        p = sub.add_parser(name)
        add_io(p)
        p.set_defaults(fn=fn)

    freeset = sub.add_parser("freeset")
    fsub = freeset.add_subparsers(dest="freeset_command", required=True)
    dump = fsub.add_parser("dump")
    dump.add_argument("--input", default=None, help="free-set spec JSON file")
    dump.add_argument("--kind", default=None, choices=("incoherent", "stabilizer"))
    dump.add_argument("--dim", type=int, default=None)
    dump.add_argument("--n", type=int, default=None)
    dump.add_argument("--out", default=None)
    dump.add_argument("--tol", type=float, default=None)
    dump.add_argument("--seed", type=int, default=None)
    dump.set_defaults(fn=_cmd_freeset_dump)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
