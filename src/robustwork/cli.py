"""Command-line interface.

Verbs: robustness, witness, protocol, verify, channel, sweep, freeset dump.
Inputs are JSON files (``--input``), checked by the scenario parsers, which
reject unknown fields; results go to stdout or, with ``--out DIR``, to files
in that directory.  Exit codes: 0 all checks pass, 2 a precondition-met check
failed, 3 solver non-convergence, 4 input or usage error, 1 stdout closed by
its reader.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from .iojson import beta_to_json, json_to_matrix, matrix_to_json, vector_to_json
from .linalg import assert_hermitian
from .scenarios import (
    ScenarioError,
    _parse_int,
    _parse_positive,
    _single_state,
    build_free_set,
    load_scenario,
    parse_input,
    report_to_json_text,
    run_scenario,
    sweep,
    sweep_to_csv,
)
from .solver import (INFEASIBLE, MAX_ITERATIONS, Rank1NotTightError, rank1_truncation,
                     robustness_dual)
from .thermo import ThermoContext, eq10_report, simulate_protocol, theorem1_report, witness_summary

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_NONCONVERGED = 3
EXIT_INPUT_ERROR = 4
EXIT_CLOSED_STDOUT = 1


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 4: argparse's own exit code 2 means a failed check here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from None


def _overrides(args) -> dict:
    """--tol and --seed, checked like the document fields they replace."""
    out = {}
    if args.tol is not None:
        out["tol"] = _parse_positive(args.tol, "--tol")
    if args.seed is not None:
        out["seed"] = _parse_int(args.seed, "--seed", 0)
    return out


def _input(args, required: tuple, optional: tuple = ()) -> dict:
    """The --input object of a single-instance verb, with --tol applied."""
    obj = parse_input(_load_json(args.input), required, optional)
    return {**obj, "tol": _overrides(args).get("tol", obj["tol"])}


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


def _cmd_solve(args) -> int:
    """``robustness`` and ``witness``: one solve; ``robustness`` adds the primal
    weights, ``witness`` the rank-1 truncation of the solved witness."""
    obj = _input(args, ("state", "free_set"))
    variant = _single_state(obj["state"])
    spec = build_free_set(obj["free_set"], variant.d)
    tol = obj["tol"]
    result = robustness_dual(variant.rho, spec, tol=tol)
    payload = {
        "value": result.value,
        "gap": result.gap,
        "status": result.status,
        "lower_bound": result.lower_bound,
        "upper_bound": result.upper_bound,
        "witness": None if result.witness is None else matrix_to_json(result.witness),
    }
    if args.command == "robustness":
        payload["primal_weights"] = None if result.primal_weights is None else [
            float(x) for x in result.primal_weights
        ]
    else:
        payload["rank1"] = None
        if variant.psi is not None and result.status != INFEASIBLE and result.value > 10 * tol:
            try:
                c, y = rank1_truncation(variant.psi, spec, result, tol)
                payload["rank1"] = {"c": c, "y": vector_to_json(y)}
            except Rank1NotTightError as exc:
                payload["rank1"] = {"error": str(exc)}
    _emit(report_to_json_text(payload), args.out, f"{args.command}.json")
    return EXIT_NONCONVERGED if result.status == MAX_ITERATIONS else EXIT_OK


def _cmd_protocol(args) -> int:
    obj = _input(args, ("state", "lambda", "beta", ("witness", "free_set")))
    variant = _single_state(obj["state"])
    ctx = ThermoContext(beta=obj["beta"], lam=obj["lambda"])

    spec = None
    if "witness" in obj:
        witness = assert_hermitian(json_to_matrix(obj["witness"], "input.witness"))
    else:
        spec = build_free_set(obj["free_set"], variant.d)
        witness = robustness_dual(variant.rho, spec, tol=obj["tol"]).witness

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
        summary = witness_summary(witness, variant.rho, spec)
        for rep in (theorem1_report(summary, ctx), eq10_report(summary, ctx)):
            payload[rep.label] = {
                "lhs": rep.lhs,
                "rhs": rep.rhs,
                "satisfied": rep.satisfied,
                "precondition_met": rep.precondition_met,
            }
    _emit(report_to_json_text(payload), args.out, "protocol.json")
    return EXIT_OK


def _scenario_of(args):
    """The --input scenario with the --seed and --tol overrides applied."""
    return replace(load_scenario(_load_json(args.input)), **_overrides(args))


def _cmd_verify(args) -> int:
    report = run_scenario(_scenario_of(args))
    _emit(report_to_json_text(report), args.out, "report.json")
    return report["exit_code"]


def _cmd_sweep(args) -> int:
    _emit(sweep_to_csv(sweep(_scenario_of(args))), args.out, "sweep.csv")
    return EXIT_OK


def _cmd_channel(args) -> int:
    obj = _input(args, ("channel", "free_set", "lambda", "beta"), ("input_state",))
    # channel, free_set, input_state and tol are scenario fields as they stand
    fields = {k: v for k, v in obj.items() if k not in ("lambda", "beta")}
    scenario = load_scenario({
        **fields,
        "schema_version": 1,
        "name": "channel",
        "lambda_grid": [obj["lambda"]],
        "beta_grid": [obj["beta"]],
        "checks": ["theorem3", "theorem4"],
    })
    report = run_scenario(scenario)
    entries = report["entries"]
    payload = {
        "channel": scenario.channel[1],
        # the scenario's one Choi state: theorem4 solved it unless it was skipped
        "choi": None if scenario.choi is None else matrix_to_json(scenario.choi.matrix),
        "robustness_lower": entries[0]["robustness"],
        "bounds": {e["check"]: e["report"] for e in entries},
        "skips": {e["check"]: e["reason"] for e in entries if e["skipped"]},
    }
    _emit(report_to_json_text(payload), args.out, "channel.json")
    return report["exit_code"]


def _cmd_freeset_dump(args) -> int:
    if args.input is not None:
        obj = _load_json(args.input)
    else:
        flags = {"kind": args.kind, "dim": args.dim, "n": args.n}
        obj = {key: value for key, value in flags.items() if value is not None}
    spec = build_free_set(obj, None, "freeset")
    payload = {
        "kind": spec.kind,
        "dim": spec.dim,
        "count": spec.n_points,
        "states": [vector_to_json(v) for v in spec.vectors]
        + [matrix_to_json(m) for m in spec.matrices],
    }
    _emit(report_to_json_text(payload), args.out, "freeset.json")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="robustwork",
        description="Resource robustness SDPs and witness-Hamiltonian work bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in (
        ("robustness", _cmd_solve),
        ("witness", _cmd_solve),
        ("protocol", _cmd_protocol),
        ("verify", _cmd_verify),
        ("channel", _cmd_channel),
        ("sweep", _cmd_sweep),
    ):
        p = sub.add_parser(name)
        p.add_argument("--input", required=True, help="input JSON file")
        p.add_argument("--out", default=None, help="output directory (default: stdout)")
        p.add_argument("--tol", type=float, default=None, help="solver tolerance override")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.set_defaults(fn=fn)

    freeset = sub.add_parser("freeset")
    fsub = freeset.add_subparsers(dest="freeset_command", required=True)
    dump = fsub.add_parser("dump")
    dump.add_argument("--input", default=None, help="free-set spec JSON file")
    dump.add_argument("--kind", default=None, choices=("incoherent", "stabilizer"))
    dump.add_argument("--dim", type=int, default=None)
    dump.add_argument("--n", type=int, default=None)
    dump.add_argument("--out", default=None)
    dump.set_defaults(fn=_cmd_freeset_dump)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except BrokenPipeError:
        # the reader closed stdout early: send what is still buffered to
        # devnull, so the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT


if __name__ == "__main__":
    sys.exit(main())
