"""The three workloads: their inputs, their operations and their correctness gates.

Every input is generated here from the benchmark seed with numpy alone; the
library only ever receives the generated arrays, documents and files.  One
client runs the operations in a closed loop, each after the previous one has
returned.  A pass over a workload's instance list is a *cycle*; runs always
measure whole cycles, so every instance weighs the same in every metric.

Each workload exposes ``in_process`` (operations run in this process; if
False, each runs in a child process and ``setup`` gets no module),
``probe_module`` (what a fresh set-up process imports), ``free_sets`` (what
set-up builds), ``operations()`` (the instance list of one cycle),
``setup(rw)``, ``run(op)`` (the timed part) and ``judge(op, outcome)`` (the
untimed part: raises ``GateError`` on a wrong output, returns True when the
operation counts as failed).
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.linalg import eigvalsh  # bound before tracing: gates are not program work

CONVERGED_STATUSES = ("converged", "closed_form")
STATUS_KEYS = ("status", "solver_status")
GATE_TOL = 1e-9
CLI_TIMEOUT_S = 120


class GateError(RuntimeError):
    """A program output failed a correctness check; the run is void."""


# ---------------------------------------------------------------------------
# input generators (numpy only, so the library never shapes its own inputs)
# ---------------------------------------------------------------------------


def golden_vector(d: int) -> np.ndarray:
    return np.full(d, 1.0 / math.sqrt(d), dtype=complex)


def t_vector(n: int) -> np.ndarray:
    single = np.array([1.0, np.exp(1j * np.pi / 4)], dtype=complex) / math.sqrt(2.0)
    out = single
    for _ in range(n - 1):
        out = np.kron(out, single)
    return out


def haar_vector(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def ginibre_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank Ginibre mixed state G G^dagger / Tr."""
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = G @ G.conj().T
    return rho / rho.trace().real


def choi_of_unitary(U: np.ndarray) -> np.ndarray:
    """Choi state (U tensor I)|Phi><Phi| of a unitary channel."""
    d = U.shape[0]
    phi = np.eye(d, dtype=complex).reshape(-1) / math.sqrt(d)
    v = np.kron(U, np.eye(d)) @ phi
    return np.outer(v, v.conj())


def projector(psi: np.ndarray) -> np.ndarray:
    return np.outer(psi, psi.conj())


def vector_json(v: np.ndarray) -> list:
    """[re, im] pairs, the library's JSON form of complex entries."""
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex)]


def matrix_json(A: np.ndarray) -> list:
    return [vector_json(row) for row in np.asarray(A, dtype=complex)]


T_GATE = np.diag([1.0, np.exp(1j * np.pi / 4)]).astype(complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)

# The Ginibre d=32 state of ROADMAP defect 2 (seed 0 of numpy's default_rng),
# and two more fixed d=32 draws.  Fresh d=32 draws converge in about one draw
# in twenty, and then take a quarter of the time, which moves op_s.p50.
ROADMAP_GINIBRE_SEED = 0
FIXED_GINIBRE32_SEEDS = (1, 2)
# One fixed Haar draw against stabilizer(3): fresh draws vary 0.3-2.4 s per
# solve at the seed commit (stall heuristics), more than any bound tolerates.
FIXED_HAAR3_SEED = 0


def tstate_magic_closed_form(n: int) -> float:
    return (4.0 - 2.0 * math.sqrt(2.0)) ** n - 1.0


def build_free_set(rw, key):
    kind, size = key
    if kind == "incoherent":
        return rw.incoherent_set(size)
    return rw.stabilizer_set(size)


# ---------------------------------------------------------------------------
# certify_mix
# ---------------------------------------------------------------------------


@dataclass
class Instance:
    label: str
    rho: np.ndarray
    free_set: tuple
    closed_form: float | None = None


@dataclass
class Certified:
    result: object
    feasible: bool
    slack: np.ndarray


class CertifyMix:
    """Warm process; one op = robustness_dual at the default tol, then the
    independent rechecks witness_is_feasible and primal_slack."""

    name = "certify_mix"
    in_process = True
    probe_module = "robustwork"
    # Eight instances run well under golden-48 and eight well over it, so
    # op_s.p50 is the median of one deterministic instance rather than a mix
    # of near-equal ones.
    golden_dims = (2, 32, 48, 56, 60, 64)

    def __init__(self, seed: int):
        self.seed = seed
        self.free_sets = sorted(
            {("incoherent", d) for d in self.golden_dims + (4,)}
            | {("stabilizer", n) for n in (1, 2, 3)}
        )
        self.sets = {}
        self._ops = self._instances()

    def _instances(self) -> list[Instance]:
        rng = np.random.default_rng([self.seed, 1])
        out = [Instance(f"golden-{d}", projector(golden_vector(d)), ("incoherent", d), d - 1.0)
               for d in self.golden_dims]
        out += [Instance(f"tstate-{n}", projector(t_vector(n)), ("stabilizer", n),
                         tstate_magic_closed_form(n)) for n in (1, 2, 3)]
        out.append(Instance("ginibre-32-roadmap",
                            ginibre_state(32, np.random.default_rng(ROADMAP_GINIBRE_SEED)),
                            ("incoherent", 32)))
        out += [Instance(f"ginibre-32-fixed{k}", ginibre_state(32, np.random.default_rng(k)),
                         ("incoherent", 32)) for k in FIXED_GINIBRE32_SEEDS]
        out.append(Instance("ginibre-4-seeded", ginibre_state(4, rng), ("incoherent", 4)))
        out.append(Instance("haar-stab2-seeded", projector(haar_vector(4, rng)), ("stabilizer", 2)))
        out.append(Instance("haar-stab3-fixed",
                            projector(haar_vector(8, np.random.default_rng(FIXED_HAAR3_SEED))),
                            ("stabilizer", 3)))
        out.append(Instance("choi-t_gate", choi_of_unitary(T_GATE), ("stabilizer", 2)))
        out.append(Instance("choi-hadamard", choi_of_unitary(HADAMARD), ("stabilizer", 2)))
        return out

    def operations(self) -> list[Instance]:
        return self._ops

    def setup(self, rw):
        self.rw = rw
        self.sets = {key: build_free_set(rw, key) for key in self.free_sets}

    def run(self, op: Instance) -> Certified:
        solver = self.rw.solver
        spec = self.sets[op.free_set]
        result = solver.robustness_dual(op.rho, spec)
        feasible = solver.witness_is_feasible(result.witness, spec)
        slack = solver.primal_slack(result.primal_weights, op.rho, spec)
        return Certified(result, feasible, slack)

    def judge(self, op: Instance, out: Certified) -> bool:
        res = out.result
        if not out.feasible:
            raise GateError(f"{op.label}: witness_is_feasible rejects the returned witness")
        lam = float(eigvalsh(out.slack)[0])
        if lam < -GATE_TOL:
            raise GateError(f"{op.label}: lambda_min(primal_slack) = {lam:.3e} < -1e-9")
        if not res.lower_bound <= res.upper_bound:
            raise GateError(f"{op.label}: lower {res.lower_bound} above upper {res.upper_bound}")
        if op.closed_form is not None and not (
            res.lower_bound - GATE_TOL <= op.closed_form <= res.upper_bound + GATE_TOL
        ):
            raise GateError(
                f"{op.label}: closed form {op.closed_form!r} outside "
                f"[{res.lower_bound!r}, {res.upper_bound!r}]"
            )
        return res.status != "converged"


# ---------------------------------------------------------------------------
# verify_grid
# ---------------------------------------------------------------------------


@dataclass
class Document:
    label: str
    doc: dict
    # "report" (run_scenario + report_to_json_text) or "sweep" (sweep +
    # sweep_to_csv); the CSV has no solver status, so only documents whose
    # entries are all closed forms take the sweep path
    path: str


@dataclass
class Rendered:
    text: str
    report: dict | None


def _scenario(name, seed, lam, beta, checks, **body) -> dict:
    return {"schema_version": 1, "name": name, "seed": seed, "lambda_grid": lam,
            "beta_grid": beta, "checks": checks, **body}


STATE_CHECKS = ["theorem1", "eq10", "theorem2", "corollary1"]
CHANNEL_CHECKS = ["theorem3", "theorem4"]


def report_without_meta(text: str) -> str:
    obj = json.loads(text)
    obj.pop("meta", None)
    return json.dumps(obj, sort_keys=True, indent=2)


def nonconverged_entries(report: dict) -> list[str]:
    """Entries whose robustness block or report detail carries a solver
    status other than converged / closed_form."""
    bad = []
    for e in report["entries"]:
        statuses = []
        if e.get("robustness"):
            statuses.append(e["robustness"].get("status"))
        if e.get("report"):
            detail = e["report"].get("detail") or {}
            statuses += [detail.get(k) for k in STATUS_KEYS if k in detail]
        if any(s not in CONVERGED_STATUSES for s in statuses):
            bad.append(f"{e['check']}@{e['state']},lam={e['lambda']},beta={e['beta']}")
    return bad


class VerifyGrid:
    """Warm process; one op = one scenario document through run_scenario +
    report_to_json_text, or through sweep + sweep_to_csv."""

    name = "verify_grid"
    in_process = True
    probe_module = "robustwork"

    def __init__(self, seed: int):
        self.seed = seed
        self.free_sets = sorted(
            {("incoherent", d) for d in (2, 4, 5, 8, 16, 32, 64)}
            | {("stabilizer", n) for n in (1, 2, 3)}
        )
        self.reference: dict[str, str] = {}
        self._ops = self._documents()

    def _documents(self) -> list[Document]:
        rng = np.random.default_rng([self.seed, 2])
        s = self.seed
        inc, stab = {"kind": "incoherent"}, {"kind": "stabilizer"}
        lam2, beta2 = [100.0, 10000.0], [1.0, "inf"]
        lam3, beta3 = [100.0, 1000.0, 10000.0], [1.0, 10.0, "inf"]
        dep_p = [round(float(x), 6) for x in rng.uniform(0.2, 0.8, size=3)]
        gin4, gin5 = ginibre_state(4, rng), ginibre_state(5, rng)
        haar4 = haar_vector(4, rng)
        return [
            Document("golden-2..64-3x3", _scenario(
                "golden", s, lam3, beta3, STATE_CHECKS,
                state={"named": "golden", "d": [2, 4, 8, 16, 32, 64]}, free_set=inc), "report"),
            Document("golden-128..256-2x2", _scenario(
                "golden-large", s, lam2, beta2, STATE_CHECKS,
                state={"named": "golden", "d": [128, 256]}, free_set=inc), "sweep"),
            Document("tstate-1..3-1x2", _scenario(
                "tstate", s, [10000.0], beta2, STATE_CHECKS,
                state={"named": "tstate", "n": [1, 2, 3]}, free_set=stab), "report"),
            Document("haar-vector-4-2x2", _scenario(
                "haar-vector-4", s, lam2, beta2, STATE_CHECKS,
                state={"vector": vector_json(haar4)}, free_set=inc), "report"),
            Document("ginibre-4-2x3", _scenario(
                "ginibre-4", s, lam2, beta3, STATE_CHECKS,
                state={"matrix": matrix_json(gin4)}, free_set=inc), "report"),
            Document("ginibre-5-3x2", _scenario(
                "ginibre-5", s, lam3, beta2, STATE_CHECKS,
                state={"matrix": matrix_json(gin5)}, free_set=inc), "report"),
            Document("channel-t_gate-3x3", _scenario(
                "channel-t", s, lam3, beta3, CHANNEL_CHECKS,
                channel={"named": "t_gate"}, free_set=stab), "report"),
            Document("channel-hadamard-3x3", _scenario(
                "channel-h", s, lam3, beta3, CHANNEL_CHECKS,
                channel={"named": "hadamard"}, free_set=stab), "report"),
        ] + [
            Document(f"channel-depolarizing-{i}-3x3", _scenario(
                f"channel-dep-{i}", s, lam3, beta3, CHANNEL_CHECKS,
                channel={"named": "depolarizing", "d": 2, "p": p}, free_set=inc), "report")
            for i, p in enumerate(dep_p)
        ]

    def operations(self) -> list[Document]:
        return self._ops

    def setup(self, rw):
        self.rw = rw
        self.sets = {key: build_free_set(rw, key) for key in self.free_sets}

    def run(self, op: Document) -> Rendered:
        sc = self.rw.scenarios
        scenario = sc.load_scenario(op.doc)
        if op.path == "sweep":
            return Rendered(sc.sweep_to_csv(sc.sweep(scenario)), None)
        report = sc.run_scenario(scenario)
        return Rendered(sc.report_to_json_text(report), report)

    def judge(self, op: Document, out: Rendered) -> bool:
        stable = out.text if out.report is None else report_without_meta(out.text)
        ref = self.reference.setdefault(op.label, stable)
        if stable != ref:
            raise GateError(f"{op.label}: output differs from the warm-up output of the same document")
        if out.report is None:
            rows = [line.split(",") for line in out.text.splitlines()[1:]]
            return any(row[-1] == "false" for row in rows)
        return out.report["exit_code"] != 0 or bool(nonconverged_entries(out.report))


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------


@dataclass
class Command:
    label: str
    argv: list
    required: tuple
    input_name: str | None = None
    input_doc: dict | None = None


@dataclass
class Finished:
    returncode: int
    stdout: str
    stderr: str


ROBUSTNESS_KEYS = ("value", "gap", "status", "lower_bound", "upper_bound", "witness",
                   "primal_weights")
SWEEP_COLUMNS = ("scenario", "check", "d", "n", "lambda", "beta", "R", "bound", "achieved",
                 "satisfied")


class CliCold:
    """Each op is a fresh ``python -m robustwork.cli`` process."""

    name = "cli_cold"
    in_process = False
    probe_module = "robustwork.cli"
    free_sets = ()

    def __init__(self, seed: int, root: Path, out_dir: Path):
        self.seed = seed
        self.root = root
        self.input_dir = out_dir / "cli-inputs"
        self.runner: list[str] = [sys.executable, "-m", "robustwork.cli"]
        self._ops = self._commands()

    def _commands(self) -> list[Command]:
        stab, inc = {"kind": "stabilizer"}, {"kind": "incoherent"}
        small = _scenario("cli-small", self.seed, [100.0, 10000.0], [1.0, "inf"], STATE_CHECKS,
                          state={"named": "golden", "d": [2, 4]}, free_set=inc)
        return [
            Command("robustness-tstate3", ["robustness"], ROBUSTNESS_KEYS, "tstate3.json",
                    {"state": {"named": "tstate", "n": 3}, "free_set": stab}),
            Command("robustness-golden16", ["robustness"], ROBUSTNESS_KEYS, "golden16.json",
                    {"state": {"named": "golden", "d": 16}, "free_set": inc}),
            Command("witness-tstate2", ["witness"], ("value", "status", "witness", "rank1"),
                    "tstate2.json", {"state": {"named": "tstate", "n": 2}, "free_set": stab}),
            Command("channel-t_gate", ["channel"], ("channel", "choi", "robustness_lower", "bounds"),
                    "t_gate.json", {"channel": {"named": "t_gate"}, "free_set": stab,
                                    "lambda": 100.0, "beta": "inf"}),
            Command("verify-golden-2..4", ["verify"],
                    ("schema_version", "scenario", "seed", "entries", "meta", "exit_code"),
                    "scenario.json", small),
            Command("sweep-golden-2..4", ["sweep"], SWEEP_COLUMNS, "scenario.json", small),
            Command("freeset-dump-stab3", ["freeset", "dump", "--kind", "stabilizer", "--n", "3"],
                    ("kind", "dim", "count", "states")),
        ]

    def operations(self) -> list[Command]:
        return self._ops

    def setup(self, rw):
        self.input_dir.mkdir(parents=True, exist_ok=True)
        for cmd in self._ops:
            if cmd.input_name is not None:
                (self.input_dir / cmd.input_name).write_text(json.dumps(cmd.input_doc), "utf-8")

    def argv(self, op: Command) -> list[str]:
        argv = list(op.argv)
        if op.input_name is not None:
            argv += ["--input", str((self.input_dir / op.input_name).relative_to(self.root))]
        return argv

    def run(self, op: Command) -> Finished:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run(self.runner + self.argv(op), cwd=self.root, env=env,
                              capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        return Finished(proc.returncode, proc.stdout, proc.stderr)

    def judge(self, op: Command, out: Finished) -> bool:
        if op.argv[0] == "sweep":
            lines = out.stdout.splitlines()
            if not lines or tuple(lines[0].split(",")) != op.required or len(lines) < 2:
                raise GateError(f"{op.label}: stdout is not the documented sweep CSV "
                                f"(exit {out.returncode}): {out.stderr.strip()[-300:]}")
            return out.returncode != 0
        try:
            payload = json.loads(out.stdout)
        except json.JSONDecodeError:
            raise GateError(f"{op.label}: stdout is not JSON (exit {out.returncode}): "
                            f"{out.stderr.strip()[-300:]}") from None
        missing = [k for k in op.required if k not in payload]
        if missing:
            raise GateError(f"{op.label}: output lacks documented keys {missing}")
        if op.label.startswith("freeset-dump") and not payload["count"] == len(payload["states"]) == 1080:
            raise GateError(f"{op.label}: expected 1080 stabilizer states, got {payload['count']}")
        if op.label.startswith("channel") and set(payload["bounds"]) != {"theorem3", "theorem4"}:
            raise GateError(f"{op.label}: bounds {sorted(payload['bounds'])} != theorem3/theorem4")
        return out.returncode != 0


def make(name: str, seed: int, root: Path, out_dir: Path):
    if name == CertifyMix.name:
        return CertifyMix(seed)
    if name == VerifyGrid.name:
        return VerifyGrid(seed)
    if name == CliCold.name:
        return CliCold(seed, root, out_dir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = (CertifyMix.name, VerifyGrid.name, CliCold.name)
