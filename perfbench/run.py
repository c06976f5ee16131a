"""Robustwork benchmark: one workload per run, end-to-end or layer-traced.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload certify_mix|verify_grid|cli_cold \
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with no tracing installed;
the fresh-process set-up probes behind ``setup_s`` run between operations,
spread over the timed phase.
``--trace 1`` measures the per-layer metrics: half of the time untraced,
half with the tracer installed, so the tracing overhead is reported too.
Both run the workload's correctness gates on every operation and exit
nonzero, without a result line, when one fails.  The last line of stdout is
the result as JSON; the lines before it list every metric with its unit.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 11
TRACE_OVERHEAD = ("trace.ops_per_s", "trace.untraced_ops_per_s", "trace.slowdown",
                  "trace.spans_per_op")


def declared_metrics(trace: bool) -> dict[str, str]:
    """Name -> unit of every metric BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with a share q at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def probe_setup(wl) -> float:
    """Set-up seconds of one fresh process (import + the workload's free sets)."""
    specs = [f"{kind}:{size}" for kind, size in wl.free_sets]
    proc = subprocess.run([sys.executable, str(PERFBENCH / "probe.py"), str(SRC),
                           wl.probe_module, *specs],
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def import_program():
    sys.path.insert(0, str(SRC))
    import robustwork

    if Path(robustwork.__file__).resolve().parent != (SRC / "robustwork").resolve():
        raise SystemExit(f"robustwork imported from {robustwork.__file__}, not from {SRC}")
    return robustwork


@dataclass
class Phase:
    times: list = field(default_factory=list)
    labels: list = field(default_factory=list)
    failed_labels: set = field(default_factory=set)
    failed: int = 0          # operations judged failed (the workload's definition)
    errors: int = 0          # operations that raised instead of returning
    cycles: int = 0
    started: float = field(default_factory=time.perf_counter)
    paused: float = 0.0      # wall seconds spent in Client.between_ops

    def elapsed(self) -> float:
        """Wall seconds since the phase started, not counting pauses."""
        return time.perf_counter() - self.started - self.paused

    @property
    def ops_per_s(self) -> float:
        return len(self.times) / sum(self.times)

    def breakdown(self) -> str:
        """Median seconds per instance, one line each (diagnostics, not metrics)."""
        by_label: dict[str, list] = {}
        for label, t in zip(self.labels, self.times):
            by_label.setdefault(label, []).append(t)
        return "\n".join(
            f"  {label:32s} n={len(ts):3d} median {statistics.median(ts):9.4f} s"
            + ("  FAILED" if label in self.failed_labels else "")
            for label, ts in by_label.items())


class Client:
    """One client in a closed loop over whole cycles of the instance list.

    ``on_op(op, outcome)`` sees each outcome; ``between_ops(phase)`` runs
    after each operation, and its wall time does not count towards the
    phase's ``seconds``.
    """

    def __init__(self, wl, tracer=None, on_op=None):
        self.wl = wl
        self.tracer = tracer
        self.on_op = on_op
        self.between_ops = None
        self.cycle_index = 0

    def cycle(self, phase: Phase):
        for i, op in enumerate(self.wl.operations()):
            if self.tracer is not None:
                self.tracer.op = (self.cycle_index, i)
            phase.labels.append(op.label)
            t0 = time.perf_counter()
            try:
                out = self.wl.run(op)
            except Exception as exc:  # noqa: BLE001 - an operation error is counted, not fatal
                phase.times.append(time.perf_counter() - t0)
                phase.errors += 1
                phase.failed += 1
                phase.failed_labels.add(op.label)
                print(f"{op.label}: raised {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            phase.times.append(time.perf_counter() - t0)
            if self.on_op is not None:
                self.on_op(op, out)
            if self.wl.judge(op, out):
                phase.failed += 1
                phase.failed_labels.add(op.label)
            if self.between_ops is not None:
                t0 = time.perf_counter()
                self.between_ops(phase)
                phase.paused += time.perf_counter() - t0
        self.cycle_index += 1
        phase.cycles += 1

    def run_for(self, seconds: float) -> Phase:
        """Whole cycles until ``seconds`` have elapsed (at least one cycle)."""
        phase = Phase()
        while phase.cycles == 0 or phase.elapsed() < seconds:
            self.cycle(phase)
        return phase


def peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(wl, seconds: float):
    wl.setup(import_program() if wl.in_process else None)
    client = Client(wl)
    client.cycle(Phase())  # warm-up: first-call costs, reference outputs, gates
    # The set-up probes are spread evenly over the timed phase, so that their
    # median spans the whole run rather than one slow or fast moment of the host.
    setup = []

    def probe_when_due(phase):
        due = min(SETUP_REPEATS, 1 + int(phase.elapsed() * SETUP_REPEATS / seconds))
        while len(setup) < due:
            setup.append(probe_setup(wl))

    client.between_ops = probe_when_due
    phase = client.run_for(seconds)
    while len(setup) < SETUP_REPEATS:
        setup.append(probe_setup(wl))
    metrics = {
        "setup_s": statistics.median(setup),
        "op_s.p50": statistics.median(phase.times),
        "op_s.p90": percentile(phase.times, 0.9),
        "ops_per_s": phase.ops_per_s,
        "failed_frac": phase.failed / len(phase.times),
        "peak_rss_mb": peak_rss_mb(wl),
    }
    return phase, metrics


def traced(wl, seconds: float, seed: int):
    from layers import annotators, layer_metrics, program_modules
    from tracing import Tracer, spans_from_export

    tracer = Tracer(annotators())
    cli_info = None
    setup_spans = []
    if not wl.in_process:
        wl.setup(None)
        spans_file = OUT / "cli-spans.json"
        cli_info = {"import_s": [], "exit3": 0, "ops": 0, "stdout_bytes": 0}
        child_spans = []

        def collect(op, out):
            data = json.loads(spans_file.read_text("utf-8"))
            spans_file.unlink()
            child_spans.extend(spans_from_export(
                data["spans"], thread_prefix=f"op{tracer.op}", op=tracer.op))
            cli_info["import_s"].append(data["import_s"])
            cli_info["exit3"] += out.returncode == 3
            cli_info["ops"] += 1
            cli_info["stdout_bytes"] += len(out.stdout.encode("utf-8"))
    else:
        rw = import_program()
        modules = program_modules()
        tracer.op = "setup"
        tracer.install(modules)
        try:
            wl.setup(rw)
        finally:
            tracer.restore()
        setup_spans, tracer.spans = tracer.spans, []

    client = Client(wl, tracer)
    client.cycle(Phase())  # warm-up, untraced
    untraced_phase = client.run_for(seconds / 2)
    if not wl.in_process:
        wl.runner = [sys.executable, str(PERFBENCH / "cli_driver.py"), str(SRC),
                     str(spans_file), "--"]
        client.on_op = collect
        traced_phase = client.run_for(seconds / 2)
        spans = child_spans
    else:
        tracer.install(modules)
        try:
            traced_phase = client.run_for(seconds / 2)
        finally:
            tracer.restore()
        spans = tracer.spans

    OUT.mkdir(exist_ok=True)
    with gzip.open(OUT / f"trace-{wl.name}-seed{seed}.json.gz", "wt", encoding="utf-8") as fh:
        json.dump(tracer.export(setup_spans + spans), fh)

    metrics = layer_metrics(spans, setup_spans, traced_phase.cycles, cli_info)
    overhead = (traced_phase.ops_per_s, untraced_phase.ops_per_s,
                untraced_phase.ops_per_s / traced_phase.ops_per_s,
                len(spans) / len(traced_phase.times))
    metrics.update(zip(TRACE_OVERHEAD, overhead))
    return traced_phase, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "robustwork" / "__init__.py").is_file():
        print(f"error: no robustwork sources under {SRC}", file=sys.stderr)
        return 2
    from workloads import GateError, make

    try:
        wl = make(args.workload, args.seed, ROOT, OUT)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            phase, metrics = traced(wl, args.seconds, args.seed)
        else:
            phase, metrics = end_to_end(wl, args.seconds)
    except GateError as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        return 1

    units = declared_metrics(bool(args.trace))
    if set(metrics) != set(units):
        print(f"error: measured metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    print(f"{args.workload}: {len(phase.times)} operations in {phase.cycles} cycles\n"
          + phase.breakdown(), file=sys.stderr)
    for name, unit in units.items():
        print(f"{args.workload:12s} {name:30s} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": len(phase.times),
        "failed": phase.errors,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
