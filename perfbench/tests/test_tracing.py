"""Tests of the benchmark's tracing machinery and per-layer arithmetic.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import numpy.linalg
import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(PERFBENCH))

from layers import layer_metrics  # noqa: E402
from tracing import (  # noqa: E402
    Span,
    Tracer,
    busy_time,
    covered_length,
    merge,
    self_time,
    spans_from_export,
    union_length,
)


def span(name, layer, start, end, parent=None, thread=1, op=(0, 0), **info):
    return Span(name, layer, start, end, parent, thread, op, info, start, end)


# ---------------------------------------------------------------------------
# interval arithmetic
# ---------------------------------------------------------------------------


def test_merge_and_union():
    assert merge([(3, 4), (0, 1), (0.5, 2), (2, 2.5), (5, 5)]) == [(0, 2.5), (3, 4)]
    assert union_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)
    assert covered_length([(0, 10)], [(2, 3), (9, 12)]) == pytest.approx(2.0)
    assert covered_length([(0, 1), (4, 6)], [(0.5, 5)]) == pytest.approx(1.5)


def test_overlapping_threads_count_once_in_busy_time():
    a = span("solver.robustness_dual", "solver", 0.0, 4.0, thread=1)
    b = span("solver.robustness_dual", "solver", 1.0, 5.0, thread=2)
    c = span("solver.robustness_dual", "solver", 7.0, 8.0, thread=3)
    assert busy_time([a, b, c]) == pytest.approx(6.0)  # the sum would be 9


def test_self_time_subtracts_children_of_other_layers():
    parent = span("thermo.verify_theorem2", "thermo", 0.0, 10.0)
    same_layer = span("thermo.free_energy", "thermo", 1.0, 2.0, parent=parent)
    child = span("solver.robustness_dual", "solver", 3.0, 6.0, parent=parent)
    grandchild = span("numpy.linalg.eigh", "linalg", 4.0, 5.0, parent=child)
    spans = [parent, same_layer, child, grandchild]
    thermo = [parent, same_layer]
    assert self_time(thermo, spans) == pytest.approx(7.0)
    assert self_time([child], spans) == pytest.approx(2.0)


def test_child_outliving_its_parent_on_another_thread():
    # parent on thread 1 hands work to thread 2 and returns before it ends
    parent = span("scenarios.run_scenario", "scenarios", 0.0, 10.0, thread=1)
    child = span("thermo.verify_theorem1", "thermo", 6.0, 14.0, parent=parent, thread=2)
    other = span("thermo.verify_theorem1", "thermo", 2.0, 8.0, parent=parent, thread=3)
    spans = [parent, child, other]
    # only the part of the children inside the parent's interval is removed
    assert self_time([parent], spans) == pytest.approx(2.0)
    assert busy_time([child, other]) == pytest.approx(12.0)
    assert self_time([child, other], spans) == pytest.approx(12.0)


# ---------------------------------------------------------------------------
# install / restore on a fake package
# ---------------------------------------------------------------------------


def _module(name, source, **bindings):
    mod = types.ModuleType(name)
    mod.__dict__.update(bindings)
    exec(compile(source, name, "exec"), mod.__dict__)
    return mod


@pytest.fixture
def fake_package():
    base = _module("fakepkg.base", (
        "import numpy as np\n"
        "def check(x):\n"
        "    return np.linalg.eigvalsh(x)[0]\n"
        "def _private(x):\n"
        "    return x\n"
        "class Thing:\n"
        "    pass\n"
    ))
    top = _module("fakepkg.top", (
        "def solve(x):\n"
        "    return check(x) + helper(x)\n"
        "def fan_out(xs):\n"
        "    with ThreadPoolExecutor(max_workers=2) as pool:\n"
        "        return list(pool.map(solve, xs))\n"
    ), check=base.check, eigh=numpy.linalg.eigh, helper=lambda x: 0.0,
        ThreadPoolExecutor=ThreadPoolExecutor)
    return base, top


def test_install_wraps_every_binding_and_restore_puts_them_back(fake_package):
    base, top = fake_package
    originals = {
        "base.check": base.check, "top.check": top.check, "top.solve": top.solve,
        "base._private": base._private, "base.Thing": base.Thing,
        "numpy.eigh": numpy.linalg.eigh, "numpy.eigvalsh": numpy.linalg.eigvalsh,
        "top.eigh": top.eigh,
    }
    tracer = Tracer()
    tracer.install([base, top])
    try:
        assert top.check is base.check is not originals["base.check"]
        assert top.solve is not originals["top.solve"]
        assert base._private is originals["base._private"]
        assert base.Thing is originals["base.Thing"]
        assert numpy.linalg.eigvalsh is not originals["numpy.eigvalsh"]
        assert top.eigh is numpy.linalg.eigh is not originals["numpy.eigh"]
        tracer.op = (0, 3)
        top.solve(np.eye(2))
    finally:
        tracer.restore()
    assert base.check is top.check is originals["base.check"]
    assert top.solve is originals["top.solve"]
    assert numpy.linalg.eigh is originals["numpy.eigh"]
    assert numpy.linalg.eigvalsh is originals["numpy.eigvalsh"]
    assert top.eigh is originals["top.eigh"]
    assert not tracer._patches

    by_name = {s.name: s for s in tracer.spans}
    assert set(by_name) == {"top.solve", "base.check", "numpy.linalg.eigvalsh"}
    assert by_name["base.check"].parent is by_name["top.solve"]
    assert by_name["numpy.linalg.eigvalsh"].parent is by_name["base.check"]
    assert by_name["numpy.linalg.eigvalsh"].layer == "linalg"
    assert all(s.op == (0, 3) for s in tracer.spans)
    # the helper lambda is not a function of the traced modules
    assert "top.helper" not in by_name


def test_worker_thread_spans_take_the_client_span_as_parent(fake_package):
    base, top = fake_package
    tracer = Tracer()
    tracer.install([base, top])
    try:
        top.fan_out([np.eye(2)] * 6)
    finally:
        tracer.restore()
    (root,) = [s for s in tracer.spans if s.name == "top.fan_out"]
    solves = [s for s in tracer.spans if s.name == "top.solve"]
    assert len(solves) == 6
    assert all(s.parent is root for s in solves)
    assert all(s.thread != root.thread for s in solves)
    assert all(root.start <= s.start and s.end <= root.end for s in solves)


def test_exceptions_still_close_the_span(fake_package):
    base, top = fake_package
    tracer = Tracer()
    tracer.install([base, top])
    try:
        with pytest.raises(Exception):
            top.solve("not a matrix")
    finally:
        tracer.restore()
    assert tracer.spans and all(s.end >= s.start for s in tracer.spans)
    assert any(s.info.get("raised") for s in tracer.spans)
    assert tracer._stack() == []


def test_annotator_time_counts_in_no_self_time(fake_package):
    base, top = fake_package

    def slow_annotator(args, kwargs, result):
        time.sleep(0.05)
        return {"slow": True}

    tracer = Tracer({"base.check": slow_annotator})
    tracer.install([base, top])
    try:
        top.solve(np.eye(2))
    finally:
        tracer.restore()
    by_name = {s.name: s for s in tracer.spans}
    check, solve = by_name["base.check"], by_name["top.solve"]
    assert check.info == {"slow": True}
    assert check.duration < 0.05 <= check.wrapper_end - check.wrapper_start
    assert solve.duration >= 0.05
    assert self_time([solve], tracer.spans) < 0.01


def test_export_roundtrip_keeps_parents():
    parent = span("cli.main", "cli", 0.0, 2.0, thread=threading.get_ident())
    child = span("solver.robustness_dual", "solver", 0.5, 1.5, parent=parent, key="k")
    rows = json.loads(json.dumps(Tracer().export([parent, child])))
    back = spans_from_export(rows, thread_prefix="p1", op=(2, 5))
    assert back[1].parent is back[0]
    assert back[0].thread.startswith("p1:") and back[1].op == (2, 5)
    assert back[1].info == {"key": "k"}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def test_layer_metrics_on_a_threaded_scenario():
    run = span("scenarios.run_scenario", "scenarios", 0.0, 10.0, thread=1, entries=4)
    w1 = span("thermo.verify_theorem1", "thermo", 1.0, 9.0, parent=run, thread=2)
    w2 = span("thermo.verify_theorem2", "thermo", 1.0, 9.0, parent=run, thread=3)
    s1 = span("solver.robustness_dual", "solver", 2.0, 4.0, parent=w2, thread=3,
              key="a", status="converged", iters=40)
    s2 = span("solver.robustness_dual", "solver", 5.0, 8.0, parent=w2, thread=3,
              key="a", status="max_iterations", iters=400)
    e1 = span("numpy.linalg.eigh", "linalg", 1.5, 2.0, parent=w1, thread=2, n=4)
    spans = [run, w1, w2, s1, s2, e1]
    m = layer_metrics(spans, [], cycles=2)
    assert m["scenarios.runs"] == 0.5
    assert m["scenarios.entries"] == 2.0
    assert m["scenarios.threads"] == 3
    assert m["scenarios.overlap"] == pytest.approx(16.0 / 10.0)
    assert m["scenarios.self_s"] == pytest.approx(2.0 / 2)
    assert m["solver.calls"] == 1.0
    assert m["solver.distinct"] == 0.5
    assert m["solver.useful_ratio"] == 0.5
    assert m["solver.nonconverged"] == 0.5
    assert m["solver.iters_per_solve.max"] == 400
    assert m["thermo.solves"] == 1.0
    assert m["thermo.checks"] == 1.0
    assert m["thermo.eig_per_check"] == 0.5
    assert m["thermo.busy_s"] == pytest.approx(4.0)
    assert m["linalg.eig_n3"] == 32.0


def test_plan_lists_the_instances_the_workloads_run(tmp_path):
    from workloads import WORKLOADS, make

    plan = json.loads((PERFBENCH / "plan.json").read_text())
    for name in WORKLOADS:
        for seed in (0, 7):
            wl = make(name, seed, PERFBENCH.parent, tmp_path)
            labels = [op.label for op in wl.operations()]
            assert plan["workloads"][name]["instances"] == labels, (name, seed)
    sweep = [op.label for op in make("verify_grid", 0, PERFBENCH.parent, tmp_path).operations()
             if op.path == "sweep"]
    assert plan["workloads"]["verify_grid"]["paths"]["sweep"] == sweep


def test_benchmark_json_names_every_metric_the_runs_print():
    import run

    assert list(run.declared_metrics(trace=True)) == (
        list(layer_metrics([], [], 1)) + list(run.TRACE_OVERHEAD))


def test_program_key_hashes_each_free_set_once():
    from layers import ProgramKey

    class FreeSet:  # the fields the key reads
        def __init__(self, kind, vectors):
            self.kind, self.dim, self.vectors, self.matrices = kind, 2, vectors, ()
            self.n_points = len(vectors)

    result = types.SimpleNamespace(status="converged", newton_iterations=7)
    a = FreeSet("incoherent", (np.array([1, 0j]), np.array([0, 1 + 0j])))
    b = FreeSet("incoherent", (np.array([1, 0j]), np.array([0, 1 + 0j])))
    c = FreeSet("other", (np.array([1, 0j]),))
    rho = np.diag([0.5, 0.5]).astype(complex)
    program_key = ProgramKey()
    key_a = program_key((rho, a), {}, result)
    assert key_a == {"key": key_a["key"], "status": "converged", "iters": 7}
    assert program_key._spec_digests[id(a)][0]() is a
    assert program_key((rho, b), {}, result)["key"] == key_a["key"]
    assert program_key((rho, c), {}, result)["key"] != key_a["key"]
    assert program_key((rho, a, 1e-3), {}, result)["key"] != key_a["key"]
    assert program_key((np.eye(2) / 2, a), {}, result)["key"] == key_a["key"]
