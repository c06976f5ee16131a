"""Span tracing from outside the program.

``Tracer.install`` replaces every public function of the given modules, and
every public function of ``numpy.linalg``, with a wrapper that records one
span per call, at every module-level binding of that function in the given
modules (so ``from .linalg import assert_density`` in ``solver`` is wrapped
too).  ``Tracer.restore`` puts every original object back.  The program's
source is never edited.

A span records its name, layer, start, end, parent span, thread id and the
operation it belongs to.  The parent is the innermost open span on the same
thread; a span opened on a worker thread with nothing open on it takes the
innermost open span of the client thread (the only thread that issues
operations), which is the call that handed work to the pool.

Spans stay in memory until the caller writes them out.  Layer times are
unions of span intervals (``busy``), so two threads working at once count
once, and self time removes the part of that union covered by child spans
of other layers.  A span also records the interval of its wrapper (its
bookkeeping and annotation around the call); a child removes that whole
interval from its parent's self time, so the tracer's own work counts in no
layer's self time.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from dataclasses import dataclass

import numpy.linalg

NUMPY_LAYER = "linalg"


@dataclass(eq=False)
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: "Span | None"
    thread: object
    op: object
    info: dict
    wrapper_start: float  # the wrapper's interval: the call plus tracing work
    wrapper_end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def _is_public_function(obj, module_name: str) -> bool:
    # lru_cache wrappers are callables that are not functions; classes are skipped
    return (
        callable(obj)
        and not inspect.isclass(obj)
        and getattr(obj, "__module__", None) == module_name
    )


class Tracer:
    """Records spans around every public function of a set of modules.

    ``annotators`` maps a span name (``"solver.robustness_dual"``) to a
    callable ``(args, kwargs, result) -> dict`` whose output is stored in
    the span's ``info``; it runs after the span has ended but inside the
    wrapper interval, so its cost is part of neither the span nor its
    parent's self time.
    """

    def __init__(self, annotators=None):
        self.spans: list[Span] = []
        self.op = None
        self._annotators = dict(annotators or {})
        self._local = threading.local()
        self._client_thread = threading.get_ident()
        self._client_stack = self._stack()
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping --------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list):
        if stack:
            return stack[-1]
        if threading.get_ident() != self._client_thread and self._client_stack:
            return self._client_stack[-1]
        return None

    def wrap(self, fn, name: str, layer: str):
        tracer = self
        annotate = self._annotators.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            stack = tracer._stack()
            span = Span(name, layer, 0.0, 0.0, tracer._parent(stack),
                        threading.get_ident(), tracer.op, {}, entered, 0.0)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.info["raised"] = True
                raise
            finally:
                span.end = span.wrapper_end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if annotate is not None:
                span.info.update(annotate(args, kwargs, result))
            span.wrapper_end = time.perf_counter()
            return result

        return traced

    # -- install / restore -------------------------------------------------

    def install(self, modules):
        """Wrap every public function of ``modules`` and of ``numpy.linalg``.

        A module's functions belong to the layer named by the last component
        of its dotted name.  Every binding of a wrapped function in
        ``modules`` (and in ``numpy.linalg``) is replaced, so aliases
        imported under any name are traced as well.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not _is_public_function(obj, mod.__name__):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self.wrap(obj, f"{layer}.{attr}", layer)
        for attr in numpy.linalg.__all__:
            obj = getattr(numpy.linalg, attr)
            if callable(obj) and not inspect.isclass(obj) and id(obj) not in wrappers:
                wrappers[id(obj)] = self.wrap(obj, f"numpy.linalg.{attr}", NUMPY_LAYER)
        for namespace in list(modules) + [numpy.linalg]:
            for attr, obj in list(vars(namespace).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((namespace, attr, obj))
                    setattr(namespace, attr, wrapper)

    def restore(self):
        """Put every original binding back (in reverse order of patching)."""
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    # -- export ------------------------------------------------------------

    def export(self, spans=None) -> list[dict]:
        """Spans as plain dicts; ``parent`` is an index into the list."""
        spans = self.spans if spans is None else spans
        index = {id(s): i for i, s in enumerate(spans)}
        return [
            {
                "name": s.name,
                "layer": s.layer,
                "start": s.start,
                "end": s.end,
                "parent": index.get(id(s.parent)) if s.parent is not None else None,
                "thread": s.thread,
                "op": s.op,
                "info": s.info,
                "wrapper": [s.wrapper_start, s.wrapper_end],
            }
            for s in spans
        ]


def spans_from_export(rows: list[dict], thread_prefix: str, op) -> list[Span]:
    """Rebuild span objects from ``Tracer.export`` output of another process.

    Thread ids are prefixed with ``thread_prefix`` so that threads of
    different processes stay distinct, and every span gets operation ``op``.
    """
    spans = [
        Span(r["name"], r["layer"], r["start"], r["end"], None,
             f"{thread_prefix}:{r['thread']}", op, dict(r["info"]), *r["wrapper"])
        for r in rows
    ]
    for span, row in zip(spans, rows):
        if row["parent"] is not None:
            span.parent = spans[row["parent"]]
    return spans


# ---------------------------------------------------------------------------
# interval arithmetic
# ---------------------------------------------------------------------------


def merge(intervals) -> list[tuple[float, float]]:
    """Sorted, disjoint union of ``(start, end)`` intervals."""
    out: list[list[float]] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if out and start <= out[-1][1]:
            out[-1][1] = max(out[-1][1], end)
        else:
            out.append([start, end])
    return [(a, b) for a, b in out]


def union_length(intervals) -> float:
    return sum(b - a for a, b in merge(intervals))


def covered_length(merged_a, merged_b) -> float:
    """Length of (union a) intersected with (union b); both already merged."""
    total, j = 0.0, 0
    for a0, a1 in merged_a:
        while j < len(merged_b) and merged_b[j][1] <= a0:
            j += 1
        k = j
        while k < len(merged_b) and merged_b[k][0] < a1:
            total += min(a1, merged_b[k][1]) - max(a0, merged_b[k][0])
            k += 1
    return total


def busy_time(spans) -> float:
    """Union of the spans' intervals across all threads."""
    return union_length((s.start, s.end) for s in spans)


def self_time(spans, all_spans) -> float:
    """Busy time of ``spans`` minus the part covered by their child spans.

    Children are spans in ``all_spans`` whose parent is one of ``spans``
    and which are not themselves in ``spans`` (a layer calling itself is
    still that layer's time).  A child removes its wrapper interval, so the
    tracer's work around it is not counted as the parent's.  A child that
    runs past its parent's end, on another thread, only removes the part
    inside the layer's union.
    """
    members = {id(s) for s in spans}
    own = merge((s.start, s.end) for s in spans)
    children = merge(
        (c.wrapper_start, c.wrapper_end) for c in all_spans
        if c.parent is not None and id(c.parent) in members and id(c) not in members
    )
    return sum(b - a for a, b in own) - covered_length(own, children)
