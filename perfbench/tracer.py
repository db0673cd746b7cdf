"""Spans around the calls into each serving layer, recorded from the
benchmark's own files.

The program under test carries no tracing of its own, so the traced
run wraps the public entry points of each layer by attribute
replacement: the wrapper opens a span, calls the original, closes the
span.  A span records its name, start, end, its parent (the span open
on the same thread when it started), a request id shared by every span
of one request, and an optional note of counts taken from the call
(maps in a batch, bytes a convolution moved).  Spans stay in memory
and each process writes its own file once, when it ends; :func:`load`
merges the files and :func:`span_table` aggregates them.

Span times come from ``time.perf_counter``, which on Linux reads the
system-wide monotonic clock, so spans of the daemon, the pool workers
and the benchmark process share one time line and can be cut to the
benchmark's timed windows.

A layer's self time is its span's duration minus the time its child
spans cover.  Children open and close on their parent's thread, so
they never overlap one another and the covered time is their sum.
"""

from __future__ import annotations

import atexit
import functools
import glob
import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Env var naming the directory every traced process writes into.
SPANS_DIR_ENV = "PERFBENCH_SPANS_DIR"


class Tracer:
    """In-memory span sink of one process."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name, root: bool = False,
             note: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a spanned call.

        ``name`` is a span name or a callable of the call's arguments
        returning one (``None`` skips the span).  ``root`` starts a new
        request id when no span is open on the thread.  ``note(result,
        args, kwargs)`` returns a dict of counts stored on the span.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = name(*args, **kwargs) if callable(name) else name
            if span is None:
                return original(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else (0, 0)
            span_id = next(tracer._ids)
            request = parent[1] or (next(tracer._requests) if root else 0)
            stack.append((span_id, request))
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                stack.pop()
                tracer._record(span_id, parent[0], request, span, start,
                               time.perf_counter(), None)
                raise
            end = time.perf_counter()
            stack.pop()
            tracer._record(span_id, parent[0], request, span, start, end,
                           note(result, args, kwargs) if note else None)
            return result

        setattr(owner, attr, wrapper)

    def _record(self, *span) -> None:
        with self._lock:
            self.spans.append(span)

    def dump(self, directory: str, tag: str) -> str:
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"spans-{tag}-{os.getpid()}.json")
        with self._lock:
            body = {"pid": os.getpid(), "spans": self.spans}
        with open(path, "w") as fh:
            json.dump(body, fh)
        return path


# ----------------------------------------------------------------------
# Wrapper sets.  Each takes the tracer of the process it runs in.
def install_engine(tracer: Tracer) -> None:
    """Engine, scheduler stamps, store, executor, plan, explainer,
    core and nn entry points."""
    from repro.core import CAEModel
    from repro.explain.base import Explainer
    from repro.nn import functional
    from repro.serve import engine as engine_mod
    from repro.serve import executor as executor_mod
    from repro.serve import plans as plans_mod
    from repro.serve import store as store_mod

    Engine = engine_mod.ExplainEngine
    tracer.wrap(Engine, "submit", "engine.submit")
    tracer.wrap(Engine, "submit_async", "engine.submit")
    tracer.wrap(Engine, "explain", "engine.explain", root=True)
    tracer.wrap(Engine, "explain_batch", "engine.explain_batch", root=True)

    def queue_wait(result, args, kwargs):
        # The request's scheduler stamps, read when its result is
        # collected.  A handle that attached to a batch already in
        # flight carries that batch's dispatch stamp, earlier than its
        # own enqueue stamp: it did not wait in the queue.
        ctx = args[0].ctx
        if ctx is None or ctx.enqueued_at is None \
                or ctx.dispatched_at is None:
            return None
        return {"queue_wait_ms": max(0.0, (ctx.dispatched_at
                                           - ctx.enqueued_at) * 1000.0),
                "queued": 1}
    tracer.wrap(engine_mod.PendingExplain, "result", "engine.result_wait",
                note=queue_wait)

    Store = store_mod.SaliencyStore
    tracer.wrap(Store, "__init__", "store.open")
    tracer.wrap(Store, "get", "store.get")
    tracer.wrap(Store, "put", "store.put")
    tracer.wrap(Store, "flush", "store.flush")

    Pool = executor_mod.ProcessExecutor
    tracer.wrap(Pool, "__init__", "executor.spawn")
    tracer.wrap(Pool, "run_batch", "executor.batch",
                note=lambda result, args, kw: {"compute_ms":
                                               float(result[1])})

    def explain_name(self, explainer, *args, **kwargs):
        return f"explain.{getattr(explainer, 'name', 'unknown')}"
    tracer.wrap(plans_mod.PlanCache, "run", explain_name,
                note=lambda result, args, kw: {"maps": len(args[2])})

    for cls in [Explainer] + [c for c in _subclasses(Explainer)
                              if "compile_plan" in vars(c)]:
        tracer.wrap(cls, "compile_plan", "plans.compile")

    def cae_only(span):
        # ICAM's model subclasses CAEModel; only the CAE's own calls
        # count as the core layer.
        return lambda self, *a, **kw: span if type(self) is CAEModel \
            else None
    tracer.wrap(CAEModel, "encode", cae_only("core.cae_encode"))
    tracer.wrap(CAEModel, "decode", cae_only("core.cae_decode"))

    def conv_bytes(result, args, kwargs):
        # Bytes moved: input, weight and output read or written once
        # each, computed from the shapes (not measured).
        return {"bytes": args[0].data.nbytes + args[1].data.nbytes
                + result.data.nbytes}
    tracer.wrap(functional, "conv2d", "nn.conv", note=conv_bytes)
    tracer.wrap(functional, "conv2d_transpose", "nn.conv",
                note=conv_bytes)


def install_http(tracer: Tracer) -> None:
    """HTTP tier entry points of the daemon process."""
    from repro.serve import http

    tracer.wrap(http._Handler, "do_POST", "http.handler", root=True)
    tracer.wrap(http, "decode_array", "http.decode")

    def forwarded(result, args, kwargs):
        # An omitted label costs a classifier forward in the handler.
        omitted = args[1].get(kwargs.get("key", "label")) is None
        return {"forwards": 1} if omitted else None
    tracer.wrap(http.ExplainService, "_label", "http.label", note=forwarded)
    tracer.wrap(http.ExplainService, "_encode_result", "http.encode")
    tracer.wrap(http._Handler, "_send", "http.send")


def _subclasses(cls) -> list:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def install_process(tag: str, http: bool = False,
                    at_exit: bool = True) -> Tracer:
    """Install the wrappers in this process; with ``at_exit``, write
    its spans to ``$PERFBENCH_SPANS_DIR`` when the process exits."""
    import repro.explain  # noqa: F401 — defines every explainer class
    tracer = Tracer()
    install_engine(tracer)
    if http:
        install_http(tracer)
    if at_exit:
        atexit.register(tracer.dump, os.environ[SPANS_DIR_ENV], tag)
    return tracer


def traced_context_explainers(**kwargs):
    """:class:`~repro.serve.worker.EngineSpec` factory for traced pool
    workers: installs the wrappers in the worker, then builds the same
    explainers as :func:`repro.eval.pipeline.context_explainers`."""
    install_process("worker")
    from repro.eval.pipeline import context_explainers
    return context_explainers(**kwargs)


# ----------------------------------------------------------------------
def load(directory: str) -> List[dict]:
    out = []
    for path in sorted(glob.glob(os.path.join(directory, "spans-*.json"))):
        with open(path) as fh:
            out.append(json.load(fh))
    return out


def span_table(dumps: List[dict],
               windows: Sequence[Tuple[float, float]]) -> Dict[str, dict]:
    """name -> calls, total ms, self ms, per-call durations (ms) and
    summed notes, over the spans that start inside ``windows``.
    ``path_self_ms`` counts only spans under a root span (request id
    set): the calls the request's own thread blocks on."""
    table: Dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0,
                 "path_self_ms": 0.0, "durations": [],
                 "notes": Counter()})
    for dump in dumps:
        spans = [s for s in dump["spans"]
                 if any(lo <= s[4] <= hi for lo, hi in windows)]
        child_ms: Dict[int, float] = defaultdict(float)
        for _id, parent, _req, _name, start, end, _note in spans:
            if parent:
                child_ms[parent] += (end - start) * 1000.0
        for span_id, _parent, request, name, start, end, note in spans:
            ms = (end - start) * 1000.0
            own = ms - child_ms.get(span_id, 0.0)
            row = table[name]
            row["calls"] += 1
            row["total_ms"] += ms
            row["self_ms"] += own
            if request:
                row["path_self_ms"] += own
            row["durations"].append(ms)
            if note:
                row["notes"].update(note)
    return table


def median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0
