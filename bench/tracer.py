"""Span tracing of decoyqkd from outside the package.

The tracer rebinds every public function of the traced modules in every
namespace that holds it (its own module, the modules that imported it
and the package), so a call is seen wherever the caller looks the
function up. Nothing under ``src/`` is edited; :meth:`Tracer.uninstall`
puts the original bindings back.

A call that crosses into a layer from another one (or from the
benchmark) becomes a span ``(sid, name, parent, t0_ns, t1_ns)``. So does
every call of the session stages that the per-layer metrics name, and of
the functions whose arguments or results feed a counter. A call that
stays inside the layer of the innermost open span is only counted, as
``(name, parent)``: its time belongs to that span, as the time of a
private helper would. This keeps the per-call cost where the layer
boundaries are.

Spans and counted calls are appended to in-memory ``array('q')``
buffers and turned into numbers (or written out) only after the traced
operations have finished.
"""

from __future__ import annotations

import inspect
import itertools
import time
from array import array
from pathlib import Path

import numpy as np

ROOT_NAME = "bench.op"
LAYERS = ("sources", "channel", "decoy", "keyrate", "session", "config", "cli")

SOURCE_BUILDERS = (
    "sources.wcs_distribution",
    "sources.hsps_distribution",
    "sources.ideal_sps_distribution",
)


def _build_note(args, kwargs, result):
    return (args, tuple(sorted(kwargs.items())))


def _bounds_note(args, kwargs, result):
    flags = getattr(result, "flags", None)
    return None if flags is None else bool(flags)


def _pipeline_note(args, kwargs, result):
    return (int(result.key.rate_per_pulse == 0.0), 1)


def _curve_note(args, kwargs, result):
    return (sum(1 for r in result.rate if r == 0.0), len(result.rate))


# session stages named by per-layer metrics: always a span of their own
STAGES = (
    "session.scan_loss",
    "session.optimize_mu",
    "session.run_pipeline",
    "session.sample_counts",
)

OBSERVERS = {
    **{name: _build_note for name in SOURCE_BUILDERS},
    "decoy.estimate_bounds": _bounds_note,
    "decoy.no_decoy_bounds": _bounds_note,
    "decoy.infinite_decoy_exact": _bounds_note,
    "session.run_pipeline": _pipeline_note,
    "session.scan_loss": _curve_note,
}


class Tracer:
    """Records nested spans of the wrapped functions of ``modules``.

    ``modules`` maps a layer name to its module; ``extra_namespaces``
    are further modules (such as the package itself) whose bindings of
    those functions are wrapped too.
    """

    def __init__(self, modules: dict, extra_namespaces: tuple = ()) -> None:
        self.namespaces = (*modules.values(), *extra_namespaces)
        self.names: list[str] = [ROOT_NAME]
        self.reset()
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers = {
            obj: self._wrap(f"{layer}.{attr}", obj)
            for layer, mod in modules.items()
            for attr, obj in vars(mod).items()
            if inspect.isfunction(obj)
            and obj.__module__ == mod.__name__
            and not attr.startswith("_")
        }

    def reset(self) -> None:
        """Drop recorded spans, calls and notes; span ids start again at 0."""
        self.buf = array("q")
        self.calls = array("q")
        self.notes: list[tuple[int, object]] = []
        self.roots: list[int] = []
        self._ids = itertools.count()
        self._stack = [-1]
        self._layers = [""]

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        layer = name.split(".", 1)[0]
        pc = time.perf_counter_ns
        observe = OBSERVERS.get(name)
        always = observe is not None or name in STAGES
        tracer = self

        def traced(*args, **kwargs):
            layers = tracer._layers
            stack = tracer._stack
            if layers[-1] == layer and not always:
                tracer.calls.extend((nid, stack[-1]))
                return fn(*args, **kwargs)
            sid = next(tracer._ids)
            parent = stack[-1]
            stack.append(sid)
            layers.append(layer)
            t0 = pc()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = pc()
                stack.pop()
                layers.pop()
                tracer.buf.extend((sid, nid, parent, t0, t1))
            if observe is not None:
                tracer.notes.append((sid, observe(args, kwargs, result)))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        for ns in self.namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, self._wrappers[obj])

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._patches):
            setattr(ns, attr, obj)
        self._patches.clear()

    def run_op(self, fn, *args):
        """Run one operation under a root span and return its result."""
        sid = next(self._ids)
        self.roots.append(sid)
        self._stack.append(sid)
        self._layers.append("bench")
        t0 = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self._layers.pop()
            self.buf.extend((sid, 0, -1, t0, t1))


class SpanTable:
    """Recorded spans as numpy columns indexed by span id, plus the
    counted (span-less) calls as ``call_nid``/``call_parent``."""

    def __init__(self, tracer: Tracer) -> None:
        raw = np.frombuffer(tracer.buf, dtype=np.int64).reshape(-1, 5)
        raw = raw[np.argsort(raw[:, 0], kind="stable")]
        if not np.array_equal(raw[:, 0], np.arange(len(raw))):
            raise RuntimeError("span ids are not contiguous: a span was lost")
        self.names = list(tracer.names)
        self.layer_of_name = [n.split(".", 1)[0] for n in self.names]
        self.sid, self.nid, self.parent = raw[:, 0], raw[:, 1], raw[:, 2]
        self.t0, self.t1 = raw[:, 3], raw[:, 4]
        self.roots = np.asarray(tracer.roots, dtype=np.int64)
        self.op = np.searchsorted(self.roots, self.sid, side="right") - 1
        self.dur = self.t1 - self.t0
        has_parent = self.parent >= 0
        child = np.bincount(
            self.parent[has_parent],
            weights=self.dur[has_parent],
            minlength=len(self.dur),
        )
        self.self_ns = self.dur - child
        calls = np.frombuffer(tracer.calls, dtype=np.int64).reshape(-1, 2)
        self.call_nid, self.call_parent = calls[:, 0], calls[:, 1]
        self.notes = tracer.notes

    @property
    def n_ops(self) -> int:
        return len(self.roots)

    def ids(self, pred) -> np.ndarray:
        return np.array(
            [i for i, n in enumerate(self.names) if pred(n)], dtype=np.int64
        )

    def named(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Masks over spans and over counted calls of one function."""
        nid = self.names.index(name) if name in self.names else -1
        return self.nid == nid, self.call_nid == nid

    def parent_layer(self, sid: int) -> str:
        p = self.parent[sid]
        return "" if p < 0 else self.layer_of_name[self.nid[p]]

    def save(self, path: Path) -> None:
        """Write spans and counted calls (one row each) as ``.npz``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            sid=self.sid,
            name_id=self.nid,
            parent=self.parent,
            start_ns=self.t0,
            end_ns=self.t1,
            op=self.op,
            call_name_id=self.call_nid,
            call_parent=self.call_parent,
            names=np.array(self.names),
        )


def layer_metrics(t: SpanTable) -> dict[str, float]:
    """Per-operation layer metrics of one traced pass.

    Self time of a span is its duration minus the durations of its child
    spans; the spans of one thread nest, so that is the time its children
    did not cover. ``share`` divides a layer's self time by the wall time
    of the root spans. ``calls`` counts spans and counted calls alike.
    """
    n_ops = max(t.n_ops, 1)
    root = t.nid == 0
    op_ms = t.dur[root].sum() / 1e6 / n_ops
    m: dict[str, float] = {
        "trace.op_ms": op_ms,
        "bench.self_ms": t.self_ns[root].sum() / 1e6 / n_ops,
    }
    for layer in LAYERS:
        ids = t.ids(lambda n: n.split(".", 1)[0] == layer)
        spans = np.isin(t.nid, ids)
        self_ms = t.self_ns[spans].sum() / 1e6 / n_ops
        calls = int(spans.sum()) + int(np.isin(t.call_nid, ids).sum())
        m[f"{layer}.calls"] = calls / n_ops
        m[f"{layer}.self_ms"] = self_ms
        m[f"{layer}.share"] = self_ms / op_ms if op_ms > 0 else 0.0

    def calls_of(name: str) -> int:
        spans, counted = t.named(name)
        return int(spans.sum()) + int(counted.sum())

    for stage in STAGES:
        spans, _ = t.named(stage)
        m[f"{stage}.self_ms"] = t.self_ns[spans].sum() / 1e6 / n_ops
        m[f"{stage}.calls"] = int(spans.sum()) / n_ops
    opt, _ = t.named("session.optimize_mu")
    m["session.optimize_mu.total_ms"] = t.dur[opt].sum() / 1e6 / n_ops
    n_opt = int(opt.sum())
    ev_spans, ev_counted = t.named("session.wcs_infinite_decoy_rate")
    evals = int(np.isin(t.parent[ev_spans], t.sid[opt]).sum()) + int(
        np.isin(t.call_parent[ev_counted], t.sid[opt]).sum()
    )
    m["session.optimize_mu.rate_evals_per_call"] = evals / n_opt if n_opt else 0.0

    n_pipe = calls_of("session.run_pipeline")
    m["decoy.fluctuation_bounds_per_pipeline"] = (
        calls_of("decoy.fluctuation_bounds") / n_pipe if n_pipe else 0.0
    )

    builds = 0
    unique: dict[int, set] = {}
    flagged = bounds = 0
    zero = delivered = 0
    for sid, note in t.notes:
        name = t.names[t.nid[sid]]
        if name in SOURCE_BUILDERS:
            builds += 1
            unique.setdefault(int(t.op[sid]), set()).add((name, note))
        elif name.startswith("decoy."):
            # only bounds handed back out of the decoy layer count
            if note is not None and t.parent_layer(sid) != "decoy":
                bounds += 1
                flagged += note
        elif t.parent_layer(sid) != "session":
            # key rates the session layer delivers to its caller
            zero += note[0]
            delivered += note[1]
    n_unique = sum(len(s) for s in unique.values())
    m["sources.builds_per_unique_input"] = builds / n_unique if n_unique else 0.0
    m["decoy.flagged_ratio"] = flagged / bounds if bounds else 0.0
    m["session.zero_key_ratio"] = zero / delivered if delivered else 0.0
    return m
