"""Span tracing for the benchmark's traced run.

Tracing wraps the program from outside: every public function of a
spikescan module is replaced, in every spikescan module that binds it, by a
wrapper that records a span (name, start, end, parent).  The backward
closures that ``Tape`` records, the neuron ``step``/``trace``/``sequence``
methods and the task models' methods are wrapped the same way.  Spans stay
in memory and are written out once, at the end, as one ``.npz`` file.

A span's name is its layer: the defining module without the ``spikescan.``
prefix, then the function (``numerics.sigmoid``, ``scan.linear_scan``,
``tasks.training.Adam.step``).  Backward closures are ``bwd.<op>``; neuron
methods are ``neurons.<method>.<neuron name>``; the benchmark's own phase
samples are ``phase.<phase>`` roots.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    """In-memory span store plus the counters the spans cannot carry."""

    def __init__(self):
        self._ids: dict[str, int] = {}
        self.names: list[str] = []
        self.sid = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.phase = "setup"
        # per-op output bytes, per-phase tape node and kept-byte counts
        self.out_bytes: dict[str, int] = defaultdict(int)
        self.tape_nodes: dict[str, int] = defaultdict(int)
        self.tape_saved: dict[str, int] = defaultdict(int)
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_start = None
        self._gc_ignore = False
        self._restore: list[tuple[object, str, object]] = []

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- spans --------------------------------------------------------------

    def wrap(self, fn, name: str, per_instance: bool = False):
        """``fn`` recording one span per call.  With ``per_instance`` the span
        name is ``name`` followed by the ``name`` of the call's first argument
        (a neuron method's instance)."""
        nid = None if per_instance else self.intern(name)
        intern = self.intern
        sid, t0, t1, parent, stack = self.sid, self.t0, self.t1, self.parent, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(sid)
            sid.append(intern(name + args[0].name) if per_instance else nid)
            parent.append(stack[-1])
            t1.append(0.0)
            stack.append(i)
            t0.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                t1[i] = clock()
                stack.pop()

        return traced

    # -- garbage collector ----------------------------------------------------

    def _on_gc(self, event, info):
        if self._gc_ignore:
            return
        if event == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    def collect(self):
        """The benchmark's own full collection between samples, not counted."""
        self._gc_ignore = True
        try:
            gc.collect()
        finally:
            self._gc_ignore = False

    # -- installation ---------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the program in place; ``uninstall`` restores every binding."""
        # the package re-exports the function ``scan`` over its submodule
        numerics, scan, neurons, training, approx, extrapolate = (
            importlib.import_module("spikescan." + name) for name in
            ("numerics", "scan", "neurons", "tasks.training", "tasks.approx",
             "tasks.extrapolate"))

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "spikescan" or name.startswith("spikescan.")]
        wrapped: dict[int, object] = {}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = getattr(value, "__module__", "") or ""
                if home != mod.__name__ or inspect.isgeneratorfunction(value):
                    continue
                wrapped[id(value)] = self.wrap(value, f"{home[len('spikescan.'):]}.{attr}")
        # replace every binding, including names bound by import elsewhere
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped and inspect.isfunction(value):
                    self._set(mod, attr, wrapped[id(value)])

        tracer = self
        orig_record = numerics.Tape._record
        wrap = self.wrap

        def _record(tape, op, parents, backward):
            tracer.tape_nodes[tracer.phase] += 1
            if backward is not None:
                backward = wrap(backward, "bwd." + op)
            return orig_record(tape, op, parents, backward)

        self._set(numerics.Tape, "_record", _record)
        self._set(numerics.Tape, "backward",
                  self.wrap(numerics.Tape.backward, "numerics.Tape.backward"))
        for mod in (numerics, scan):
            orig_result = mod._result

            def _result(arr, op, tape, parents, backward, _orig=orig_result):
                tracer.out_bytes[op] += arr.nbytes
                if tape is not None and parents:
                    tracer.tape_saved[tracer.phase] += arr.nbytes
                return _orig(arr, op, tape, parents, backward)

            self._set(mod, "_result", _result)

        for cls in (neurons.DsnNeuron, neurons.PsnNeuron, neurons.LifNeuron):
            for meth in ("step", "trace", "sequence"):
                if meth in vars(cls):
                    self._set(cls, meth, self.wrap(
                        vars(cls)[meth], f"neurons.{meth}.", per_instance=True))
        targets = [(training.Adam, "step", "tasks.training.Adam.step"),
                   (approx.ApproxModel, "forward", "tasks.approx.ApproxModel.forward")]
        seq_model = getattr(extrapolate, "_SequenceModel", None)
        if seq_model is not None:
            for meth in ("forward", "loss", "eval_serial"):
                targets.append((seq_model, meth, f"tasks.extrapolate.SequenceModel.{meth}"))
        for cls, meth, name in targets:
            self._set(cls, meth, self.wrap(vars(cls)[meth], name))
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- analysis -------------------------------------------------------------

    def arrays(self):
        sid = np.frombuffer(self.sid, dtype=np.int32).copy()
        t0 = np.frombuffer(self.t0, dtype=np.float64).copy()
        t1 = np.frombuffer(self.t1, dtype=np.float64).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        return sid, t0, t1, parent

    def summarize(self):
        """Per-name inclusive/self seconds and counts, and per-root totals.

        A span's self time is its duration minus the durations of its direct
        children; spans nest strictly (one thread), so children never overlap.
        """
        sid, t0, t1, parent = self.arrays()
        n = len(self.names)
        dur = t1 - t0
        has_parent = parent >= 0
        cover = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=sid.size)
        self_t = dur - cover
        root = np.where(has_parent, parent, np.arange(sid.size))
        while True:  # pointer jumping: parents precede children
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
        return {
            "dur": dur, "self": self_t, "root": root, "sid": sid,
            "incl_by_name": np.bincount(sid, weights=dur, minlength=n),
            "self_by_name": np.bincount(sid, weights=self_t, minlength=n),
            "count_by_name": np.bincount(sid, minlength=n),
        }

    def save(self, path):
        sid, t0, t1, parent = self.arrays()
        np.savez_compressed(path, names=np.asarray(self.names), name=sid,
                            start=t0, end=t1, parent=parent)


def wrapper_cost_us(n: int = 200_000) -> float:
    """Measured cost of one traced call over an untraced one, in microseconds.

    Uses a throwaway tracer's wrapper on a no-op, so the run's span store is
    left untouched.
    """
    probe = Tracer()

    def noop():
        return None

    traced = probe.wrap(noop, "probe")
    elapsed = []
    for fn in (noop, traced):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        elapsed.append(time.perf_counter() - start)
    return max(0.0, (elapsed[1] - elapsed[0]) / n * 1e6)
