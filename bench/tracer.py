"""Outside-in span tracer for the bcmaes layers.

``Tracer.install`` replaces every public function, method and class
constructor of the bcmaes modules at the place its caller looks it up
(module globals, the package namespace, class attributes) with a wrapper
that records one span per call: name, start, end, parent span and run id.
Nothing in the package itself changes, and ``uninstall`` puts every original
back. Spans stay in flat in-memory arrays until the benchmark ends; a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter

import numpy as np

# Layers are the modules under src/bcmaes; ``errors`` does no work.
LAYERS = ("rng", "linalg", "likelihood", "niw", "restart", "benchmarks", "optimizer", "cli", "plotting")


class Tracer:
    """Records nested call spans of wrapped callables into columnar arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.run = array("q")
        self.run_id = 0
        self.errors: Counter = Counter()
        # counts the harness derives from call arguments and results
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` wrapped so that each call records a span called ``name``.

        ``after(args, kwargs, result)``, if given, runs once the span has
        closed, so its cost is charged to the caller rather than to ``name``.
        """
        nid = self._name_id(name)
        start, end, parent, names, runs, stack = (
            self.start, self.end, self.parent, self.name, self.run, self._stack)
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            runs.append(tracer.run_id)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                end[idx] = clock()
                stack.pop()
                tracer.errors[name] += 1
                raise
            end[idx] = clock()
            stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package, hooks: dict | None = None) -> None:
        """Wrap every public callable of ``package``'s layer modules where it is looked up.

        ``hooks`` maps a span name to an ``after`` callback for that span.
        Names missing from the package are skipped, so the tracer survives
        refactors that move or delete functions.
        """
        hooks = hooks or {}
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"{package.__name__}.{layer}")
            except ModuleNotFoundError:
                continue
        wrappers = {}
        for layer, mod in modules.items():
            for attr, val in vars(mod).items():
                if inspect.isfunction(val) and not attr.startswith("_") and val.__module__ == mod.__name__:
                    span = f"{layer}.{attr}"
                    wrappers[val] = self.wrap(span, val, hooks.get(span))
        for mod in (package, *modules.values()):
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._set(mod, attr, wrappers[val])
        for layer, mod in modules.items():
            for cname, cls in list(vars(mod).items()):
                if not (inspect.isclass(cls) and cls.__module__ == mod.__name__):
                    continue
                if issubclass(cls, BaseException):
                    continue
                for attr, raw in list(vars(cls).items()):
                    if attr == "__init__":
                        span = f"{layer}.{cname}"
                    elif attr.startswith("_"):
                        continue
                    else:
                        span = f"{layer}.{attr}"
                    if isinstance(raw, (classmethod, staticmethod)):
                        new = type(raw)(self.wrap(span, raw.__func__, hooks.get(span)))
                    elif inspect.isfunction(raw):
                        new = self.wrap(span, raw, hooks.get(span))
                    else:
                        continue
                    self._set(cls, attr, new)

    def uninstall(self) -> None:
        """Restore every attribute ``install`` replaced, in reverse order."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def summary(self, lo: int = 0, hi: int | None = None) -> dict[str, dict[str, float]]:
        """Per span name: calls, self and inclusive time in seconds, over spans ``[lo, hi)``.

        The range must hold whole call trees (the harness takes one pass).
        """
        hi = len(self) if hi is None else hi
        start = np.frombuffer(self.start, dtype=np.int64)[lo:hi]
        end = np.frombuffer(self.end, dtype=np.int64)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int64)[lo:hi] - lo
        name = np.frombuffer(self.name, dtype=np.int64)[lo:hi]
        dur = (end - start).astype(float)
        inner = parent >= 0
        child = np.bincount(parent[inner], weights=dur[inner], minlength=len(dur))
        self_ns = np.bincount(name, weights=dur - child, minlength=len(self.names))
        # no bcmaes callable recurses, so summing durations per name never double-counts
        incl_ns = np.bincount(name, weights=dur, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        return {
            n: {"calls": int(calls[i]), "self_s": float(self_ns[i]) * 1e-9,
                "incl_s": float(incl_ns[i]) * 1e-9}
            for i, n in enumerate(self.names) if calls[i]
        }

    def save(self, path) -> None:
        """Write every recorded span to a compressed ``.npz`` file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            run=np.frombuffer(self.run, dtype=np.int64),
        )
