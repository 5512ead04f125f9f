"""In-memory span tracer installed around the relgeneric package from outside.

``Tracer.install()`` replaces every public function, public method, explicit
``__init__`` and array-valued property of the package's modules with a
wrapper that records one span per call: (name, start, end, parent).  Each
function is replaced under every module attribute that refers to it, so a
call is traced however the package looks the name up (``kfp.hamiltonian``,
``model.hamiltonian`` and ``generic.hamiltonian`` are one wrapper).  A span
is named ``<defining module>.<qualname>``; its layer is the defining module.

An ``on_record`` callback passed to a traced function is wrapped too, so the
per-record hook of the command-line front end shows as ``cli.on_record``.

Spans stay in memory; ``summary()`` computes self times and ``save()``
writes the raw spans when the run is over.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

PACKAGE = "relgeneric"
MODULES = ("cli", "config", "model", "grid", "generic", "kfp", "heat", "io",
           "verify", "limits", "rng")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._wrappers: dict[int, object] = {}
        # span k: (name id, start, end, parent span index or -1); a slot is
        # reserved at call entry so a parent's index precedes its children's
        self.spans: list = []
        self._stack = [-1]

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        if getattr(fn, "_perfbench_span", False):
            return fn
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook_aware = "on_record" in fn.__code__.co_varnames[
            :fn.__code__.co_argcount + fn.__code__.co_kwonlyargcount]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook_aware and callable(kwargs.get("on_record")):
                hook = kwargs["on_record"]
                layer = hook.__module__.rsplit(".", 1)[-1]
                kwargs["on_record"] = tracer.wrap(f"{layer}.on_record", hook)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)

        traced._perfbench_span = True
        return traced

    def _wrapper_for(self, module_name: str, qualname: str, fn):
        key = id(fn)
        if key not in self._wrappers:
            self._wrappers[key] = self.wrap(f"{module_name}.{qualname}", fn)
        return self._wrappers[key]

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the package in place."""
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
        for name, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._install_class(name, mod, obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not callable(obj) or isinstance(obj, type):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith(PACKAGE + ".") or not hasattr(obj, "__code__"):
                    continue
                layer = home.rsplit(".", 1)[-1]
                setattr(mod, attr, self._wrapper_for(layer, obj.__qualname__, obj))

    def _install_class(self, layer: str, mod, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if isinstance(obj, property):
                if obj.fget is not None and not attr.startswith("_") \
                        and obj.fget.__annotations__.get("return") == "np.ndarray":
                    wrapped = self._wrapper_for(layer, obj.fget.__qualname__, obj.fget)
                    setattr(cls, attr, property(wrapped, doc=obj.__doc__))
            elif callable(obj) and hasattr(obj, "__code__"):
                explicit_init = attr == "__init__" \
                    and obj.__code__.co_filename == mod.__file__
                if explicit_init or not attr.startswith("_"):
                    setattr(cls, attr, self._wrapper_for(layer, obj.__qualname__, obj))

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        """Spans as numpy columns (name id, start, end, parent)."""
        done = [s for s in self.spans if s is not None]
        if len(done) != len(self.spans):
            raise RuntimeError("summary requested while traced calls are open")
        table = np.array(done, dtype=float).reshape(-1, 4)
        return (table[:, 0].astype(np.int64), table[:, 1], table[:, 2],
                table[:, 3].astype(np.int64))

    def summary(self) -> dict:
        """Per-name counts, inclusive durations and self times, per-layer self time."""
        nid, start, end, parent = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        by_name = {}
        for k, name in enumerate(self.names):
            mask = nid == k
            by_name[name] = {"calls": int(mask.sum()), "durations": dur[mask],
                             "self_s": float(self_time[mask].sum())}
        layers = {m: 0.0 for m in MODULES}
        for name, row in by_name.items():
            layers[name.split(".", 1)[0]] += row["self_s"]
        return {"by_name": by_name, "layer_self_s": layers,
                "nid": nid, "start": start, "dur": dur, "parent": parent}

    def save(self, path) -> None:
        nid, start, end, parent = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=nid,
                            start=start, end=end, parent=parent)


def span_cost_s(n: int = 100_000) -> float:
    """Measured cost of recording one span: a traced no-op minus a plain one."""
    def noop():
        return None

    traced = Tracer().wrap("calibration.noop", noop)
    timings = []
    for fn in (noop, traced):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        timings.append(time.perf_counter() - start)
    return (timings[1] - timings[0]) / n
