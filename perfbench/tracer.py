"""Spans around the public functions of each memqkd module.

`Tracer.install` replaces every public function of the seven layer
modules, and every public method of the classes they define, with a
wrapper that records one span (function id, parent span, start, end).
The wrapper is set at each module attribute that holds the function, so
a call resolves to it whichever module makes the call: `memqkd.cli`
reaches `simulate_session` through `memqkd.cli.simulate_session`, the
reference engine reaches `apply_pi_pulse` through
`memqkd.bsm.apply_pi_pulse`. Private helpers are not wrapped; their time
is the self time of the public function that called them.

Spans stay in four in-memory int64 arrays and are written once, by
`save`, when the run ends. `summarize` turns a saved span file into
per-layer self time (a span's duration minus its child spans), entry
counts and per-function inclusive times. Nothing under `src/` changes.
"""

from __future__ import annotations

import array
import functools
import sys
import time
import types
from typing import Callable

LAYERS = ("config", "cavity", "qubits", "bsm", "session", "rates", "cli")


class Tracer:
    """Records spans while installed; `observers` see chosen return values.

    observers maps a span name ("session.simulate_session") to a callback
    that receives the function's return value, so counts can be taken
    from what the program returns at the layer boundary.
    """

    def __init__(self, observers: dict[str, Callable] | None = None):
        self.names: list[str] = []
        self.fid = array.array("q")
        self.parent = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self._stack = [-1]
        self._observers = observers or {}
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        fid = len(self.names)
        self.names.append(name)
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        stack = self._stack
        observe = self._observers.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return span

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {f"memqkd.{layer}": sys.modules[f"memqkd.{layer}"] for layer in LAYERS}
        wrappers: dict[int, Callable] = {}

        def wrapper_for(fn: Callable, name: str) -> Callable:
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(name, fn)
            return wrappers[id(fn)]

        for mod_name, module in modules.items():
            layer = mod_name.split(".")[1]
            for obj in list(vars(module).values()):
                if isinstance(obj, type) and obj.__module__ == mod_name:
                    self._patch_methods(obj, layer, wrapper_for)
        for module in [sys.modules["memqkd"], *modules.values()]:
            for attr, obj in list(vars(module).items()):
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__ in modules
                ):
                    layer = obj.__module__.split(".")[1]
                    self._patch(module, attr, wrapper_for(obj, f"{layer}.{obj.__name__}"))

    def _patch_methods(self, cls: type, layer: str, wrapper_for) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, types.FunctionType):
                self._patch(cls, attr, wrapper_for(member, name))
            elif isinstance(member, classmethod):
                self._patch(cls, attr, classmethod(wrapper_for(member.__func__, name)))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            fid=np.frombuffer(self.fid, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
        )


def summarize(path: str) -> dict:
    """Self time, entries and inclusive time per layer and per function.

    A layer's entries are its spans whose parent span belongs to another
    layer (or to none): the calls that cross into the layer. Its
    inclusive time is the duration of those entry spans. A function's
    inclusive time sums its spans whose parent is not the same function.
    """
    import numpy as np

    with np.load(path) as data:
        names = [str(n) for n in data["names"]]
        fid, parent = data["fid"], data["parent"]
        dur = (data["end"] - data["start"]).astype(np.float64) * 1e-9

    has_parent = parent >= 0
    child = np.zeros_like(dur)
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child

    layer_ids = np.array([LAYERS.index(n.split(".")[0]) for n in names] or [0], dtype=np.int64)
    span_layer = layer_ids[fid]
    parent_layer = np.where(has_parent, span_layer[np.maximum(parent, 0)], -1)
    entry = parent_layer != span_layer
    parent_fid = np.where(has_parent, fid[np.maximum(parent, 0)], -1)
    outer = parent_fid != fid

    layers = {}
    for index, layer in enumerate(LAYERS):
        mine = span_layer == index
        layers[layer] = {
            "self_s": float(self_time[mine].sum()),
            "calls": int((mine & entry).sum()),
            "inclusive_s": float(dur[mine & entry].sum()),
        }
    functions = {}
    for index, name in enumerate(names):
        mine = fid == index
        functions[name] = {
            "calls": int(mine.sum()),
            "inclusive_s": float(dur[mine & outer].sum()),
        }
    return {"layers": layers, "functions": functions}
