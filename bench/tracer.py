"""Span recorder for the traced run.

The recorder wraps the public functions of each dvfield layer from the
outside, at every place a function is bound (its defining module, the
package namespace and every module that imported it by name), so the
library itself carries no tracing code.  A span stores its name, start,
end, parent span and the id of the benchmark operation it belongs to.
Spans stay in flat in-memory arrays until the run ends, when they are
reduced to per-layer counts and self times; a layer's self time is a
span's duration minus the time its child spans cover.  Span times are CPU
seconds of the calling thread, like every time the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

# every public module-level function of these modules is traced, plus
# the listed methods; a span is named <module>.<function or method>
LAYER_MODULES = ("localfield", "series", "rootfind", "special", "measure",
                 "textio", "cli")
METHODS = {
    ("localfield", "FieldElement"): ("from_rational", "__add__", "__sub__", "__neg__",
                                     "__mul__", "__truediv__", "inverse", "truncate",
                                     "mul_integer", "shift", "reduce_mod",
                                     "agrees_with"),
    ("series", "TruncatedSeries"): ("eval", "materialized", "derivative", "deflate",
                                    "recenter", "sup_exponent", "cauchy_product",
                                    "isometry_criterion"),
    ("measure", "BallSpec"): ("make",),
}
# only this valuation helper is traced: the others run inside every
# element operation and would swamp the trace
EXTRA_FUNCTIONS = (("valuation", "factorial_valuation"),)
# a traced run stops at the next operation boundary past this many spans,
# which keeps its memory near 130 MB
MAX_SPANS = 1_000_000


class SpanRecorder:
    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.raised = bytearray()
        self._stack: List[int] = []
        self.op_id = -1
        self.observed: Dict[str, List[Tuple[int, float]]] = {}

    @property
    def full(self) -> bool:
        return len(self.start) >= MAX_SPANS

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable,
             observe: Optional[Callable[[object], float]] = None) -> Callable:
        """fn recording one span per call; observe(result), if given,
        adds a per-call value under the span's name."""
        nid = self.name_id(name)
        names, starts, ends = self.name, self.start, self.end
        parents, ops, raised, stack = self.parent, self.op, self.raised, self._stack
        clock = time.thread_time
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(rec.op_id)
            ends.append(0.0)
            raised.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[i] = clock()
                raised[i] = 1
                stack.pop()
                raise
            ends[i] = clock()
            stack.pop()
            if observe is not None:
                rec.observed.setdefault(name, []).append((rec.op_id, observe(result)))
            return result
        return traced

    # -- reduction ----------------------------------------------------

    def self_times(self) -> List[float]:
        out = [e - s for s, e in zip(self.start, self.end)]
        for i, par in enumerate(self.parent):
            if par >= 0:
                out[par] -= self.end[i] - self.start[i]
        return out

    def summary(self) -> Dict[str, dict]:
        """Per span name, over spans inside benchmark operations: calls,
        how many raised, total self time and the span indices."""
        selfs = self.self_times()
        out: Dict[str, dict] = {n: {"calls": 0, "raised": 0, "self_s": 0.0, "spans": []}
                                for n in self.names}
        for i in range(len(self.start)):
            if self.op[i] < 0:
                continue
            s = out[self.names[self.name[i]]]
            s["calls"] += 1
            s["raised"] += self.raised[i]
            s["self_s"] += selfs[i]
            s["spans"].append(i)
        return out

    def parent_is(self, i: int, name: str) -> bool:
        par = self.parent[i]
        return par >= 0 and self.names[self.name[par]] == name

    def has_ancestor(self, i: int, name: str) -> bool:
        target = self._ids.get(name)
        i = self.parent[i]
        while i >= 0:
            if self.name[i] == target:
                return True
            i = self.parent[i]
        return False


def _span_name(layer: str, attr: str) -> str:
    return f"{layer}.{attr.strip('_')}"


def install(rec: SpanRecorder, observers: Dict[str, Callable]) -> Callable[[], None]:
    """Wrap every traced function of the loaded dvfield modules; returns
    a function that restores the originals."""
    restore: List[Tuple[object, str, object]] = []
    for layer in LAYER_MODULES:
        importlib.import_module(f"dvfield.{layer}")
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "dvfield" or n.startswith("dvfield."))]

    def rebind(orig, wrapped) -> None:
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    restore.append((mod, key, value))
                    setattr(mod, key, wrapped)

    functions = []
    for layer in LAYER_MODULES:
        mod = sys.modules[f"dvfield.{layer}"]
        for key, value in vars(mod).items():
            if (inspect.isfunction(value) and value.__module__ == mod.__name__
                    and not key.startswith("_")):
                functions.append((layer, key, value))
    for layer, key in EXTRA_FUNCTIONS:
        functions.append((layer, key, getattr(sys.modules[f"dvfield.{layer}"], key)))
    for layer, key, fn in functions:
        name = _span_name(layer, key)
        rebind(fn, rec.wrap(name, fn, observers.get(name)))

    for (layer, cls_name), attrs in METHODS.items():
        cls = getattr(sys.modules[f"dvfield.{layer}"], cls_name)
        for attr in attrs:
            raw = cls.__dict__[attr]
            name = _span_name(layer, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(rec.wrap(name, raw.__func__, observers.get(name)))
            else:
                wrapped = rec.wrap(name, raw, observers.get(name))
            restore.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall() -> None:
        for owner, key, value in reversed(restore):
            setattr(owner, key, value)
    return uninstall
