"""Spans around qbuffer's module functions, recorded from outside the package.

``Tracer.install`` replaces module attributes with wrappers: every public
function a qbuffer module holds in its globals (including names it imported
from a sibling module), plus the scipy entry points the modules call through
their own globals.  A span is named after the module that defines the
function (``states.require_valid`` even when ``tomography`` calls it), so
calls are attributed to the layer that does the work.

Each span has a name, start, end, parent and the item it belongs to.  Totals
per span name (calls, busy time, self time) are aggregated as spans close;
raw spans are kept in memory only while ``record`` is set and are written
out once, by ``Tracer.save``.

* busy time of a name or layer: time covered by its outermost spans, so
  nested spans of the same name or layer are not counted twice;
* self time: a span's duration minus the time its child spans cover;
* a layer's ``calls``: entries into the layer from outside it.
"""

from __future__ import annotations

import json
import re
import time
import types
from array import array
from pathlib import Path

import numpy as np

MODULES = ("states", "channels", "dynamics", "tomography", "measures",
           "fitting", "cli")
# scipy functions each module calls through its own globals
SCIPY_ENTRIES = {"fitting": ("nnls", "least_squares"),
                 "tomography": ("minimize",), "measures": ("brentq",)}
SERIALIZE = "serialize"
_SERIALIZE_NAME = re.compile(r"(^|_)(to|from)_(csv|json|dict)$")
_WRITER_NAME = re.compile(r"_to_(csv|json)$")
_FIT_SPANS = ("fitting.fit_pasy", "fitting.fit_p3")
ITEM_SPAN = "bench.item"


def is_serializer(name: str) -> bool:
    """True for the CSV/JSON/dict writers and readers (the serialize layer)."""
    module, _, func = name.rpartition(".")
    return module != "bench" and bool(_SERIALIZE_NAME.search(func))


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._layers: list[tuple[int, ...]] = []
        self.layer_names: list[str] = []
        self._installed: list[tuple[types.ModuleType, str, object]] = []
        self.record = False
        self.item = -1
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.reset()
        self._dynamics = self._layer("dynamics")
        self._serialize = self._layer(SERIALIZE)
        self._slc = self._id("measures.solve_level_crossing")
        self._mle = self._id("tomography.reconstruct_mle")
        self._lsq = self._id("fitting.least_squares")
        self._fits = {self._id(n) for n in _FIT_SPANS}

    # -- span names and layers --------------------------------------------

    def _layer(self, name: str) -> int:
        if name not in self.layer_names:
            self.layer_names.append(name)
        return self.layer_names.index(name)

    def _id(self, name: str) -> int:
        if name in self._ids:
            return self._ids[name]
        nid = len(self.names)
        self.names.append(name)
        self._ids[name] = nid
        layers = [self._layer(name.rpartition(".")[0])]
        if is_serializer(name):
            layers.append(self._layer(SERIALIZE))
        self._layers.append(tuple(layers))
        for table in (self.calls, self.busy, self.self_time, self._depth):
            table.append(0)
        return nid

    def reset(self) -> None:
        """Clear the totals; raw spans and the name table are kept."""
        n = len(self.names)
        self.calls = [0] * n
        self.busy = [0.0] * n
        self.self_time = [0.0] * n
        self._depth = [0] * n
        self._layer_depth: dict[int, int] = {}
        self.layer_calls: dict[int, int] = {}
        self.layer_busy: dict[int, float] = {}
        self.counters = {"level_crossing_model_evals": 0, "mle_calls": 0,
                         "mle_iterations": 0, "mle_converged": 0,
                         "polish_nfev": 0, "scan_s": 0.0, "serialize_bytes": 0}
        self._stack: list[list] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import qbuffer
        import qbuffer.cli  # noqa: F401  (loads every module)
        for short in MODULES:
            module = getattr(qbuffer, short)
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not isinstance(value, types.FunctionType)
                        or not value.__module__.startswith("qbuffer.")):
                    continue
                origin = value.__module__.rpartition(".")[2]
                self._patch(module, attr, f"{origin}.{value.__name__}")
            for attr in SCIPY_ENTRIES.get(short, ()):
                self._patch(module, attr, f"{short}.{attr}")

    def _patch(self, module: types.ModuleType, attr: str, name: str) -> None:
        original = getattr(module, attr)
        self._installed.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def wrap(self, fn, name: str):
        nid = self._id(name)
        enter, leave = self._enter, self._leave

        def traced(*args, **kwargs):
            frame = enter(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                leave(frame, None)
                raise
            leave(frame, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, nid: int) -> list:
        stack = self._stack
        layer_depth = self._layer_depth
        if nid == self._lsq:
            for frame in reversed(stack):
                if frame[0] in self._fits:
                    if frame[4] is None:
                        frame[4] = time.perf_counter()
                    break
        layers = self._layers[nid]
        if (layers[0] == self._dynamics and not layer_depth.get(self._dynamics)
                and self._depth[self._slc]):
            self.counters["level_crossing_model_evals"] += 1
        for layer in layers:
            depth = layer_depth.get(layer, 0)
            if not depth:
                self.layer_calls[layer] = self.layer_calls.get(layer, 0) + 1
            layer_depth[layer] = depth + 1
        self._depth[nid] += 1
        index = -1
        start = time.perf_counter()
        if self.record:
            index = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][3] if stack else -1)
            self.span_item.append(self.item)
            self.span_start.append(start)
            self.span_end.append(start)
        frame = [nid, start, 0.0, index, None]
        stack.append(frame)
        return frame

    def _leave(self, frame: list, result) -> None:
        end = time.perf_counter()
        nid, start, child, index, first_polish = frame
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.span_end[index] = end
        self.calls[nid] += 1
        self.self_time[nid] += duration - child
        self._depth[nid] -= 1
        if not self._depth[nid]:
            self.busy[nid] += duration
        for layer in self._layers[nid]:
            self._layer_depth[layer] -= 1
            if not self._layer_depth[layer]:
                self.layer_busy[layer] = self.layer_busy.get(layer, 0.0) + duration
                if (layer == self._serialize and isinstance(result, str)
                        and _WRITER_NAME.search(self.names[nid])):
                    self.counters["serialize_bytes"] += len(result.encode())
        if result is None:
            return
        counters = self.counters
        if nid == self._mle:
            counters["mle_calls"] += 1
            counters["mle_iterations"] += int(result.iterations)
            counters["mle_converged"] += bool(result.converged)
        elif nid == self._lsq:
            counters["polish_nfev"] += int(result.nfev)
        if nid in self._fits:
            counters["scan_s"] += (first_polish if first_polish is not None
                                   else end) - start

    def open_item(self, index: int) -> list:
        """Open the root span of one benchmark item; its spans carry the index."""
        self.item = index
        return self._enter(self._id(ITEM_SPAN))

    def close_item(self, frame: list) -> None:
        self._leave(frame, None)

    # -- reduction ----------------------------------------------------------

    def totals(self) -> dict:
        """Per-name and per-layer totals accumulated since the last reset."""
        names = {self.names[i]: {"calls": self.calls[i], "busy_s": self.busy[i],
                                 "self_s": self.self_time[i]}
                 for i in range(len(self.names)) if self.calls[i]}
        layers = {self.layer_names[i]: {"calls": self.layer_calls.get(i, 0),
                                        "busy_s": self.layer_busy.get(i, 0.0)}
                  for i in range(len(self.layer_names))}
        return {"names": names, "layers": layers, "counters": dict(self.counters)}

    def save(self, path: Path) -> None:
        """Write the recorded raw spans: name table as JSON, spans as arrays."""
        np.savez(path, name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 item=np.frombuffer(self.span_item, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64),
                 names=np.array(json.dumps(self.names)))
