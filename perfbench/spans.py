"""Span tracing around the public functions of duality_lab's modules.

Tracer.install wraps every public function and public method defined in
each layer module (plus dataclass __post_init__ validators) and rebinds
*every* module attribute that refers to the wrapped object, so imports
such as ``from .random import stream`` inside ``duality`` are traced
too. Spans nest through a per-op stack, carry the op id the harness sets
before each call, and stay in flat in-memory arrays until summarize()
runs at the end.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

LAYERS = ("random", "states", "linalg", "measures", "interference", "duality", "cli")
PACKAGE = "duality_lab"
OUTPUT_METHODS = ("CampaignResult.aggregate", "CampaignResult.to_csv", "CampaignResult.to_json",
                  "DualityReport.to_json")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.op = array("q")
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.op_id = 0
        self.partial_trace_bytes = 0
        self.grid_points = 0
        self._patches: list[tuple[object, str, object, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        name_id = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        ops, ids, parents, starts, ends = self.op, self.name_id, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            index = len(starts)
            ops.append(tracer.op_id)
            ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _count_partial_trace(self, fn):
        signature = inspect.signature(fn)

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            arguments = signature.bind(*args, **kwargs).arguments
            side = arguments.get("dim_first", 0) * arguments.get("dim_second", 0)
            # computed, not measured: one complex128 (side x side) input matrix
            self.partial_trace_bytes += 16 * side * side
            return result

        return counted

    def _count_grid(self, fn):
        def counted(*args, **kwargs):
            scan = fn(*args, **kwargs)
            self.grid_points += len(getattr(scan, "phases", ()))
            return scan

        return counted

    def install(self) -> None:
        """Wrap and rebind; the first call builds the wrappers, later calls reuse them."""
        if not self._patches:
            self._build_patches()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _build_patches(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                continue  # a layer the program no longer has reads as never called
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    fn = obj
                    if attr == "partial_trace_second":
                        fn = self._count_partial_trace(fn)
                    elif attr == "scan_visibility":
                        fn = self._count_grid(fn)
                    wrappers[id(obj)] = (obj, self._wrap(fn, f"{layer}.{attr}", layer))
                elif inspect.isclass(obj):
                    self._patch_methods(obj, layer)
        for module in modules:
            for attr, obj in vars(module).items():
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patches.append((module, attr, obj, wrappers[id(obj)][1]))

    def _patch_methods(self, cls, layer: str) -> None:
        for attr, raw in vars(cls).items():
            if attr.startswith("_") and attr != "__post_init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(raw):
                wrapped = self._wrap(raw, name, layer)
            elif isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, name, layer))
            else:
                continue  # properties and data stay as they are
            self._patches.append((cls, attr, raw, wrapped))

    # -- analysis -----------------------------------------------------------

    def spans(self):
        """(op, name, layer, parent, start_ns, end_ns) for every recorded span."""
        for i in range(len(self.start)):
            nid = self.name_id[i]
            yield (self.op[i], self.names[nid], self.layer_of[nid], self.parent[i],
                   self.start[i], self.end[i])

    def self_times(self) -> array:
        """Per span: duration minus the durations of its direct children.

        Spans run on one thread, so siblings never overlap and the children
        of a span cover exactly the sum of their durations.
        """
        own = array("q", (e - s for s, e in zip(self.start, self.end)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def summarize(self) -> dict:
        """Totals per layer and per named span, over every recorded span."""
        own = self.self_times()
        layer_self = dict.fromkeys(LAYERS, 0)
        layer_calls = dict.fromkeys(LAYERS, 0)
        name_total: dict[str, int] = {}
        name_calls: dict[str, int] = {}
        output_ns = 0
        output_ids = {i for i, n in enumerate(self.names) if n.split(".", 1)[1] in OUTPUT_METHODS}
        ids = {n: i for i, n in enumerate(self.names)}
        scan_id = ids.get("interference.scan_visibility", -1)
        intensity_id = ids.get("interference.intensity", -1)
        intensity_in_scans = 0
        for i in range(len(own)):
            nid = self.name_id[i]
            layer = self.layer_of[nid]
            duration = self.end[i] - self.start[i]
            layer_self[layer] += own[i]
            layer_calls[layer] += 1
            name = self.names[nid]
            name_total[name] = name_total.get(name, 0) + duration
            name_calls[name] = name_calls.get(name, 0) + 1
            parent = self.parent[i]
            if nid in output_ids and (parent < 0 or self.name_id[parent] not in output_ids):
                output_ns += duration
            if nid == intensity_id:
                while parent >= 0 and self.name_id[parent] != scan_id:
                    parent = self.parent[parent]
                intensity_in_scans += parent >= 0
        return {
            "layer_self_ns": layer_self,
            "layer_calls": layer_calls,
            "name_total_ns": name_total,
            "name_calls": name_calls,
            "output_ns": output_ns,
            "intensity_in_scans": intensity_in_scans,
            "partial_trace_bytes": self.partial_trace_bytes,
            "grid_points": self.grid_points,
        }
