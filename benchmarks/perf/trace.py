"""Layer tracer: host-time spans at the boundaries between `repro` packages.

The tracer measures the simulator's layers **from outside**: nothing in
``src/repro`` knows about it.  :meth:`Tracer.install` discovers every
public function and public method defined in ``repro.<layer>.*`` and
replaces it with a wrapper that opens a span only when the call crosses
from one layer into another; a call that stays inside its layer costs
one extra Python frame and records nothing.  ``Event.fire`` — the one
dispatch point every discrete-event callback goes through — is wrapped
separately and labelled by the package of the *callback's* module, so a
private timer callback such as ``TcpConnection._on_rto`` is attributed
to ``tcp`` and not to ``sim``.

Discovery is by package, never by a hand-written list of names: a later
refactor that renames ``TxEngine.process`` is picked up automatically,
because this file sits in a benchmark that such a refactor may not edit.

Spans are (layer, start, end, parent) rows kept in four parallel arrays
(25 bytes a span) and aggregated after the run: a layer's self time is
the duration of its spans minus the part their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import types
from array import array
from time import perf_counter

ROOT_PACKAGE = "repro"
#: Layer 0: time in no `repro` package (stdlib above the scenario, the
#: harness itself, callbacks defined outside `repro`).
OTHER = "other"
#: Spans written to ``trace_<workload>.json``; aggregates always cover
#: every span, the file keeps the first ``SPAN_FILE_LIMIT`` of the window.
SPAN_FILE_LIMIT = 200_000


def discover_layers() -> list:
    """The layer names: ``other`` plus every sub-package of `repro`."""
    root = importlib.import_module(ROOT_PACKAGE)
    return [OTHER] + sorted(m.name for m in pkgutil.iter_modules(root.__path__) if m.ispkg)


def import_all_modules() -> None:
    """Import every ``repro.<layer>.*`` module so that scenario code that
    imports lazily still finds the wrapped callables."""
    root = importlib.import_module(ROOT_PACKAGE)
    for info in pkgutil.walk_packages(root.__path__, prefix=ROOT_PACKAGE + "."):
        if info.name.rsplit(".", 1)[-1] == "__main__":
            continue  # CLI entry points parse arguments at import
        try:
            importlib.import_module(info.name)
        except ImportError:
            pass  # optional dependency (e.g. plotting) not in this image


class Tracer:
    """Span recorder over the layers of one process.

    Create one, :meth:`install` it, run the scenario, :meth:`uninstall`,
    then read :meth:`aggregate`.  State lives on the instance; two
    tracers must not be installed at once.
    """

    def __init__(self) -> None:
        self.layers = discover_layers()
        self._index = {name: i for i, name in enumerate(self.layers)}
        self._module_layer: dict = {}  # module name -> layer index
        # Current position: [layer index, span index] of the open span.
        self._at = [0, -1]
        self.span_layer = array("b")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._restore: list = []  # (owner, attribute, original value)
        self._wrappers: dict = {}  # id(original function) -> wrapper
        self.wrapped = 0
        # Seconds one span adds inside / outside its own clock reads.
        self.span_cost_inside = 0.0
        self.span_cost_outside = 0.0

    # ------------------------------------------------------------------
    # discovery and patching
    # ------------------------------------------------------------------
    def layer_of_module(self, module_name) -> int:
        """Layer index of a dotted module name (0 = outside `repro`)."""
        cached = self._module_layer.get(module_name)
        if cached is not None:
            return cached
        layer = 0
        if isinstance(module_name, str):
            parts = module_name.split(".")
            if len(parts) >= 2 and parts[0] == ROOT_PACKAGE:
                layer = self._index.get(parts[1], 0)
        self._module_layer[module_name] = layer
        return layer

    def install(self) -> None:
        """Wrap every public callable of every layer, then `Event.fire`."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        import_all_modules()
        prefix = ROOT_PACKAGE + "."
        modules = [m for name, m in sorted(sys.modules.items()) if name.startswith(prefix) and m is not None]
        for module in modules:
            self._wrap_namespace(module, module.__name__)
        # `from x import f` bound the original before it was wrapped:
        # point those aliases at the wrapper too.
        for module in modules:
            for name, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None and isinstance(value, types.FunctionType):
                    self._patch(module, name, value, wrapper)
        self._wrap_event_dispatch()
        self._calibrate()

    def _calibrate(self, batches: int = 5, calls: int = 4000) -> None:
        """Measure what one span costs: the part between its two clock
        reads (charged to the span's own layer) and the part outside them
        (charged to the caller).  `aggregate` takes both back out, so the
        shares estimate the untraced run.  A no-argument no-op is the
        cheapest possible call, so the correction errs on the small side.
        """

        def noop():
            return None

        probe = self._make_wrapper(noop, layer=0)
        mark = self.span_count()
        inside, outside = [], []
        for _ in range(batches):
            self._at[0] = 1  # any layer but the probe's: every call crosses
            start = perf_counter()
            for _ in range(calls):
                probe()
            wrapped = (perf_counter() - start) / calls
            start = perf_counter()
            for _ in range(calls):
                noop()
            direct = (perf_counter() - start) / calls
            spans = range(self.span_count() - calls, self.span_count())
            in_span = sum(self.span_end[i] - self.span_start[i] for i in spans) / calls
            inside.append(max(0.0, in_span - direct))
            outside.append(max(0.0, wrapped - in_span))
        for column in (self.span_layer, self.span_parent, self.span_start, self.span_end):
            del column[mark:]
        self._at[0], self._at[1] = 0, -1
        self.span_cost_inside = sorted(inside)[batches // 2]
        self.span_cost_outside = sorted(outside)[batches // 2]

    def uninstall(self) -> None:
        """Put every original callable back."""
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
        self._wrappers.clear()
        self._at[0], self._at[1] = 0, -1

    def _patch(self, owner, name: str, original, replacement) -> None:
        setattr(owner, name, replacement)
        self._restore.append((owner, name, original))

    def _wrap_namespace(self, module, module_name: str) -> None:
        if self.layer_of_module(module_name) == 0:
            return
        for name, value in list(vars(module).items()):
            if getattr(value, "__module__", None) != module_name:
                continue  # imported from elsewhere; wrapped where defined
            if isinstance(value, types.FunctionType):
                if not name.startswith("_"):
                    self._patch(module, name, value, self._wrapper_for(value))
            elif isinstance(value, type):
                self._wrap_class(value)

    def _wrap_class(self, cls: type) -> None:
        for name, value in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(value, types.FunctionType):
                self._patch(cls, name, value, self._wrapper_for(value))
            elif isinstance(value, (staticmethod, classmethod)):
                inner = value.__func__
                if isinstance(inner, types.FunctionType):
                    self._patch(cls, name, value, type(value)(self._wrapper_for(inner)))

    def _wrapper_for(self, fn):
        wrapper = self._wrappers.get(id(fn))
        if wrapper is None:
            wrapper = self._make_wrapper(fn, self.layer_of_module(fn.__module__))
            self._wrappers[id(fn)] = wrapper
            self.wrapped += 1
        return wrapper

    def _make_wrapper(self, fn, layer: int):
        at = self._at
        layers, parents, starts, ends = self.span_layer, self.span_parent, self.span_start, self.span_end
        add_layer, add_parent, add_start, add_end = layers.append, parents.append, starts.append, ends.append
        clock = perf_counter

        def wrapper(*args, **kwargs):
            came_from = at[0]
            if came_from == layer:
                return fn(*args, **kwargs)
            # Clock first, bookkeeping after: the wrapper's own prologue is
            # charged to the callee and its epilogue to the caller, so a
            # layer entered very often is neither favoured nor penalised.
            add_start(clock())
            parent = at[1]
            span = len(ends)
            at[0] = layer
            at[1] = span
            add_layer(layer)
            add_parent(parent)
            add_end(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                at[0] = came_from
                at[1] = parent

        return functools.update_wrapper(wrapper, fn)

    def _wrap_event_dispatch(self) -> None:
        """Label each fired event by the layer its callback belongs to."""
        try:
            event_cls = importlib.import_module(ROOT_PACKAGE + ".sim.event").Event
            fire = vars(event_cls)["fire"]
        except (ImportError, AttributeError, KeyError):
            return  # dispatch moved: callbacks stay attributed to `sim`
        original = getattr(fire, "__wrapped__", fire)
        at = self._at
        module_layer = self._module_layer
        layer_of_callback = self._layer_of_callback
        layers, parents, starts, ends = self.span_layer, self.span_parent, self.span_start, self.span_end
        clock = perf_counter

        def traced_fire(event):
            callback = getattr(event, "fn", None)
            layer = module_layer.get(getattr(callback, "__module__", None))
            if layer is None:
                layer = layer_of_callback(callback)
            came_from = at[0]
            if layer == came_from:
                return original(event)
            starts.append(clock())
            parent = at[1]
            span = len(ends)
            at[0] = layer
            at[1] = span
            layers.append(layer)
            parents.append(parent)
            ends.append(0.0)
            try:
                return original(event)
            finally:
                ends[span] = clock()
                at[0] = came_from
                at[1] = parent

        self._patch(event_cls, "fire", fire, functools.update_wrapper(traced_fire, original))

    def _layer_of_callback(self, callback) -> int:
        """Slow path of `traced_fire`: partials, and first sight of a module."""
        while isinstance(callback, functools.partial):
            callback = callback.func
        if callback is None:
            return self._index["sim"]
        return self.layer_of_module(getattr(callback, "__module__", None))

    # ------------------------------------------------------------------
    # reading the spans
    # ------------------------------------------------------------------
    def span_count(self) -> int:
        return len(self.span_start)

    def aggregate(self, first: int, last: int) -> dict:
        """Self time and entry count per layer over spans ``[first, last)``.

        A span's self time is its duration minus the part its child spans
        cover, minus the calibrated cost of the spans themselves.
        ``top_s`` is the raw duration of the spans whose parent lies
        outside the range, and ``overhead_s`` the span cost taken out, so
        ``sum(self_s) + overhead_s == top_s``.
        """
        self_s = [0.0] * len(self.layers)
        calls = [0] * len(self.layers)
        top_s = overhead_s = 0.0
        inside, outside = self.span_cost_inside, self.span_cost_outside
        layers, parents, starts, ends = self.span_layer, self.span_parent, self.span_start, self.span_end
        for i in range(first, last):
            duration = ends[i] - starts[i]
            layer = layers[i]
            self_s[layer] += duration - inside
            overhead_s += inside
            calls[layer] += 1
            parent = parents[i]
            if parent >= first:
                self_s[layers[parent]] -= duration + outside
                overhead_s += outside
            else:
                top_s += duration
        return {
            "self_s": dict(zip(self.layers, self_s)),
            "calls": dict(zip(self.layers, calls)),
            "top_s": top_s,
            "overhead_s": overhead_s,
        }

    def write(self, path: str, first: int, last: int, meta: dict) -> None:
        """Write the window's spans (first `SPAN_FILE_LIMIT`) as columns."""
        stop = min(last, first + SPAN_FILE_LIMIT)
        origin = self.span_start[first] if last > first else 0.0
        doc = dict(meta)
        doc.update(
            {
                "layers": self.layers,
                "spans_in_window": last - first,
                "spans_written": stop - first,
                "truncated": stop < last,
                # Columns, one entry per span, in the order spans opened.
                # `parent` is an index into these columns, -1 = the span
                # was opened by code outside the window.
                "layer": [self.span_layer[i] for i in range(first, stop)],
                "parent": [max(-1, self.span_parent[i] - first) for i in range(first, stop)],
                "start_us": [round((self.span_start[i] - origin) * 1e6, 3) for i in range(first, stop)],
                "dur_us": [round((self.span_end[i] - self.span_start[i]) * 1e6, 3) for i in range(first, stop)],
            }
        )
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
