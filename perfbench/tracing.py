"""Per-layer tracing of jetcalc from outside the program.

The layers are jetcalc's modules.  ``Tracer.install`` replaces every public
module-level function of each module, plus a few named methods, with a
wrapper; it also rebinds the names other modules imported directly (``from
.simplex import affine_product_expectation`` and the like), or those calls
would go untraced.  ``uninstall`` puts the originals back, so untraced
rounds run the program exactly as shipped.

A wrapper opens a span (layer, name, start, end, parent) when its layer
differs from the caller's, i.e. at a layer boundary; a call within the
same layer only counts.  ``mc.sample_block`` always opens a span, so the
time spent sampling is known even when ``mc`` calls it.  Generator
functions open no span: their items are counted, and their time belongs
to the span that consumes them.  Work that ``mc.map_blocks`` hands to
worker threads is opened as a span of the layer that defined the job,
whose parent is the ``map_blocks`` span.

A layer's self time is the summed duration of its spans minus the part of
each span that its child spans cover (children on several threads may
overlap, so the covered part is the union of their intervals).
"""

from __future__ import annotations

import inspect
import itertools
import threading
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "strat", "integrands", "simplex", "lattice", "ring", "segre", "mc")
METHODS = {
    "strat": [("StratTree", "paths")],
    "ring": [("GradedPoly", "__mul__"), ("GradedPoly", "__rmul__")],
    "mc": [("MomentTally", "absorb"), ("MomentTally", "merge")],
}
ALWAYS_SPAN = {"sample_block"}


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: list[tuple[int, str]] = []
        self.registered = False


class Tracer:
    def __init__(self, package) -> None:
        self.package = package
        self.modules = {layer: getattr(package, layer) for layer in LAYERS}
        self._local = _ThreadState()
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._records: list[tuple[list, Counter]] = []
        self._swaps: list[tuple[object, str, object, object]] = []
        self._build()

    # -- wrappers ---------------------------------------------------------------

    def _state(self) -> tuple[list, list, Counter]:
        local = self._local
        if not local.registered:
            local.spans, local.counts = [], Counter()
            with self._lock:
                self._records.append((local.spans, local.counts))
            local.registered = True
        return local.stack, local.spans, local.counts

    def _open(self, layer, name, parent, start, call):
        stack, spans, _ = self._state()
        span_id = next(self._ids)
        stack.append((span_id, layer))
        try:
            return call()
        finally:
            stack.pop()
            spans.append((span_id, parent, layer, name, start, time.perf_counter()))

    def _wrap(self, fn, layer: str):
        name = fn.__name__
        tracer = self
        if inspect.isgeneratorfunction(fn):

            def generator(*args, **kwargs):
                counts = tracer._state()[2]
                counts[f"{layer}.calls"] += 1
                counts[f"call:{name}"] += 1
                for item in fn(*args, **kwargs):
                    counts[f"yield:{name}"] += 1
                    yield item

            return generator

        def wrapper(*args, **kwargs):
            stack, _, counts = tracer._state()
            counts[f"{layer}.calls"] += 1
            counts[f"call:{name}"] += 1

            def call():
                if name == "map_blocks":
                    return fn(*tracer._wrap_jobs(args))
                return fn(*args, **kwargs)

            parent = stack[-1] if stack else (None, None)
            if parent[1] == layer and name not in ALWAYS_SPAN:
                result = call()
            else:
                result = tracer._open(layer, name, parent[0], time.perf_counter(), call)
            if name == "sample_block":
                counts["mc.samples"] += len(result)
            return result

        return wrapper

    def _wrap_jobs(self, args):
        """map_blocks(cfg, fn) with each block job of fn opened as a span of
        the layer that defined fn, whose parent is the calling span."""
        cfg, fn = args
        layer = fn.__module__.rpartition(".")[2]
        stack = self._state()[0]
        parent = stack[-1][0] if stack else None

        def job(*job_args):
            return self._open(layer, "block-job", parent, time.perf_counter(),
                              lambda: fn(*job_args))

        return cfg, job

    def _build(self) -> None:
        originals: dict[int, object] = {}
        for layer, module in self.modules.items():
            for name, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrapped = self._wrap(obj, layer)
                    originals[id(obj)] = wrapped
            for cls_name, method in METHODS.get(layer, ()):
                cls = getattr(module, cls_name)
                self._swaps.append((cls, method, vars(cls)[method],
                                    self._wrap(vars(cls)[method], layer)))
        # Rebind each wrapped function wherever a module holds it by name.
        for module in [self.package, *self.modules.values()]:
            for name, obj in list(vars(module).items()):
                if id(obj) in originals:
                    self._swaps.append((module, name, obj, originals[id(obj)]))

    def install(self) -> None:
        for owner, name, _, wrapped in self._swaps:
            setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original, _ in self._swaps:
            setattr(owner, name, original)

    # -- results -----------------------------------------------------------------

    def reset(self) -> None:
        with self._lock:
            for spans, counts in self._records:
                spans.clear()
                counts.clear()

    def spans(self) -> list[tuple]:
        with self._lock:
            return sorted(s for spans, _ in self._records for s in spans)

    def counts(self) -> Counter:
        total: Counter = Counter()
        with self._lock:
            for _, counts in self._records:
                total.update(counts)
        return total

    def summary(self) -> dict[str, float]:
        """Per-layer self seconds, sampling seconds and work counts."""
        spans = self.spans()
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, parent, _, _, start, end in spans:
            if parent is not None:
                children[parent].append((start, end))
        out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        out["mc.sample_s"] = 0.0
        for span_id, _, layer, name, start, end in spans:
            covered, reach = 0.0, start
            for lo, hi in sorted(children.get(span_id, ())):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[f"{layer}.self_s"] += end - start - covered
            if name == "sample_block":
                out["mc.sample_s"] += end - start
        counts = self.counts()
        for layer in ("strat", "integrands", "simplex", "lattice", "segre"):
            out[f"{layer}.calls"] = counts[f"{layer}.calls"]
        out["strat.paths"] = counts["yield:paths"]
        out["simplex.moments"] = counts["call:monomial_moment"]
        out["lattice.compositions"] = counts["yield:enumerate_compositions"]
        # __rmul__ is __mul__ itself, so both count under its name.
        out["ring.mul_calls"] = counts["call:__mul__"]
        out["mc.blocks"] = counts["call:sample_block"]
        out["mc.samples"] = counts["mc.samples"]
        return out

