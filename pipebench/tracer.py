"""Layer tracing from outside the program: wrap the pipeline's entry points.

Nothing under ``src/`` knows about tracing.  :func:`install` imports every
``repro`` module, then replaces each entry point in the table below with a
wrapper that records a span ``(layer, start, end, parent)``.  A function is
patched in its defining module *and* in every loaded ``repro`` module that
bound the same object (``from ... import name``), so direct call sites are
caught too; methods are patched on their class.

Spans stay in memory (:attr:`Tracer.spans`) until the pass ends.  A layer's
self time is its span minus its direct children, so the layers' self times
plus the unattributed rest sum to the traced wall time.  Nested spans of
the same layer (``simulate_all_pairs`` calling ``execute_program``) count
one call.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: ``(layer, start, end, parent index or -1)``
Span = Tuple[str, float, float, int]


class Tracer:
    """Spans and counters of one pass, plus the patches that produce them."""

    def __init__(self) -> None:
        #: (layer, start, end, parent index or -1), in start order.
        self.spans: List[List] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def inside(self, layer: str) -> bool:
        """Whether an open span of ``layer`` encloses the current call."""
        return any(self.spans[i][0] == layer for i in self._stack)

    def wrap(self, layer: str, fn: Callable, on_return: Optional[Callable] = None,
             on_error: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [layer, time.perf_counter(), 0.0, parent]
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = time.perf_counter()
                tracer._stack.pop()
                if on_error is not None:
                    on_error(tracer, exc)
                raise
            span[2] = time.perf_counter()
            tracer._stack.pop()
            if on_return is not None:
                on_return(tracer, args, result)
            return result

        return traced

    # -- patching --------------------------------------------------------
    def _set(self, owner: object, name: str, value: object) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def patch_function(self, module_name: str, name: str, layer: str, **hooks) -> None:
        original = getattr(sys.modules[module_name], name)
        wrapper = self.wrap(layer, original, **hooks)
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def patch_method(self, cls: type, name: str, layer: str, **hooks) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, property):
            self._set(cls, name, property(self.wrap(layer, raw.fget, **hooks)))
        else:
            self._set(cls, name, self.wrap(layer, raw, **hooks))

    def patch_counter(self, cls: type, name: str, counter: str) -> None:
        """Count calls of a method without opening a span."""
        raw = cls.__dict__[name]
        tracer = self

        @functools.wraps(raw)
        def counted(*args, **kwargs):
            tracer.count(counter)
            return raw(*args, **kwargs)

        self._set(cls, name, counted)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()


# ---------------------------------------------------------------------------
# counters read off return values
def _lower_returned(tracer: Tracer, args, program) -> None:
    from repro.routing.program import GenericProgram

    if isinstance(program, GenericProgram):
        tracer.count("routing.lower.generic_fallbacks")
    elif not tracer.inside("routing.lower"):
        tracer.count("routing.lower.program_bytes", len(program.to_bytes()))


def _lower_raised(tracer: Tracer, exc: BaseException) -> None:
    from repro.routing.program import HeaderStateExplosionError

    if isinstance(exc, HeaderStateExplosionError) and not tracer.inside("routing.lower"):
        tracer.count("routing.lower.generic_fallbacks")


def _delta_returned(tracer: Tracer, args, result) -> None:
    tracer.count(f"routing.delta.{result.mode}")


def _put_returned(tracer: Tracer, args, record) -> None:
    tracer.count("store.put.bytes", record.nbytes or 0)


def _get_returned(tracer: Tracer, args, result) -> None:
    tracer.count("store.get.hits" if result[0] else "store.get.misses")


def _route_returned(tracer: Tracer, args, flow) -> None:
    tracer.count(f"flow.route.{flow.mode}")


def _emit_returned(tracer: Tracer, args, _) -> None:
    if args and isinstance(args[0], dict) and "event" not in args[0]:
        tracer.count("cli.rows")


def _import_all() -> None:
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def install() -> Tracer:
    """Import every ``repro`` module and wrap the table's entry points."""
    _import_all()
    from repro.graphs.digraph import PortLabeledGraph
    from repro.routing.model import BaseRoutingScheme, RoutingFunction
    from repro.sim.engine import SimulationResult
    from repro.sim.faults import FaultSimulationResult
    from repro.store import ProgramStore

    tracer = Tracer()
    tracer.patch_function("repro.graphs.shortest_paths", "distance_matrix", "graphs.distance")
    tracer.patch_method(PortLabeledGraph, "fingerprint", "graphs.fingerprint")

    # every scheme class under repro.routing that defines its own build
    seen = set()
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("repro.routing"):
            continue
        for value in list(vars(module).values()):
            if (
                isinstance(value, type)
                and value.__module__.startswith("repro.routing")
                and "build" in value.__dict__
                and value not in seen
                and value is not BaseRoutingScheme
            ):
                seen.add(value)
                tracer.patch_method(value, "build", "routing.build")

    lower_hooks = dict(on_return=_lower_returned, on_error=_lower_raised)
    tracer.patch_method(RoutingFunction, "compile_program", "routing.lower", **lower_hooks)
    for name in ("lower_next_hop", "lower_header_state"):
        tracer.patch_function("repro.routing.program", name, "routing.lower", **lower_hooks)
    tracer.patch_function(
        "repro.routing.program", "apply_delta", "routing.delta", on_return=_delta_returned
    )
    tracer.patch_function("repro.routing.verify", "verify_program", "routing.verify")
    tracer.patch_method(ProgramStore, "put", "store.put", on_return=_put_returned)
    tracer.patch_method(ProgramStore, "get", "store.get", on_return=_get_returned)
    tracer.patch_counter(ProgramStore, "_degrade", "store.degraded")
    for name in ("execute_program", "simulate_all_pairs"):
        tracer.patch_function("repro.sim.engine", name, "sim.execute")
    tracer.patch_function("repro.sim.engine", "execute_masked_program", "sim.masked")
    tracer.patch_function("repro.sim.faults", "apply_faults", "sim.faults")
    tracer.patch_method(FaultSimulationResult, "max_stretch", "sim.stretch")
    tracer.patch_method(SimulationResult, "max_stretch", "sim.stretch")
    tracer.patch_function("repro.analysis.flow", "route_demand", "flow.route",
                          on_return=_route_returned)
    tracer.patch_function("repro.analysis.flow", "demand_matrix", "flow.demand")
    tracer.patch_function("repro.cli._output", "emit", "cli.emit", on_return=_emit_returned)
    return tracer


# ---------------------------------------------------------------------------
#: Layers whose ``calls``/``self_s`` the traced run reports.
LAYERS = (
    "graphs.distance",
    "graphs.fingerprint",
    "routing.build",
    "routing.lower",
    "routing.delta",
    "routing.verify",
    "store.put",
    "store.get",
    "sim.execute",
    "sim.masked",
    "sim.faults",
    "sim.stretch",
    "flow.route",
    "flow.demand",
    "cli.emit",
)


def aggregate(spans: List[Span], factors: List[Tuple[float, float, float]]) -> Dict[str, float]:
    """Per-layer ``calls``/``self_s`` (reference seconds) and the gate split.

    ``factors`` lists ``(start, end, ref_per_raw)`` of each timed unit; a
    span is scaled by the factor of the unit it started in.  A call is a
    span whose parent is not of the same layer.
    """
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_s"] = 0.0
    out["routing.verify.gate_self_s"] = 0.0
    child_time = [0.0] * len(spans)
    for layer, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    root_time = 0.0

    def factor(t: float) -> float:
        for lo, hi, f in factors:
            if lo <= t <= hi:
                return f
        return factors[-1][2] if factors else 1.0

    for i, (layer, start, end, parent) in enumerate(spans):
        self_ref = (end - start - child_time[i]) * factor(start)
        out[f"{layer}.self_s"] += self_ref
        if parent < 0:
            root_time += (end - start) * factor(start)
        if parent < 0 or spans[parent][0] != layer:
            out[f"{layer}.calls"] += 1
        if layer == "routing.verify":
            p = parent
            while p >= 0 and spans[p][0] != "store.get":
                p = spans[p][3]
            if p >= 0:
                out["routing.verify.gate_self_s"] += self_ref
    out["_root_s"] = root_time
    return out
