"""Spans around each layer's public functions, installed from outside.

:func:`install` wraps every function in :data:`LAYERS` and replaces
the name wherever a loaded ``repro`` module looks it up: the defining
module, re-exporting packages, and modules that bound it by
``from ... import``.  Methods are replaced on their class.  Spans are
kept in memory, per thread, with a link to the span that caused them;
:meth:`Recorder.layer_totals` turns them into per-layer self time (a
span's duration minus the part its child spans cover) and counts.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple


def _fault_rows(args, kwargs, result):
    fault_sets = args[1] if len(args) > 1 else kwargs["fault_sets"]
    width = args[0].num_qubits
    return {
        "sim.fault_configs": len(fault_sets),
        "sim.amplitudes": len(fault_sets) * 2 ** width,
    }


def _solver_nodes(args, kwargs, result):
    return {"smt.solver_nodes": result.solver_nodes}


def _reliability_calls(args, kwargs, result):
    return {"compiler.reliability_calls": 1}


def _swaps(args, kwargs, result):
    return {"compiler.swaps": result.num_swaps}


def _gates_removed(args, kwargs, result):
    # PassManager.run(self, circuit, ...): args[0] is the manager.
    circuit = args[1] if len(args) > 1 else kwargs["circuit"]
    return {"compiler.opt_gates_removed": len(circuit) - len(result)}


def _code_bytes(args, kwargs, result):
    return {"backends.bytes": len(result.encode("utf-8"))}


def _cache_lookup(args, kwargs, result):
    return {"cache.misses" if result is None else "cache.hits": 1}


#: (time metric, target, counter extractor).  A target is
#: ``module:function`` or ``module:Class.method``.
LAYERS: Tuple[Tuple[str, str, Optional[Callable]], ...] = (
    ("sim.success_s", "repro.sim.success:monte_carlo_success_rate", None),
    ("sim.statevector_s", "repro.sim.batch:simulate_statevector_batch",
     _fault_rows),
    ("smt.map_s", "repro.compiler.mapping:smt_mapping", _solver_nodes),
    ("compiler.reliability_s",
     "repro.compiler.reliability:compute_reliability", _reliability_calls),
    ("ir.decompose_s", "repro.ir.decompose:decompose_to_basis", None),
    ("compiler.route_s", "repro.compiler.routing:route_circuit", _swaps),
    ("compiler.optimize_s", "repro.compiler.passes:PassManager.run",
     _gates_removed),
    ("compiler.translate_s",
     "repro.compiler.translate:translate_two_qubit_gates", None),
    ("compiler.onequbit_s",
     "repro.compiler.onequbit:optimize_single_qubit_gates", None),
    ("compiler.onequbit_s", "repro.compiler.translate:naive_translate_1q",
     None),
    ("baselines.compile_s",
     "repro.baselines.qiskit_like:QiskitLikeCompiler.compile", None),
    ("baselines.compile_s",
     "repro.baselines.quil_like:QuilLikeCompiler.compile", None),
    ("scaffold.compile_s", "repro.scaffold.lower:compile_scaffold", None),
    ("backends.emit_s", "repro.backends.dispatch:generate_code", _code_bytes),
    ("cache.get_s", "repro.cache.store:CompileCache.get", _cache_lookup),
    ("cache.put_s", "repro.cache.store:CompileCache.put", None),
    ("experiments.journal_s",
     "repro.experiments.journal:SweepJournal.record", None),
)

#: Every per-layer metric the in-process layers produce, in print order.
LAYER_METRICS: Tuple[str, ...] = (
    "sim.success_s", "sim.statevector_s", "sim.fault_configs",
    "sim.amplitudes", "smt.map_s", "smt.solver_nodes",
    "compiler.reliability_s", "compiler.reliability_calls",
    "ir.decompose_s", "compiler.route_s", "compiler.swaps",
    "compiler.optimize_s", "compiler.opt_gates_removed",
    "compiler.translate_s", "compiler.onequbit_s", "baselines.compile_s",
    "scaffold.compile_s", "backends.emit_s", "backends.bytes",
    "cache.get_s", "cache.put_s", "cache.hits", "cache.misses",
    "experiments.journal_s",
)


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    thread: int
    start: float
    end: float = 0.0
    child_time: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def self_time(self) -> float:
        return (self.end - self.start) - self.child_time


class Recorder:
    """In-memory spans with parent links; thread-safe."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, **attrs: Any) -> Span:
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        span = Span(
            id=span_id,
            parent=stack[-1].id if stack else None,
            name=name,
            thread=threading.get_ident(),
            start=time.perf_counter(),
            attrs=attrs,
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child_time += span.end - span.start
        with self._lock:
            self.spans.append(span)

    def count(self, increments: Dict[str, int]) -> None:
        with self._lock:
            for key, value in increments.items():
                self.counts[key] += value

    def to_json(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "spans": [
                    {
                        "id": s.id, "parent": s.parent, "name": s.name,
                        "thread": s.thread, "start": s.start, "end": s.end,
                        "self_s": s.self_time, "attrs": s.attrs,
                    }
                    for s in self.spans
                ],
                "counts": dict(self.counts),
            }

    def layer_totals(self) -> Dict[str, float]:
        return layer_totals(self.to_json())


def layer_totals(trace: Dict[str, Any]) -> Dict[str, float]:
    """Self time per layer metric plus every counter, summed, from a
    :meth:`Recorder.to_json` trace."""
    totals: Dict[str, float] = {name: 0 for name in LAYER_METRICS}
    for span in trace["spans"]:
        totals[span["name"]] = totals.get(span["name"], 0.0) + span["self_s"]
    for key, value in trace["counts"].items():
        totals[key] = totals.get(key, 0) + value
    return totals


def _resolve(target: str) -> Tuple[Any, str, Callable]:
    module_name, _, qualname = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def _wrapper(recorder: Recorder, name: str, fn: Callable,
             counter: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if counter is not None:
            recorder.count(counter(args, kwargs, result))
        return result

    return traced


class Installation:
    """The replaced names, so :meth:`remove` can restore each one."""

    def __init__(self) -> None:
        self.replaced: List[Tuple[Any, str, Any]] = []

    def remove(self) -> None:
        for owner, attr, original in reversed(self.replaced):
            setattr(owner, attr, original)
        self.replaced.clear()


def install(recorder: Recorder) -> Installation:
    """Wrap every layer function where its callers look it up."""
    installation = Installation()
    for name, target, counter in LAYERS:
        owner, attr, fn = _resolve(target)
        wrapped = _wrapper(recorder, name, fn, counter)
        if isinstance(owner, type):
            installation.replaced.append((owner, attr, fn))
            setattr(owner, attr, wrapped)
            continue
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    installation.replaced.append((module, key, fn))
                    setattr(module, key, wrapped)
    return installation
