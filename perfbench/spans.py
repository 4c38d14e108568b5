"""Span tracer that wraps the package's public functions from outside.

Nothing in the package changes: `install` replaces each traced function in
every timeflip module that binds it with a wrapper that opens a span, and the
projector factories are wrapped so the callables they return open spans too.

A span has a name, a start and end time, and the span that was open when it
started (its parent).  Self time is the span's duration minus the time its
child spans cover.  The kernels called tens of thousands of times per
operation (HOT) are kept as per-name totals only; every other span is also
kept as a record (id, parent id, name, start, end) for the result file.
"""

from __future__ import annotations

import sys
import time

import numpy as np

HOT = frozenset({
    "tensor_core.trace_and_replace",
    "tensor_core.hs_inner",
    "supermaps.span_project",
    "sdp.eigh",
    "sdp.eigvalsh",
    "linalg.eigh",
    "linalg.eigvalsh",
})

class Tracer:
    """Span stack, per-name totals and the solver reports seen by one operation."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.stack: list[list] = []  # [span id, name, start, time covered by children]
        self.next_id = 0
        self.records: list[tuple] = []
        self.totals: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self.reports: list[dict] = []
        self.in_sdp = 0
        self.kernel_bytes: dict[tuple, float] = {}  # computed bytes per call signature

    def open(self, name: str) -> list:
        frame = [self.next_id, name, self.clock(), 0.0]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = self.clock()
        self.stack.pop()
        span_id, name, start, covered = frame
        duration = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += duration
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - covered
        if name not in HOT:
            self.records.append((span_id, parent[0] if parent else -1, name,
                                 start - self.origin, end - self.origin))

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def dump(self) -> dict:
        return {
            "op_id": self.op_id,
            "totals": {name: {"calls": c, "total_s": t, "self_s": s}
                       for name, (c, t, s) in sorted(self.totals.items())},
            "counters": self.counters,
            "reports": self.reports,
            "spans": [{"id": i, "parent": p, "name": n, "start_s": a, "end_s": b}
                      for i, p, n, a, b in self.records],
        }


def _spanned(tracer: Tracer, name: str, func, after=None):
    def wrapper(*args, **kwargs):
        frame = tracer.open(name)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.close(frame)
        if after is not None:
            after(tracer, args, result)
        return result

    wrapper.__wrapped__ = func
    return wrapper


def _driver(tracer: Tracer, name: str, func):
    """An sdp driver: its span also records the report it returns."""
    def wrapper(*args, **kwargs):
        tracer.in_sdp += 1
        frame = tracer.open(name)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.close(frame)
            tracer.in_sdp -= 1
        report = result[0] if isinstance(result, tuple) else result
        tracer.reports.append({
            "driver": name,
            "iterations": int(report.iterations),
            "gap": float(report.gap),
            "converged": bool(report.converged),
        })
        return result

    wrapper.__wrapped__ = func
    return wrapper


def _eig(tracer: Tracer, kind: str, func):
    """numpy.linalg.eigh / eigvalsh, named after the sdp layer while a driver runs."""
    def wrapper(a, *args, **kwargs):
        name = f"sdp.{kind}" if tracer.in_sdp else f"linalg.{kind}"
        if tracer.in_sdp and not np.iscomplexobj(a):
            tracer.count(f"sdp.{kind}.real_calls")
        frame = tracer.open(name)
        try:
            return func(a, *args, **kwargs)
        finally:
            tracer.close(frame)

    wrapper.__wrapped__ = func
    return wrapper


def _count_bytes(tracer: Tracer, args, result) -> None:
    """Bytes the trace-and-replace kernel reads and writes, computed from the
    array sizes: per replaced factor of dimension d, one full read and write
    plus the write and read of the reduced (n/d x n/d) trace."""
    dims, replaced = args[1], args[2]
    key = (result.nbytes, tuple(dims), tuple(replaced))
    moved = tracer.kernel_bytes.get(key)
    if moved is None:
        full = result.nbytes
        moved = tracer.kernel_bytes[key] = sum(2 * full + 2 * full / dims[k] ** 2 for k in replaced)
    counters = tracer.counters
    counters["tensor_core.trace_and_replace.computed_bytes"] = (
        counters.get("tensor_core.trace_and_replace.computed_bytes", 0) + moved)


def _count_terms(tracer: Tracer, args, result) -> None:
    tracer.count("witness.terms", sum(1 for term in result if term.coeff != 0.0))


def _projector_factory(tracer: Tracer, factory):
    """Wrap a projector factory so each projector it returns opens a span."""
    def wrapper(*args, **kwargs):
        return _spanned(tracer, "supermaps.span_project", factory(*args, **kwargs))

    wrapper.__wrapped__ = factory
    return wrapper


def _rebind(original, replacement, modules=None) -> None:
    """Replace `original` where the given timeflip modules (default: all
    loaded ones) bind it."""
    if modules is None:
        modules = [m for name, m in sys.modules.items()
                   if name == "timeflip" or name.startswith("timeflip.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the traced functions of every layer (import timeflip.cli first)."""
    from timeflip import channels, game, sdp, supermaps, tensor_core, witness

    spanned = {
        tensor_core.trace_and_replace_matrix: ("tensor_core.trace_and_replace", _count_bytes),
        tensor_core.hs_inner: ("tensor_core.hs_inner", None),
        tensor_core.save_operator: ("tensor_core.save_operator", None),
        tensor_core.load_operator: ("tensor_core.load_operator", None),
        channels.kraus_to_choi: ("channels.kraus_to_choi", None),
        supermaps.check_setup: ("supermaps.check_setup", None),
        supermaps.load_setup: ("supermaps.load_setup", None),
        supermaps.qtf_plus_control: ("supermaps.qtf_plus_control", None),
        witness.decompose_witness: ("witness.decompose", _count_terms),
        witness.born_probabilities: ("witness.born", None),
        witness.poisson_resample: ("witness.resample", None),
        witness.estimate_robustness: ("witness.estimate", None),
        witness.validate_witness: ("witness.validate", None),
        witness.save_decomposition: ("witness.csv", None),
        witness.load_decomposition: ("witness.csv", None),
        witness.save_probabilities: ("witness.csv", None),
        witness.load_probabilities: ("witness.csv", None),
        game.builtin_gate_sets: ("game.builtin_gate_sets", None),
        game.success_effects: ("game.success_effects", None),
        game.compute_pmax_fixed_direction: ("game.pmax", None),
        game.play_game: ("game.play", None),
        game.switch_strategy: ("game.play", None),
        game.save_game_report: ("game.csv", None),
    }
    for func, (name, after) in spanned.items():
        _rebind(func, _spanned(tracer, name, func, after))
    for func in (sdp.solve_max_robustness, sdp.solve_cone_value, sdp.solve):
        _rebind(func, _driver(tracer, f"sdp.{func.__name__}", func))
    # supermaps builds setup_span_projector on span_projector, so wrapping
    # both inside supermaps would open two spans per projection
    for factory in (supermaps.span_projector, supermaps.setup_span_projector):
        _rebind(factory, _projector_factory(tracer, factory), (sdp, witness, game))
    np.linalg.eigh = _eig(tracer, "eigh", np.linalg.eigh)
    np.linalg.eigvalsh = _eig(tracer, "eigvalsh", np.linalg.eigvalsh)
