"""Span tracing of spacmeter's public functions, installed from outside.

`Tracer.install()` replaces each function in `WRAPPED` by a wrapper on its
module, so calls between modules (which go through the module attribute)
are traced; the package's files are not changed.  Each thread keeps its
own span stack, because the sweep pool runs points on worker threads.

A span records its name, start, end, parent span and point.  The point is
the (selection, pointer, coupling) triple of the span's arguments, or the
parent's point when the parent has one, so the spans of one parameter
point share an identifier.  Spans stay in memory until `write()`.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from pathlib import Path

from spacmeter import analytic, audit, fock, metrology, sweep, verify
from spacmeter.model import Coupling, PointerParams, SelectionParams

WRAPPED = (
    (sweep, "run_sweep"),
    (verify, "run_verify"),
    (audit, "run_audit"),
    (metrology, "snr"),
    (metrology, "qfi"),
    (metrology, "fisher_from_states"),
    (fock, "assemble_final_state"),
    (fock, "transition_moment"),
    (fock, "nonpostselected_moments"),
    (fock, "spac_state"),
    (fock, "moments"),
    (fock, "assemble_at_cutoff"),
    (fock, "displacement_operator"),
    (analytic, "pointer_shifts"),
    (analytic, "transition_value"),
)
# Functions a point-queries user calls one at a time; they also report p50.
PER_CALL = ("metrology.snr", "metrology.qfi", "fock.transition_moment", "analytic.pointer_shifts")


def span_name(module, function: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{function}"


def layer_metrics() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for module, function in WRAPPED:
        name = span_name(module, function)
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
        units[f"{name}.self_s"] = "s"
        if name in PER_CALL:
            units[f"{name}.p50_ms"] = "ms"
    units["fock.ladder_runs"] = "count"
    units["fock.n_max_mean"] = "levels"
    units["fock.n_max_max"] = "levels"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.n_max: list[int] = []
        self.ladder_runs = 0
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._points: dict[tuple, int] = {}
        self._threads: dict[int, int] = {}
        self._origin = time.perf_counter()
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, function in WRAPPED:
            original = getattr(module, function)
            self._originals.append((module, function, original))
            setattr(module, function, self._wrap(span_name(module, function), original))
        starting_dim = fock.TruncationPolicy.starting_dim
        self._originals.append((fock.TruncationPolicy, "starting_dim", starting_dim))

        @functools.wraps(starting_dim)
        def counted(policy, *args, **kwargs):
            with self._lock:
                self.ladder_runs += 1
            return starting_dim(policy, *args, **kwargs)

        fock.TruncationPolicy.starting_dim = counted

    def uninstall(self) -> None:
        """Put the original functions back; later calls are not traced."""
        for owner, name, original in reversed(self._originals):
            setattr(owner, name, original)
        self._originals.clear()

    def _point(self, args) -> int | None:
        sel = next((a for a in args if isinstance(a, SelectionParams)), None)
        pointer = next((a for a in args if isinstance(a, PointerParams)), None)
        coupling = next((a for a in args if isinstance(a, Coupling)), None)
        if sel is None or pointer is None or coupling is None:
            return None
        key = (sel.phi, sel.delta, pointer.r, pointer.theta, pointer.sigma, coupling.strength)
        with self._lock:
            return self._points.setdefault(key, len(self._points) + 1)

    def _thread(self) -> int:
        ident = threading.get_ident()
        with self._lock:
            return self._threads.setdefault(ident, len(self._threads))

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = self._local
            if not hasattr(local, "stack"):
                local.stack, local.thread = [], self._thread()
            stack = local.stack
            parent = stack[-1] if stack else None
            point = parent[1] if parent is not None and parent[1] is not None else self._point(args)
            span_id = next(self._ids)
            stack.append((span_id, point))
            error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                error = type(err).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, parent[0] if parent else None, point, local.thread, name, start, end, error))
            if name == "fock.assemble_final_state":
                self.n_max.append(result.state.n_max)
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        """Per-layer counts and times; trace.overhead_s is left to the caller."""
        duration = {s[0]: s[6] - s[5] for s in self.spans}
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s[1] is not None:
                child_time[s[1]] = child_time.get(s[1], 0.0) + duration[s[0]]
        by_name: dict[str, list[tuple[float, float]]] = {}
        for s in self.spans:
            by_name.setdefault(s[4], []).append((duration[s[0]], duration[s[0]] - child_time.get(s[0], 0.0)))
        out: dict[str, float] = {}
        for module, function in WRAPPED:
            name = span_name(module, function)
            spans = by_name.get(name, [])
            out[f"{name}.calls"] = len(spans)
            out[f"{name}.busy_s"] = sum((d for d, _ in spans), 0.0)
            out[f"{name}.self_s"] = sum((s for _, s in spans), 0.0)
            if name in PER_CALL:
                out[f"{name}.p50_ms"] = 1e3 * statistics.median(d for d, _ in spans) if spans else 0.0
        out["fock.ladder_runs"] = self.ladder_runs
        out["fock.n_max_mean"] = statistics.fmean(self.n_max) if self.n_max else 0.0
        out["fock.n_max_max"] = max(self.n_max, default=0)
        return out

    def write(self, path: Path) -> None:
        """One JSON object per span, times in seconds since the tracer started."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span_id, parent, point, thread, name, start, end, error in self.spans:
                handle.write(json.dumps({
                    "id": span_id,
                    "parent": parent,
                    "point": point,
                    "thread": thread,
                    "name": name,
                    "start_s": round(start - self._origin, 9),
                    "end_s": round(end - self._origin, 9),
                    "error": error,
                }) + "\n")
