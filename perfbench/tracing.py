"""Spans around the calls into each layer's public entry points.

The traced run installs thin wrappers on the entry points below (module
attributes and class methods the layers export), records one span per
call — name, start, end, parent span, op id — in memory, and removes
the wrappers afterwards. Nothing inside the program changes: the
wrappers sit at the boundary the benchmark's own code sees.

A layer's self time is its spans' durations minus the part their child
spans cover. ``session.residual`` is each op's time minus the self
time of every layer span inside it, so the layers plus the residual
account for every op exactly. Spans under a ``setup`` root (one traced
set-up: ingest, seed script, pool) are summarized apart from the ops.
"""

from __future__ import annotations

import functools
import gzip
import json
from pathlib import Path
from statistics import median
from time import perf_counter

import repro.backend.inline as backend_inline
import repro.isql.session as isql_session
import repro.service.dbapi as dbapi
from repro.backend.inline import InlineBackend, InlineQueryResult
from repro.isql.session import ISQLSession
from repro.service.pool import SessionPool
from repro.service.snapshots import SnapshotStore


def _rows_out(result) -> int:
    state, _ = result
    return len(state._answer)


def _rewrite_steps(result) -> int:
    return len(result[1])


def _decoded_rows(result) -> int:
    return len(result)


def _dml_flags(result) -> tuple[int, int]:
    """(applied, attempted) of one DML entry point's return value."""
    if result is None:  # run_delete: deletes always apply
        return 1, 1
    if isinstance(result, bool):
        return int(result), 1
    flags = list(result)
    return sum(1 for flag in flags if flag), len(flags)


#: (owner, attribute, layer, counter). Module attributes are patched in
#: the module that calls them (the backend and the session import their
#: helpers by name); methods are patched on their class.
ENTRY_POINTS = (
    (isql_session, "parse_script", "parser", None),
    (dbapi, "parse_script", "parser", None),
    (backend_inline, "compile_query", "compile", None),
    (backend_inline, "compile_delete", "compile", None),
    (backend_inline, "compile_update", "compile", None),
    (backend_inline, "rewrite_plan", "rewriter", _rewrite_steps),
    (backend_inline, "evaluate_seeded", "physical", _rows_out),
    (InlineBackend, "register", "ingest", None),
    (InlineBackend, "run_insert", "dml", _dml_flags),
    (InlineBackend, "run_delete", "dml", _dml_flags),
    (InlineBackend, "run_update", "dml", _dml_flags),
    (InlineBackend, "run_dml_batch", "dml", _dml_flags),
    (InlineQueryResult, "answers", "decode", _decoded_rows),
    (InlineQueryResult, "possible", "decode", _decoded_rows),
    (InlineQueryResult, "certain", "decode", _decoded_rows),
    (dbapi.Cursor, "execute", "dbapi", None),
    (dbapi.Connection, "commit", "dbapi", None),
    (dbapi, "_substitute", "bind", None),
    (dbapi.Connection, "_sync", "sync", None),
    (ISQLSession, "restore_snapshot", "restore", None),
    (SnapshotStore, "publish", "publish", None),
    (SnapshotStore, "acquire_write", "lock_wait", None),
    (SessionPool, "acquire", "pool", None),
    (SessionPool, "release", "pool_release", None),
    (dbapi.Connection, "rollback", "rollback", None),
)

#: Layer names in report order (``op`` spans are the roots).
LAYERS = (
    "parser", "compile", "rewriter", "physical", "ingest", "dml", "decode",
    "dbapi", "bind", "sync", "restore", "publish", "lock_wait", "pool",
    "pool_release", "rollback",
)


class Tracer:
    """In-memory span recorder; :meth:`install` patches, :meth:`remove` undoes."""

    def __init__(self) -> None:
        #: [name, start, end, parent index, op id] per span.
        self.spans: list[list] = []
        #: Per span index: the counter value of its entry point, if any.
        self.counts: dict[int, object] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.op_id = -1

    def _wrap(self, original, layer: str, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [layer, perf_counter(), 0.0, stack[-1] if stack else -1, tracer.op_id]
            spans.append(span)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = perf_counter()
            if counter is not None:
                counts[index] = counter(result)
            return result

        return traced

    def install(self) -> None:
        for owner, attribute, layer, counter in ENTRY_POINTS:
            original = (
                owner.__dict__[attribute] if isinstance(owner, type)
                else getattr(owner, attribute)
            )
            self._patched.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, layer, counter))

    def remove(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def begin_op(self, op_id: int) -> int:
        """Open the root span of op *op_id*; returns its index."""
        self.op_id = op_id
        index = len(self.spans)
        self.spans.append(["op", perf_counter(), 0.0, -1, op_id])
        self._stack.append(index)
        return index

    def end_op(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = perf_counter()
        self.op_id = -1

    def begin_setup(self) -> int:
        """Open the root span of a set-up (op id -1); close it with end_op."""
        index = len(self.spans)
        self.spans.append(["setup", perf_counter(), 0.0, -1, -1])
        self._stack.append(index)
        return index

    def write(self, path: Path) -> None:
        """Spans as gzipped JSON lines: name, start, end, parent, op id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            for name, start, end, parent, op_id in self.spans:
                out.write(json.dumps([name, start, end, parent, op_id]) + "\n")


def summarize(tracer: Tracer) -> dict:
    """Per-layer self times, shares and counts from the recorded spans.

    Every span belongs to one op (``op`` spans are the roots) or to the
    set-up (op id -1). Returns the per-layer calls, self seconds, median
    self ms and share of op time; the total op time; each op's residual
    seconds; the counter values and inclusive durations per layer; how
    many restores ran under a snapshot sync; and the set-up's time and
    per-layer self seconds.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_times: dict[str, list[float]] = {layer: [] for layer in LAYERS}
    inclusive: dict[str, list[float]] = {}
    layer_self_per_op: dict[int, float] = {}
    op_seconds: dict[int, float] = {}
    restores_under_sync = 0
    setup_seconds = 0.0
    setup_self: dict[str, list[float]] = {}
    for index, (name, start, end, parent, op_id) in enumerate(spans):
        if name == "op":
            op_seconds[op_id] = end - start
            continue
        if name == "setup":
            setup_seconds += end - start
            continue
        own = (end - start) - child_time[index]
        if op_id < 0:
            setup_self.setdefault(name, []).append(own)
            continue
        self_times[name].append(own)
        inclusive.setdefault(name, []).append(end - start)
        layer_self_per_op[op_id] = layer_self_per_op.get(op_id, 0.0) + own
        if name == "restore" and spans[parent][0] == "sync":
            restores_under_sync += 1
    total = sum(op_seconds.values())
    counts: dict[str, list] = {}
    for index, value in tracer.counts.items():
        if spans[index][4] >= 0:
            counts.setdefault(spans[index][0], []).append(value)
    return {
        "layers": {
            layer: {
                "calls": len(times),
                "self_seconds": sum(times),
                "self_ms_median": median(times) * 1000 if times else 0.0,
                "share": sum(times) / total if total else 0.0,
            }
            for layer, times in self_times.items()
        },
        "op_seconds": total,
        "residual": [
            seconds - layer_self_per_op.get(op_id, 0.0)
            for op_id, seconds in op_seconds.items()
        ],
        "ops": len(op_seconds),
        "counts": counts,
        "inclusive": inclusive,
        "restores_under_sync": restores_under_sync,
        "self_times": self_times,
        "setup_seconds": setup_seconds,
        "setup_self": setup_self,
    }
