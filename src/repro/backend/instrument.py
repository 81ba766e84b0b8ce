"""Per-phase wall-clock accounting for statement execution.

The benchmark suite wants to know *where* a backend spends its time —
compile (parse + I-SQL → world-set algebra), rewrite (the Figure 7
pass), execute (flat-table or per-world evaluation), dml_apply (the
mask/scatter/append application of DML answers to the flat tables,
including the batched pipeline's single-pass commit), decode (explicit
world materialization), rollback (transactional state restores:
``atomic`` scripts, ``transaction()`` exits and ``rollback_to`` in
:mod:`repro.isql.session`), cache_lookup (plan-cache and result-memo
probes in the inline backend, hit or miss) — so that performance PRs
can target the right layer instead of re-measuring end-to-end numbers.

The mechanism is deliberately tiny: a caller installs a collector dict
with :class:`collect_phases`, and instrumented code brackets work in
``with phase("execute"):``. When no collector is installed the bracket
is a no-op — one ``is None`` check. ``ISQLSession.run`` installs one
per statement to fill ``StatementResult.phases``. Both are plain
classes, not generator context managers: a statement crosses several
brackets, so their entry and exit stay cheap. Phases must not nest (the
accounting adds sibling durations; instrumentation sites are chosen to
be disjoint).

The installed collector lives in a context variable, so it is per
thread: pooled sessions run statements on several threads at once, and
each thread's statements time into its own collector only. A thread
that installed nothing sees none.
"""

from __future__ import annotations

import time
from contextvars import ContextVar

_collector: ContextVar[dict[str, float] | None] = ContextVar(
    "phase_collector", default=None
)


class collect_phases:
    """Install *target* (or a fresh dict) as the phase collector.

    Durations accumulate under their phase name for the duration of the
    ``with`` block; collectors restore on exit, so nested collections
    (a benchmark inside a benchmark) see only their own phases.
    """

    __slots__ = ("collector", "_token")

    def __init__(self, target: dict[str, float] | None = None) -> None:
        self.collector = target if target is not None else {}

    def __enter__(self) -> dict[str, float]:
        self._token = _collector.set(self.collector)
        return self.collector

    def __exit__(self, *exc_info: object) -> None:
        _collector.reset(self._token)


def active_collector() -> dict[str, float] | None:
    """The calling thread's installed phase collector, if any.

    ``ISQLSession.run`` uses this to tee per-statement phase timings
    into an outer benchmark collector while still attaching a private
    copy to each :class:`~repro.isql.session.StatementResult`.
    """
    return _collector.get()


class phase:
    """Bracket one phase of work; a no-op without an active collector."""

    __slots__ = ("name", "_collector", "_start")

    def __init__(self, name: str) -> None:
        self.name = name

    def __enter__(self) -> None:
        self._collector = collector = _collector.get()
        if collector is not None:
            self._start = time.perf_counter()

    def __exit__(self, *exc_info: object) -> None:
        collector = self._collector
        if collector is not None:
            collector[self.name] = (
                collector.get(self.name, 0.0) + time.perf_counter() - self._start
            )
