"""The differential-testing harness holding backends to equal answers.

The correctness story of the backend layer is Theorem 5.7's: evaluation
on the inlined representation must coincide with the Figure 3 semantics
on the explicit world-set. :func:`run_scenario` replays a
:class:`repro.datagen.Scenario` on any backend; :func:`assert_backends_agree`
replays it on several and compares

* the final query's answer set (the distinct per-world answers),
* the decoded session world-sets (``rep(T)`` vs the explicit state),
* the distinct world counts.

Used by ``tests/backend/test_differential.py`` (every scenario, every
backend) and by ``benchmarks/bench_backends.py`` (which additionally
times the runs).
"""

from __future__ import annotations

import os
from typing import Callable

from repro.backend.base import Backend
from repro.datagen.workloads import Scenario
from repro.isql.session import ISQLSession


def fuzz_range(default: int) -> range:
    """Case count for a randomized differential suite.

    PR-time runs use *default* (the suites stay at 48–64 scripts);
    the nightly CI job sets ``REPRO_FUZZ_SCRIPTS`` to scale every
    randomized harness up by orders of magnitude with no code change.
    Cases are seeded by index, so a failure in the scaled run
    reproduces locally by running that one parametrized index.
    """
    return range(int(os.environ.get("REPRO_FUZZ_SCRIPTS", default)))


def run_scenario(
    scenario: Scenario,
    backend: "str | Backend | Callable[[], Backend]" = "explicit",
    max_worlds: int | None = None,
    max_rows: int | None = None,
    max_seconds: float | None = None,
) -> tuple[ISQLSession, object]:
    """Replay *scenario* on a fresh session; returns (session, result).

    *backend* is a backend name, a :class:`Backend` instance, or a
    zero-argument factory — the latter lets differential suites replay
    one scenario on configured backends (e.g. ``lambda:
    InlineBackend(kernel="tuple")``) while every run still gets a fresh
    state. *max_rows* / *max_seconds* arm the session's per-statement
    resource budget — the benchmark suite replays scenarios with huge,
    never-firing budgets to measure the armed checkpoint overhead.
    """
    resolved = backend() if callable(backend) else backend
    session = ISQLSession(
        max_worlds=max_worlds,
        backend=resolved,
        max_rows=max_rows,
        max_seconds=max_seconds,
    )
    for name, relation in scenario.relations:
        session.register(name, relation)
    for relation, attributes in scenario.keys:
        session.declare_key(relation, attributes)
    if scenario.script:
        # Consecutive subquery-free DML statements replay through the
        # batch pipeline, so every scenario doubles as batching-
        # equivalence coverage (the explicit backend takes the
        # statement-at-a-time default).
        session.run(scenario.script)
    return session, session.query(scenario.query)


def run_scenario_pooled(
    scenario: Scenario,
    backend: "str | Backend | Callable[[], Backend]" = "inline",
    size: int = 2,
    max_worlds: int | None = None,
    max_rows: int | None = None,
    max_seconds: float | None = None,
):
    """Replay *scenario* through the service layer; returns (pool, result).

    The relations and keys seed a fresh session as usual, but the
    script and the final query run over a
    :class:`~repro.service.pool.SessionPool` connection — the DBAPI
    text path, writer lock, snapshot publication and all. The returned
    result is the same possible-worlds object :func:`run_scenario`
    yields, so suites can assert the pooled replay ≡ the direct one
    answer-for-answer. The pool is returned open (its store holds the
    committed state) so callers can keep querying; close it when done.
    """
    from repro.service.pool import SessionPool

    resolved = backend() if callable(backend) else backend
    seed = ISQLSession(max_worlds=max_worlds, backend=resolved)
    for name, relation in scenario.relations:
        seed.register(name, relation)
    for relation, attributes in scenario.keys:
        seed.declare_key(relation, attributes)
    pool = SessionPool(
        seed, size=size, max_rows=max_rows, max_seconds=max_seconds
    )
    with pool.connection() as connection:
        if scenario.script:
            connection.execute(scenario.script)
        result = connection.execute(scenario.query).result
    return pool, result


def assert_backends_agree(
    scenario: Scenario,
    backends: tuple = ("explicit", "inline"),
    max_worlds: int | None = None,
) -> None:
    """Replay on every backend and assert identical observable behavior.

    Each entry of *backends* is a backend name, a factory, or a
    ``(label, backend_or_factory)`` pair (labels keep assertion messages
    readable when comparing configured backends such as kernels).
    """
    labelled = [
        backend if isinstance(backend, tuple) else (str(backend), backend)
        for backend in backends
    ]
    runs = [
        (label, *run_scenario(scenario, backend, max_worlds=max_worlds))
        for label, backend in labelled
    ]
    reference_backend, reference_session, reference_result = runs[0]
    for backend, session, result in runs[1:]:
        context = f"scenario {scenario.name!r}: {reference_backend} vs {backend}"
        assert result.answers() == reference_result.answers(), (
            f"{context}: final answers differ"
        )
        assert result.world_count() == reference_result.world_count(), (
            f"{context}: result world counts differ"
        )
        assert session.world_count() == reference_session.world_count(), (
            f"{context}: session world counts differ"
        )
        assert session.world_set == reference_session.world_set, (
            f"{context}: session world-sets differ"
        )
        assert result.world_set == reference_result.world_set, (
            f"{context}: result world-sets differ"
        )
