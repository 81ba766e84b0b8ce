"""Pooled concurrency ≡ serialized reference, property-based (ISSUE 9).

The service layer's correctness claim: N threads replaying randomized
interleaved scripts through a :class:`~repro.service.pool.SessionPool`
observe exactly the outcomes — per-statement answers, applied flags,
errors, and final state — of the same statements executed serially, in
the same total order, on one plain session.

The interleaving is **seeded and barrier-driven**: a shuffled schedule
fixes which thread runs its next statement at every step, and a
condition-variable turnstile enforces it, so the "concurrent" execution
has a deterministic total order. That makes failures reproduce from the
case index alone, and makes the serialized replay a well-defined
reference. What the pooled run exercises on top of the reference is the
entire service machinery under real thread handoff: checkout/checkin
with thread re-pinning, per-statement snapshot sync, writer-lock
acquisition and atomic publication, rollback on error.

Parametrized over both inline strategies (physical / Figure 6
translate) and all three kernels (columnar / tuple / array when numpy
is present). ``REPRO_FUZZ_SCRIPTS`` scales the case count for the
nightly fuzz job; PR-time stays at 8 cases × 6 configurations = 48
replayed scripts.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.backend import InlineBackend
from repro.backend.testing import fuzz_range
from repro.errors import ReproError
from repro.isql import ISQLSession
from repro.relational import Relation
from repro.relational.array_kernel import have_numpy
from repro.service import SessionPool

BACKENDS = (
    ("inline[columnar]", lambda: InlineBackend(kernel="columnar")),
    ("inline[tuple]", lambda: InlineBackend(kernel="tuple")),
    (
        "translate[columnar]",
        lambda: InlineBackend(strategy="translate", kernel="columnar"),
    ),
    (
        "translate[tuple]",
        lambda: InlineBackend(strategy="translate", kernel="tuple"),
    ),
) + (
    (
        ("inline[array]", lambda: InlineBackend(kernel="array")),
        (
            "translate[array]",
            lambda: InlineBackend(strategy="translate", kernel="array"),
        ),
    )
    if have_numpy()
    else ()
)

N_THREADS = 3
UNITS_PER_THREAD = 4
STEP_TIMEOUT = 30.0


# -- case generation ---------------------------------------------------------------

CONDITIONS = (
    "V = 1",
    "W > 20",
    "K != 2 and V = 0",
    "V = 1 or W >= 30",
    "K + V > 2",
)

SET_CLAUSES = ("W = W + 1", "V = 3", "W = K * 10", "K = 1")

INSERT_ROWS = ("9, 0, 90", "1, 1, 11", "2, 5, 50")


def _statement(rng: random.Random, thread_index: int, unit_index: int) -> str:
    roll = rng.random()
    if roll < 0.15:
        return f"insert into Split values ({rng.choice(INSERT_ROWS)});"
    if roll < 0.35:
        return (
            f"update Split set {rng.choice(SET_CLAUSES)} "
            f"where {rng.choice(CONDITIONS)};"
        )
    if roll < 0.5:
        return f"delete from Split where {rng.choice(CONDITIONS)};"
    if roll < 0.6:
        return f"insert into U values ({rng.randrange(8)});"
    if roll < 0.7:
        # Per-thread-unique name: assignment collisions would otherwise
        # depend only on the schedule; uniqueness keeps them meaningful.
        return (
            f"A{thread_index}_{unit_index} <- select K, V from Split "
            f"where {rng.choice(CONDITIONS)};"
        )
    closing = rng.choice(("possible", "certain"))
    if rng.random() < 0.5:
        return f"select {closing} K, V, W from Split;"
    return f"select {closing} P from U;"


class Case:
    """One seeded concurrency case: data, per-thread units, a schedule."""

    def __init__(self, index: int) -> None:
        rng = random.Random(9000 + index)
        t_rows = {
            (k, rng.randrange(3), rng.randrange(1, 5) * 10)
            for k in range(rng.randrange(4, 8))
        }
        self.relations = (
            ("T", Relation(("K", "V", "W"), t_rows)),
            ("U", Relation(("P",), {(p,) for p in range(3)})),
        )
        self.keys = (("Split", ("K",)),) if rng.random() < 0.5 else ()
        self.setup = "Split <- select * from T choice of V;"
        self.units = [
            [_statement(rng, t, i) for i in range(UNITS_PER_THREAD)]
            for t in range(N_THREADS)
        ]
        schedule = [t for t in range(N_THREADS) for _ in range(UNITS_PER_THREAD)]
        rng.shuffle(schedule)
        self.schedule = schedule

    def seed_session(self, backend_factory) -> ISQLSession:
        session = ISQLSession(backend=backend_factory())
        for name, relation in self.relations:
            session.register(name, relation)
        for relation, attributes in self.keys:
            session.declare_key(relation, attributes)
        session.run(self.setup)
        return session


# -- outcomes ----------------------------------------------------------------------


def _outcome(results) -> object:
    """The comparable observation of one executed statement.

    The statement's kind is fixed by the unit text, so the observation
    is just its payload: the answer set for selects, the applied flag
    for DML, a marker for assignments.
    """
    last = results[-1] if results else None
    if last is None:
        return ("assign",)
    if hasattr(last, "answers"):
        return ("select", last.answers())
    return ("dml", last.applied)


def _cursor_outcome(cursor) -> object:
    """The same observation, read off a DBAPI cursor."""
    if cursor.result is not None:
        return ("select", cursor.result.answers())
    if cursor.applied is not None:
        return ("dml", cursor.applied)
    return ("assign",)


def _error_outcome(error: BaseException) -> object:
    # The facade wraps library errors with the original as __cause__;
    # compare by the underlying type so both replays speak one language.
    original = error.__cause__ if error.__cause__ is not None else error
    return ("error", type(original).__name__)


# -- the barrier-driven turnstile --------------------------------------------------


class Turnstile:
    """Enforces the case's total order across worker threads."""

    def __init__(self, schedule: list[int]) -> None:
        self._schedule = schedule
        self._step = 0
        self._condition = threading.Condition()
        self.aborted: BaseException | None = None

    def wait_turn(self, thread_index: int) -> int:
        with self._condition:
            while (
                self.aborted is None
                and self._schedule[self._step] != thread_index
            ):
                if not self._condition.wait(STEP_TIMEOUT):
                    raise RuntimeError(
                        f"turnstile stalled at step {self._step} "
                        f"(schedule {self._schedule})"
                    )
            if self.aborted is not None:
                raise RuntimeError("a sibling thread aborted") from self.aborted
            return self._step

    def advance(self) -> None:
        with self._condition:
            self._step += 1
            self._condition.notify_all()

    def abort(self, error: BaseException) -> None:
        with self._condition:
            if self.aborted is None:
                self.aborted = error
            self._condition.notify_all()


# -- the two replays ---------------------------------------------------------------


def _run_pooled(case: Case, backend_factory) -> tuple[list, ISQLSession]:
    """N threads through the pool; returns (outcomes by step, final session)."""
    pool = SessionPool(case.seed_session(backend_factory), size=2)
    turnstile = Turnstile(case.schedule)
    outcomes: list = [None] * len(case.schedule)
    failures: list[BaseException] = []

    def worker(thread_index: int) -> None:
        try:
            for unit in case.units[thread_index]:
                step = turnstile.wait_turn(thread_index)
                try:
                    with pool.connection() as connection:
                        outcomes[step] = _cursor_outcome(connection.execute(unit))
                except ReproError as error:
                    outcomes[step] = _error_outcome(error)
                turnstile.advance()
        except BaseException as error:  # noqa: BLE001 - surfaced below
            failures.append(error)
            turnstile.abort(error)

    threads = [
        threading.Thread(target=worker, args=(t,)) for t in range(N_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=STEP_TIMEOUT * 2)
    assert not failures, failures
    assert all(not thread.is_alive() for thread in threads)
    final, _ = pool.store.spawn_session()
    pool.close()
    return outcomes, final


def _run_serialized(case: Case, backend_factory) -> tuple[list, ISQLSession]:
    """The reference: the same units, same total order, one session."""
    session = case.seed_session(backend_factory)
    cursors = [0] * N_THREADS
    outcomes: list = []
    for thread_index in case.schedule:
        unit = case.units[thread_index][cursors[thread_index]]
        cursors[thread_index] += 1
        try:
            outcomes.append(_outcome(session.execute(unit)))
        except ReproError as error:
            outcomes.append(_error_outcome(error))
    return outcomes, session


@pytest.mark.parametrize("index", fuzz_range(8))
def test_pooled_interleaving_equals_serialized_reference(index):
    case = Case(index)
    for label, backend_factory in BACKENDS:
        pooled_outcomes, pooled_final = _run_pooled(case, backend_factory)
        serial_outcomes, serial_final = _run_serialized(case, backend_factory)
        context = (label, index, case.schedule)
        assert pooled_outcomes == serial_outcomes, context
        assert pooled_final.world_count() == serial_final.world_count(), context
        assert pooled_final.world_set == serial_final.world_set, context


def test_schedules_are_deterministic():
    """Same index → same case, bit for bit — failures reproduce."""
    first, second = Case(3), Case(3)
    assert first.schedule == second.schedule
    assert first.units == second.units
    assert first.keys == second.keys
    assert [r for _, r in first.relations] == [r for _, r in second.relations]
