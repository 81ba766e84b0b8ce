"""Batched DML ≡ statement-at-a-time, property-based (ISSUE 5).

``ISQLSession.run`` (and ``execute``, its legacy-shaped twin)
coalesces consecutive subquery-free DML statements against one relation
into a single ``backend.run_dml_batch`` call; the inline backend
applies the whole run in one pass over the flat table and commits once.
That is allowed to change *cost* only: this suite holds the batched
pipeline to row-for-row (and applied-flag-for-applied-flag) equivalence
with statement-at-a-time execution (each parsed statement through
``execute_statement`` on its own) on every backend — explicit,
inline physical, Figure 6 translate — under both execution kernels, and
additionally holds all backends to each other on the batched route.

Randomized scripts mix inserts, updates and deletes over a split
relation and a complete one (batch boundaries arise from relation
switches), with key constraints generating mid-batch discards. The
deterministic edge tests pin the corners randomized scripts would make
flaky: key-violation rejection *ordering* inside a batch, the
no-op-DML laziness edge (a batch over a lazily stored table must not
make it grow id columns), mid-batch error parity, and insert
deduplication.
"""

from __future__ import annotations

import random

import pytest

from repro.backend import InlineBackend
from repro.backend.testing import assert_backends_agree, fuzz_range
from repro.datagen import Scenario
from repro.errors import SchemaError
from repro.isql import ISQLSession
from repro.isql.session import DMLResult
from repro.relational import Relation
from repro.relational.array_kernel import have_numpy

BACKENDS = (
    ("explicit", "explicit"),
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

CONDITIONS = (
    "V = 1",
    "W > 20",
    "K != 2 and V = 0",
    "V = 1 or W >= 30",
    "not (W <= 20)",
    "K + V > 2",
)

SET_CLAUSES = (
    "W = W + 1",
    "V = 3",
    "W = K * 10",
    "K = 1",  # collides under a key on K: exercises mid-batch discards
    "V = W, W = V",  # every clause reads the pre-update row
)

INSERT_ROWS = ("9, 0, 90", "1, 1, 11", "2, 5, 50")


def _relations(rng: random.Random) -> tuple[tuple[str, Relation], ...]:
    t_rows = {
        (k, rng.randrange(3), rng.randrange(1, 5) * 10)
        for k in range(rng.randrange(3, 7))
    }
    u_rows = {(p,) for p in rng.sample(range(6), k=rng.randrange(1, 4))}
    return (
        ("T", Relation(("K", "V", "W"), t_rows)),
        ("U", Relation(("P",), u_rows)),
    )


def _statement(rng: random.Random, target: str) -> str:
    roll = rng.random()
    if target == "U":
        if roll < 0.4:
            return f"insert into U values ({rng.randrange(8)});"
        return f"delete from U where P >= {rng.randrange(6)};"
    if roll < 0.25:
        return f"insert into {target} values ({rng.choice(INSERT_ROWS)});"
    if roll < 0.6:
        return (
            f"update {target} set {rng.choice(SET_CLAUSES)} "
            f"where {rng.choice(CONDITIONS)};"
        )
    return f"delete from {target} where {rng.choice(CONDITIONS)};"


def _batch_case(rng: random.Random, index: int) -> Scenario:
    # A split target and a complete one; consecutive same-relation
    # statements batch, relation switches close batches mid-script.
    statements = ["Split <- select * from T choice of V;"]
    targets = [rng.choice(("Split", "Split", "T", "U")) for _ in range(rng.randrange(2, 7))]
    statements.extend(_statement(rng, target) for target in targets)
    keys = (("Split", ("K",)),) if rng.random() < 0.5 else ()
    closing = rng.choice(("possible", "certain"))
    return Scenario(
        name=f"dml_batch_{index}",
        relations=_relations(rng),
        keys=keys,
        script="".join(statements),
        query=f"select {closing} K, V, W from Split;",
        approx_worlds=4,
    )


def _statement_at_a_time(session: ISQLSession, script: str) -> list:
    """The unbatched reference: each parsed statement executed alone."""
    return [
        session.execute_statement(statement) for statement in session.parse(script)
    ]


def _replay(scenario: Scenario, backend, batched: bool):
    resolved = backend() if callable(backend) else backend
    session = ISQLSession(backend=resolved)
    for name, relation in scenario.relations:
        session.register(name, relation)
    for relation, attributes in scenario.keys:
        session.declare_key(relation, attributes)
    results = (
        session.execute(scenario.script)
        if batched
        else _statement_at_a_time(session, scenario.script)
    )
    flags = [
        (result.kind, result.applied)
        for result in results
        if isinstance(result, DMLResult)
    ]
    return session, flags


@pytest.mark.parametrize("index", fuzz_range(48))
def test_batched_equals_statement_at_a_time_per_backend(index):
    """Batched vs statement at a time: same flags, same state, every backend."""
    rng = random.Random(5000 + index)
    scenario = _batch_case(rng, index)
    for label, backend in BACKENDS:
        batched_session, batched_flags = _replay(scenario, backend, batched=True)
        plain_session, plain_flags = _replay(scenario, backend, batched=False)
        assert batched_flags == plain_flags, (label, scenario.script)
        assert batched_session.world_count() == plain_session.world_count(), (
            label,
            scenario.script,
        )
        assert batched_session.world_set == plain_session.world_set, (
            label,
            scenario.script,
        )


@pytest.mark.parametrize("index", fuzz_range(24))
def test_batched_backends_agree_with_each_other(index):
    """The batched route itself, differentially across all backends
    (run_scenario executes scripts through ISQLSession.run)."""
    rng = random.Random(5000 + index)
    assert_backends_agree(_batch_case(rng, index), BACKENDS)


@pytest.mark.parametrize("index", fuzz_range(24))
def test_batched_scripts_are_fallback_free(index):
    from repro.backend.testing import run_scenario

    rng = random.Random(5000 + index)
    scenario = _batch_case(rng, index)
    for label, backend in BACKENDS[1:]:
        session, _ = run_scenario(scenario, backend)
        assert not list(session.backend.fallback_events), (
            label,
            list(session.backend.fallback_events),
        )


def _session(backend="inline", key: bool = True) -> ISQLSession:
    session = ISQLSession(backend=backend)
    session.register(
        "T", Relation(("K", "V", "W"), [(1, 0, 10), (2, 1, 20), (3, 0, 30)])
    )
    if key:
        session.declare_key("T", ("K",))
    return session


@pytest.mark.parametrize("backend", ["explicit", "inline", "inline-translate"])
class TestBatchEdges:
    def test_key_rejection_ordering_inside_a_batch(self, backend):
        """A discarded statement is discarded *alone*: earlier and later
        statements of the same batch still apply, in order."""
        session = _session(backend)
        results = session.run(
            "insert into T values (4, 2, 40);"   # applies
            "insert into T values (1, 9, 99);"   # key collision: discarded
            "update T set K = 1 where V = 0;"    # collides (two V=0 rows → K=1): discarded
            "delete from T where K = 2;"         # still applies
            "update T set W = 0 where K = 4;"    # applies to the first insert's row
        )
        assert [r.applied for r in results] == [True, False, False, True, True]
        assert session.world_set.the_world()["T"].rows == {
            (1, 0, 10),
            (3, 0, 30),
            (4, 2, 0),
        }

    def test_noop_batch_keeps_lazily_stored_table(self, backend):
        """A batch matching nothing must not expand or replicate a
        lazily stored table over the session's world ids."""
        session = _session(backend, key=False)
        session.register("Solo", Relation(("P",), [(7,), (8,)]))
        session.execute("Split <- select * from T choice of V;")
        session.run(
            "delete from Solo where P = 99;"
            "update Solo set P = 0 where P = 99;"
        )
        assert {frozenset(w["Solo"].rows) for w in session.world_set.worlds} == {
            frozenset({(7,), (8,)})
        }
        if backend != "explicit":
            inline_rep = session.backend.representation
            assert inline_rep.table_id_attrs("Solo") == ()

    def test_mid_batch_error_commits_applied_prefix(self, backend):
        """An arity error mid-batch raises like statement-at-a-time
        execution — with the statements before it already applied."""
        for batched in (False, True):
            session = _session(backend, key=False)
            script = (
                "delete from T where K = 1;"
                "insert into T values (5, 5);"  # arity 2 ≠ 3: raises
                "delete from T where K = 2;"
            )
            with pytest.raises(SchemaError):
                if batched:
                    session.run(script)
                else:
                    _statement_at_a_time(session, script)
            assert session.world_set.the_world()["T"].rows == {
                (2, 1, 20),
                (3, 0, 30),
            }, ("batched" if batched else "plain")

    def test_insert_dedup_and_reinsert(self, backend):
        """Inserting an existing row is a set-semantics no-op (applied),
        and a batch of identical inserts collapses to one row."""
        session = _session(backend, key=False)
        results = session.run(
            "insert into T values (1, 0, 10);"
            "insert into T values (6, 0, 60);"
            "insert into T values (6, 0, 60);"
        )
        assert [r.applied for r in results] == [True, True, True]
        assert session.world_set.the_world()["T"].rows == {
            (1, 0, 10),
            (2, 1, 20),
            (3, 0, 30),
            (6, 0, 60),
        }

    def test_batch_over_split_relation_inserts_per_world(self, backend):
        """An insert inside a batch lands in every world of a split
        relation; a later delete in the same batch sees it."""
        session = _session(backend, key=False)
        session.execute("Split <- select * from T choice of V;")
        results = session.run(
            "insert into Split values (9, 9, 90);"
            "update Split set W = 91 where K = 9;"
            "delete from Split where V = 1;"
        )
        assert [r.applied for r in results] == [True, True, True]
        worlds = {frozenset(w["Split"].rows) for w in session.world_set.worlds}
        assert worlds == {
            frozenset({(1, 0, 10), (3, 0, 30), (9, 9, 91)}),
            frozenset({(9, 9, 91)}),
        }


@pytest.mark.parametrize("backend", ["explicit", "inline", "inline-translate"])
def test_empty_declared_key_is_no_constraint_in_batches(backend):
    """A degenerate ``declare_key(T, ())`` constrains nothing on the
    statement-at-a-time paths; the batch pipeline must agree (review
    finding: ``key is not None`` vs truthiness diverged here)."""
    for batched in (False, True):
        session = _session(backend, key=False)
        session.declare_key("T", ())
        script = (
            "insert into T values (4, 4, 40);"
            "insert into T values (5, 5, 50);"
            "update T set W = 0 where K = 4;"
        )
        results = (
            session.run(script) if batched else _statement_at_a_time(session, script)
        )
        assert [r.applied for r in results] == [True, True, True], (
            backend,
            "batched" if batched else "plain",
        )
        assert session.world_set.the_world()["T"].rows == {
            (1, 0, 10),
            (2, 1, 20),
            (3, 0, 30),
            (4, 4, 0),
            (5, 5, 50),
        }


def test_batched_execute_keeps_legacy_results_shape():
    """Non-DML statements pass through unchanged, one result per
    statement, DMLResult kinds preserved."""
    session = _session("inline", key=False)
    results = session.execute(
        "Split <- select * from T choice of V;"
        "insert into T values (7, 7, 70);"
        "delete from T where K = 7;"
        "select possible K from Split;"
    )
    assert results[0] is None
    assert isinstance(results[1], DMLResult) and results[1].kind == "insert"
    assert isinstance(results[2], DMLResult) and results[2].kind == "delete"
    assert results[3].possible() == Relation(("K",), [(1,), (2,), (3,)])
