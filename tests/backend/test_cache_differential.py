"""Cache on ≡ cache off, differentially, on every backend (PR 10).

The statement cache is allowed to change *cost* only. This suite holds
cache-on sessions to observable equivalence with cache-off sessions —
identical answers, routes, and final world-sets — across every
scripted datagen scenario and a randomized DML/fuzz sweep, on the
explicit backend and the inline backend in every kernel × strategy
combination. The transactional corners ride along: savepoint rollback
(the memo must serve the *restored* state's entries), atomic-script
abort, fault-injection replay on a warm cache, and ``pin_snapshot()``
readers (a pinned reader must keep hitting its own snapshot's
versions while a writer commits past it).
"""

from __future__ import annotations

import random

import pytest

from repro.backend import InlineBackend
from repro.backend.testing import fuzz_range
from repro.datagen import Scenario, scenarios
from repro.errors import EvaluationError, ReproError
from repro.isql import ISQLSession
from repro.relational import Relation
from repro.relational.array_kernel import have_numpy
from repro.service import SessionPool
from repro.testing import InjectedFault, count_ops, inject_fault, sweep_points

KERNEL_NAMES = ("columnar", "tuple") + (("array",) if have_numpy() else ())

#: (label, factory): explicit plus kernels × strategies. Each factory
#: takes the cache flag — the backend is where the cache is switched —
#: and the explicit backend, which has no cache, ignores it.
BACKENDS = (
    (("explicit", lambda cache: "explicit"),)
    + tuple(
        (
            f"inline[{kernel}]",
            lambda cache, kernel=kernel: InlineBackend(kernel=kernel, cache=cache),
        )
        for kernel in KERNEL_NAMES
    )
    + tuple(
        (
            f"inline-translate[{kernel}]",
            lambda cache, kernel=kernel: InlineBackend(
                strategy="translate", kernel=kernel, cache=cache
            ),
        )
        for kernel in KERNEL_NAMES
    )
)

SCRIPTED = {s.name: s for s in scenarios("small") if s.script}

_backend_params = pytest.mark.parametrize(
    "label,backend", BACKENDS, ids=[b[0] for b in BACKENDS]
)


def _fresh(scenario: Scenario, backend, cache: bool) -> ISQLSession:
    session = ISQLSession(backend=backend(cache))
    for name, relation in scenario.relations:
        session.register(name, relation)
    for relation, attributes in scenario.keys:
        session.declare_key(relation, attributes)
    return session


def _replay(scenario: Scenario, backend, cache: bool):
    """Script, then the query twice (the second run is the hit path)."""
    session = _fresh(scenario, backend, cache)
    results = session.run(scenario.script) if scenario.script else []
    first = session.query(scenario.query)
    second = session.query(scenario.query)
    return session, results, first, second


def _assert_equivalent(scenario_name: str, label: str, on, off) -> None:
    on_session, on_results, on_first, on_second = on
    off_session, off_results, off_first, off_second = off
    context = f"{scenario_name} on {label}"
    assert [(r.kind, r.applied, r.route) for r in on_results] == [
        (r.kind, r.applied, r.route) for r in off_results
    ], f"{context}: statement kinds/flags/routes diverge"
    assert on_first.answers() == off_first.answers(), (
        f"{context}: first answers diverge"
    )
    assert on_second.answers() == on_first.answers(), (
        f"{context}: cached re-run changed the answer"
    )
    assert off_second.answers() == off_first.answers()
    assert on_session.world_count() == off_session.world_count(), context
    assert on_session.world_set == off_session.world_set, (
        f"{context}: final world-sets diverge"
    )
    assert list(getattr(on_session.backend, "fallback_events", ())) == list(
        getattr(off_session.backend, "fallback_events", ())
    ), f"{context}: fallback routes diverge"


@pytest.mark.parametrize("name", sorted(SCRIPTED))
@_backend_params
def test_scripted_scenarios_cache_on_equals_off(label, backend, name):
    scenario = SCRIPTED[name]
    on = _replay(scenario, backend, cache=True)
    off = _replay(scenario, backend, cache=False)
    _assert_equivalent(name, label, on, off)


# -- randomized DML/fuzz scripts -----------------------------------------------------

CONDITIONS = (
    "V = 1",
    "W > 20",
    "K != 2 and V = 0",
    "V = 1 or W >= 30",
    "K + V > 2",
)

SET_CLAUSES = ("W = W + 1", "V = 3", "W = K * 10", "K = 1")


def _fuzz_case(rng: random.Random, index: int) -> Scenario:
    rows = {
        (k, rng.randrange(3), rng.randrange(1, 5) * 10)
        for k in range(rng.randrange(3, 7))
    }
    statements = ["Split <- select * from T choice of V;"]
    for _ in range(rng.randrange(2, 7)):
        target = rng.choice(("Split", "Split", "T"))
        roll = rng.random()
        if roll < 0.25:
            values = f"{rng.randrange(9)}, {rng.randrange(3)}, {rng.randrange(1, 5) * 10}"
            statements.append(f"insert into {target} values ({values});")
        elif roll < 0.6:
            statements.append(
                f"update {target} set {rng.choice(SET_CLAUSES)} "
                f"where {rng.choice(CONDITIONS)};"
            )
        else:
            statements.append(
                f"delete from {target} where {rng.choice(CONDITIONS)};"
            )
        if rng.random() < 0.4:
            # Interleave reads so later DML invalidates warm memo
            # entries mid-script — the precision path under test.
            statements.append(f"select possible K, W from {target};")
    return Scenario(
        name=f"cache_fuzz_{index}",
        relations=(("T", Relation(("K", "V", "W"), rows)),),
        keys=(("Split", ("K",)),) if rng.random() < 0.5 else (),
        script="".join(statements),
        query=f"select {rng.choice(('possible', 'certain'))} K, V, W from Split;",
        approx_worlds=4,
    )


@pytest.mark.parametrize("index", fuzz_range(32))
def test_fuzzed_scripts_cache_on_equals_off(index):
    rng = random.Random(10_000 + index)
    scenario = _fuzz_case(rng, index)
    for label, backend in BACKENDS:
        on = _replay(scenario, backend, cache=True)
        off = _replay(scenario, backend, cache=False)
        _assert_equivalent(scenario.name, label, on, off)


# -- transactional corners -----------------------------------------------------------


def _rollback_trace(backend, cache: bool):
    """Warm the cache, mutate under a savepoint, roll back, re-query."""
    session = ISQLSession(backend=backend(cache))
    session.register("T", Relation(("K", "V"), [(1, 10), (2, 20)]))
    trace = [session.query("select possible K, V from T;").answers()]
    mark = session.savepoint()
    session.run("insert into T values (3, 30);update T set V = 0 where K = 1;")
    trace.append(session.query("select possible K, V from T;").answers())
    session.rollback_to(mark)
    session.release(mark)
    trace.append(session.query("select possible K, V from T;").answers())
    session.run("delete from T where K = 2;")
    trace.append(session.query("select possible K, V from T;").answers())
    return session, trace


@_backend_params
def test_savepoint_rollback_cache_on_equals_off(label, backend):
    on_session, on_trace = _rollback_trace(backend, cache=True)
    off_session, off_trace = _rollback_trace(backend, cache=False)
    assert on_trace == off_trace, label
    assert on_session.world_set == off_session.world_set, label


def _atomic_abort_trace(backend, cache: bool):
    session = ISQLSession(backend=backend(cache))
    session.register("T", Relation(("K", "V"), [(1, 10), (2, 20)]))
    session.query("select possible K from T;")  # warm the cache
    with pytest.raises(ReproError):
        session.run(
            "insert into T values (3, 30);select possible X from Nope;",
            atomic=True,
        )
    return session, session.query("select possible K, V from T;").answers()


@_backend_params
def test_atomic_abort_cache_on_equals_off(label, backend):
    on_session, on_answers = _atomic_abort_trace(backend, cache=True)
    off_session, off_answers = _atomic_abort_trace(backend, cache=False)
    assert on_answers == off_answers, label
    assert on_session.world_set == off_session.world_set, label
    # The aborted insert must not survive anywhere, including the memo.
    assert not any((3, 30) in answer.rows for answer in on_answers)


@_backend_params
def test_fault_replay_on_a_warm_cache(label, backend):
    """A fault mid-script on a cache-on session leaves consistent state,
    and the replay — now against a *warm* cache — reaches the same end
    state as a never-faulted cache-off run."""
    scenario = SCRIPTED[sorted(SCRIPTED)[0]]
    reference = _fresh(scenario, backend, cache=False)
    reference.run(scenario.script)
    probe = _fresh(scenario, backend, cache=False)
    total = count_ops(lambda: probe.run(scenario.script))
    if total == 0:
        pytest.skip("script crosses no kernel-op boundary")
    for at in sweep_points(total, 3):
        session = _fresh(scenario, backend, cache=True)
        before = session.world_set
        with inject_fault(at) as counter:
            with pytest.raises(EvaluationError) as info:
                session.run(scenario.script, atomic=True)
            assert isinstance(info.value.__cause__, InjectedFault)
            assert counter.fired, (label, at)
        assert session.world_set == before, (
            f"{label}: fault at op {at}/{total} tore cache-on state"
        )
        session.run(scenario.script, atomic=True)
        assert session.world_set == reference.world_set, (
            f"{label}: warm-cache replay after fault diverged"
        )
        assert session.query(scenario.query).answers() == reference.query(
            scenario.query
        ).answers()


# -- pinned snapshot readers ---------------------------------------------------------


@pytest.mark.parametrize("cache", [True, False], ids=["cache-on", "cache-off"])
def test_pinned_reader_keeps_its_snapshot_versions(cache):
    """A pinned reader re-running its query must keep answering from
    its pinned snapshot while a writer commits DML past it — the memo
    keys on the *reader's* table versions, which ride in the snapshot."""
    seed = ISQLSession(backend=InlineBackend(cache=cache))
    seed.register("T", Relation(("K", "V"), [(1, 10), (2, 20)]))
    with SessionPool(seed, size=2) as pool:
        reader = pool.acquire()
        reader.pin_snapshot()
        query = "select possible K, V from T;"
        pinned = reader.execute(query).fetchall()
        writer = pool.acquire()
        writer.execute("insert into T values (3, 30);")
        writer.commit()
        pool.release(writer)
        # Ten re-reads on the pinned snapshot: every one must serve the
        # pinned state, no matter how warm the shared cache gets.
        for _ in range(10):
            assert reader.execute(query).fetchall() == pinned
        reader.unpin_snapshot()
        fresh = reader.execute(query).fetchall()
        assert sorted(fresh) == sorted(pinned + [(3, 30)])
        pool.release(reader)


@pytest.mark.parametrize("cache", [True, False], ids=["cache-on", "cache-off"])
def test_concurrent_connections_agree_after_commit(cache):
    seed = ISQLSession(backend=InlineBackend(cache=cache))
    seed.register("T", Relation(("K",), [(1,), (2,)]))
    with SessionPool(seed, size=2) as pool:
        with pool.connection() as writer:
            writer.execute("delete from T where K = 1;")
        with pool.connection() as observer:
            rows = observer.execute("select certain K from T;").fetchall()
        assert rows == [(2,)]
