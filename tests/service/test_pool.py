"""SessionPool unit coverage (ISSUE 9).

Checkout/checkin discipline, exhaustion and timeout, double release,
thread pinning, the guard (``max_rows``/``max_seconds``) passthrough,
idle retirement, closed-pool behavior, and the headline isolation
property: a reader holding a pinned snapshot sees a consistent state
while a writer runs a DML batch on another pooled connection.
"""

from __future__ import annotations

import threading

import pytest

from repro.backend import InlineBackend
from repro.cache import CacheInfo
from repro.errors import OwnershipError
from repro.isql import ISQLSession
from repro.relational import Relation
from repro.service import SessionPool, dbapi


def _seed(rows=((1, 10), (2, 20), (3, 30)), backend="inline") -> ISQLSession:
    session = ISQLSession(backend=backend)
    session.register("T", Relation(("K", "V"), rows))
    return session


def test_acquire_release_reuses_connections():
    pool = SessionPool(_seed(), size=2)
    first = pool.acquire()
    assert pool.checked_out == 1 and pool.idle == 0
    pool.release(first)
    assert pool.checked_out == 0 and pool.idle == 1
    again = pool.acquire()
    assert again is first  # parked connection reused, not rebuilt
    pool.release(again)
    pool.close()


def test_context_manager_commits_the_unit_of_work():
    pool = SessionPool(_seed(), size=1)
    with pool.connection() as conn:
        conn.execute("insert into T values (4, 40);")
    with pool.connection() as conn:
        rows = conn.execute("select possible K from T where K = 4;").fetchall()
    assert rows == [(4,)]
    pool.close()


def test_context_manager_rolls_back_on_error():
    pool = SessionPool(_seed(), size=1)
    with pytest.raises(RuntimeError):
        with pool.connection() as conn:
            conn.execute("insert into T values (4, 40);")
            raise RuntimeError("boom")
    with pool.connection() as conn:
        assert conn.execute("select possible K from T where K = 4;").fetchall() == []
    pool.close()


def test_exhaustion_blocks_then_times_out():
    pool = SessionPool(_seed(), size=1)
    held = pool.acquire()
    with pytest.raises(dbapi.OperationalError, match="pool exhausted"):
        pool.acquire(timeout=0.01)
    pool.release(held)
    reacquired = pool.acquire(timeout=0.01)  # free again
    pool.release(reacquired)
    pool.close()


def test_release_unblocks_a_waiting_acquirer():
    pool = SessionPool(_seed(), size=1)
    held = pool.acquire()
    got = []

    def waiter():
        connection = pool.acquire(timeout=5.0)
        got.append(connection)
        pool.release(connection)

    thread = threading.Thread(target=waiter)
    thread.start()
    pool.release(held)
    thread.join(timeout=5.0)
    assert not thread.is_alive() and got


def test_double_release_raises():
    pool = SessionPool(_seed(), size=2)
    conn = pool.acquire()
    pool.release(conn)
    with pytest.raises(dbapi.InterfaceError, match="double release"):
        pool.release(conn)
    pool.close()


def test_release_of_foreign_connection_raises():
    pool = SessionPool(_seed(), size=1)
    foreign = dbapi.connect(_seed())
    with pytest.raises(dbapi.InterfaceError):
        pool.release(foreign)
    foreign.close()
    pool.close()


def test_pooled_connection_is_pinned_to_acquiring_thread():
    pool = SessionPool(_seed(), size=1)
    conn = pool.acquire()
    errors = []

    def misuse():
        try:
            conn.execute("select possible K from T;")
        except Exception as error:  # noqa: BLE001 - asserted below
            errors.append(error)

    thread = threading.Thread(target=misuse)
    thread.start()
    thread.join()
    assert len(errors) == 1
    # The facade maps OwnershipError into the DBAPI tree.
    assert isinstance(errors[0], dbapi.ProgrammingError)
    assert isinstance(errors[0].__cause__, OwnershipError)
    conn.execute("select possible K from T;")  # owner thread still fine
    pool.release(conn)
    # Released: the pin is lifted, another thread may acquire it.
    got = []
    thread = threading.Thread(
        target=lambda: got.append(pool.acquire(timeout=1.0))
    )
    thread.start()
    thread.join()
    assert got and got[0] is conn
    pool.close()


def test_guard_passthrough_arms_every_pooled_connection():
    seed = _seed(rows=[(k, k) for k in range(50)])
    pool = SessionPool(seed, size=2, max_rows=3)
    with pool.connection() as conn:
        assert conn.session.max_rows == 3
        with pytest.raises(dbapi.OperationalError):
            conn.execute("select possible K from T;")
    pool.close()


def test_release_rolls_back_open_transactions():
    pool = SessionPool(_seed(), size=1)
    conn = pool.acquire()
    conn.execute("insert into T values (4, 40);")
    assert conn.in_transaction
    pool.release(conn)  # must not park a held writer lock
    with pool.connection() as conn:
        assert conn.execute("select possible K from T where K = 4;").fetchall() == []
        conn.execute("insert into T values (5, 50);")  # lock acquirable
    pool.close()


def test_max_idle_retires_excess_connections():
    pool = SessionPool(_seed(), size=3, max_idle=1)
    connections = [pool.acquire() for _ in range(3)]
    for connection in connections:
        pool.release(connection)
    assert pool.idle == 1  # two of the three were closed, not parked
    pool.close()


def test_closed_pool_refuses_acquire_and_closes_strays():
    pool = SessionPool(_seed(), size=2)
    stray = pool.acquire()
    pool.close()
    pool.close()  # idempotent
    with pytest.raises(dbapi.InterfaceError, match="pool is closed"):
        pool.acquire()
    pool.release(stray)  # checked-out connection comes home to be closed
    with pytest.raises(dbapi.InterfaceError):
        stray.execute("select possible K from T;")
    assert pool.idle == 0


def test_shared_store_commit_visibility_across_pooled_connections():
    pool = SessionPool(_seed(), size=2)
    writer = pool.acquire()
    reader = pool.acquire()
    writer.execute("insert into T values (4, 40);")
    assert reader.execute("select possible K from T where K = 4;").fetchall() == []
    writer.commit()
    assert reader.execute("select possible K from T where K = 4;").fetchall() == [
        (4,)
    ]
    pool.release(writer)
    pool.release(reader)
    pool.close()


def test_snapshot_read_during_dml_batch_isolation():
    """The headline property: a pinned reader sees one consistent state
    end to end while a writer's multi-statement DML batch runs and even
    commits on another connection."""
    pool = SessionPool(_seed(), size=2)
    reader = pool.acquire()
    writer = pool.acquire()
    before = reader.execute("select possible K, V from T;").fetchall()
    reader.pin_snapshot()
    writer.execute(
        "update T set V = 0 where K = 1;"
        "delete from T where K = 2;"
        "insert into T values (9, 90);"
    )
    assert reader.execute("select possible K, V from T;").fetchall() == before
    writer.commit()
    assert reader.execute("select possible K, V from T;").fetchall() == before
    reader.unpin_snapshot()
    assert reader.execute("select possible K, V from T;").fetchall() == [
        (1, 0),
        (3, 30),
        (9, 90),
    ]
    pool.release(reader)
    pool.release(writer)
    pool.close()


def test_pool_from_scenario_name_and_repr():
    pool = SessionPool("trip_certain", size=1)
    with pool.connection() as conn:
        rows = conn.execute(
            "select certain Arr from HFlights choice of Dep;"
        ).fetchall()
    assert rows == [("A0",)]
    assert "SessionPool(size=1" in repr(pool)
    pool.close()


def test_pool_size_validation():
    with pytest.raises(dbapi.InterfaceError):
        SessionPool(_seed(), size=0)


# -- the pool-wide statement cache (PR 10) -------------------------------------------


def test_pool_wide_cache_is_shared_across_connections():
    """A statement compiled on one connection is a cache hit on every
    other: pooled sessions fork from the store template and share its
    statement cache by reference."""
    pool = SessionPool(_seed(), size=2)
    query = "select possible K, V from T;"
    first = pool.acquire()
    second = pool.acquire()
    cursor = first.execute(query)
    assert cursor.cache == "miss"
    # Same snapshot, same table versions: the second connection's very
    # first execution hits both the plan cache and the result memo.
    assert second.execute(query).cache == "hit"
    assert pool.cache_info().hits > 0
    assert first.cache_info() == pool.cache_info()
    pool.release(first)
    pool.release(second)
    pool.close()


def test_retired_connections_do_not_pin_or_grow_the_shared_cache():
    """No-growth across checkout cycles: retiring a connection detaches
    its session from the shared cache (so it cannot pin memoized
    relations), and repeated cycles of the same statement leave the
    shared entry count flat."""
    pool = SessionPool(_seed(), size=2, max_idle=0)  # every release retires
    shared = pool.store._template.backend.cache
    query = "select possible K, V from T;"
    connection = pool.acquire()
    connection.execute(query)
    entries = pool.cache_info().entries
    pool.release(connection)  # retired: max_idle=0
    # The retired session holds a *fresh, empty* cache — the shared one
    # is unreachable from it, so its memoized relations are not pinned.
    assert connection.session.backend.cache is not shared
    assert connection.session.backend.cache.info().entries == 0
    assert shared.info().entries == entries
    for _ in range(10):
        with pool.connection() as cycled:
            assert cycled.execute(query).cache == "hit"
        assert pool.cache_info().entries == entries, "cache grew across cycles"
    pool.close()


def test_pool_cache_escape_hatch():
    pool = SessionPool(_seed(backend=InlineBackend(cache=False)), size=1)
    with pool.connection() as connection:
        assert connection.execute("select possible K from T;").cache == "bypass"
        assert connection.execute("select possible K from T;").cache == "bypass"
    info = pool.cache_info()
    assert info.hits == 0 and info.entries == 0
    pool.close()


def test_pool_inherits_cache_off_from_its_seed():
    """A seed session whose backend runs without the statement cache
    gives a pool without one: every pooled connection forks the seed's
    backend setting, so no read or write ever memoizes."""
    pool = SessionPool(_seed(backend=InlineBackend(cache=False)), size=2)
    first = pool.acquire()
    second = pool.acquire()
    query = "select possible K from T where V > 10;"
    for _ in range(3):
        for connection in (first, second):
            assert connection.session.backend.cache is None
            assert connection.execute(query).cache == "bypass"
    first.execute("insert into T values (4, 40);")
    first.commit()
    assert second.execute(query).fetchall() == [(2,), (3,), (4,)]
    assert second.execute(query).cache == "bypass"
    assert pool.cache_info() == CacheInfo.empty()
    pool.release(first)
    pool.release(second)
    pool.close()
