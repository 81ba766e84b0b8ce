"""Session resource hygiene: close() releases caches, keeps state.

Long-lived processes run many sessions; the row intern pool and the
per-relation caches (hash indexes, cached hashes, columnar twins) must
be clearable without invalidating the session. ``ISQLSession`` is also
a context manager closing on exit.
"""

import pytest

from repro import ISQLSession
from repro.relational import Relation, as_columnar
from repro.relational import relation as relation_module


@pytest.fixture
def flights():
    return Relation(("Dep", "Arr"), [("FRA", "BCN"), ("FRA", "ATL"), ("PAR", "ATL")])


@pytest.mark.parametrize("backend", ["explicit", "inline"])
def test_close_clears_caches_and_session_stays_usable(backend, flights):
    session = ISQLSession(backend=backend)
    session.register("Flights", flights)
    first = session.query(
        "select certain Arr from Flights choice of Dep;"
    ).relation
    session.close()
    # The intern pool is empty and rebuilt lazily.
    assert relation_module._INTERNED == {}
    # The session still answers queries identically after closing.
    again = session.query(
        "select certain Arr from Flights choice of Dep;"
    ).relation
    assert again == first
    session.close()  # idempotent


def test_close_drops_relation_level_caches(flights):
    session = ISQLSession(backend="inline")
    session.register("Flights", flights)
    session.query("select possible Arr from Flights choice of Dep;")
    # Warm the caches the hot path builds on the registered relation.
    flights._index(flights.schema.indices(("Dep",)))
    as_columnar(flights)
    hash(flights)
    assert flights._indexes and flights._columnar is not None
    assert flights._hash is not None
    session.close()
    assert flights._indexes == {}
    assert flights._columnar is None
    assert flights._hash is None


def test_session_context_manager_closes(flights):
    with ISQLSession(backend="inline") as session:
        session.register("Flights", flights)
        intern_row = relation_module.intern_row
        intern_row(("warm", "pool"))
        assert relation_module._INTERNED
    assert relation_module._INTERNED == {}


def test_clear_intern_pool_is_correctness_neutral():
    row = relation_module.intern_row((1, "a"))
    relation_module.clear_intern_pool()
    again = relation_module.intern_row((1, "a"))
    assert again == row  # equal content, possibly a fresh object


def test_close_after_mid_script_error(flights):
    """A failed script must not wedge close(): the session closes
    cleanly from whatever state the error left behind."""
    for backend in ("explicit", "inline"):
        session = ISQLSession(backend=backend)
        session.register("Flights", flights)
        with pytest.raises(Exception):
            session.run(
                "insert into Flights values ('LIS', 'FRA');"
                "delete from Flights where Nope = 1;"
            )
        session.close()
        # Still usable, and the committed prefix survived the close.
        rows = session.query("select * from Flights;").possible()
        assert ("LIS", "FRA") in rows.rows
        session.close()  # and still idempotent


def test_close_drops_the_savepoint_stack(flights):
    session = ISQLSession(backend="inline")
    session.register("Flights", flights)
    mark = session.savepoint("pre-close")
    session.close()
    assert session._savepoints == []
    with pytest.raises(Exception, match="unknown or released"):
        session.rollback_to(mark)
    # New savepoints work after close.
    again = session.savepoint()
    session.rollback_to(again)


def test_context_manager_closes_even_on_script_error(flights):
    with pytest.raises(Exception):
        with ISQLSession(backend="inline") as session:
            session.register("Flights", flights)
            session.savepoint("inside")
            session.run("delete from Flights where Nope = 1;")
    assert session._savepoints == []
    assert relation_module._INTERNED == {}
