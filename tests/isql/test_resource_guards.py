"""Per-statement resource budgets on sessions: max_rows / max_seconds.

The guarantee under test: exceeding a budget raises the recoverable
:class:`~repro.errors.ResourceLimitError` *before* any state commit, so
the session afterwards sits exactly at its last commit and keeps
working — raise the budget (or drop it) and the same statement runs.
"""

import pytest

from repro.errors import EvaluationError, ResourceLimitError
from repro.isql.session import ISQLSession
from repro.relational import Relation

BACKENDS = ["explicit", "inline", "inline-translate"]


@pytest.fixture
def flights():
    return Relation(
        ("Dep", "Arr"),
        [("FRA", "BCN"), ("FRA", "ATL"), ("PAR", "ATL"), ("PAR", "BCN")],
    )


def _session(backend, flights, **limits):
    session = ISQLSession(backend=backend, **limits)
    session.register("Flights", flights)
    return session


@pytest.mark.parametrize("backend", BACKENDS)
def test_max_rows_aborts_the_statement(backend, flights):
    session = _session(backend, flights, max_rows=1)
    with pytest.raises(ResourceLimitError) as info:
        session.query("select certain Arr from Flights choice of Dep;")
    assert "max_rows=1" in str(info.value)


@pytest.mark.parametrize("backend", BACKENDS)
def test_max_seconds_zero_aborts_deterministically(backend, flights):
    session = _session(backend, flights, max_seconds=0.0)
    with pytest.raises(ResourceLimitError):
        session.query("select certain Arr from Flights choice of Dep;")


@pytest.mark.parametrize("backend", BACKENDS)
def test_limit_error_leaves_state_at_last_commit(backend, flights):
    session = _session(backend, flights)
    session.execute("H <- select * from Flights choice of Dep;")
    before = session.world_set
    session.max_rows = 1
    with pytest.raises(ResourceLimitError):
        session.execute("delete from H where Arr = 'ATL';")
    assert session.world_set == before


@pytest.mark.parametrize("backend", BACKENDS)
def test_session_recovers_once_the_budget_is_raised(backend, flights):
    session = _session(backend, flights, max_rows=1)
    query = "select certain Arr from Flights choice of Dep;"
    with pytest.raises(ResourceLimitError):
        session.query(query)
    session.max_rows = None  # budgets are read afresh per statement
    reference = ISQLSession(backend=backend)
    reference.register("Flights", flights)
    assert session.query(query).answers() == reference.query(query).answers()


@pytest.mark.parametrize("backend", BACKENDS)
def test_generous_budget_does_not_disturb_answers(backend, flights):
    guarded = _session(backend, flights, max_rows=2**62, max_seconds=1e9)
    plain = _session(backend, flights)
    query = "select possible Dep, Arr from Flights choice of Dep;"
    assert guarded.query(query).answers() == plain.query(query).answers()


def test_budget_is_per_statement_not_per_script(flights):
    """Each statement gets a fresh budget: a script whose statements each
    fit under max_rows runs even though their sum exceeds it."""
    session = _session("inline", flights, max_rows=200)
    session.run(
        "insert into Flights values ('LIS', 'FRA');"
        "insert into Flights values ('LIS', 'BCN');"
        "delete from Flights where Dep = 'LIS';"
    )
    assert session.query("select * from Flights;").possible() == flights


def test_limit_inside_atomic_script_rolls_back_wholesale(flights):
    session = _session("inline", flights)
    before = session.world_set
    script = (
        "insert into Flights values ('LIS', 'FRA');"
        "H <- select * from Flights choice of Dep;"
    )
    session.max_rows = 2  # the insert fits; the choice-of split cannot
    with pytest.raises(ResourceLimitError):
        session.run(script, atomic=True)
    assert session.world_set == before
    session.max_rows = None
    session.run(script, atomic=True)  # recovered, replays fine


def test_explicit_world_splitting_is_budgeted(flights):
    """choice-of on the explicit engine checkpoints per produced world,
    so budgets interrupt the world expansion itself."""
    session = _session("explicit", flights, max_rows=3)
    with pytest.raises(ResourceLimitError) as info:
        session.execute("H <- select * from Flights choice of Dep;")
    assert "choice_split" in str(info.value) or "cumulative" in str(info.value)


def test_resource_limit_is_catchable_as_evaluation_error(flights):
    session = _session("inline", flights, max_rows=1)
    with pytest.raises(EvaluationError):
        session.query("select certain Arr from Flights choice of Dep;")
