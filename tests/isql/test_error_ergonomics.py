"""Error ergonomics: positions with context, statement spans, hygiene.

Three user-facing guarantees:

* :class:`~repro.errors.ParseError` turns a character offset into a
  line/column plus a caret-annotated source snippet whenever the parser
  knows the source text;
* schema/evaluation errors raised while applying DML inside a script
  carry a ``while executing: <statement text>`` note naming the
  culprit statement (or the whole coalesced batch);
* only :class:`~repro.errors.ReproError` subclasses ever escape the
  public session API — pinned here by a deterministic mutation fuzz
  over scripts plus an injected-fault probe.
"""

import random

import pytest

from repro.errors import ParseError, ReproError
from repro.isql.parser import parse_script, parse_statement
from repro.isql.session import ISQLSession
from repro.relational import Relation
from repro.testing import InjectedFault, inject_fault


@pytest.fixture
def session():
    s = ISQLSession(backend="inline")
    s.register(
        "Flights",
        Relation(("Dep", "Arr"), [("FRA", "BCN"), ("FRA", "ATL"), ("PAR", "ATL")]),
    )
    return s


class TestParseErrorPositions:
    def test_single_line_reports_line_and_column(self):
        with pytest.raises(ParseError) as info:
            parse_statement("select Dep frum Flights;")
        message = str(info.value)
        assert "line 1" in message
        assert "^" in message  # caret-annotated snippet

    def test_multiline_script_points_at_the_right_line(self):
        script = (
            "insert into Flights values ('LIS', 'FRA');\n"
            "select Dep\n"
            "frum Flights;\n"
        )
        with pytest.raises(ParseError) as info:
            parse_script(script)
        error = info.value
        assert error.line == 3
        assert error.column is not None
        message = str(error)
        assert "line 3" in message
        assert "frum Flights;" in message  # the offending source line
        caret_line = message.splitlines()[-1]
        assert caret_line.strip() == "^"

    def test_caret_sits_under_the_offending_column(self):
        with pytest.raises(ParseError) as info:
            parse_statement("select ~ from Flights;")
        snippet, caret = str(info.value).splitlines()[-2:]
        offset = caret.index("^") - (len(caret) - len(caret.lstrip()))
        prefix = len(snippet) - len(snippet.lstrip())
        assert snippet.lstrip()[caret.index("^") - prefix] == "~"

    def test_offset_only_error_keeps_offset_text(self):
        error = ParseError("bad token", position=17)
        assert "offset 17" in str(error)
        assert error.line is None and error.column is None

    def test_positionless_error_is_just_the_message(self):
        error = ParseError("bad token")
        assert str(error) == "bad token"
        assert error.with_source("whatever") is error


class TestStatementSpans:
    def test_failing_dml_in_script_names_the_statement(self, session):
        script = (
            "insert into Flights values ('LIS', 'FRA');\n"
            "delete from Flights where Nope = 1;\n"
        )
        with pytest.raises(ReproError) as info:
            session.run(script)
        notes = getattr(info.value, "__notes__", [])
        assert any(
            note.startswith("while executing: ")
            and "delete from Flights where Nope = 1" in note
            for note in notes
        )

    def test_failing_batch_note_spans_the_whole_batch(self, session):
        # Two batchable deletes against one relation coalesce; the
        # error note quotes the whole batch, first through last.
        script = (
            "delete from Flights where Nope = 1;\n"
            "delete from Flights where Nope = 2;\n"
        )
        with pytest.raises(ReproError) as info:
            session.run(script)
        notes = getattr(info.value, "__notes__", [])
        assert any("Nope = 1" in note and "Nope = 2" in note for note in notes)

    def test_note_is_attached_once_not_per_frame(self, session):
        with pytest.raises(ReproError) as info:
            session.run("delete from Flights where Nope = 1;")
        notes = [
            note
            for note in getattr(info.value, "__notes__", [])
            if note.startswith("while executing: ")
        ]
        assert len(notes) == 1

    def test_programmatic_statements_have_no_span_and_no_note(self, session):
        from repro.isql import ast

        statement = ast.Delete("Flights", None)
        assert statement.span is None
        # Spanless nodes execute fine and errors pass through unannotated.
        session.execute_statement(statement)


VALID_SCRIPTS = [
    "select possible Dep from Flights choice of Dep;",
    "insert into Flights values ('LIS', 'FRA');",
    "update Flights set Arr = 'MAD' where Dep = 'FRA';",
    "delete from Flights where Arr = 'ATL';",
    "create view V as select Dep from Flights;",
    "H <- select * from Flights choice of Dep;"
    "select certain Arr from H where Dep = 'FRA';",
]

MUTATIONS = "();'<-=,*~%$\x00é"


def _mutate(script: str, rng: random.Random) -> str:
    choice = rng.randrange(4)
    position = rng.randrange(len(script))
    if choice == 0:  # delete a character
        return script[:position] + script[position + 1 :]
    if choice == 1:  # insert a hostile character
        return script[:position] + rng.choice(MUTATIONS) + script[position:]
    if choice == 2:  # truncate mid-statement
        return script[:position]
    return script[:position] + rng.choice(MUTATIONS) + script[position + 1 :]


class TestExceptionHygiene:
    def test_mutation_fuzz_only_raises_repro_errors(self):
        rng = random.Random(20260808)
        for _ in range(120):
            script = _mutate(rng.choice(VALID_SCRIPTS), rng)
            session = ISQLSession(backend=rng.choice(["explicit", "inline"]))
            session.register(
                "Flights", Relation(("Dep", "Arr"), [("FRA", "BCN"), ("PAR", "ATL")])
            )
            try:
                session.run(script)
            except ReproError:
                pass  # the only exception family allowed out
            except Exception as error:  # pragma: no cover - the failure path
                raise AssertionError(
                    f"non-ReproError {type(error).__name__} escaped for "
                    f"script {script!r}"
                ) from error

    def test_semantic_garbage_stays_inside_the_family(self, session):
        for script in [
            "select X from Flights;",
            "select Dep from Missing;",
            "insert into Flights values (1, 2, 3);",
            "update Flights set Gone = 1;",
            "H <- select * from Flights;H <- select * from Flights;",
            "select Dep from Flights group worlds by Dep;",  # needs a closing
        ]:
            with pytest.raises(ReproError):
                session.run(script)

    def test_internal_faults_surface_wrapped_with_cause(self, session):
        with inject_fault(1) as counter:
            with pytest.raises(ReproError) as info:
                session.query("select certain Arr from Flights choice of Dep;")
        assert counter.fired
        assert isinstance(info.value.__cause__, InjectedFault)
        assert "internal error" in str(info.value)

    def test_query_on_non_select_raises_library_error(self, session):
        with pytest.raises(ReproError):
            session.query("insert into Flights values ('LIS', 'FRA');")
