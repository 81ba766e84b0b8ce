"""A DBAPI-2-style facade over pooled, snapshot-isolated I-SQL sessions.

:func:`connect` takes a datagen :class:`~repro.datagen.workloads.Scenario`
(or its registered name), a live :class:`~repro.isql.session.ISQLSession`,
or a :class:`~repro.service.snapshots.SnapshotStore`, and returns a
:class:`Connection` in the shape client code expects from any Python
database driver::

    import repro.service as service

    conn = service.connect("trip_certain")
    cur = conn.cursor()
    cur.execute("select certain Arr from HFlights choice of Dep;")
    cur.fetchall()                      # [('A0',)]
    conn.close()

Multiple connections over one :class:`SnapshotStore` see a single
shared state: writes serialize through the store's writer lock and
publish atomically on :meth:`Connection.commit`, while reads run
lock-free on copy-on-write snapshots (see
:mod:`repro.service.snapshots`). The transaction mapping onto the PR 7
session layer:

* a connection's first write statement acquires the store's writer lock
  (pessimistic two-phase locking; ``lock_timeout`` bounds the wait) and
  re-syncs the private session to the latest published state;
* further statements run on the private session — other connections
  keep reading the last published snapshot, isolated from the open
  transaction;
* :meth:`Connection.commit` publishes the private state as the next
  version and releases the lock; :meth:`Connection.rollback` restores
  the latest published state and releases the lock. With
  ``autocommit=True`` every execute that writes runs as one atomic
  script (``run(..., atomic=True)``) and publishes immediately.

Fetching is defined for **world-uniform** answers (the closed results
of ``certain``/``possible`` queries, or open queries whose answer
happens to agree in every world): rows come back as plain tuples in
deterministic order. An answer that *differs* across worlds has no
single-relation reading, so fetching raises :exc:`ProgrammingError`;
the full possible-worlds result object stays available as
``cursor.result`` (use ``.answers()``, ``.possible()``, ``.certain()``).

Module constants per PEP 249: ``apilevel = "2.0"``,
``threadsafety = 1`` (share the module — and a
:class:`~repro.service.pool.SessionPool` — across threads, but give
each thread its own connection; pooled connections additionally pin
their session to the acquiring thread), ``paramstyle = "qmark"``
(literal substitution at the text layer; the I-SQL lexer has no quote
escapes, so string parameters must not contain ``'``).

The exception hierarchy is PEP 249's, rooted so that
``Error`` **is a** :class:`~repro.errors.ReproError`: the library-wide
"only ``ReproError`` escapes" hygiene survives the facade, and one
``except ReproError`` still catches everything.
"""

from __future__ import annotations

from repro import errors as _errors
from repro.datagen.workloads import Scenario, scenarios
from repro.isql import ast
# Unused: scripts parse through ISQLSession.parse (cached). Kept because
# perfbench/tracing.py patches the parser by this module's name too.
from repro.isql.parser import parse_script  # noqa: F401
from repro.cache import CacheInfo
from repro.isql.session import ISQLSession, StatementResult
from repro.service.snapshots import SnapshotStore

apilevel = "2.0"
threadsafety = 1
paramstyle = "qmark"


# -- PEP 249 exceptions ----------------------------------------------------------------


class Warning(Exception):  # noqa: A001 - PEP 249 mandates the name
    """PEP 249 Warning (never raised by this driver; present for shape)."""


class Error(_errors.ReproError):
    """Root of the DBAPI exception tree — and a ReproError."""


class InterfaceError(Error):
    """Misuse of the driver itself: closed connections/cursors, bad params."""


class DatabaseError(Error):
    """Any error coming out of the underlying engine."""


class DataError(DatabaseError):
    """A problem with the processed data (bad literal, bad value)."""


class OperationalError(DatabaseError):
    """Trouble during operation: lock/pool timeouts, resource budgets."""


class IntegrityError(DatabaseError):
    """A constraint violation (unused: the Section 3 DML rule *discards*)."""


class InternalError(DatabaseError):
    """The engine hit an internal inconsistency."""


class ProgrammingError(DatabaseError):
    """Bad SQL, unknown relations, or statements misused."""


class NotSupportedError(DatabaseError):
    """A feature outside the I-SQL fragment or this facade."""


#: ReproError → DBAPI error, most specific match first.
_ERROR_MAP: tuple[tuple[type, type], ...] = (
    (_errors.ParseError, ProgrammingError),
    (_errors.SchemaError, ProgrammingError),
    (_errors.TypingError, ProgrammingError),
    (_errors.OwnershipError, ProgrammingError),
    (_errors.ResourceLimitError, OperationalError),
    (_errors.WorldLimitError, OperationalError),
    (_errors.TranslationError, NotSupportedError),
    (_errors.RewriteError, InternalError),
    (_errors.RepresentationError, InternalError),
    (_errors.EvaluationError, OperationalError),
    (_errors.ReproError, DatabaseError),
)


def _mapped(error: _errors.ReproError) -> Error:
    """The DBAPI-shaped twin of a library error (original as __cause__)."""
    if isinstance(error, Error):
        return error
    for source, target in _ERROR_MAP:
        if isinstance(error, source):
            wrapped = target(str(error))
            wrapped.__cause__ = error
            return wrapped
    raise AssertionError("unreachable: _ERROR_MAP ends at ReproError")


# -- parameter substitution ------------------------------------------------------------


def _render_literal(value: object) -> str:
    if isinstance(value, bool):
        raise NotSupportedError("I-SQL has no boolean literals")
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        if "'" in value:
            raise DataError(
                "string parameter contains a quote; the I-SQL lexer "
                "has no quote escapes"
            )
        return f"'{value}'"
    if value is None:
        raise NotSupportedError("I-SQL has no NULL")
    raise InterfaceError(
        f"unsupported parameter type {type(value).__name__}"
    )


def _substitute(operation: str, parameters) -> str:
    """Replace ``?`` placeholders (outside string literals) by literals."""
    if parameters is None:
        parameters = ()
    if isinstance(parameters, (str, bytes)):
        raise InterfaceError("parameters must be a sequence, not a string")
    values = list(parameters)
    out: list[str] = []
    index = 0
    used = 0
    length = len(operation)
    while index < length:
        ch = operation[index]
        if ch == "'":
            end = operation.find("'", index + 1)
            if end < 0:
                out.append(operation[index:])
                break
            out.append(operation[index : end + 1])
            index = end + 1
            continue
        if ch == "?":
            if used >= len(values):
                raise InterfaceError(
                    f"statement expects more than {len(values)} parameters"
                )
            out.append(_render_literal(values[used]))
            used += 1
            index += 1
            continue
        out.append(ch)
        index += 1
    if used != len(values):
        raise InterfaceError(
            f"statement has {used} placeholders but {len(values)} "
            "parameters were given"
        )
    return "".join(out)


# -- cursors ---------------------------------------------------------------------------


class Cursor:
    """A PEP 249 cursor over one connection.

    ``execute`` accepts whole ``;``-separated scripts (they run through
    the session's DML batch pipeline); ``description``/fetching reflect
    the script's **last** statement. Extensions beyond PEP 249, all
    read off the last statement's
    :class:`~repro.isql.session.StatementResult`: ``result`` (the last
    select's possible-worlds result object), ``applied`` (the last DML
    statement's applied/discarded flag), ``route`` (execution route),
    ``cache`` (``"hit"``/``"miss"``/``"bypass"``), and ``phases``
    (per-phase wall-clock seconds).
    """

    def __init__(self, connection: "Connection") -> None:
        self._connection = connection
        self._closed = False
        self.arraysize = 1
        self._reset()

    def _reset(self) -> None:
        self.description: tuple | None = None
        self.rowcount = -1
        self.result = None
        self.applied: bool | None = None
        self.route: str | None = None
        self.cache: str | None = None
        self.phases: dict[str, float] = {}
        self._rows: list[tuple] | None = None
        self._fetch_error: str | None = None
        self._cursor_index = 0

    def _check_open(self) -> "Connection":
        if self._closed:
            raise InterfaceError("cursor is closed")
        return self._connection._check_open()

    @property
    def connection(self) -> "Connection":
        return self._connection

    # -- execution ---------------------------------------------------------------

    def execute(self, operation: str, parameters=None) -> "Cursor":
        connection = self._check_open()
        self._reset()
        text = _substitute(operation, parameters)
        results = connection._execute_script(text)
        self._bind(results[-1] if results else None)
        return self

    def executemany(self, operation: str, seq_of_parameters) -> "Cursor":
        for parameters in seq_of_parameters:
            self.execute(operation, parameters)
        return self

    def _bind(self, last: StatementResult | None) -> None:
        if last is None:  # empty script
            return
        self.route = last.route
        self.cache = last.cache
        self.phases = dict(last.phases)
        if last.applied is not None:  # DML
            self.applied = last.applied
            return
        if last.answer is None:  # assignment / create view
            return
        self.result = last.answer
        answers = self.result.answers()
        if len(answers) != 1:
            self._fetch_error = (
                f"the answer differs across worlds ({len(answers)} "
                "variants); fetch is defined for world-uniform answers — "
                "use cursor.result.answers() / .possible() / .certain()"
            )
            return
        relation = next(iter(answers))
        self.description = tuple(
            (name, None, None, None, None, None, None)
            for name in relation.schema.attributes
        )
        self._rows = [tuple(row) for row in relation.sorted_rows()]
        self.rowcount = len(self._rows)

    # -- fetching ----------------------------------------------------------------

    def _fetchable(self) -> list[tuple]:
        self._check_open()
        if self._rows is None:
            raise ProgrammingError(
                self._fetch_error or "no rows to fetch: execute a select first"
            )
        return self._rows

    def fetchone(self):
        rows = self._fetchable()
        if self._cursor_index >= len(rows):
            return None
        row = rows[self._cursor_index]
        self._cursor_index += 1
        return row

    def fetchmany(self, size: int | None = None) -> list[tuple]:
        rows = self._fetchable()
        count = self.arraysize if size is None else size
        taken = rows[self._cursor_index : self._cursor_index + count]
        self._cursor_index += len(taken)
        return taken

    def fetchall(self) -> list[tuple]:
        rows = self._fetchable()
        taken = rows[self._cursor_index :]
        self._cursor_index = len(rows)
        return taken

    def __iter__(self):
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row

    # -- shape-only PEP 249 surface ----------------------------------------------

    def setinputsizes(self, sizes) -> None:
        pass

    def setoutputsize(self, size, column=None) -> None:
        pass

    def close(self) -> None:
        self._closed = True
        self._reset()

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# -- connections -----------------------------------------------------------------------


class Connection:
    """One client's session over a shared :class:`SnapshotStore`.

    Reads are **read-committed** by default: each statement outside a
    write transaction re-syncs the private session to the latest
    published snapshot (an O(#tables) restore, skipped when already
    current). :meth:`pin_snapshot` upgrades to snapshot isolation —
    every subsequent read sees the pinned version until
    :meth:`unpin_snapshot`. Writes take the store-wide writer lock at
    the first writing statement and hold it to commit/rollback.
    """

    def __init__(
        self,
        store: SnapshotStore,
        autocommit: bool = False,
        max_rows: int | None = None,
        max_seconds: float | None = None,
        lock_timeout: float | None = None,
    ) -> None:
        self._store = store
        self._session, self._version = store.spawn_session()
        self._session.max_rows = max_rows
        self._session.max_seconds = max_seconds
        self.autocommit = autocommit
        self.lock_timeout = lock_timeout
        self._writing = False
        self._pinned = False
        self._closed = False

    # -- introspection -----------------------------------------------------------

    @property
    def store(self) -> SnapshotStore:
        """The shared snapshot store this connection publishes to."""
        return self._store

    @property
    def session(self) -> ISQLSession:
        """The private session (escape hatch to the full I-SQL surface)."""
        return self._session

    @property
    def in_transaction(self) -> bool:
        """True while this connection holds the writer lock."""
        return self._writing

    @property
    def version(self) -> int:
        """Version of the published snapshot this connection last saw."""
        return self._version

    def _check_open(self) -> "Connection":
        if self._closed:
            raise InterfaceError("connection is closed")
        return self

    # -- statement execution -------------------------------------------------------

    def cursor(self) -> Cursor:
        self._check_open()
        return Cursor(self)

    def execute(self, operation: str, parameters=None) -> Cursor:
        """Shortcut: a fresh cursor with *operation* executed on it."""
        return self.cursor().execute(operation, parameters)

    def _sync(self) -> None:
        """Bring the private session to the latest published snapshot."""
        snapshot = self._store.latest()
        if snapshot.version != self._version:
            try:
                self._session.restore_snapshot(snapshot.state)
            except _errors.ReproError as error:
                raise _mapped(error) from error
            self._version = snapshot.version

    def _begin_write(self) -> None:
        if self._pinned:
            raise ProgrammingError(
                "cannot write while pinned to a snapshot; unpin_snapshot() first"
            )
        if self._writing:
            return
        if not self._store.acquire_write(self.lock_timeout):
            raise OperationalError(
                f"could not acquire the writer lock within {self.lock_timeout}s"
            )
        self._writing = True
        # The lock is held: latest() is now stable, so the transaction
        # starts from the newest committed state (no lost updates).
        self._sync()

    def _execute_script(self, text: str):
        self._check_open()
        try:
            statements = self._session.parse(text)
        except _errors.ReproError as error:
            raise _mapped(error) from error
        writes = any(
            not isinstance(statement, ast.SelectQuery) for statement in statements
        )
        if writes:
            self._begin_write()
        elif not self._writing and not self._pinned:
            self._sync()
        autocommit = writes and self.autocommit
        try:
            results = self._session.run(text, atomic=autocommit)
        except _errors.ReproError as error:
            if autocommit:
                # atomic=True already rolled the session back to the
                # transaction start == the latest published snapshot.
                self._writing = False
                self._store.release_write()
            raise _mapped(error) from error
        if autocommit:
            self.commit()
        return results

    # -- transactions --------------------------------------------------------------

    def commit(self) -> None:
        """Publish this connection's state as the next shared version.

        A no-op when no write transaction is open (PEP 249 allows
        commit at any time).
        """
        self._check_open()
        if not self._writing:
            return
        try:
            state = self._session.export_snapshot()
        except _errors.ReproError as error:
            raise _mapped(error) from error
        self._version = self._store.publish(state).version
        self._writing = False
        self._store.release_write()

    def rollback(self) -> None:
        """Discard the open write transaction, back to the latest version."""
        self._check_open()
        if not self._writing:
            return
        snapshot = self._store.latest()
        self._session.restore_snapshot(snapshot.state)
        self._version = snapshot.version
        self._writing = False
        self._store.release_write()

    def cache_info(self) -> CacheInfo:
        """Statement-cache counters of this connection's session.

        Connections spawned from one :class:`SnapshotStore` share a
        single pool-wide cache, so the numbers aggregate over every
        sibling connection.
        """
        self._check_open()
        return self._session.cache_info()

    # -- snapshot isolation --------------------------------------------------------

    def pin_snapshot(self) -> int:
        """Freeze reads at the latest published version; returns it.

        Until :meth:`unpin_snapshot`, selects on this connection keep
        seeing the pinned state however many commits other connections
        publish — snapshot isolation on top of the default
        read-committed. Write statements are rejected while pinned.
        """
        self._check_open()
        if self._writing:
            raise ProgrammingError("cannot pin inside a write transaction")
        self._sync()
        self._pinned = True
        return self._version

    def unpin_snapshot(self) -> None:
        """Resume read-committed syncing (the next read re-syncs)."""
        self._check_open()
        self._pinned = False

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        """Roll back any open transaction and release the session.

        Idempotent; any later use of the connection (or its cursors)
        raises :exc:`InterfaceError`.
        """
        if self._closed:
            return
        if self._writing:
            self.rollback()
        self._closed = True
        self._session.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # sqlite3-style: the context manager frames a transaction, not
        # the connection lifetime — commit on success, roll back on error.
        if not self._closed:
            if exc_type is None:
                self.commit()
            else:
                self.rollback()


# -- connect ---------------------------------------------------------------------------


def _seed_session(
    source: "str | Scenario | ISQLSession | SnapshotStore",
    backend: str,
    max_worlds: int | None,
) -> ISQLSession:
    if isinstance(source, str):
        by_name = {scenario.name: scenario for scenario in scenarios()}
        if source not in by_name:
            known = ", ".join(sorted(by_name))
            raise ProgrammingError(
                f"unknown scenario {source!r}; registered scenarios: {known}"
            )
        source = by_name[source]
    if isinstance(source, Scenario):
        session = ISQLSession(max_worlds=max_worlds, backend=backend)
        for name, relation in source.relations:
            session.register(name, relation)
        for relation, attributes in source.keys:
            session.declare_key(relation, attributes)
        if source.script:
            session.run(source.script)
        return session
    if isinstance(source, ISQLSession):
        return source
    raise InterfaceError(
        f"connect() takes a scenario name, a Scenario, an ISQLSession, or a "
        f"SnapshotStore, not {type(source).__name__}"
    )


def connect(
    source: "str | Scenario | ISQLSession | SnapshotStore",
    backend: str = "inline",
    autocommit: bool = False,
    max_worlds: int | None = None,
    max_rows: int | None = None,
    max_seconds: float | None = None,
    lock_timeout: float | None = None,
) -> Connection:
    """Open a :class:`Connection` over *source*.

    *source* is a registered scenario name or
    :class:`~repro.datagen.workloads.Scenario` (replayed on a fresh
    *backend* session), a live :class:`ISQLSession` (its current state
    becomes version 0), or an existing :class:`SnapshotStore` — connect
    to the same store from several threads to share one evolving state.
    *backend*/*max_worlds* only apply when a session is built here;
    *max_rows*/*max_seconds* arm the per-statement resource budget of
    this connection, and *lock_timeout* bounds how long a write
    statement waits for the store's writer lock before raising
    :exc:`OperationalError`. The statement cache is the seed backend's
    setting: connect over a session built with
    ``InlineBackend(cache=False)`` to run without one (see
    :meth:`Connection.cache_info`).
    """
    try:
        if isinstance(source, SnapshotStore):
            store = source
        else:
            store = SnapshotStore(_seed_session(source, backend, max_worlds))
    except _errors.ReproError as error:
        raise _mapped(error) from error
    return Connection(
        store,
        autocommit=autocommit,
        max_rows=max_rows,
        max_seconds=max_seconds,
        lock_timeout=lock_timeout,
    )


__all__ = [
    "Connection",
    "Cursor",
    "DataError",
    "DatabaseError",
    "Error",
    "IntegrityError",
    "InterfaceError",
    "InternalError",
    "NotSupportedError",
    "OperationalError",
    "ProgrammingError",
    "Warning",
    "apilevel",
    "connect",
    "paramstyle",
    "threadsafety",
]
