"""I-SQL sessions: catalog, views, key constraints, statement execution.

An :class:`ISQLSession` owns a possible-worlds state and executes
statements against it, in the style of the paper's Section 2
walk-throughs::

    session = ISQLSession()
    session.register("Company_Emp", company_emp)
    session.register("Emp_Skills", emp_skills)
    session.execute("U <- select * from Company_Emp choice of CID;")
    result = session.execute(
        "select possible CID from W where Skill = 'Web';"
    )[0]
    result.relation  # the closed answer

Assignments (``name <- query``) materialize the answer into every world
(splitting worlds if the query does), making it a base relation that
later statements can self-join with correlation. Views are lazy macros
re-expanded on every reference. Key constraints (declared through
:meth:`declare_key`) implement the DML rule of Section 3: an update
violating a constraint in *some* world is discarded in *all* worlds.

*How* the state is stored and statements are evaluated is delegated to
a pluggable :class:`repro.backend.Backend`:

* ``backend="explicit"`` (default) materializes the world-set and runs
  the Figure 3 semantics world by world;
* ``backend="inline"`` keeps the state as an inlined representation
  ⟨R₁ᵀ, …, R_kᵀ, W⟩ and compiles statements down to flat-table plans
  (Section 5), decoding to explicit worlds only on demand — selects
  *and* DML, whose subquery-bearing conditions and set expressions
  mask/rewrite the flat tables per world id;
* ``backend="inline-translate"`` is the inline backend routed through
  the literal Figure 6 relational algebra translation.

Both backends produce identical answers on every statement — the
differential suite in ``tests/backend`` enforces this.
``repro.isql.session_route(session, text)`` reports which route the
inline backend takes for a statement against the live catalog;
``docs/isql-reference.md`` tabulates the routes construct by construct.

Every script runs through one pipeline, :meth:`ISQLSession.run`: a
cached parse, then the DML batch coalescing (consecutive subquery-free
DML statements against one relation become a single backend pass —
same results, one commit per batch), then dispatch.
:meth:`ISQLSession.execute` is the same pipeline with the legacy
result shape.

Sessions are transactional. Statement execution is all-or-nothing at
statement granularity: backends commit by swapping immutable state
references, so an error inside a statement (including one injected into
a kernel op) leaves the state at the last commit. On top of that,
``run(..., atomic=True)`` / ``execute(..., atomic=True)`` back a
whole script with an O(#tables) snapshot and roll back wholesale on any
error; :meth:`ISQLSession.transaction` does the same for arbitrary
Python blocks; and :meth:`savepoint` / :meth:`rollback_to` maintain a
snapshot stack for partial retries. Per-statement resource budgets
(``max_rows`` / ``max_seconds``) are enforced cooperatively at
kernel-op boundaries (:mod:`repro.relational.guards`) and raise the
recoverable :class:`~repro.errors.ResourceLimitError`. Any non-library
exception escaping a statement — a bug or an injected fault — surfaces
as :class:`~repro.errors.EvaluationError` with the original as its
``__cause__``, so callers only ever see ``ReproError`` subclasses.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.backend.base import Backend, BaseQueryResult, ExecutionContext, create_backend
from repro.backend.explicit import QueryResult
from repro.backend.instrument import active_collector, collect_phases, phase
from repro.cache import MISS, CacheInfo
from repro.errors import EvaluationError, OwnershipError, ReproError, SchemaError
from repro.isql import ast
from repro.isql.parser import parse_script
from repro.relational.guards import guarded
from repro.relational.relation import Relation, clear_intern_pool
from repro.worlds.worldset import WorldSet


class DMLResult:
    """The outcome of insert/update/delete: applied or discarded."""

    __slots__ = ("applied", "kind")

    def __init__(self, applied: bool, kind: str) -> None:
        self.applied = applied
        self.kind = kind

    def __repr__(self) -> str:
        status = "applied" if self.applied else "discarded (constraint violation)"
        return f"DMLResult({self.kind}: {status})"


#: StatementResult / DMLResult kind labels per statement node.
_KINDS = {
    ast.SelectQuery: "select",
    ast.Assignment: "assign",
    ast.CreateView: "view",
    ast.Insert: "insert",
    ast.Delete: "delete",
    ast.Update: "update",
}


@dataclass(frozen=True)
class StatementResult:
    """The unified outcome of one executed statement.

    :meth:`ISQLSession.run` returns one per statement, replacing the
    three historical shapes — the heterogeneous
    ``BaseQueryResult | DMLResult | None`` entries of
    :meth:`ISQLSession.execute`, bare
    backend returns, and the DBAPI cursor's ad-hoc attributes — with
    one dataclass carrying the answer, the execution route, the
    applied flag, per-statement phase timings, and how the statement
    cache treated the statement. (The old shapes keep working but are
    deprecated as return-value protocols; new code should go through
    ``run()`` / the DBAPI cursor.)

    Backward-compatible accessors: ``kind``/``applied`` match the old
    :class:`DMLResult` surface, and :attr:`relation` /
    :meth:`answers` / :meth:`possible` / :meth:`certain` /
    :meth:`world_count` delegate to :attr:`answer` so select-handling
    code ports by attribute access alone.
    """

    #: "select" | "assign" | "view" | "insert" | "delete" | "update"
    kind: str
    #: The select answer, or None for assignments/views/DML.
    answer: BaseQueryResult | None = None
    #: DML applied flag (Section 3 discard rule); None for non-DML.
    applied: bool | None = None
    #: Execution route: the backend kind, or "fallback" when the inline
    #: backend routed the statement to the explicit engine.
    route: str = "explicit"
    #: How the statement cache treated this statement:
    #: "hit" (plan and/or memo served), "miss" (compiled fresh, now
    #: cached), or "bypass" (cache off / never-cached statement kind).
    cache: str = "bypass"
    #: Wall-clock seconds by phase (compile/rewrite/execute/dml_apply/
    #: cache_lookup/…). Statements coalesced into one DML batch share
    #: one timing dict — the batch is a single backend pass.
    phases: Mapping[str, float] = field(default_factory=dict, compare=False)

    @property
    def applied_count(self) -> int:
        """1 when DML applied, 0 when discarded or not DML."""
        return 1 if self.applied else 0

    @property
    def relation(self):
        """The closed answer relation (selects only)."""
        return self._answer().relation

    def answers(self):
        return self._answer().answers()

    def possible(self):
        return self._answer().possible()

    def certain(self):
        return self._answer().certain()

    def world_count(self) -> int:
        return self._answer().world_count()

    def _answer(self) -> BaseQueryResult:
        if self.answer is None:
            raise EvaluationError(
                f"{self.kind} statements produce no answer relation"
            )
        return self.answer

    def __repr__(self) -> str:
        status = "" if self.applied is None else (
            ": applied" if self.applied else ": discarded"
        )
        return (
            f"StatementResult({self.kind}{status}, route={self.route!r}, "
            f"cache={self.cache!r})"
        )


class _SessionState:
    """One snapshot of everything a statement can mutate.

    The backend token is O(#tables) reference captures (state objects
    are immutable; commits swap references); the views and keys dicts —
    the only mutable session-level state — are shallow-copied (their
    values are immutable AST nodes and tuples).
    """

    __slots__ = ("backend_state", "views", "keys")

    def __init__(
        self,
        backend_state: object,
        views: dict[str, ast.SelectQuery],
        keys: dict[str, tuple[str, ...]],
    ) -> None:
        self.backend_state = backend_state
        self.views = views
        self.keys = keys


class Savepoint:
    """A named point on the session's snapshot stack.

    Returned by :meth:`ISQLSession.savepoint`; pass it back to
    :meth:`ISQLSession.rollback_to` (which keeps it, so it can be
    rolled back to again) or :meth:`ISQLSession.release` (which drops
    it without restoring). Tokens compare by identity.
    """

    __slots__ = ("name", "_state")

    def __init__(self, name: str | None, state: _SessionState) -> None:
        self.name = name
        self._state = state

    def __repr__(self) -> str:
        return f"Savepoint({self.name!r})" if self.name else "Savepoint()"


class ISQLSession:
    """An interactive I-SQL session over a possible-worlds state.

    *backend* selects the evaluation strategy (``"explicit"``,
    ``"inline"``, ``"inline-translate"``, or a
    :class:`~repro.backend.Backend` instance); *max_worlds* aborts any
    statement whose evaluation would exceed that many worlds.
    *max_rows* / *max_seconds* are per-statement resource budgets
    checked cooperatively at every kernel-op boundary: a statement
    whose cumulative op input rows exceed *max_rows*, or that runs past
    *max_seconds*, aborts with the recoverable
    :class:`~repro.errors.ResourceLimitError` — state stays at the last
    commit and the session remains usable. Both may also be assigned
    after construction; each statement reads them afresh. The statement
    cache belongs to the backend and is switched there alone
    (``InlineBackend(cache=False)``); :meth:`fork` and the service
    layer's pooled sessions inherit the setting. Sessions are
    context managers — ``with ISQLSession(...) as s:`` releases cached
    derived state on exit (see :meth:`close`).
    """

    def __init__(
        self,
        max_worlds: int | None = None,
        backend: str | Backend = "explicit",
        max_rows: int | None = None,
        max_seconds: float | None = None,
    ) -> None:
        self.backend = create_backend(backend)
        self.views: dict[str, ast.SelectQuery] = {}
        self.keys: dict[str, tuple[str, ...]] = {}
        self.max_worlds = max_worlds
        self.max_rows = max_rows
        self.max_seconds = max_seconds
        self._savepoints: list[Savepoint] = []
        #: Thread ident this session is pinned to, or None (unpinned).
        self._owner_thread: int | None = None

    # -- thread ownership ------------------------------------------------------------

    def pin_thread(self, ident: int | None = None) -> None:
        """Restrict this session to one thread (default: the caller's).

        After pinning, any statement, snapshot, or restore attempted
        from a different thread raises
        :class:`~repro.errors.OwnershipError` instead of racing on the
        session's mutable references. The service-layer pool pins each
        session to the thread that acquired it and unpins on release.
        """
        self._owner_thread = threading.get_ident() if ident is None else ident

    def unpin_thread(self) -> None:
        """Lift the thread restriction set by :meth:`pin_thread`."""
        self._owner_thread = None

    def _check_thread(self) -> None:
        owner = self._owner_thread
        if owner is not None and owner != threading.get_ident():
            raise OwnershipError(
                f"session is pinned to thread {owner}; "
                f"it cannot be used from thread {threading.get_ident()}"
            )

    def _context(self) -> ExecutionContext:
        return ExecutionContext(self.views, self.keys, self.max_worlds)

    def cache_info(self) -> CacheInfo:
        """Aggregate statement-cache counters (hits, misses, entries,
        invalidations, bytes estimate) of this session's backend."""
        return self.backend.cache_info()

    # -- catalog ------------------------------------------------------------------

    @property
    def world_set(self) -> WorldSet:
        """The session state as an explicit world-set.

        On the inline backend this *decodes* the representation — it is
        a debugging/inspection aid, not part of the evaluation path.
        """
        return self.backend.to_world_set()

    def register(self, name: str, relation: Relation) -> None:
        """Add a complete relation to every world of the session."""
        if name in self.views:
            raise SchemaError(f"{name!r} already names a view")
        if name in self.backend.relation_names():
            raise SchemaError(f"relation {name!r} already exists")
        self.backend.register(name, relation)

    def declare_key(self, relation: str, attributes: tuple[str, ...] | list[str]) -> None:
        """Declare a key constraint used by the DML discard rule."""
        self.keys[relation] = tuple(attributes)

    def relation_names(self) -> tuple[str, ...]:
        return self.backend.relation_names()

    def world_count(self) -> int:
        return self.backend.world_count()

    # -- execution -------------------------------------------------------------------

    def execute(
        self, script: str, atomic: bool = False
    ) -> list[BaseQueryResult | DMLResult | None]:
        """:meth:`run` with the legacy result shape; one entry per statement.

        Each entry is the select's answer, a :class:`DMLResult`, or
        None for assignments and views. *atomic* behaves as in
        :meth:`run`.

        .. deprecated:: the heterogeneous
           ``BaseQueryResult | DMLResult | None`` result shape. It keeps
           working, but new code should call :meth:`run`, whose
           :class:`StatementResult` entries carry the same information
           uniformly (plus route, cache disposition, and phase timings).
        """
        return [
            DMLResult(result.applied, result.kind)
            if result.applied is not None
            else result.answer
            for result in self.run(script, atomic)
        ]

    def parse(self, script: str) -> tuple[ast.Statement, ...]:
        """Parse *script*, through the backend's parse cache when it has one.

        The cache key is the raw script text; the cached value is the
        (immutable) statement tuple, so a hot script skips tokenizing
        and parsing entirely on its second run.
        """
        store = getattr(self.backend, "cache", None)
        if store is not None:
            with phase("cache_lookup"):
                hit = store.parses.get(script)
            if hit is not MISS:
                return hit
        with phase("compile"):
            statements = tuple(parse_script(script))
        if store is not None:
            store.parses.put(script, statements)
        return statements

    def run(self, script: str, atomic: bool = False) -> list[StatementResult]:
        """Execute a ``;``-separated script; one :class:`StatementResult` each.

        The one statement pipeline: the script is parsed through the
        parse cache (:meth:`parse`), then maximal runs of **consecutive
        subquery-free DML statements against the same relation**
        coalesce into one ``backend.run_dml_batch`` call — the inline
        backend applies the whole run in a single pass over the flat
        table (one id expansion, one commit, one representation
        validation per batch), while every other backend inherits the
        statement-at-a-time default. Results are row-for-row (and
        flag-for-flag) those of statement-at-a-time execution; only the
        cost changes. Every other statement runs alone. Each entry
        carries the answer (selects), the applied flag (DML), the
        execution route, the cache disposition
        (``"hit"``/``"miss"``/``"bypass"``), and phase timings.

        On a mid-script error the default keeps the committed prefix:
        every statement before the failing one (and, inside a failing
        batch, every statement the batch had fully applied) stays
        committed, and the failing statement itself is all-or-nothing.
        With ``atomic=True`` the script runs under one snapshot and any
        error rolls back to the pre-script state.
        """
        statements = self.parse(script)
        backend = self.backend
        outer = active_collector()
        results: list[StatementResult] = []
        with self.transaction() if atomic else nullcontext():
            index = 0
            while index < len(statements):
                batch = self._dml_batch_at(statements, index)
                fallbacks = getattr(backend, "fallback_total", 0)
                phases: dict[str, float] = {}
                with collect_phases(phases):
                    try:
                        outcomes = self._execute_batch(batch)
                    except ReproError as error:
                        _annotate_statement(error, batch, script)
                        raise
                if outer is not None:
                    # Per-statement timings also accumulate into an
                    # enclosing collect_phases() collector (e.g. a
                    # benchmark's), which the inner one shadowed.
                    for name, seconds in phases.items():
                        outer[name] = outer.get(name, 0.0) + seconds
                route = backend.kind
                if getattr(backend, "fallback_total", 0) > fallbacks:
                    route = "fallback"
                results.extend(
                    StatementResult(
                        kind=_KINDS[type(statement)],
                        answer=(
                            outcome if isinstance(outcome, BaseQueryResult) else None
                        ),
                        applied=outcome if isinstance(outcome, bool) else None,
                        route=route,
                        cache=backend.last_cache,
                        phases=phases,
                    )
                    for statement, outcome in zip(batch, outcomes)
                )
                index += len(batch)
        return results

    @staticmethod
    def _batchable(statement: ast.Statement) -> bool:
        """Subquery-free DML: evaluable in one flat pass, no match plan."""
        if isinstance(statement, ast.Insert):
            return True
        if isinstance(statement, ast.Delete):
            return not ast.condition_subqueries(statement.where)
        if isinstance(statement, ast.Update):
            return not ast.condition_subqueries(statement.where) and not any(
                ast.expression_subqueries(clause.expression)
                for clause in statement.settings
            )
        return False

    @classmethod
    def _dml_batch_at(
        cls, statements: tuple[ast.Statement, ...], index: int
    ) -> tuple[ast.Statement, ...]:
        """The maximal batchable run starting at *index* (may be one)."""
        first = statements[index]
        end = index + 1
        if cls._batchable(first):
            while (
                end < len(statements)
                and cls._batchable(statements[end])
                and statements[end].relation == first.relation
            ):
                end += 1
        return statements[index:end]

    def _execute_batch(
        self, batch: tuple[ast.Statement, ...]
    ) -> list[BaseQueryResult | bool | None]:
        """One backend pass, protected and budgeted; an outcome per statement.

        A run of two or more statements goes to ``run_dml_batch``; a
        single statement is dispatched alone. Outcomes are the select
        answer, the DML applied flag, or None (assignment, view).
        """
        self.backend.last_cache = "bypass"
        if len(batch) >= 2:
            return self._protected(
                "dml batch",
                lambda: self.backend.run_dml_batch(batch, self._context()),
            )
        statement = batch[0]
        kind = type(statement).__name__.lower()
        return [
            self._protected(f"{kind} statement", lambda: self._dispatch(statement))
        ]

    def execute_statement(
        self, statement: ast.Statement
    ) -> BaseQueryResult | DMLResult | None:
        """Execute one parsed statement, protected and budgeted.

        Runs under the session's resource budget (``max_rows`` /
        ``max_seconds``) and the exception-hygiene net: any non-library
        exception — a backend bug, a numpy error inside the array
        kernel, an injected fault — is re-raised as
        :class:`~repro.errors.EvaluationError` with the original
        exception chained as ``__cause__``, so the public API only ever
        surfaces ``ReproError`` subclasses. Either way the statement is
        all-or-nothing: backends commit by reference swap, so an error
        leaves the session state at the last commit.
        """
        (outcome,) = self._execute_batch((statement,))
        if isinstance(outcome, bool):
            return DMLResult(outcome, _KINDS[type(statement)])
        return outcome

    def _protected(self, kind: str, run):
        self._check_thread()
        with guarded(self.max_rows, self.max_seconds):
            try:
                return run()
            except ReproError:
                raise
            except Exception as error:
                raise EvaluationError(
                    f"internal error while executing {kind}: {error!r}"
                ) from error

    def _dispatch(self, statement: ast.Statement) -> BaseQueryResult | bool | None:
        context = self._context()
        if isinstance(statement, ast.SelectQuery):
            return self.backend.run_select(statement, context)
        if isinstance(statement, (ast.Assignment, ast.CreateView)):
            if (
                statement.name in self.backend.relation_names()
                or statement.name in self.views
            ):
                raise SchemaError(f"{statement.name!r} already exists")
            if isinstance(statement, ast.Assignment):
                self.backend.assign(statement.name, statement.query, context)
            else:
                self.views[statement.name] = statement.query
            return None
        if isinstance(statement, ast.Insert):
            return self.backend.run_insert(statement, context)
        if isinstance(statement, ast.Delete):
            self.backend.run_delete(statement, context)
            return True
        if isinstance(statement, ast.Update):
            return self.backend.run_update(statement, context)
        raise EvaluationError(f"unsupported statement {type(statement).__name__}")

    def query(self, text: str) -> BaseQueryResult:
        """Execute a single select statement and return its result."""
        results = self.execute(text)
        if len(results) != 1 or not isinstance(results[0], BaseQueryResult):
            raise EvaluationError("query() expects exactly one select statement")
        return results[0]

    # -- transactions ----------------------------------------------------------------

    def _snapshot(self) -> _SessionState:
        self._check_thread()
        return _SessionState(
            self.backend.snapshot(), dict(self.views), dict(self.keys)
        )

    def _restore(self, state: _SessionState) -> None:
        self._check_thread()
        with phase("rollback"):
            self.backend.restore(state.backend_state)
            # Copy on the way back too: a savepoint may be rolled back
            # to repeatedly, and later statements must not mutate the
            # dicts its snapshot holds.
            self.views = dict(state.views)
            self.keys = dict(state.keys)

    @contextmanager
    def transaction(self) -> Iterator["ISQLSession"]:
        """All-or-nothing block: roll back to entry state on any error.

        Snapshots the session on entry (O(#tables) — state objects are
        immutable and commits swap references) and restores it if the
        block raises; on normal exit the work stays committed. Covers
        everything a statement can change: the possible-worlds state,
        views, and declared keys. Nests naturally — each level holds
        its own snapshot — and savepoints created inside a rolled-back
        block are discarded with it.
        """
        state = self._snapshot()
        depth = len(self._savepoints)
        try:
            yield self
        except BaseException:
            self._restore(state)
            del self._savepoints[depth:]
            raise

    def savepoint(self, name: str | None = None) -> Savepoint:
        """Push the current state onto the snapshot stack.

        Returns a :class:`Savepoint` token for :meth:`rollback_to` /
        :meth:`release`. Savepoints are cheap (reference captures), so
        a script runner can drop one before every risky batch.
        """
        token = Savepoint(name, self._snapshot())
        self._savepoints.append(token)
        return token

    def rollback_to(self, savepoint: Savepoint) -> None:
        """Restore the state captured by *savepoint*.

        The savepoint itself stays on the stack (it can be rolled back
        to again); savepoints created after it are discarded, like
        SQL's ``ROLLBACK TO SAVEPOINT``. Raises
        :class:`~repro.errors.EvaluationError` for a token that was
        released, rolled past, or belongs to another session.
        """
        try:
            index = self._savepoints.index(savepoint)
        except ValueError:
            raise EvaluationError(
                f"unknown or released savepoint {savepoint!r}"
            ) from None
        self._restore(savepoint._state)
        del self._savepoints[index + 1 :]

    def release(self, savepoint: Savepoint) -> None:
        """Drop *savepoint* (and any later ones) without restoring.

        The work since the savepoint stays committed; the token just
        stops being a rollback target.
        """
        try:
            index = self._savepoints.index(savepoint)
        except ValueError:
            raise EvaluationError(
                f"unknown or released savepoint {savepoint!r}"
            ) from None
        del self._savepoints[index:]

    # -- snapshot export (service layer) ---------------------------------------------

    def export_snapshot(self) -> _SessionState:
        """The full session state as an opaque O(#tables) token.

        Covers everything a statement can change — possible-worlds
        state, views, declared keys. The token is immutable and sharable
        across sessions of the same backend kind: pass it to another
        session's :meth:`restore_snapshot` (or :meth:`fork` a session
        from it implicitly) and both sessions see the same state while
        sharing every underlying table object. This is the copy-on-write
        handoff :mod:`repro.service.snapshots` publishes to concurrent
        readers.
        """
        return self._snapshot()

    def restore_snapshot(self, state: _SessionState) -> None:
        """Reset this session to an :meth:`export_snapshot` token.

        O(#tables) reference swaps; the savepoint stack is left alone
        (tokens keep meaning "the state when they were taken").
        """
        self._restore(state)

    def fork(self) -> "ISQLSession":
        """A new independent session seeing this session's current state.

        The clone gets a fresh backend of the same kind and
        configuration (:meth:`repro.backend.Backend.spawn`) restored to
        this session's snapshot, plus copies of the views/keys dicts and
        the same ``max_worlds``/``max_rows``/``max_seconds`` settings.
        Because state objects are immutable and commits swap references,
        the clone shares all current table objects with its parent but
        diverges freely from the first statement either side runs —
        copy-on-write session cloning, O(#tables). The clone starts
        unpinned with an empty savepoint stack.
        """
        clone = ISQLSession(
            max_worlds=self.max_worlds,
            backend=self.backend.spawn(),
            max_rows=self.max_rows,
            max_seconds=self.max_seconds,
        )
        clone._restore(self._snapshot())
        return clone

    # -- resource hygiene ----------------------------------------------------------

    def close(self) -> None:
        """Release cached derived state held by this session.

        Clears the backend's per-relation hash indexes, cached hashes,
        columnar twins and decoded world-sets, plus the process-global
        row intern pool, so long-lived multi-session processes do not
        accumulate state from sessions they are done with. The backend
        also *detaches* from its statement cache (dropping this
        session's reference to memoized relations without clearing a
        pool-shared instance under its siblings). The session stays
        usable afterwards — every cache rebuilds on demand; the
        registered relations and the possible-worlds state are kept.

        Note the intern pool is process-wide (there is exactly one, by
        design — interning only works across sessions if shared):
        clearing it also resets row sharing for *other* live sessions.
        That is always correctness-neutral and the pool re-interns
        lazily, but a process juggling concurrent hot sessions may
        prefer closing only at quiet points.

        Close is idempotent and safe at any point — double-close, close
        after a mid-script error, close inside an open
        :meth:`transaction` block all work. The savepoint stack is
        dropped (its snapshots pin pre-rollback state that would
        otherwise stay reachable); outstanding :class:`Savepoint`
        tokens become invalid.
        """
        self._savepoints.clear()
        self.backend.close()
        clear_intern_pool()

    def __enter__(self) -> "ISQLSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _annotate_statement(
    error: ReproError, batch: tuple[ast.Statement, ...], script: str
) -> None:
    """Attach the failing DML statements' source text to *error*.

    DML nodes carry their source span (the parser records it); schema
    and evaluation errors raised while applying them gain a note
    quoting the statement — or, for a coalesced batch, the whole run
    from its first statement through its last, since the batch
    pipeline reports one error for the run — so a failure inside a
    long script names its culprit. Non-DML statements (no span) and
    errors that already carry a statement note pass through unchanged.
    """
    first = getattr(batch[0], "span", None)
    last = getattr(batch[-1], "span", None)
    if first is None or last is None:
        return
    notes = getattr(error, "__notes__", ())
    if any(note.startswith("while executing: ") for note in notes):
        return
    error.add_note(f"while executing: {script[first[0]:last[1]]}")


__all__ = [
    "DMLResult",
    "ISQLSession",
    "QueryResult",
    "Savepoint",
    "StatementResult",
]
