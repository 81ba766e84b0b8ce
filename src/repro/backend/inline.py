"""The inline backend: I-SQL over the inlined representation (Section 5).

The session state is an :class:`InlinedRepresentation`
⟨R₁ᵀ, …, R_kᵀ, W⟩ — one flat table per relation, tagged with world-id
attributes, plus the world table W — and is **never** enumerated into
explicit worlds during evaluation. A statement runs through the layered
pipeline of the paper's concluding vision::

    I-SQL ──isql.compile──▶ world-set algebra
          ──optimizer.rewriter──▶ rewritten plan (Figure 7 equivalences)
          ──inline.physical / inline.translate──▶ flat-table evaluation
          ──decode (only on demand)──▶ explicit worlds

Two evaluation strategies implement the last-but-one arrow:

* ``"physical"`` (default) — the dedicated physical operators of
  :mod:`repro.inline.physical`, seeded with the session's world table;
  supports everything in the algebra fragment including repair-by-key.
* ``"translate"`` — the literal Figure 6 translation
  (:mod:`repro.inline.translate`) composed into one relational algebra
  DAG and evaluated by :mod:`repro.relational.algebra`; falls back to
  the physical operators where relational algebra cannot reach
  (repair-by-key, Proposition 4.2).

The compiled fragment covers the whole Figure 1 select surface — SQL
aggregation (a world-grouped flat aggregation), ``[not] in`` /
``[not] exists`` condition subqueries (decorrelated into semijoins and
antijoins, including under ``or`` as a union of per-disjunct chains),
comparisons against scalar subqueries (aggregate or bare-column, the
latter through the ``single`` pseudo-aggregate with a runtime
cardinality guard), and ``group worlds by ⟨subquery⟩`` (subquery-keyed
world grouping) — so those statements never enumerate worlds either.
DML runs flat too: ``delete``/``update`` conditions and ``update`` set
expressions with (world-local) subqueries compile to a match plan whose
per-world-id answer masks or rewrites the flat table directly — no
``_reinline`` round-trip. Only the genuinely row-at-a-time residue
falls back to the explicit engine on the decoded world-set (assignments
re-inline the result): non-column ``in`` needles, scalar subqueries of
other shapes (or under ``or``, where the cardinality guard cannot stay
as lazy as the engine's short-circuit), correlated subqueries that are
themselves complex, disjunctions over an already-world-splitting outer
plan, DML subqueries that are not world-local, and select columns
outside the GROUP BY key.
``fallback_events`` records those statements (kind, reason, clause,
source span), bounded to the most recent :data:`FALLBACK_EVENT_LIMIT`
so a long-lived session's diagnostics cannot grow without bound.

``possible``/``certain`` closings are answered directly from the flat
answer table (a projection, resp. a division by W); worlds are decoded
only when a caller explicitly asks for ``.world_set``.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from repro.backend.base import Backend, BaseQueryResult, ExecutionContext
from repro.backend.explicit import QueryResult
from repro.backend.instrument import phase
from repro.cache import MISS, CacheInfo, StatementCache
from repro.errors import (
    EvaluationError,
    RewriteError,
    SchemaError,
    TranslationError,
    TypingError,
    WorldLimitError,
)
from repro.inline.factors import FactoredWorld
from repro.inline.physical import (
    PhysicalState,
    decode_extension,
    evaluate_seeded,
    factored_certain_rows,
    match_answers_to_session_worlds,
)
from repro.inline.representation import InlinedRepresentation
from repro.inline.translate import translate_general
from repro.isql import ast
from repro.isql.compile import (
    FragmentError,
    compile_delete,
    compile_query,
    compile_update,
)
from repro.isql.engine import Engine, _Resolver
from repro.optimizer.rewriter import optimize as rewrite_plan
from repro.relational import predicates
from repro.relational.guards import checkpoint
from repro.relational.array_kernel import (
    ArrayRelation,
    _distinct_count,
    _first_rows,
    as_array,
)
from repro.relational.columnar import (
    ColumnarRelation,
    as_columnar,
    as_tuple,
    kernel_ops,
    resolve_kernel,
    tuples_of,
)
from repro.relational.pad import PAD
from repro.relational.relation import Relation, tuple_getter
from repro.relational.schema import Schema
from repro.worlds.worldset import WorldSet, fresh_name

#: Most recent fallback events a session retains (diagnostics only —
#: an unbounded list would grow forever in a long residue-heavy session).
FALLBACK_EVENT_LIMIT = 64


class FallbackEvent(NamedTuple):
    """One fallback-route diagnostic.

    ``event[0]``/``event[1]`` still read the historical (kind, reason)
    positions, but this is a 4-tuple — code that unpacked the old pair
    must index or use the field names.
    """

    kind: str
    reason: str
    clause: str | None = None
    span: tuple[int, int] | None = None


class InlineQueryResult(BaseQueryResult):
    """A select outcome held as flat tables; worlds decoded on demand."""

    __slots__ = ("_representation", "_state", "name", "_decoded")

    def __init__(
        self,
        representation: InlinedRepresentation,
        state: PhysicalState,
        name: str,
    ) -> None:
        self._representation = representation
        self._state = state
        self.name = name
        self._decoded: WorldSet | None = None

    def answers(self) -> frozenset[Relation]:
        return frozenset(self._state.answers_by_world().values())

    def possible(self) -> Relation:
        """poss closure straight off the flat answer table: π_U(Rᵀ)."""
        state = self._state
        return as_tuple(state._answer.project(state.value_attributes()))

    def certain(self) -> Relation:
        """cert closure straight off the flat answer table: Rᵀ ÷ W.

        Over a factored world the division runs factor by factor when
        the answer has the repair shape (a value is certain iff an
        all-PAD row holds it or some factor picks it in every choice);
        otherwise the state expands to joint ids first.
        """
        state = self._state
        if isinstance(state._world, FactoredWorld):
            rows = factored_certain_rows(state)
            if rows is not None:
                return Relation._raw(
                    Schema(state.value_attributes()), list(rows)
                )
            state = state.plain()
        return as_tuple(state._answer.divide(state._world_or_unit_any()))

    @property
    def world_set(self) -> WorldSet:
        if self._decoded is None:
            with phase("decode"):
                self._decoded = decode_extension(
                    self._representation, self._state, self.name
                )
        return self._decoded

    def world_count(self) -> int:
        """Distinct result worlds, from fingerprints — no decoding.

        A result world is a (base world, answer) pair; equal pairs
        collapse like they would in the explicit world-set.
        """
        if self._decoded is not None:
            return len(self._decoded)
        if not self._state.ids:
            # A world-uniform answer pairs the same relation with every
            # base world, so distinct result worlds = distinct session
            # worlds — which a factored representation counts as a
            # product of per-factor counts, never enumerating ids.
            return self._representation.distinct_world_count()
        fingerprints = self._representation.world_fingerprints()
        by_shared, shared_in_session = match_answers_to_session_worlds(
            self._representation, self._state.plain()
        )
        pairs = set()
        for session_world_id, fingerprint in fingerprints.items():
            key = tuple(session_world_id[p] for p in shared_in_session)
            for answer_relation in by_shared.get(key, ()):
                pairs.add((fingerprint, answer_relation))
        return len(pairs)

    def __repr__(self) -> str:
        return (
            f"InlineQueryResult({self.name!r}, "
            f"{len(self._state._world_or_unit_any())} world ids)"
        )


def _carrying_versions(
    replacement: InlinedRepresentation,
    source: InlinedRepresentation,
    added: str,
) -> InlinedRepresentation:
    """Carry *source*'s table/world versions onto a same-worlds commit.

    Constructing an :class:`InlinedRepresentation` mints fresh versions
    for every table, which would invalidate the whole result memo. A
    commit that only *adds* a table (``register``, a world-preserving
    assignment) leaves the existing tables and the world table
    untouched, so their versions carry over verbatim; only the added
    name keeps its fresh mint.
    """
    versions = dict(source.versions)
    versions[added] = replacement.versions[added]
    replacement.versions = versions
    replacement.world_version = source.world_version
    return replacement


class InlineBackend(Backend):
    """Session state as an inlined representation; flat-table evaluation."""

    kind = "inline"

    def __init__(
        self,
        representation: InlinedRepresentation | None = None,
        strategy: str = "physical",
        rewrite: bool = True,
        kernel: str | None = None,
        cache: "bool | StatementCache" = True,
    ) -> None:
        if strategy not in ("physical", "translate"):
            raise EvaluationError(
                f"unknown inline strategy {strategy!r}; "
                "expected 'physical' or 'translate'"
            )
        if kernel is not None:
            kernel_ops(kernel)  # validate (and load) eagerly
        self.representation = (
            representation
            if representation is not None
            else InlinedRepresentation.initial()
        )
        self.strategy = strategy
        self.rewrite = rewrite
        #: Pinned kernel, or None to follow ``REPRO_KERNEL`` per statement.
        self.kernel = kernel
        #: The statement cache: a private StatementCache (``cache=True``),
        #: a shared one (``spawn()`` hands the parent's instance to every
        #: child, making it pool-wide), or None (``cache=False``).
        if cache is True:
            self.cache: StatementCache | None = StatementCache()
        elif cache is False or cache is None:
            self.cache = None
        elif isinstance(cache, StatementCache):
            self.cache = cache
        else:
            raise EvaluationError(
                f"cache must be True, False, or a StatementCache, got {cache!r}"
            )
        #: How the cache treated the most recent statement (see Backend).
        self.last_cache = "bypass"
        #: Total fallback-route statements over the session's lifetime
        #: (fallback_events keeps only the newest FALLBACK_EVENT_LIMIT).
        self.fallback_total = 0
        #: Recent fallback-route events: (kind, reason, clause, span).
        #: Bounded — a long session keeps only the newest
        #: FALLBACK_EVENT_LIMIT diagnostics; ``close()`` clears them.
        self.fallback_events: deque[FallbackEvent] = deque(
            maxlen=FALLBACK_EVENT_LIMIT
        )
        self._counter = 0
        self._decoded: WorldSet | None = None

    @property
    def resolved_kernel(self) -> str:
        """The kernel the next statement will evaluate with."""
        return resolve_kernel(self.kernel)

    # -- catalog ------------------------------------------------------------------

    def register(self, name: str, relation: Relation) -> None:
        # A complete relation is the same in every world, so it is
        # stored without id columns (the lazy interpretation) — no
        # replication however many worlds the session already has.
        rep = self.representation
        self._commit(
            _carrying_versions(
                InlinedRepresentation(
                    tuple(rep.tables.items()) + ((name, relation),),
                    rep._world_table,
                    rep.id_attrs,
                    factors=rep.factors,
                    wild_attrs=rep.wild_attrs,
                ),
                rep,
                name,
            )
        )

    def relation_names(self) -> tuple[str, ...]:
        return self.representation.tables.names

    def schemas(self) -> dict[str, tuple[str, ...]]:
        return self._value_schemas()

    def world_count(self) -> int:
        return self.representation.distinct_world_count()

    def to_world_set(self) -> WorldSet:
        if self._decoded is None:
            with phase("decode"):
                self._decoded = self.representation.rep()
        return self._decoded

    def close(self) -> None:
        """Drop decoded worlds and per-relation cached state.

        The inlined representation itself is kept — it *is* the session
        state — but hash indexes, cached hashes, and columnar twins of
        its tables (and of the world table) rebuild on demand. The
        fallback-event log is dropped too; it exists for diagnostics of
        statements already executed.

        The statement cache is **detached**, not cleared: a retired
        session must stop pinning memoized relations, but when the
        instance is shared pool-wide (``spawn()``), clearing would wipe
        the siblings' entries. The replacement keeps the configured
        bounds, so a reused session caches again from empty.
        """
        self._decoded = None
        self.fallback_events.clear()
        if self.cache is not None:
            self.cache = StatementCache(
                plan_entries=self.cache.plans.maxsize,
                memo_entries=self.cache.memo.maxsize,
                parse_entries=self.cache.parses.maxsize,
            )
        rep = self.representation
        for _, relation in rep.tables.items():
            relation.clear_caches()
        if rep.factors is not None:
            # Never *materialize* the joint table just to clear it.
            for factor in rep.factors.factors:
                factor.clear_caches()
            if rep._world_table is not None:
                rep._world_table.clear_caches()
        else:
            rep.world_table.clear_caches()

    def _commit(self, representation: InlinedRepresentation) -> None:
        self.representation = representation
        self._decoded = None

    def snapshot(self) -> object:
        """Capture (representation, decoded world-set): two references.

        The representation and its tables are immutable and commits are
        reference swaps (:meth:`_commit`), so this is O(#tables) — the
        cheap-snapshot property the transactional session layer builds
        on. The decoded world-set rides along so a rollback does not
        throw away a decode the snapshot point had already paid for.
        """
        return (self.representation, self._decoded)

    def restore(self, token: object) -> None:
        self.representation, self._decoded = token

    def spawn(self) -> "InlineBackend":
        """A fresh backend sharing no mutable state, same configuration.

        Carries strategy/rewrite/kernel across (the base default would
        lose them). The new backend starts from the empty initial
        representation; the service layer immediately :meth:`restore`\\ s
        a snapshot token into it, which *shares* the immutable tables of
        the source representation — the copy-on-write handoff that makes
        pooled sessions O(#tables) to create. The statement cache is
        passed **by reference**: every session forked from one template
        shares the same plan cache and result memo (lock-cheap — see
        :mod:`repro.cache`), so compilation amortizes pool-wide.
        """
        return InlineBackend(
            strategy=self.strategy,
            rewrite=self.rewrite,
            kernel=self.kernel,
            cache=self.cache if self.cache is not None else False,
        )

    def cache_info(self) -> CacheInfo:
        """Aggregate hit/miss/entry counters of the statement cache."""
        if self.cache is None:
            return CacheInfo.empty()
        return self.cache.info()

    def _fresh_name(self, stem: str = "Q") -> str:
        return fresh_name(self.relation_names(), stem)

    # -- the compile → rewrite → evaluate pipeline ------------------------------------

    def _value_schemas(self) -> dict[str, tuple[str, ...]]:
        rep = self.representation
        return {name: rep.value_attributes(name) for name in rep.tables}

    def _catalog_key(self, context: ExecutionContext) -> tuple:
        """The schema/view epoch a compiled plan is valid for.

        Value schemas (in catalog order) plus the view definitions: the
        exact inputs of :func:`compile_query` besides the statement
        itself. Assignments, registrations, and view changes shift this
        key, so a plan compiled against the old catalog can never be
        served against the new one.
        """
        rep = self.representation
        return (
            tuple((name, rep.value_attributes(name)) for name in rep.tables),
            tuple(sorted(context.views.items())),
        )

    def _world_kind(self) -> str:
        """The one-vs-many-worlds bit the rewriter specializes plans on."""
        if not self.rewrite:
            return "-"
        return "1" if self.representation.world_count() <= 1 else "m"

    def _plan_key(self, tag: str, statement, context: ExecutionContext) -> tuple:
        return (
            tag,
            statement,
            self._catalog_key(context),
            self.strategy,
            self.rewrite,
            self._world_kind(),
        )

    def _compile(self, query: ast.SelectQuery, context: ExecutionContext):
        """I-SQL → world-set algebra, then the Figure 7 rewriting pass.

        Consults the plan cache first: a hit skips both compilation and
        rewriting (the cached artifact is the *rewritten* plan). Compile
        failures (FragmentError → explicit-engine fallback) are never
        cached — their diagnostics carry source spans, which the
        span-insensitive statement fingerprint would skew.
        """
        cache = self.cache
        if cache is not None:
            key = self._plan_key("select", query, context)
            with phase("cache_lookup"):
                hit = cache.plans.get(key)
            if hit is not MISS:
                self.last_cache = "hit"
                return hit
        with phase("compile"):
            compiled = compile_query(query, self._value_schemas(), dict(context.views))
        compiled = self._rewritten(compiled)
        if cache is not None:
            cache.plans.put(key, compiled)
            self.last_cache = "miss"
        return compiled

    def _compiled_dml(
        self, tag: str, statement, context: ExecutionContext, compiler
    ) -> tuple:
        """A DML statement's rewritten match plan + metadata, via the cache.

        Returns exactly what *compiler* (:func:`compile_delete` /
        :func:`compile_update`) returns, with the plan component already
        rewritten — callers must not rewrite again. FragmentError
        propagates uncached, like :meth:`_compile`.
        """
        cache = self.cache
        if cache is not None:
            key = self._plan_key(tag, statement, context)
            with phase("cache_lookup"):
                hit = cache.plans.get(key)
            if hit is not MISS:
                self.last_cache = "hit"
                return hit
        with phase("compile"):
            parts = compiler(statement, self._value_schemas(), dict(context.views))
        parts = (self._rewritten(parts[0]),) + tuple(parts[1:])
        if cache is not None:
            cache.plans.put(key, parts)
            self.last_cache = "miss"
        return parts

    def _memo_key(self, query: ast.SelectQuery, context: ExecutionContext):
        """The result-memo fingerprint of a select, or None if unkeyable.

        Keys on the statement plus the version counters of every
        relation it reads (and the world version): DML deltas mint a
        fresh version for exactly the table they touch, so the key
        changes precisely when the answer could. Versions live inside
        the (immutable) representation, so snapshot restore / rollback
        bring the old versions back with the old tables and a pinned
        reader keeps hitting its own snapshot's entries. Unknown
        relation names return None so resolution errors surface
        identically cached or not.
        """
        rep = self.representation
        views = dict(context.views)
        try:
            versions = tuple(
                sorted(
                    (name, rep.versions[name])
                    for name in ast.referenced_relations(query, views)
                )
            )
        except KeyError:
            return None
        return (
            "memo",
            query,
            versions,
            rep.world_version,
            self.strategy,
            self.rewrite,
            self.resolved_kernel,
            context.max_worlds,
            tuple(sorted(views.items())),
        )

    def _memoized_state(
        self, query: ast.SelectQuery, compiled, context: ExecutionContext
    ) -> PhysicalState:
        """Evaluate *compiled*, memoizing world-preserving results.

        Only states that mint no fresh world ids (and no new wildcard
        columns) are stored: they are pure functions of the versioned
        input tables, and replaying them from the memo cannot collide
        with ids a later statement mints. ``choice-of`` / repair results
        always re-evaluate.
        """
        cache = self.cache
        key = self._memo_key(query, context) if cache is not None else None
        if key is not None:
            with phase("cache_lookup"):
                hit = cache.memo.get(key)
            if hit is not MISS:
                self.last_cache = "hit"
                return hit
        state = self._evaluate(compiled, context)
        if key is not None:
            rep = self.representation
            if set(state.ids) <= set(rep.id_attrs) and state.wild <= rep.wild_attrs:
                cache.memo.put(key, state)
        return state

    def _note_fallback(self, kind: str, reason: FragmentError) -> None:
        self.fallback_total += 1
        self.fallback_events.append(
            FallbackEvent(kind, str(reason), reason.clause, reason.span)
        )

    def _rewritten(self, compiled):
        """The Figure 7 rewriting pass (best effort — plans stay correct)."""
        if not self.rewrite:
            return compiled
        schemas = self._value_schemas()
        with phase("rewrite"):
            env = {name: Schema(attrs) for name, attrs in schemas.items()}
            kind = "1" if self.representation.world_count() <= 1 else "m"
            try:
                compiled, _ = rewrite_plan(compiled, env, input_kind=kind)
            except (RewriteError, TypingError, SchemaError):
                pass  # an unoptimized plan is still a correct plan
        return compiled

    def _evaluate(
        self, compiled, context: ExecutionContext, representation=None
    ) -> PhysicalState:
        """Evaluate a compiled plan (against *representation*, default the
        session state — DML's value-determined route passes a view)."""
        if representation is None:
            representation = self.representation
        with phase("execute"):
            if self.strategy == "translate":
                try:
                    return self._evaluate_translated(
                        compiled, context, representation
                    )
                except WorldLimitError:
                    raise
                except TranslationError:
                    pass  # e.g. repair-by-key: beyond relational algebra
            state, self._counter = evaluate_seeded(
                compiled,
                representation,
                max_worlds=context.max_worlds,
                counter_start=self._counter,
                kernel=self.kernel,
            )
            return state

    def _evaluate_translated(
        self, compiled, context: ExecutionContext, representation
    ) -> PhysicalState:
        """Figure 6 route: build one RA DAG, evaluate, keep flat tables.

        The translator wants the strict Definition 5.1 form (every table
        tagged with every id), so the lazy session state is strictified
        for the duration of the statement.
        """
        translation = translate_general(
            compiled, representation.strict(), counter_start=self._counter
        )
        output = translation.apply(
            name="#answer", max_worlds=context.max_worlds, kernel=self.kernel
        )
        self._counter = translation.counter
        return PhysicalState(
            output.tables["#answer"], output.id_attrs, output.world_table
        )

    # -- statements ----------------------------------------------------------------

    def run_select(
        self, query: ast.SelectQuery, context: ExecutionContext, name: str | None = None
    ) -> BaseQueryResult:
        result_name = name if name is not None else self._fresh_name()
        try:
            compiled = self._compile(query, context)
        except FragmentError as reason:
            self._note_fallback("select", reason)
            return self._fallback_select(query, context, name)
        state = self._memoized_state(query, compiled, context)
        return InlineQueryResult(self.representation, state, result_name)

    def assign(
        self, name: str, query: ast.SelectQuery, context: ExecutionContext
    ) -> None:
        try:
            compiled = self._compile(query, context)
        except FragmentError as reason:
            self._note_fallback("assign", reason)
            engine = Engine(context.views, context.keys, context.max_worlds)
            world_set = self.to_world_set()
            with phase("execute"):
                extended, _ = engine.run_select(query, world_set, name=name)
            self._reinline(extended)
            return
        state = self._memoized_state(query, compiled, context)
        rep = self.representation
        fresh = tuple(i for i in state.ids if i not in set(rep.id_attrs))
        if not fresh:
            # No new worlds: the answer is world-uniform (stored without
            # id columns) or varies only with existing ids. Base tables
            # are untouched either way — that is the point of the lazy
            # representation. (Wild PAD columns in the answer are fine:
            # they are existing session factors, so the registry
            # already covers them.)
            assert state.wild <= rep.wild_attrs
            tables = tuple(rep.tables.items()) + ((name, state.answer),)
            self._commit(
                _carrying_versions(
                    InlinedRepresentation(
                        tables,
                        rep._world_table,
                        rep.id_attrs,
                        factors=rep.factors,
                        wild_attrs=rep.wild_attrs,
                    ),
                    rep,
                    name,
                )
            )
            return
        # Fresh world ids were minted (choice-of / repair-by-key).
        state_world = state._world
        if rep.factors is not None or isinstance(state_world, FactoredWorld):
            if self._assign_factored(name, state, fresh, context):
                return
            # Correlated with existing factors in a way the factored
            # form cannot express: fall back to the joint encoding.
            state = state.plain()
            rep = self.representation.materialized()
        tables = tuple(rep.tables.items()) + ((name, state.answer),)
        # The session world table extends by joining with the state's
        # world table — on the shared prefix ids when the split was
        # correlated with existing worlds, as a product when it was
        # independent. Base tables still keep only the ids they depend on.
        world_table = rep.world_table.natural_join(state.world_or_unit())
        if context.max_worlds is not None and len(world_table) > context.max_worlds:
            raise WorldLimitError(
                f"assignment produced {len(world_table)} worlds, over the "
                f"limit of {context.max_worlds}"
            )
        self._commit(
            InlinedRepresentation(tables, world_table, rep.id_attrs + fresh)
        )

    def _assign_factored(
        self,
        name: str,
        state: PhysicalState,
        fresh: tuple[str, ...],
        context: ExecutionContext,
    ) -> bool:
        """Commit a world-splitting assignment in factored form.

        The state's world contributes its factors (a joint legacy world
        counts as one factor) next to the session's; a factor over
        existing ids must restate a session factor verbatim — anything
        else means the split correlated with existing worlds, and the
        caller falls back to the joint join. Returns True on commit.
        """
        rep = self.representation
        state_world = state._world
        prior = (
            rep.factors.factors
            if rep.factors is not None
            else ((rep.world_table,) if rep.id_attrs else ())
        )
        state_factors = (
            state_world.factors
            if isinstance(state_world, FactoredWorld)
            else (as_tuple(state.world_or_unit()),)
        )
        combined = list(prior)
        taken = {a for factor in prior for a in factor.schema.attributes}
        for factor in state_factors:
            attrs = set(factor.schema.attributes)
            if attrs.isdisjoint(taken):
                combined.append(factor)
                taken |= attrs
            elif not any(factor == existing for existing in prior):
                return False
        world = FactoredWorld(tuple(combined))
        if context.max_worlds is not None and world.count() > context.max_worlds:
            raise WorldLimitError(
                f"assignment produced {world.count()} worlds, over the "
                f"limit of {context.max_worlds}"
            )
        tables = tuple(rep.tables.items()) + ((name, state.answer),)
        self._commit(
            InlinedRepresentation(
                tables,
                None,
                rep.id_attrs + fresh,
                factors=world,
                wild_attrs=rep.wild_attrs | state.wild,
            )
        )
        return True

    def _fallback_select(
        self, query: ast.SelectQuery, context: ExecutionContext, name: str | None
    ) -> QueryResult:
        """Outside the algebra fragment: decode and run the explicit engine."""
        engine = Engine(context.views, context.keys, context.max_worlds)
        world_set = self.to_world_set()
        with phase("execute"):
            extended, result_name = engine.run_select(query, world_set, name=name)
        return QueryResult(extended, result_name)

    def _reinline(self, world_set: WorldSet) -> None:
        """Re-encode an explicit world-set produced by a fallback."""
        if world_set.is_singleton:
            self._commit(
                InlinedRepresentation.of_database(
                    dict(world_set.the_world().items())
                )
            )
        else:
            self._commit(InlinedRepresentation.of_world_set(world_set))
        self._decoded = world_set

    # -- data manipulation: the Section 3 DML rule on flat tables ----------------------

    def _in_kernel(self, relation):
        """*relation* in the active kernel's representation (cached)."""
        return kernel_ops(self.kernel).convert(relation)

    def _distinct_rows_relation(self, schema, rows):
        """A kernel-native relation from already-distinct aligned rows."""
        return kernel_ops(self.kernel).from_distinct_rows(schema, rows)

    @staticmethod
    def _key_tuples(relation, key, table_ids) -> set[tuple] | None:
        """The (V_i ∪ key) projection of every row, or None on a duplicate.

        A duplicate means two rows of one world share the key — the flat
        form of a per-world key violation. Rows are distinct, so the
        projection is violation-free iff it has one entry per row; the
        whole check is one C-speed pass over the id+key column slices
        on either kernel. The returned set doubles as a probe index for
        :meth:`run_insert`.
        """
        seen = set(tuples_of(relation, tuple(table_ids) + tuple(key)))
        if len(seen) != len(relation):
            return None
        return seen

    @classmethod
    def _satisfies_keys_flat(
        cls, relation, key, table_ids, wild_attrs=frozenset()
    ) -> bool:
        """Key holds in *every* world: (V_i ∪ key) determines the row.

        On a table with wild (PAD-wildcard) id columns the distinctness
        probe is replaced by a pattern-compatibility check — two rows
        violate iff some world holds both — see :func:`_wild_key_satisfied`.
        """
        if not key:
            return True
        if wild_attrs and not wild_attrs.isdisjoint(table_ids):
            return _wild_key_satisfied(
                relation, tuple(key), table_ids, frozenset(wild_attrs)
            )
        return cls._key_tuples(relation, key, table_ids) is not None

    def _dml_state(self, plan, context: ExecutionContext):
        """Evaluate a (rewritten) DML match plan against the session state.

        The apply paths mask/scatter by exact id match, so a wild
        (PAD-pattern) answer expands to joint ids here — over the
        touched factors only, mirroring :meth:`InlinedRepresentation.expanded`
        on the table side. *plan* comes out of :meth:`_compiled_dml`
        already rewritten.
        """
        state = self._evaluate(plan, context).plain()
        stray = [i for i in state.ids if i not in set(self.representation.id_attrs)]
        assert not stray, f"DML plan minted world ids {stray}"
        return state

    def _subqueries_world_uniform(self, subqueries, views) -> bool:
        """True when every relation the subqueries read is world-uniform.

        A (world-local) DML subquery that reads only tables stored
        without id columns has the same answer in every world, so the
        whole match is *value-determined*: whether a row is matched —
        and the value a set clause computes for it — depends only on
        the row itself, never on which world holds it. Those statements
        take :meth:`_uniform_dml_state`'s route. Unknown relation names
        route to the general path so resolution errors stay identical.
        """
        if self.strategy == "translate":
            # The Figure 6 route strictifies the representation (every
            # table re-tagged with every id), which would undo the
            # value-determined evaluation; the translate backend keeps
            # the general id-expanded route instead — it is the
            # differential vehicle, not the hot path.
            return False
        rep = self.representation
        views = dict(views)
        for subquery in subqueries:
            for name in ast.referenced_relations(subquery, views):
                if name not in rep.tables or rep.table_id_attrs(name):
                    return False
        return True

    def _uniform_dml_state(self, name, plan, context: ExecutionContext):
        """Evaluate a value-determined match plan on distinct value rows.

        The plan runs against a view of the session where the target
        table is replaced by its distinct value projection (id columns
        dropped): polynomial in the *distinct value rows* — typically
        orders of magnitude below the id-expanded flat table — and the
        flat answer applies to every world alike. With a 2¹³-world
        repaired census this turns a 2·10⁵-row match pass into a
        ~40-row one; the only full-table work left is the single apply
        pass of :meth:`_apply_delete_uniform`/:meth:`_apply_update_uniform`.
        """
        rep = self.representation
        projected = as_tuple(
            self._in_kernel(rep.tables[name]).project(rep.value_attributes(name))
        )
        uniform = rep.replacing(name, projected, validate=False)
        state = self._evaluate(plan, context, uniform)
        assert not state.ids, f"value-determined DML plan minted ids {state.ids}"
        return state

    def _replace_table(self, name: str, table) -> None:
        """Commit a rewritten flat table (either kernel).

        Routed through :meth:`InlinedRepresentation.replacing` with
        validation off: every DML rewrite derives its rows from the
        representation's own tables (mask keeps a subset, scatter
        rewrites only value columns — ``$``-prefixed id attributes are
        not even lexable in a set clause — and append draws its id
        columns from the world table), so the committed table cannot
        reference an unknown world id. Cached id expansions of the
        other tables carry over.
        """
        self._commit(
            self.representation.replacing(name, as_tuple(table), validate=False)
        )

    @staticmethod
    def _insert_rows(schema, assignment, table_ids, sub_ids) -> list[tuple]:
        """The aligned addition tuples: one per world id the table carries."""
        template = [assignment.get(a) for a in schema.attributes]
        positions = schema.indices(table_ids)
        rows = []
        for sub_id in sub_ids:
            row = list(template)
            for position, value in zip(positions, sub_id):
                row[position] = value
            rows.append(tuple(row))
        return rows

    def run_insert(self, statement: ast.Insert, context: ExecutionContext) -> bool:
        """Insert into every world; on a key violation, insert nowhere.

        The key check runs *before* any new table is materialized: all
        additions share one value part and differ only on world ids, so
        a violation exists iff some existing row already claims the new
        key in a world the insert reaches (or the table itself violates
        the key, which the engine's whole-table check also rejects). A
        violating insert on a 2¹⁶-world table therefore costs one
        indexed scan — no O(worlds) garbage rows. An applied insert is
        the kernel ``append``: the additions are deduplicated and
        checked alone, the existing rows are reused as-is instead of
        being re-validated through the ``Relation`` constructor.
        """
        rep = self.representation
        table = rep.tables[statement.relation]
        value_attrs = rep.value_attributes(statement.relation)
        if len(statement.values) != len(value_attrs):
            raise SchemaError(
                f"insert arity {len(statement.values)} does not match "
                f"{statement.relation}{list(value_attrs)}"
            )
        assignment = dict(zip(value_attrs, statement.values))
        table_ids = rep.table_id_attrs(statement.relation)
        # Wild columns take PAD (one stored row reaches every world of
        # those factors), concrete columns enumerate — never the joint
        # product on a factored world.
        sub_ids = rep.insert_sub_ids(statement.relation)
        key = context.keys.get(statement.relation)
        if key:
            if rep.table_wild_attrs(statement.relation):
                if not self._satisfies_keys_flat(
                    table, tuple(key), table_ids, rep.wild_attrs
                ):
                    return False  # a pre-existing violation rejects too
                # The addition is an every-world row, so it conflicts
                # with *any* existing row claiming the key — every
                # stored pattern shares at least one world with it.
                new_key = tuple(assignment[a] for a in key)
                if new_key in set(tuples_of(table, tuple(key))):
                    return False
            else:
                seen = self._key_tuples(table, tuple(key), table_ids)
                if seen is None:
                    return False  # a pre-existing violation rejects too
                new_key = tuple(assignment[a] for a in key)
                if any(tuple(sub_id) + new_key in seen for sub_id in sub_ids):
                    return False
        with phase("dml_apply"):
            additions = self._insert_rows(
                table.schema, assignment, table_ids, sub_ids
            )
            self._replace_table(
                statement.relation, self._in_kernel(table).append(additions)
            )
        return True

    def run_delete(self, statement: ast.Delete, context: ExecutionContext) -> None:
        """Delete matching rows in every world — flat, even with subqueries.

        Subquery-free conditions filter the flat table in one kernel
        pass (the kept rows are shared, never rebuilt through the
        ``Relation`` constructor). A condition with (world-local)
        subqueries compiles to its match plan (``select * from R where
        φ``), whose flat answer the kernel ``mask`` subtracts from the
        id-expanded table per world id — the Section 3 rule without
        decoding a single world. Only conditions the compiler rejects
        (e.g. world-splitting subqueries, which the engine rejects too
        when a row reaches them) fall back.
        """
        subqueries = ast.condition_subqueries(statement.where)
        if subqueries:
            try:
                plan, attrs = self._compiled_dml(
                    "delete", statement, context, compile_delete
                )
            except FragmentError as reason:
                self._note_fallback("delete", reason)
                self._reinline(
                    Engine(
                        context.views, context.keys, context.max_worlds
                    ).run_delete(statement, self.to_world_set())
                )
                return
            if self._subqueries_world_uniform(subqueries, context.views):
                state = self._uniform_dml_state(statement.relation, plan, context)
                self._apply_delete_uniform(statement.relation, attrs, state)
                return
            state = self._dml_state(plan, context)
            self._apply_delete(statement.relation, attrs, state)
            return
        table = self.representation.tables[statement.relation]
        schema = table.schema
        if statement.where is None:
            with phase("dml_apply"):
                self._replace_table(
                    statement.relation, self._distinct_rows_relation(schema, [])
                )
            return
        matches = Engine(context.views, context.keys).bind_row_condition(
            statement.where, schema.attributes
        )
        with phase("dml_apply"):
            kernel_table = self._in_kernel(table)
            # The flat row scan is not a kernel op, but it is the same
            # O(rows) work — checkpoint it like one.
            checkpoint("dml_scan", len(kernel_table))
            kept = [row for row in kernel_table if not matches(row)]
            self._replace_table(
                statement.relation, self._distinct_rows_relation(schema, kept)
            )

    def _apply_delete_uniform(
        self, name: str, attrs: tuple[str, ...], state
    ) -> None:
        """Mask a value-determined answer out of the flat table.

        The answer names matched *value rows* (no id columns): in every
        world that holds such a row the Section 3 rule deletes it, and
        a world that lacks it is unaffected — so one kernel ``mask``
        keyed on the value attributes applies the delete to all worlds
        at once, with no id expansion at any point.
        """
        answer = state._answer
        if not answer:
            return  # no-op delete: the lazily stored table is untouched
        with phase("dml_apply"):
            table = self.representation.tables[name]
            self._replace_table(name, self._in_kernel(table).mask(answer, attrs))

    def _apply_delete(self, name: str, attrs: tuple[str, ...], state) -> None:
        """Mask the match plan's flat answer out of the flat table."""
        answer = state._answer
        if not answer:
            # Nothing matched in any world: keep the (possibly lazily
            # stored) table untouched rather than committing an
            # id-expanded copy — a no-op delete must not replicate the
            # table over the match plan's foreign world ids.
            return
        with phase("dml_apply"):
            expanded = self.representation.expanded(name, state.ids, self.kernel)
            kept = self._in_kernel(expanded).mask(answer, state.ids + attrs)
            self._replace_table(name, kept)

    def run_update(self, statement: ast.Update, context: ExecutionContext) -> bool:
        """Update matching rows in every world — flat, even with subqueries.

        Subquery-free statements rewrite the flat table in one kernel
        pass. With subqueries in the condition or the set expressions,
        the compiled match plan (extended with one value column per
        scalar-subquery set clause) is evaluated once; its flat answer
        names every matched (world id, row) pair and carries the inputs
        of the new values, so the kernel ``scatter_update`` rewrites the
        table per world id without decoding worlds. The Section 3
        discard rule then applies: a key violation in *any* world
        rejects the update in all of them (checked as one vectorized
        (V_i ∪ key)-distinctness pass).
        """
        subqueries = list(ast.condition_subqueries(statement.where))
        for clause in statement.settings:
            subqueries.extend(ast.expression_subqueries(clause.expression))
        if subqueries:
            try:
                plan, attrs, set_terms = self._compiled_dml(
                    "update", statement, context, compile_update
                )
            except FragmentError as reason:
                self._note_fallback("update", reason)
                world_set, applied = Engine(
                    context.views, context.keys, context.max_worlds
                ).run_update(statement, self.to_world_set())
                if applied:
                    self._reinline(world_set)
                return applied
            if self._subqueries_world_uniform(subqueries, context.views):
                state = self._uniform_dml_state(statement.relation, plan, context)
                return self._apply_update_uniform(
                    statement, attrs, set_terms, state, context
                )
            state = self._dml_state(plan, context)
            return self._apply_update(statement, attrs, set_terms, state, context)
        table = self.representation.tables[statement.relation]
        engine = Engine(context.views, context.keys)
        attributes = table.schema.attributes
        matches = (
            (lambda row: True)
            if statement.where is None
            else engine.bind_row_condition(statement.where, attributes)
        )
        settings = [
            (
                table.schema.index(clause.attribute),
                engine.bind_row_expression(clause.expression, attributes),
            )
            for clause in statement.settings
        ]
        with phase("dml_apply"):
            kernel_table = self._in_kernel(table)
            checkpoint("dml_scan", len(kernel_table))
            rows: dict[tuple, None] = {}
            for row in kernel_table:
                if not matches(row):
                    rows[row] = None
                    continue
                new_row = list(row)
                for position, value in settings:
                    new_row[position] = value(row)
                rows[tuple(new_row)] = None
            new_table = self._distinct_rows_relation(table.schema, list(rows))
            if not self._satisfies_keys_flat(
                new_table,
                context.keys.get(statement.relation),
                self.representation.table_id_attrs(statement.relation),
                self.representation.wild_attrs,
            ):
                return False
            self._replace_table(statement.relation, new_table)
        return True

    def _apply_update_uniform(
        self,
        statement: ast.Update,
        attrs: tuple[str, ...],
        set_terms: tuple[tuple[str, object], ...],
        state,
        context: ExecutionContext,
    ) -> bool:
        """Scatter a value-determined answer into the flat table.

        The answer names matched value rows plus their computed set
        inputs (no id columns): every world that holds a matched row
        rewrites it the same way, so the rewrite map — value row →
        rewritten value row(s), built from the tiny distinct-value
        answer — applies to the whole flat table in one pass that
        keeps each row's id columns as they are. The Section 3 discard
        rule then checks the rewritten table exactly like the general
        path.
        """
        name = statement.relation
        answer = state._answer
        rep = self.representation
        key = context.keys.get(name)
        table_ids = rep.table_id_attrs(name)
        if not answer:
            # No match anywhere: unchanged table, but still key-checked.
            return self._satisfies_keys_flat(
                rep.tables[name], key, table_ids, rep.wild_attrs
            )
        with phase("dml_apply"):
            kernel_table = self._in_kernel(rep.tables[name])._reordered(
                attrs + table_ids
            )
            width = len(attrs)
            attr_index = {attr: j for j, attr in enumerate(attrs)}
            binders = [
                (attr_index[attr], term.bind(answer.schema))
                for attr, term in set_terms
            ]
            target_of = tuple_getter(answer.schema.indices(attrs))
            rewrites: dict[tuple, list[tuple]] = {}
            for match in answer:
                target = target_of(match)
                new_row = list(target)
                for position, value in binders:
                    new_row[position] = value(match)
                rewrites.setdefault(target, []).append(tuple(new_row))
            rows: list[tuple] = []
            append = rows.append
            for row in kernel_table:
                hits = rewrites.get(row[:width])
                if hits is None:
                    append(row)
                else:
                    id_part = row[width:]
                    for new_values in hits:
                        append(new_values + id_part)
            new_table = (
                type(kernel_table)._deduped(kernel_table.schema, rows)
                if isinstance(kernel_table, ColumnarRelation)
                else Relation._raw(kernel_table.schema, frozenset(rows))
            )
            if not self._satisfies_keys_flat(
                new_table, key, table_ids, rep.wild_attrs
            ):
                return False
            self._replace_table(name, new_table)
        return True

    def _apply_update(
        self,
        statement: ast.Update,
        attrs: tuple[str, ...],
        set_terms: tuple[tuple[str, object], ...],
        state,
        context: ExecutionContext,
    ) -> bool:
        """Scatter the evaluated update plan's rewrites into the flat table."""
        name = statement.relation
        answer = state._answer
        if not answer:
            # No row matched in any world: the table stays as stored
            # (no id expansion), but the engine still key-checks the
            # unchanged relation — a pre-existing violation rejects.
            table = self.representation.tables[name]
            return self._satisfies_keys_flat(
                table,
                context.keys.get(name),
                self.representation.table_id_attrs(name),
                self.representation.wild_attrs,
            )
        with phase("dml_apply"):
            ids = state.ids
            order = attrs + ids
            expanded = self._in_kernel(
                self.representation.expanded(name, ids, self.kernel)
            )._reordered(order)
            new_table = self._scatter(expanded, answer, order, set_terms)
            if not self._satisfies_keys_flat(
                new_table, context.keys.get(name), ids
            ):
                return False
            self._replace_table(name, new_table)
        return True

    @staticmethod
    def _scatter(expanded, answer, order, set_terms):
        """The rewritten flat table for an evaluated update plan.

        On the columnar kernel, a set term with a column form
        (:meth:`~repro.relational.predicates.Term.column` — attribute
        reads, constants, pad defaults, arithmetic over those) rewrites
        as pure column slices of the answer: the whole update is a
        handful of C-speed passes with no per-row closure calls. Terms
        that only evaluate row at a time (the ``single`` cardinality
        guard) fall back to the kernel ``scatter_update``, which both
        kernels always use for the tuple engine.
        """
        if isinstance(expanded, ColumnarRelation):
            answer_columnar = as_columnar(answer)
            setter_columns: dict[str, object] = {}
            for attr, term in set_terms:
                column = term.column(answer_columnar)
                if column is None:
                    break
                setter_columns[attr] = column
            else:
                columns = [
                    setter_columns[a]
                    if a in setter_columns
                    else answer_columnar.column_values(a)
                    for a in order
                ]
                rewritten = list(zip(*columns))
                kept = expanded.mask(answer_columnar, order)
                return type(expanded)._deduped(
                    Schema(order), rewritten + kept.row_list()
                )
        binders = [(attr, term.bind(answer.schema)) for attr, term in set_terms]
        return expanded.scatter_update(answer, binders)

    # -- the batched DML pipeline ------------------------------------------------------

    def run_dml_batch(
        self, statements: tuple, context: ExecutionContext
    ) -> list[bool]:
        """Consecutive subquery-free DML on one relation, as one pass.

        ``ISQLSession.run`` hands over a maximal run of batchable
        statements (one target relation, conditions and set expressions
        without subqueries). The batch binds every condition once, then
        pipelines the statements over a single working row list in the
        active kernel — filtering (delete), rewriting (update) and
        appending (insert) — and commits **one** new table at the end:
        the representation is validated once per batch instead of once
        per statement, and the (ids ∪ key) probe index is maintained
        incrementally so a run of k inserts costs O(k · additions), not
        k table scans. Statement semantics are exactly
        statement-at-a-time (the property suite asserts row-for-row
        equivalence), including the Section 3 discard rule — a
        violating update/insert is discarded alone, later statements
        still apply — and error behavior: a statement that raises
        mid-batch first commits the statements already applied, like
        separate executions would.
        """
        name = statements[0].relation
        rep = self.representation
        if rep.table_wild_attrs(name):
            # Wildcard id columns: the batch's (V_i ∪ key) distinctness
            # probes and row-membership dedup assume exact ids, which
            # PAD patterns are not — replay statement-at-a-time through
            # the wild-aware per-statement paths.
            applied: list[bool] = []
            for statement in statements:
                if isinstance(statement, ast.Delete):
                    self.run_delete(statement, context)
                    applied.append(True)
                elif isinstance(statement, ast.Update):
                    applied.append(self.run_update(statement, context))
                elif isinstance(statement, ast.Insert):
                    applied.append(self.run_insert(statement, context))
                else:
                    raise EvaluationError(
                        "run_dml_batch accepts insert/delete/update "
                        f"statements, not {type(statement).__name__}"
                    )
            return applied
        table = rep.tables[name]
        schema = table.schema
        attributes = schema.attributes
        table_ids = rep.table_id_attrs(name)
        value_attrs = rep.value_attributes(name)
        # Normalized to None when absent *or empty* — the per-statement
        # paths treat a degenerate () key as no constraint (`if key:`),
        # and batched execution must match them decision for decision.
        key = context.keys.get(name) or None
        engine = Engine(context.views, context.keys)
        with phase("dml_apply"):
            kernel_table = self._in_kernel(table)
            if isinstance(kernel_table, ArrayRelation):
                plans = _vector_plans(statements, attributes, schema)
                if plans is not None:
                    return self._run_dml_batch_array(
                        statements,
                        plans,
                        kernel_table,
                        name,
                        schema,
                        table_ids,
                        value_attrs,
                        key,
                    )
            rows: list[tuple] = (
                list(kernel_table.row_list())
                if isinstance(kernel_table, ColumnarRelation)
                else list(kernel_table.rows)
            )
            # insert_sub_ids never builds the joint product: on a
            # factored world it enumerates the touched factors only.
            sub_ids = rep.insert_sub_ids(name)
            # Lazily (re)built per-batch indexes over the working rows:
            # the (V_i ∪ key) probe set (None while a violation exists)
            # and the row membership set for insert dedup. The getter
            # binds lazily too, inside the per-statement try — a bad
            # declared key must raise at the statement that first
            # checks it, after earlier batch statements applied, like
            # statement-at-a-time execution.
            key_getter = None
            key_seen: set[tuple] | None = None
            key_seen_valid = False
            row_set: set[tuple] | None = None
            applied: list[bool] = []
            changed = False

            def bound_key_getter():
                nonlocal key_getter
                if key_getter is None:
                    key_getter = tuple_getter(
                        schema.indices(table_ids + tuple(key))
                    )
                return key_getter

            def key_index() -> set[tuple] | None:
                nonlocal key_seen, key_seen_valid
                if not key_seen_valid:
                    key_seen = set(map(bound_key_getter(), rows))
                    if len(key_seen) != len(rows):
                        key_seen = None
                    key_seen_valid = True
                return key_seen

            def commit() -> None:
                if changed:
                    self._replace_table(
                        name, self._distinct_rows_relation(schema, rows)
                    )

            for statement in statements:
                try:
                    if isinstance(statement, ast.Delete):
                        if statement.where is None:
                            kept: list[tuple] = []
                        else:
                            matches = engine.bind_row_condition(
                                statement.where, attributes
                            )
                            kept = [row for row in rows if not matches(row)]
                        if len(kept) != len(rows):
                            rows = kept
                            changed = True
                            key_seen_valid, row_set = False, None
                        applied.append(True)
                    elif isinstance(statement, ast.Update):
                        matches = (
                            (lambda row: True)
                            if statement.where is None
                            else engine.bind_row_condition(
                                statement.where, attributes
                            )
                        )
                        settings = [
                            (
                                schema.index(clause.attribute),
                                engine.bind_row_expression(
                                    clause.expression, attributes
                                ),
                            )
                            for clause in statement.settings
                        ]
                        new_rows: dict[tuple, None] = {}
                        touched = False
                        for row in rows:
                            if not matches(row):
                                new_rows[row] = None
                                continue
                            touched = True
                            candidate = list(row)
                            for position, value in settings:
                                candidate[position] = value(row)
                            new_rows[tuple(candidate)] = None
                        if not touched:
                            # Unchanged table, but the Section 3 check
                            # still runs: a pre-existing violation
                            # rejects, like statement-at-a-time.
                            applied.append(key is None or key_index() is not None)
                            continue
                        candidate_rows = list(new_rows)
                        if key is not None:
                            candidate_seen = set(
                                map(bound_key_getter(), candidate_rows)
                            )
                            if len(candidate_seen) != len(candidate_rows):
                                applied.append(False)  # discarded in all worlds
                                continue
                            key_seen, key_seen_valid = candidate_seen, True
                        rows = candidate_rows
                        changed, row_set = True, None
                        applied.append(True)
                    elif isinstance(statement, ast.Insert):
                        if len(statement.values) != len(value_attrs):
                            raise SchemaError(
                                f"insert arity {len(statement.values)} does "
                                f"not match {name}{list(value_attrs)}"
                            )
                        assignment = dict(zip(value_attrs, statement.values))
                        if key is not None:
                            seen = key_index()
                            if seen is None:
                                applied.append(False)
                                continue
                            new_key = tuple(assignment[a] for a in key)
                            if any(
                                tuple(sub_id) + new_key in seen
                                for sub_id in sub_ids
                            ):
                                applied.append(False)
                                continue
                        additions = self._insert_rows(
                            schema, assignment, table_ids, sub_ids
                        )
                        if row_set is None:
                            row_set = set(rows)
                        fresh = [
                            row
                            for row in dict.fromkeys(additions)
                            if row not in row_set
                        ]
                        if fresh:
                            # rows is always an owned list (copied at
                            # batch start, rebuilt by update/delete), so
                            # extending in place keeps a run of k
                            # inserts O(k · additions), not k copies.
                            rows.extend(fresh)
                            row_set.update(fresh)
                            if key is not None:
                                # key_index() above left a valid probe
                                # set; the checked additions extend it.
                                key_seen.update(map(bound_key_getter(), fresh))
                            changed = True
                        applied.append(True)
                    else:
                        raise EvaluationError(
                            "run_dml_batch accepts insert/delete/update "
                            f"statements, not {type(statement).__name__}"
                        )
                except Exception:
                    # Parity with statement-at-a-time execution: the
                    # statements already applied commit before the
                    # failing one propagates.
                    commit()
                    raise
            commit()
        return applied

    def _run_dml_batch_array(
        self,
        statements: tuple,
        plans: list[tuple],
        state: ArrayRelation,
        name: str,
        schema: Schema,
        table_ids: tuple[str, ...],
        value_attrs: tuple[str, ...],
        key: tuple[str, ...] | None,
    ) -> list[bool]:
        """The batch pipeline on array columns: masks, assigns, concats.

        Each condition evaluates as one boolean-array pass over the
        working :class:`ArrayRelation` (falling back to a bound-row
        scan only for object-dtype columns), updates rewrite whole
        column slices through :meth:`ArrayRelation.masked_assign`, and
        key checks count distinct ``(V_i ∪ key)`` row codes instead of
        building tuple sets. Statement semantics — the Section 3
        discard rule, error ordering, commit-before-raise — mirror the
        row pipeline decision for decision; the property suite asserts
        row-for-row equivalence between the two.
        """
        import numpy as np

        rep = self.representation
        applied: list[bool] = []
        changed = False
        sub_ids_cache: list | None = None

        def sub_ids() -> list:
            # Lazy and vectorized: one np.unique over the world table's
            # id codes instead of a sorted full-row distinct pass, and
            # only batches that actually insert pay it.
            nonlocal sub_ids_cache
            if sub_ids_cache is None:
                if not table_ids:
                    sub_ids_cache = [()]
                elif rep.factors is not None:
                    # Touched factors only — never the joint product.
                    sub_ids_cache = rep.insert_sub_ids(name)
                else:
                    world = as_array(rep.world_table)
                    positions = world.schema.indices(table_ids)
                    codes, domain = world._row_codes(positions)
                    first = _first_rows(codes, domain)
                    cols = world.arrays()
                    sub_ids_cache = list(
                        zip(*(cols[p].values[first].tolist() for p in positions))
                    )
            return sub_ids_cache

        def predicate_mask(predicate):
            mask = state._predicate_mask(predicate)
            if mask is None:
                check = predicate.bind(schema)
                mask = np.fromiter(
                    map(check, state.row_list()),
                    dtype=np.bool_,
                    count=len(state),
                )
            return mask

        def key_distinct(relation) -> bool:
            # Combined-code uniqueness equals tuple-set uniqueness: the
            # factorization assigns equal codes exactly to values equal
            # under Python semantics.
            if len(relation) == 0:
                return True
            codes, domain = relation._row_codes(
                schema.indices(table_ids + tuple(key))
            )
            return _distinct_count(codes, domain) == len(relation)

        def commit() -> None:
            if changed:
                self._replace_table(name, state)

        for statement, plan in zip(statements, plans):
            try:
                if plan[0] == "delete":
                    predicate = plan[1]
                    if predicate is None:
                        if len(state):
                            state = type(state)._from_rows(schema, [])
                            changed = True
                    else:
                        mask = predicate_mask(predicate)
                        if mask.any():
                            state = state._take(~mask)
                            changed = True
                    applied.append(True)
                elif plan[0] == "update":
                    _, predicate, settings = plan
                    mask = (
                        np.ones(len(state), dtype=np.bool_)
                        if predicate is None
                        else predicate_mask(predicate)
                    )
                    if not mask.any():
                        # Unchanged table, but the Section 3 check still
                        # runs: a pre-existing violation rejects.
                        applied.append(key is None or key_distinct(state))
                        continue
                    candidate = state.masked_assign(mask, settings)
                    if key is not None and not key_distinct(candidate):
                        applied.append(False)  # discarded in all worlds
                        continue
                    state = candidate
                    changed = True
                    applied.append(True)
                else:  # insert
                    if len(statement.values) != len(value_attrs):
                        raise SchemaError(
                            f"insert arity {len(statement.values)} does "
                            f"not match {name}{list(value_attrs)}"
                        )
                    assignment = dict(zip(value_attrs, statement.values))
                    if key is not None:
                        if not key_distinct(state):
                            applied.append(False)
                            continue
                        new_key = tuple(assignment[a] for a in key)
                        if _array_key_claimed(
                            state, schema, table_ids, key, new_key, sub_ids()
                        ):
                            applied.append(False)
                            continue
                    # All additions share one value row: dedup against
                    # the stored rows is a constant-equality mask over
                    # the value columns plus an id-set difference.
                    value_mask = _array_eq_mask(
                        state,
                        [(schema.index(a), assignment[a]) for a in value_attrs],
                    )
                    if not table_ids:
                        fresh_ids = [] if value_mask.any() else [()]
                    elif value_mask.any():
                        hits = np.flatnonzero(value_mask)
                        acols = state.arrays()
                        claimed = set(
                            zip(
                                *(
                                    acols[p].values[hits].tolist()
                                    for p in schema.indices(table_ids)
                                )
                            )
                        )
                        fresh_ids = [
                            s for s in sub_ids() if tuple(s) not in claimed
                        ]
                    else:
                        fresh_ids = list(sub_ids())
                    if fresh_ids:
                        template = [
                            assignment.get(a) for a in schema.attributes
                        ]
                        state = state.append_broadcast(
                            template, schema.indices(table_ids), fresh_ids
                        )
                        changed = True
                    applied.append(True)
            except Exception:
                # Parity with statement-at-a-time execution: the
                # statements already applied commit before the failing
                # one propagates.
                commit()
                raise
        commit()
        return applied


def _wild_key_satisfied(relation, key, table_ids, wild_attrs) -> bool:
    """Key holds in every world of a wild (PAD-wildcard) table.

    Two rows violate the key iff they share a key value *and* their id
    patterns are compatible — equal on concrete columns, with PAD
    matching anything on a wild one — i.e. some world holds both rows.
    The pairwise check runs per key group, and key groups stay small by
    construction: a repaired table has one group per violating input
    key, each the size of that group's candidate list.
    """
    wild_positions = frozenset(
        i for i, a in enumerate(table_ids) if a in wild_attrs
    )
    groups: dict[tuple, list[tuple]] = {}
    for sub_id, key_value in zip(
        tuples_of(relation, table_ids), tuples_of(relation, key)
    ):
        groups.setdefault(key_value, []).append(sub_id)
    for patterns in groups.values():
        for i, first in enumerate(patterns):
            for second in patterns[i + 1 :]:
                if all(
                    a == b
                    or (j in wild_positions and (a is PAD or b is PAD))
                    for j, (a, b) in enumerate(zip(first, second))
                ):
                    return False
    return True


# -- DML batch vectorization ---------------------------------------------------------


def _vector_term(expression, resolver: _Resolver, attributes: tuple[str, ...]):
    """A condition operand as a predicate term, or None to bail."""
    if isinstance(expression, ast.Literal):
        return predicates.Const(expression.value)
    if isinstance(expression, ast.Column):
        try:
            position = resolver.position(expression)
        except EvaluationError:
            return None
        if position is None:
            return None
        return predicates.Attr(attributes[position])
    return None


def _vector_condition(condition, resolver: _Resolver, attributes: tuple[str, ...]):
    """An AST condition as a relational predicate, or None to bail.

    Only shapes with exact engine-row parity translate: comparisons
    over direct column reads and literals (TypeError → False on both
    paths) combined with and/or/not. Arithmetic, subqueries, and
    unresolved or ambiguous columns leave the whole batch on the row
    pipeline, which reports them exactly like statement-at-a-time
    execution.
    """
    if isinstance(condition, ast.Comparison):
        left = _vector_term(condition.left, resolver, attributes)
        right = _vector_term(condition.right, resolver, attributes)
        if left is None or right is None or condition.op not in predicates._OPS:
            return None
        return predicates.Comparison(left, condition.op, right)
    if isinstance(condition, ast.BoolOp):
        left = _vector_condition(condition.left, resolver, attributes)
        right = _vector_condition(condition.right, resolver, attributes)
        if left is None or right is None:
            return None
        if condition.op == "and":
            return predicates.And(left, right)
        if condition.op == "or":
            return predicates.Or(left, right)
        return None
    if isinstance(condition, ast.NotOp):
        inner = _vector_condition(condition.operand, resolver, attributes)
        return None if inner is None else predicates.Not(inner)
    return None


def _vector_plans(
    statements: tuple, attributes: tuple[str, ...], schema: Schema
) -> list[tuple] | None:
    """Vector programs for a whole batch, or None if any statement bails."""
    resolver = _Resolver(attributes)
    plans: list[tuple] = []
    for statement in statements:
        if isinstance(statement, ast.Delete):
            predicate = None
            if statement.where is not None:
                predicate = _vector_condition(
                    statement.where, resolver, attributes
                )
                if predicate is None:
                    return None
            plans.append(("delete", predicate))
        elif isinstance(statement, ast.Update):
            predicate = None
            if statement.where is not None:
                predicate = _vector_condition(
                    statement.where, resolver, attributes
                )
                if predicate is None:
                    return None
            settings: list[tuple] = []
            for clause in statement.settings:
                try:
                    position = schema.index(clause.attribute)
                except Exception:
                    return None
                expression = clause.expression
                if isinstance(expression, ast.Literal):
                    settings.append((position, "const", expression.value))
                elif isinstance(expression, ast.Column):
                    try:
                        source = resolver.position(expression)
                    except EvaluationError:
                        return None
                    if source is None:
                        return None
                    settings.append((position, "col", source))
                else:
                    return None
            plans.append(("update", predicate, tuple(settings)))
        elif isinstance(statement, ast.Insert):
            plans.append(("insert",))
        else:
            return None
    return plans


def _array_eq_mask(state: ArrayRelation, pairs) -> "object":
    """Mask of rows whose columns equal the given (position, value) pairs.

    Parity with a tuple-set probe: per-column numpy equality where the
    dtype allows, plain Python ``==`` otherwise.
    """
    import numpy as np

    mask = np.ones(len(state), dtype=np.bool_)
    acols = state.arrays()
    for position, value in pairs:
        column = acols[position]
        hit = state._column_mask(column, value, "=")
        if hit is None:
            hit = np.fromiter(
                (entry == value for entry in column.tolist()),
                dtype=np.bool_,
                count=len(state),
            )
        mask &= hit
        if not mask.any():
            break
    return mask


def _array_key_claimed(
    state: ArrayRelation,
    schema: Schema,
    table_ids: tuple[str, ...],
    key: tuple[str, ...],
    new_key: tuple,
    sub_ids,
) -> bool:
    """Whether an existing row claims *new_key* in a world the insert reaches."""
    import numpy as np

    if len(state) == 0:
        return False
    mask = _array_eq_mask(
        state, zip(schema.indices(tuple(key)), new_key)
    )
    if not mask.any():
        return False
    if not table_ids:
        return True  # sub_ids is [()] and the key part matched
    hits = np.flatnonzero(mask)
    id_positions = schema.indices(table_ids)
    acols = state.arrays()
    claimed = set(
        zip(*(acols[p].values[hits].tolist() for p in id_positions))
    )
    return not claimed.isdisjoint(map(tuple, sub_ids))
