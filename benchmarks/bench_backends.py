"""Experiment §5/§8 end-to-end: explicit world enumeration vs inline plans.

Replays the datagen scenario suite on both execution backends and
records median-of-N wall-clock (``--repeats``, default 3), a per-phase
breakdown (compile / rewrite / execute / decode), the inline route
(direct vs explicit fallback, with the fragment diagnostic), world
counts, and representation sizes into ``BENCH_backends.json`` (written
by ``conftest.pytest_sessionfinish``).

Shape claims:

* every scenario returns identical answers on both backends (this is
  re-asserted here, not only in the tier-1 differential suite);
* on the choice-of-heavy trip scenarios with ≥ 2¹⁰ worlds the inline
  backend wins by ≥ 5× — evaluation is polynomial in the inlined
  representation while the explicit engine pays one pass per world;
* the columnar kernel beats the tuple kernel on every ≥ 2¹²-world
  scenario (recorded as ``backend="inline-tuple"`` rows, so the
  kernel-level speedup is tracked next to the backend-level one);
* the XL scenarios (2¹⁶ worlds, ≥10⁵-row representations) run
  inline-only — the explicit side is recorded as *infeasible*, not as
  a zero — and the 2¹⁶-world trip completes in < 5 s;
* every scenario statement — including the aggregation-heavy
  ``tpch_what_if`` and the ``group worlds by ⟨subquery⟩`` acquisition
  variant that used to run ``route=fallback`` — now records
  ``route=direct``: the widened compiler carries SQL aggregation,
  condition subqueries and subquery-keyed world grouping on the
  inlined representation, which is what makes the inline-only
  ``tpch_what_if_xl`` scenario (2¹³ worlds) possible at all;
* DML with subqueries runs flat too (ISSUE 4): the small
  ``dml_subquery_cleanup`` scenario exercises subquery-bearing
  update/delete plus an OR-subquery condition on every backend, and
  the inline-only ``census_cleanup_dml_xl`` scenario replays that
  statement shape at 2¹³ worlds — decoding those worlds per DML
  statement (the old ``_reinline`` fallback) is exactly what the
  explicit side's *infeasible* row records;
* DML is columnar-native and batched (ISSUE 5): scripts replay through
  ``ISQLSession.run``, every DML scenario's inline rows carry a
  ``dml_apply`` phase (the mask/scatter/append application — asserted
  below, and gated by ``check_regression.py``), value-determined
  subquery DML evaluates on distinct value rows instead of the
  id-expanded table (``census_cleanup_dml_xl`` dropped ≥3× against the
  PR 4 baseline), and the 2¹⁶-world ``census_cleanup_dml_xxl``
  scenario pushes a five-statement subquery-free cleanup through the
  batch pipeline as one backend pass;
* the array kernel is the XL workhorse (ISSUE 6): every inline-only
  scenario gets an ``inline-array`` row, the headline pair
  (``trip_certain_2p16``, ``census_cleanup_dml_xxl``) must beat the
  columnar kernel live by ≥ 2× (the committed
  ``array_speedup_over_columnar_kernel`` ratios show ≥ 5×, gated by
  ``check_regression.py``), and the nightly-only 2²⁰-world
  ``trip_certain_2p20`` completes on the array kernel with its
  per-phase breakdown recorded;
* ``repair by key`` mints *factored* per-group world ids (ISSUE 8):
  the repaired scenarios' representation size is the **sum** of the
  per-group factor sizes, not their product — ``census_repair_xl``
  dropped from ~2·10⁵ rows (joint encoding) to ~10², the smoke-suite
  ``census_repair_dml`` scenario replays update/delete/insert against
  the factored, wild-column relation on every backend, and the
  nightly-only ``census_repair_2p20`` runs 2²⁰ repairs inline on the
  array kernel — all gated by ``check_regression.py``'s
  ``representation_size`` rule so the encoding cannot silently regress
  back toward product size.
"""

from __future__ import annotations

import gc
import threading
import time

import pytest

from repro.backend import InlineBackend, collect_phases
from repro.backend.testing import run_scenario
from repro.datagen import Scenario, flights, nightly_scenarios, scenarios, xl_scenarios
from repro.isql import ISQLSession
from repro.relational import Relation
from repro.relational.array_kernel import have_numpy
from repro.service import SessionPool

LARGE = {s.name: s for s in scenarios("large")}

#: A 2¹² world variant to expose the asymptotic trend beyond 2¹⁰.
TRIP_XL = Scenario(
    name="trip_certain_xl",
    relations=(("HFlights", flights(4096, 64, 3, seed=1)),),
    query="select certain Arr from HFlights choice of Dep;",
    approx_worlds=4096,
)

SUITE = [
    LARGE["trip_certain"],
    TRIP_XL,
    LARGE["trip_possible_open"],
    LARGE["acquisition"],
    LARGE["acquisition_subquery_grouping"],
    LARGE["census_repair"],
    LARGE["census_repair_dml"],
    LARGE["tpch_what_if"],
    LARGE["dml_subquery_cleanup"],
]

XL_SUITE = list(xl_scenarios())

#: Scenarios whose world count makes the kernel comparison meaningful
#: (≥ 2¹² worlds): these get an extra ``inline-tuple`` timing row.
KERNEL_COMPARED = {TRIP_XL.name} | {s.name for s in XL_SUITE}

#: The array kernel's headline scenarios (ISSUE 6): committed
#: BENCH_backends.json must show ≥ 5× over columnar via the
#: ``array_speedup_over_columnar_kernel`` map; the live bound asserted
#: here is 2× to keep shared-runner noise from flaking.
ARRAY_HEADLINE = {"trip_certain_2p16", "census_cleanup_dml_xxl"}

# The suites above pin ~10⁶ long-lived objects (the XL/XXL relations'
# row tuples) for the whole benchmark session. Freeze them into the
# GC's permanent generation so a timed region never pays a full-heap
# gen-2 scan whose cost scales with *other* scenarios' data — without
# this, adding a new XL scenario inflates every scenario measured
# after it. Collect first: freezing pending garbage would pin it
# forever.
gc.collect()
gc.freeze()


def _representation_size(session) -> int:
    backend = session.backend
    if hasattr(backend, "representation"):
        return backend.representation.size()
    return sum(
        len(world[name])
        for world in backend.world_set.worlds
        for name in world.names
    )


def _route_of(session) -> tuple[str | None, str | None]:
    """The inline route the session's statements actually took.

    Mirrors ``repro.isql.explain.inline_route_report``, but from the
    backend's recorded fallback events — which also cover script
    statements, not only the final query.
    """
    events = getattr(session.backend, "fallback_events", None)
    if events is None:
        return None, None
    if not events:
        return "direct", None
    reasons = "; ".join(dict.fromkeys(event[1] for event in events))
    return "fallback", reasons


def _timed_run(
    scenario: Scenario,
    backend,
    record,
    repeats: int = 3,
    label: str | None = None,
    max_rows: int | None = None,
    max_seconds: float | None = None,
    guard_overhead: float | None = None,
):
    """Median-of-*repeats* timing of one (scenario, backend) pair."""
    timings = []
    session = result = None
    for _ in range(repeats):
        # Keep only the latest session/result — run_scenario is
        # deterministic, and pinning one copy per repeat would triple
        # peak memory on the ≥10⁵-row XL representations. The previous
        # repeat's garbage (kernel twins are reference cycles, so it
        # lingers until a gen-2 pass) is collected *outside* the timed
        # region: each repeat measures the scenario, not its
        # predecessor's cleanup.
        session = result = None
        gc.collect()
        with collect_phases() as phases:
            start = time.perf_counter()
            session, result = run_scenario(
                scenario, backend, max_rows=max_rows, max_seconds=max_seconds
            )
            elapsed = time.perf_counter() - start
        timings.append((elapsed, dict(phases)))
    timings.sort(key=lambda timing: timing[0])
    elapsed, phases = timings[(len(timings) - 1) // 2]
    route, fallback_reason = _route_of(session)
    # ISSUE 3 acceptance: no benchmark scenario statement falls back
    # anymore — the widened compiler carries aggregation, condition
    # subqueries and subquery-keyed world grouping on the inlined
    # representation. A future scenario deliberately exercising the
    # residue opts out via Scenario.uses_fallback; explicit-backend
    # sessions have no route.
    if route is not None and not scenario.uses_fallback:
        assert route == "direct", (scenario.name, fallback_reason)
    # ISSUE 5 acceptance: DML scenarios surface their apply cost as a
    # dedicated per-phase row — a refactor that silently drops the
    # instrumentation (and with it the regression gate's input) fails
    # here, not in a dashboard weeks later.
    if route is not None and "dml" in scenario.name:
        assert "dml_apply" in phases, (scenario.name, phases)
    record(
        scenario.name,
        label if label is not None else backend,
        elapsed,
        session.world_count(),
        result.world_count(),
        scenario.approx_worlds,
        _representation_size(session),
        sum(len(answer) for answer in result.answers()),
        phases=phases,
        route=route,
        fallback_reason=fallback_reason,
        kernel=getattr(session.backend, "resolved_kernel", None),
        repeats=repeats,
        guard_overhead=guard_overhead,
    )
    return elapsed, result


def _record_explicit_infeasible(scenario: Scenario, record) -> None:
    """An explicit-backend row stating the scenario is out of reach."""
    record(
        scenario.name,
        "explicit",
        None,
        None,
        None,
        scenario.approx_worlds,
        None,
        None,
        infeasible=True,
    )


@pytest.mark.parametrize("scenario", SUITE, ids=lambda s: s.name)
def test_backends_agree_and_are_recorded(scenario, backend_recorder, bench_repeats):
    _, explicit_result = _timed_run(
        scenario, "explicit", backend_recorder, bench_repeats
    )
    _, inline_result = _timed_run(scenario, "inline", backend_recorder, bench_repeats)
    assert explicit_result.answers() == inline_result.answers()
    if scenario.name in KERNEL_COMPARED:
        _, tuple_result = _timed_run(
            scenario,
            lambda: InlineBackend(kernel="tuple"),
            backend_recorder,
            bench_repeats,
            label="inline-tuple",
        )
        assert tuple_result.answers() == inline_result.answers()


@pytest.mark.parametrize("scenario", XL_SUITE, ids=lambda s: s.name)
def test_xl_scenarios_inline_only(scenario, backend_recorder, bench_repeats):
    """2¹⁶ worlds / ≥10⁵-row representations: inline-only territory.

    The explicit backend would pay one evaluation pass per world —
    recorded as infeasible. Correctness is covered by the columnar vs
    tuple kernel differential (both must agree without any explicit
    reference), and the headline XL scenario must finish in < 5 s.
    """
    assert scenario.explicit_infeasible
    _record_explicit_infeasible(scenario, backend_recorder)
    columnar_seconds, columnar_result = _timed_run(
        scenario,
        lambda: InlineBackend(kernel="columnar"),
        backend_recorder,
        bench_repeats,
        label="inline",
    )
    _, tuple_result = _timed_run(
        scenario,
        lambda: InlineBackend(kernel="tuple"),
        backend_recorder,
        bench_repeats,
        label="inline-tuple",
    )
    assert tuple_result.answers() == columnar_result.answers()
    if have_numpy():
        array_seconds, array_result = _timed_run(
            scenario,
            lambda: InlineBackend(kernel="array"),
            backend_recorder,
            bench_repeats,
            label="inline-array",
        )
        assert array_result.answers() == columnar_result.answers()
        if scenario.name in ARRAY_HEADLINE:
            assert array_seconds * 2 < columnar_seconds, (
                scenario.name,
                columnar_seconds,
                array_seconds,
            )
    if scenario.name == "tpch_what_if_xl":
        # The former fallback workload, at 2¹³ worlds: the whole
        # aggregation/subquery statement set must stay flat and fast.
        assert columnar_seconds < 10.0, (
            f"{scenario.name}: {columnar_seconds:.2f}s ≥ 10s inline budget"
        )
    if scenario.approx_worlds >= 2**16:
        assert columnar_seconds < 5.0, (
            f"{scenario.name}: {columnar_seconds:.2f}s ≥ 5s inline budget"
        )


def test_guard_overhead_is_negligible(backend_recorder, bench_repeats):
    """Armed-but-idle resource budgets must cost (nearly) nothing.

    Replays the 2¹²-world trip on the inline backend twice in the same
    process — unguarded, then with huge never-firing ``max_rows`` /
    ``max_seconds`` budgets — and records the guarded run as an
    ``inline-guarded`` row whose ``guard_overhead`` field carries the
    paired ratio. ``check_regression.py`` gates that committed ratio at
    ≤ 1.1× (the ISSUE 7 bar); the live assertion here is looser to keep
    shared-runner noise from flaking the benchmark job itself.
    """
    repeats = max(bench_repeats, 3)
    plain_seconds, plain_result = _timed_run(
        TRIP_XL, "inline", backend_recorder, repeats
    )
    pending: dict = {}

    def deferred(*args, **kwargs):
        pending["args"], pending["kwargs"] = args, kwargs

    guarded_seconds, guarded_result = _timed_run(
        TRIP_XL,
        "inline",
        deferred,
        repeats,
        label="inline-guarded",
        max_rows=2**62,
        max_seconds=1e9,
    )
    overhead = guarded_seconds / plain_seconds
    pending["kwargs"]["guard_overhead"] = overhead
    backend_recorder(*pending["args"], **pending["kwargs"])
    assert guarded_result.answers() == plain_result.answers()
    assert overhead < 1.5, (plain_seconds, guarded_seconds)


def test_pool_concurrent_readers(backend_recorder, bench_repeats):
    """The service layer's read path must stay near-free (ISSUE 9).

    Replays the 2¹²-world trip query 32 times, twice in the same
    process: serially on one plain session, then as 4 threads × 8 reads
    each through a warmed :class:`SessionPool` — connection checkout,
    thread re-pinning, snapshot sync, the DBAPI text path, checkin. The
    GIL serializes the evaluation work itself, so the pooled/plain
    wall-clock ratio isolates the per-read service overhead. Recorded
    as an ``inline-pool`` row for scenario ``pool_concurrent_readers``
    whose ``snapshot_overhead`` field carries the paired ratio;
    ``check_regression.py`` gates that committed ratio at ≤ 1.2× (the
    live assertion is looser for shared-runner noise).
    """
    n_readers, reads_per_thread = 4, 8
    total_reads = n_readers * reads_per_thread
    repeats = max(bench_repeats, 3)

    def seed() -> ISQLSession:
        session = ISQLSession(backend=InlineBackend())
        for name, relation in TRIP_XL.relations:
            session.register(name, relation)
        return session

    plain_session = seed()
    plain_timings = []
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        for _ in range(total_reads):
            plain_result = plain_session.query(TRIP_XL.query)
        plain_timings.append(time.perf_counter() - start)
    plain_seconds = sorted(plain_timings)[(repeats - 1) // 2]

    pool = SessionPool(seed(), size=n_readers)
    # Warm the pool: spawning the per-connection sessions is a one-time
    # cost, not part of the steady-state per-read overhead under gate.
    warm = [pool.acquire() for _ in range(n_readers)]
    for connection in warm:
        pool.release(connection)
    pooled_answers = []

    def reader(barrier: threading.Barrier) -> None:
        barrier.wait()
        for _ in range(reads_per_thread):
            with pool.connection() as connection:
                cursor = connection.execute(TRIP_XL.query)
        pooled_answers.append(cursor.result)

    pooled_timings = []
    for _ in range(repeats):
        gc.collect()
        barrier = threading.Barrier(n_readers)
        threads = [
            threading.Thread(target=reader, args=(barrier,))
            for _ in range(n_readers)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        pooled_timings.append(time.perf_counter() - start)
    pooled_seconds = sorted(pooled_timings)[(repeats - 1) // 2]

    for result in pooled_answers:
        assert result.answers() == plain_result.answers()
    overhead = pooled_seconds / plain_seconds
    final, _ = pool.store.spawn_session()
    backend_recorder(
        "pool_concurrent_readers",
        "inline-pool",
        pooled_seconds,
        final.world_count(),
        plain_result.world_count(),
        TRIP_XL.approx_worlds,
        _representation_size(final),
        sum(len(answer) for answer in plain_result.answers()),
        kernel=getattr(final.backend, "resolved_kernel", None),
        repeats=repeats,
        snapshot_overhead=overhead,
    )
    pool.close()
    final.close()
    assert overhead < 2.0, (plain_seconds, pooled_seconds)


def test_shape_inline_wins_by_5x_beyond_1024_worlds(backend_recorder, bench_repeats):
    """The PR-1 acceptance bar: ≥ 5× on a scenario with ≥ 2¹⁰ worlds."""
    ratios = {}
    for scenario in (LARGE["trip_certain"], TRIP_XL):
        explicit_time, _ = _timed_run(
            scenario, "explicit", backend_recorder, bench_repeats
        )
        inline_time, _ = _timed_run(
            scenario, "inline", backend_recorder, bench_repeats
        )
        assert scenario.approx_worlds >= 2**10
        ratios[scenario.name] = explicit_time / inline_time
    assert max(ratios.values()) >= 5, ratios


def test_shape_columnar_kernel_wins_beyond_4096_worlds(backend_recorder, bench_repeats):
    """The PR-2 acceptance bar, measured live: the columnar kernel must
    clearly beat the tuple kernel (PR 1's engine) on a ≥ 2¹²-world
    scenario. The ≥ 3× claim against PR 1's committed seconds is
    visible in BENCH_backends.json's ``columnar_speedup_over_tuple_kernel``;
    the live bound is 2× to keep shared-runner noise from flaking."""
    tuple_time, _ = _timed_run(
        TRIP_XL,
        lambda: InlineBackend(kernel="tuple"),
        backend_recorder,
        max(bench_repeats, 3),
        label="inline-tuple",
    )
    columnar_time, _ = _timed_run(
        TRIP_XL,
        lambda: InlineBackend(kernel="columnar"),
        backend_recorder,
        max(bench_repeats, 3),
        label="inline",
    )
    assert columnar_time * 2 < tuple_time, (tuple_time, columnar_time)


@pytest.mark.skipif(not have_numpy(), reason="array kernel needs numpy")
def test_nightly_trip_2p20_array_kernel(backend_recorder, bench_repeats):
    """The first 2²⁰-world scenario: array-kernel-only, nightly-only.

    16× the XL trip's world count over a ~3·10⁶-row flat table — the
    per-row kernels are not worth timing here, so only the array kernel
    is measured (with its per-phase breakdown); explicit stays
    infeasible. Excluded from the PR-time benchmark job by the
    ``not nightly`` keyword filter: generating the instance alone costs
    seconds, and the run is minutes on a cold cache.
    """
    (scenario,) = nightly_scenarios(["trip_certain_2p20"])
    assert scenario.explicit_infeasible
    # The 2²⁰ instance is built here, not at module import, so PR-time
    # benchmark runs never pay for it. Freeze its ~3·10⁶ row tuples for
    # the same reason the module freezes the XL suites.
    gc.collect()
    gc.freeze()
    _record_explicit_infeasible(scenario, backend_recorder)
    seconds, result = _timed_run(
        scenario,
        lambda: InlineBackend(kernel="array"),
        backend_recorder,
        bench_repeats,
        label="inline-array",
    )
    assert result.world_count() == 1  # certain answers are world-uniform
    (answer,) = result.answers()
    assert ("A0",) in answer.rows  # the guaranteed common arrival
    assert seconds < 60.0, f"{scenario.name}: {seconds:.2f}s ≥ 60s nightly budget"


@pytest.mark.skipif(not have_numpy(), reason="array kernel needs numpy")
def test_nightly_census_repair_2p20_array_kernel(backend_recorder, bench_repeats):
    """2²⁰ worlds by *repair*, not choice-of: the factored-id headline.

    20 key-violating census blocks repair into 20 independent per-group
    id factors — the representation stays sum-sized (~10³ world-table
    rows across factors over a ~4·10³-row census) where the joint
    product encoding would materialize 2²⁰ world-table rows and never
    finish. Exact world counting runs as a product of per-factor
    distinct-profile counts, so both the session and the result report
    2²⁰ without enumerating a single joint id. Nightly-only for the
    same budget reason as the 2²⁰ trip.
    """
    (scenario,) = nightly_scenarios(["census_repair_2p20"])
    assert scenario.explicit_infeasible
    gc.collect()
    gc.freeze()
    _record_explicit_infeasible(scenario, backend_recorder)
    seconds, result = _timed_run(
        scenario,
        lambda: InlineBackend(kernel="array"),
        backend_recorder,
        bench_repeats,
        label="inline-array",
    )
    # Every world repairs each violating group to exactly one record,
    # so the distinct result worlds are the full 2²⁰ — counted via the
    # per-factor product, never by enumeration.
    assert result.world_count() == 2**20
    (answer,) = result.answers()
    # The 4096 − 20 unconflicted people are certain; the 20 repaired
    # ones are too (both candidate records agree on SSN and Name).
    assert len(answer.rows) == 4096
    assert seconds < 60.0, f"{scenario.name}: {seconds:.2f}s ≥ 60s nightly budget"


def test_statement_replay_plan_cache(backend_recorder, bench_repeats):
    """Prepared-statement replay (PR 10): the plan cache's headline.

    Re-executes the 2¹²-world trip query 100× with real DML on an
    unrelated side table interleaved between reads — the plan cache
    serves every re-compile and the result memo every re-evaluation,
    because the interleaved DML bumps only the side table's version.
    The identical replay runs on a cache-off session in the same
    process; the paired uncached/cached wall-clock ratio is recorded
    as ``plan_cache_speedup`` on the ``inline-replay`` row (with the
    cached run's hit rate as ``cache_hit_rate``), and
    ``check_regression.py`` gates the committed ratio at ≥ 3× — the
    ISSUE 10 acceptance bar, asserted live here as well.
    """
    replays = 100
    repeats = max(bench_repeats, 3)

    def replay(cache: bool):
        timings = []
        session = None
        for _ in range(repeats):
            session = ISQLSession(backend=InlineBackend(cache=cache))
            for name, relation in TRIP_XL.relations:
                session.register(name, relation)
            session.register("Audit", Relation(("N",), {(0,)}))
            gc.collect()
            start = time.perf_counter()
            for index in range(replays):
                result = session.query(TRIP_XL.query)
                # Alternate two fixed DML texts so the replay exercises
                # genuine invalidation traffic (Audit's version bumps on
                # every statement) while the trip memo entry survives.
                if index % 2:
                    session.run("delete from Audit where N = 1;")
                else:
                    session.run("insert into Audit values (1);")
            timings.append(time.perf_counter() - start)
        return sorted(timings)[(repeats - 1) // 2], session, result

    uncached_seconds, _, uncached_result = replay(cache=False)
    cached_seconds, cached_session, cached_result = replay(cache=True)
    assert cached_result.answers() == uncached_result.answers()
    info = cached_session.cache_info()
    hit_rate = info.hits / (info.hits + info.misses)
    assert hit_rate > 0.9, info  # ~1 miss per cache per repeat
    speedup = uncached_seconds / cached_seconds
    backend_recorder(
        "statement_replay",
        "inline-replay",
        cached_seconds,
        cached_session.world_count(),
        cached_result.world_count(),
        TRIP_XL.approx_worlds,
        _representation_size(cached_session),
        sum(len(answer) for answer in cached_result.answers()),
        kernel=getattr(cached_session.backend, "resolved_kernel", None),
        repeats=repeats,
        plan_cache_speedup=speedup,
        cache_hit_rate=hit_rate,
    )
    backend_recorder(
        "statement_replay",
        "inline-replay-nocache",
        uncached_seconds,
        cached_session.world_count(),
        uncached_result.world_count(),
        TRIP_XL.approx_worlds,
        _representation_size(cached_session),
        sum(len(answer) for answer in uncached_result.answers()),
        kernel=getattr(cached_session.backend, "resolved_kernel", None),
        repeats=repeats,
    )
    assert speedup >= 3.0, (uncached_seconds, cached_seconds)
