"""Crash consistency under injected kernel-op faults, on every backend.

The differential sweep behind the session's transactional claims:
:mod:`repro.testing.faults` crashes evaluation at swept kernel-op
boundaries — mid-statement, after intermediate relations exist but
before any commit — across the datagen scenarios, on the explicit
backend and the inline backend in every kernel × strategy combination.
After every injected crash the suite asserts

* the fault surfaces as :class:`~repro.errors.EvaluationError` with the
  :class:`~repro.testing.InjectedFault` chained as ``__cause__`` (the
  exception-hygiene net: raw non-``ReproError`` exceptions never
  escape),
* the session state is *identical* to the oracle: the pre-statement
  state for statement-at-a-time execution, the pre-script state for
  ``atomic=True`` scripts, and some committed statement-prefix state
  for default ``run`` (whose batches commit their applied
  prefix),
* the session stays usable — the interrupted work replays cleanly to
  the same end state a never-faulted run reaches.

Per-PR the sweep samples a few injection points per statement
(:func:`~repro.testing.sweep_points`); ``REPRO_FAULT_SWEEP=full``
(the nightly configuration) sweeps every op boundary.
"""

import os

import pytest

from repro.backend import InlineBackend
from repro.backend.testing import run_scenario
from repro.datagen import scenarios
from repro.errors import EvaluationError
from repro.isql.parser import parse_script
from repro.isql.session import ISQLSession
from repro.relational.array_kernel import have_numpy
from repro.testing import InjectedFault, count_ops, inject_fault, sweep_points

#: Every registered kernel; "array" joins when numpy is importable.
KERNEL_NAMES = ("columnar", "tuple") + (("array",) if have_numpy() else ())

#: (label, backend-or-factory): explicit plus kernels × strategies.
#: The inline backends run without the statement cache — see _fresh.
BACKENDS = (
    (("explicit", "explicit"),)
    + tuple(
        (
            f"inline[{kernel}]",
            lambda kernel=kernel: InlineBackend(kernel=kernel, cache=False),
        )
        for kernel in KERNEL_NAMES
    )
    + tuple(
        (
            f"inline-translate[{kernel}]",
            lambda kernel=kernel: InlineBackend(
                strategy="translate", kernel=kernel, cache=False
            ),
        )
        for kernel in KERNEL_NAMES
    )
)

SCRIPTED = {s.name: s for s in scenarios("small") if s.script}


def _limit(bounded: int) -> int | None:
    """Injection points per sweep: *bounded* per-PR, all of them nightly."""
    return None if os.environ.get("REPRO_FAULT_SWEEP") == "full" else bounded


def _fresh(scenario, backend) -> ISQLSession:
    """A new session with the scenario's relations and keys, script unrun.

    The statement cache is off (BACKENDS builds every inline backend
    with ``cache=False``): the sweep dry-counts a statement's
    kernel ops, rolls back, and replays with a fault injected at each
    op index — a cached replay would legitimately skip those ops (the
    rolled-back representation carries its old table versions, so the
    result memo re-hits) and the injection points would never fire.
    Cache-on fault replay is covered by the cache differential suite
    (``test_cache_differential.py``).
    """
    resolved = backend() if callable(backend) else backend
    session = ISQLSession(backend=resolved)
    for name, relation in scenario.relations:
        session.register(name, relation)
    for relation, attributes in scenario.keys:
        session.declare_key(relation, attributes)
    return session


def _parametrize(test):
    return pytest.mark.parametrize("name", sorted(SCRIPTED))(
        pytest.mark.parametrize("label,backend", BACKENDS, ids=[b[0] for b in BACKENDS])(
            test
        )
    )


@_parametrize
def test_statement_sweep_leaves_prestatement_state(label, backend, name):
    """A fault at any kernel op inside statement N leaves the session at
    the state committed after statement N-1, bit for bit, and the
    statement then replays cleanly — swept statement by statement
    through the whole script."""
    scenario = SCRIPTED[name]
    session = _fresh(scenario, backend)
    for statement in parse_script(scenario.script):
        before = session.world_set
        before_views = dict(session.views)
        # Dry-count the statement's op boundaries, then undo it: the
        # savepoint machinery is both the tool and part of what is
        # under test here.
        mark = session.savepoint()
        total = count_ops(lambda: session.execute_statement(statement))
        session.rollback_to(mark)
        session.release(mark)
        for at in sweep_points(total, _limit(3)):
            with inject_fault(at) as counter:
                with pytest.raises(EvaluationError) as info:
                    session.execute_statement(statement)
                assert isinstance(info.value.__cause__, InjectedFault)
                assert counter.fired
            assert session.world_set == before, (
                f"{label}/{name}: fault at op {at}/{total} left a torn state"
            )
            assert session.views == before_views
        # The session is usable: the same statement now applies cleanly.
        session.execute_statement(statement)
    reference_session, reference_result = run_scenario(scenario, backend)
    assert session.query(scenario.query).answers() == reference_result.answers()
    assert session.world_set == reference_session.world_set


@_parametrize
def test_atomic_script_rolls_back_to_prescript_state(label, backend, name):
    """With ``atomic=True`` a fault anywhere in the script rolls the
    session back to the state before its first statement; the script
    then replays to the never-faulted end state."""
    scenario = SCRIPTED[name]
    reference_session, reference_result = run_scenario(scenario, backend)
    probe = _fresh(scenario, backend)
    total = count_ops(lambda: probe.run(scenario.script))
    if total == 0:
        pytest.skip("script crosses no kernel-op boundary (view-only)")
    for at in sweep_points(total, _limit(3)):
        session = _fresh(scenario, backend)
        before = session.world_set
        with inject_fault(at) as counter:
            with pytest.raises(EvaluationError) as info:
                session.run(scenario.script, atomic=True)
            assert isinstance(info.value.__cause__, InjectedFault)
            assert counter.fired
        assert session.world_set == before, (
            f"{label}/{name}: atomic rollback missed at op {at}/{total}"
        )
        session.run(scenario.script, atomic=True)
        assert session.world_set == reference_session.world_set
        assert session.query(scenario.query).answers() == reference_result.answers()


@_parametrize
def test_default_script_keeps_a_committed_statement_prefix(label, backend, name):
    """Without ``atomic``, a mid-script fault leaves exactly the state
    after some statement prefix — never a torn statement, even inside a
    coalesced DML batch (whose applied prefix commits)."""
    scenario = SCRIPTED[name]
    statements = parse_script(scenario.script)
    oracle = _fresh(scenario, backend)
    prefix_states = [oracle.world_set]
    for statement in statements:
        oracle.execute_statement(statement)
        prefix_states.append(oracle.world_set)
    probe = _fresh(scenario, backend)
    total = count_ops(lambda: probe.run(scenario.script))
    if total == 0:
        pytest.skip("script crosses no kernel-op boundary (view-only)")
    anchor = scenario.relations[0][0]
    for at in sweep_points(total, _limit(3)):
        session = _fresh(scenario, backend)
        with inject_fault(at):
            with pytest.raises(EvaluationError) as info:
                session.run(scenario.script)
            assert isinstance(info.value.__cause__, InjectedFault)
        state = session.world_set
        assert any(state == prefix for prefix in prefix_states), (
            f"{label}/{name}: state after fault at op {at}/{total} "
            "matches no committed statement prefix"
        )
        # Usable afterwards: the registered base relations still answer.
        session.query(f"select * from {anchor};")


@pytest.mark.parametrize("name", sorted(s.name for s in scenarios("small")))
@pytest.mark.parametrize(
    "label,backend", BACKENDS, ids=[b[0] for b in BACKENDS]
)
def test_query_sweep_leaves_state_untouched(label, backend, name):
    """Faults inside the final *query* (where view-only scripts like
    tpch_what_if do all their work): selects never commit, so any
    mid-evaluation crash must leave the session state identical and the
    retried query must produce the reference answers."""
    scenario = {s.name: s for s in scenarios("small")}[name]
    session = _fresh(scenario, backend)
    if scenario.script:
        session.run(scenario.script)
    before = session.world_set
    total = count_ops(lambda: session.query(scenario.query))
    reference = session.query(scenario.query).answers()
    for at in sweep_points(total, _limit(3)):
        with inject_fault(at) as counter:
            with pytest.raises(EvaluationError) as info:
                session.query(scenario.query)
            assert isinstance(info.value.__cause__, InjectedFault)
            assert counter.fired
        assert session.world_set == before, (
            f"{label}/{name}: query fault at op {at}/{total} mutated state"
        )
        assert session.query(scenario.query).answers() == reference
