"""Independent replay of a run's op sequence, outside the timed region.

The replay runs every op again on an inline session pinned to the
``array`` kernel with the statement cache off — a different kernel and
no plan cache or result memo — and with each statement's parameters
rendered by the benchmark itself, not by the DBAPI layer. Writes replay
one statement at a time, in order. Between two writes to the tables a
select reads, the same select has one correct answer, so the replay
evaluates each (table versions, statement) pair once.
"""

from __future__ import annotations

from repro.backend import InlineBackend
from repro.errors import ReproError
from repro.isql import ISQLSession

from workloads import Op, digest, materialize, render, seed_session

REPLAY_KERNEL = "array"


def _answer(session: ISQLSession, text: str):
    """The statement's digested answer; a failing statement answers with
    its error, which no observed answer equals."""
    try:
        (result,) = session.run(text)
    except ReproError as error:
        return ("replay error", str(error))
    return digest(materialize(result))


def verify_service(seed: int, ops: list[Op], observed: list) -> list[bool]:
    """Per op: does the observed answer equal the replayed one?"""
    session = seed_session(
        seed, ISQLSession(backend=InlineBackend(kernel=REPLAY_KERNEL, cache=False))
    )
    versions: dict[str, int] = {}
    memo: dict[tuple, object] = {}
    verdicts: list[bool] = []
    for op, seen in zip(ops, observed):
        text = render(op.sql, op.params)
        if op.cls == "write":
            if op.abort:
                savepoint = session.savepoint()
                verdicts.append(seen == _answer(session, text))
                session.rollback_to(savepoint)
                session.release(savepoint)
            else:
                verdicts.append(seen == _answer(session, text))
                versions[op.writes] = versions.get(op.writes, 0) + 1
            continue
        key = (tuple(versions.get(table, 0) for table in op.reads), text)
        if key not in memo:
            memo[key] = _answer(session, text)
        verdicts.append(seen == memo[key])
    return verdicts
