"""A bounded pool of connections over one shared snapshot store.

:class:`SessionPool` is the thread-safe object of the service layer:
threads share the *pool* (never a connection) and check connections out
and back in around each unit of work::

    pool = SessionPool("census_repair", size=4)
    with pool.connection() as conn:
        rows = conn.execute("select certain SSN, Name from Clean;").fetchall()

Checked-out connections are **pinned to the acquiring thread**
(:meth:`~repro.isql.session.ISQLSession.pin_thread`): using one from
any other thread raises, instead of racing on the session's mutable
references. All connections share the pool's
:class:`~repro.service.snapshots.SnapshotStore`, so a commit on one is
visible to the next statement on every other (read-committed), writes
serialize through the store's writer lock, and a reader holding a
pinned snapshot is isolated from concurrent DML batches entirely.

Sizing: at most *size* connections exist at a time; ``acquire`` blocks
up to *timeout* seconds for a free slot and then raises
:exc:`~repro.service.dbapi.OperationalError`. Connections are created
lazily (forking the store template is O(#tables), but not free) and
reused; at most *max_idle* stay parked between checkouts — beyond
that, released connections are closed, so an occasional burst does not
pin burst-many sessions' caches forever. ``release`` rolls back any
transaction left open, unpins, and re-parks the connection.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from typing import Iterator

from repro.service import dbapi
from repro.service.snapshots import SnapshotStore


class SessionPool:
    """A bounded, thread-safe pool of :class:`~repro.service.dbapi.Connection`.

    *source* is anything :func:`repro.service.dbapi.connect` accepts
    (scenario name, Scenario, session, or an existing store). The
    remaining keywords configure every pooled connection:
    *autocommit*, the *max_rows*/*max_seconds* resource-budget
    passthrough, and *lock_timeout* for the writer lock. Pooled
    connections share one pool-wide statement cache (their sessions
    fork from the store template, and forked backends share the
    template's cache by reference), so a statement compiled on one
    connection is a plan-cache hit on every other; a seed whose backend
    was built with ``InlineBackend(cache=False)`` gives a pool without
    one. Retiring a connection (release beyond *max_idle*, pool
    close) closes it, which detaches its session from the shared cache
    — a retired session cannot pin memoized relations.
    """

    def __init__(
        self,
        source,
        size: int = 4,
        max_idle: int | None = None,
        backend: str = "inline",
        autocommit: bool = False,
        max_worlds: int | None = None,
        max_rows: int | None = None,
        max_seconds: float | None = None,
        lock_timeout: float | None = None,
    ) -> None:
        if size < 1:
            raise dbapi.InterfaceError(f"pool size must be >= 1, got {size}")
        if isinstance(source, SnapshotStore):
            self.store = source
        else:
            # Build the seed through connect() so scenario replay and
            # error mapping live in exactly one place; the probe
            # connection itself is handed straight to the idle list.
            probe = dbapi.connect(source, backend=backend, max_worlds=max_worlds)
            self.store = probe.store
            probe.close()
        self.size = size
        self.max_idle = size if max_idle is None else max_idle
        self._connection_kwargs = dict(
            autocommit=autocommit,
            max_rows=max_rows,
            max_seconds=max_seconds,
            lock_timeout=lock_timeout,
        )
        self._lock = threading.Condition()
        self._idle: deque[dbapi.Connection] = deque()
        self._checked_out: set[int] = set()
        self._created = 0
        self._closed = False

    # -- checkout ------------------------------------------------------------------

    def acquire(self, timeout: float | None = None) -> dbapi.Connection:
        """Check a connection out, pinned to the calling thread.

        Blocks up to *timeout* seconds when all *size* connections are
        checked out; ``None`` waits indefinitely. Raises
        :exc:`~repro.service.dbapi.OperationalError` on timeout and
        :exc:`~repro.service.dbapi.InterfaceError` on a closed pool.
        """
        with self._lock:
            while True:
                if self._closed:
                    raise dbapi.InterfaceError("pool is closed")
                if self._idle:
                    connection = self._idle.popleft()
                    break
                if self._created < self.size:
                    self._created += 1
                    connection = None  # create outside the lock
                    break
                if not self._lock.wait(timeout):
                    raise dbapi.OperationalError(
                        f"pool exhausted: all {self.size} connections are "
                        f"checked out (waited {timeout}s)"
                    )
        if connection is None:
            try:
                connection = dbapi.Connection(
                    self.store, **self._connection_kwargs
                )
            except BaseException:
                with self._lock:
                    self._created -= 1
                    self._lock.notify()
                raise
        self._checked_out.add(id(connection))
        connection.session.pin_thread()
        return connection

    def release(self, connection: dbapi.Connection) -> None:
        """Check *connection* back in.

        Any transaction left open is rolled back (the writer lock must
        not ride into the idle list), the thread pin is lifted, and the
        connection is parked for reuse — or closed, when the pool is
        closed, the connection is closed/broken, or *max_idle*
        connections are already parked. Releasing a connection that is
        not checked out of this pool (double release included) raises
        :exc:`~repro.service.dbapi.InterfaceError`.
        """
        with self._lock:
            try:
                self._checked_out.remove(id(connection))
            except KeyError:
                raise dbapi.InterfaceError(
                    "connection is not checked out of this pool "
                    "(double release?)"
                ) from None
        connection.session.unpin_thread()
        retire = self._closed or connection._closed
        if not retire:
            if connection.in_transaction:
                connection.rollback()
            connection.unpin_snapshot()
        with self._lock:
            if retire or len(self._idle) >= self.max_idle:
                self._created -= 1
                if not connection._closed:
                    connection.close()
            else:
                self._idle.append(connection)
            self._lock.notify()

    @contextmanager
    def connection(
        self, timeout: float | None = None
    ) -> Iterator[dbapi.Connection]:
        """``acquire``/``release`` as a context manager.

        Commits on clean exit and rolls back on error, mirroring the
        connection's own context-manager contract — a pooled unit of
        work is a transaction unless it says otherwise.
        """
        connection = self.acquire(timeout)
        try:
            yield connection
            connection.commit()
        except BaseException:
            if connection.in_transaction:
                connection.rollback()
            raise
        finally:
            self.release(connection)

    # -- lifecycle -----------------------------------------------------------------

    def cache_info(self):
        """Counters of the pool-wide statement cache (see module docs)."""
        return self.store.cache_info()

    @property
    def checked_out(self) -> int:
        """How many connections are currently checked out."""
        with self._lock:
            return len(self._checked_out)

    @property
    def idle(self) -> int:
        """How many connections are parked ready for reuse."""
        with self._lock:
            return len(self._idle)

    def close(self) -> None:
        """Close the pool: idle connections close now, outstanding ones
        on release. Acquire raises from here on; idempotent."""
        with self._lock:
            self._closed = True
            parked = list(self._idle)
            self._idle.clear()
            self._created -= len(parked)
            self._lock.notify_all()
        for connection in parked:
            connection.close()

    def __enter__(self) -> "SessionPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"SessionPool(size={self.size}, checked_out={self.checked_out}, "
            f"idle={self.idle}, version={self.store.version})"
        )


__all__ = ["SessionPool"]
