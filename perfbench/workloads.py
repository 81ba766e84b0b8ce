"""The two workloads: seeded inputs, op streams, and how each op runs.

Every input comes from a ``repro.datagen`` generator seeded with the
run's ``--seed``; every op's constants come from a ``random.Random``
seeded the same way, so one seed always yields the same op sequence.

``service_hot`` and ``service_cold`` drive a 2-connection
``SessionPool`` round-robin from one thread in a closed loop. Each op
checks a connection out, executes one parameterized statement, fetches
the answer, and checks the connection back in. Ops come in windows of
:data:`WINDOW` ops with a fixed composition per workload (only
constants and order change), so every window does the same work and
windows can be compared with each other.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Iterator

from repro import datagen
from repro.isql import ISQLSession
from repro.relational import Relation
from repro.service import SessionPool


@dataclass(frozen=True)
class Op:
    """One op of a workload's stream.

    *cls* is the reported op class (``read``/``split``/``write``).
    *reads* names the tables a select reads and *writes* the table a
    write changes; the verifier keys its replay memo on them. The last
    op of each window has *window_end* set: the loop may stop after it,
    and collects garbage there.
    """

    cls: str
    kind: str
    sql: str
    params: tuple = ()
    reads: tuple[str, ...] = ()
    writes: str | None = None
    abort: bool = False
    window_end: bool = False


def render(sql: str, params: tuple) -> str:
    """*sql* with each ``?`` replaced by its literal (ints, quote-free str)."""
    if not params:
        return sql
    parts = sql.split("?")
    if len(parts) != len(params) + 1:
        raise ValueError(f"{sql!r} takes {len(parts) - 1} parameters")
    out = [parts[0]]
    for value, tail in zip(params, parts[1:]):
        if isinstance(value, str):
            if "'" in value:
                raise ValueError(f"literal {value!r} contains a quote")
            out.append(f"'{value}'")
        else:
            out.append(str(int(value)))
        out.append(tail)
    return "".join(out)


def materialize(result) -> object:
    """One ``StatementResult``'s answer as the program hands it over:
    the applied flag of DML, the answer rows of a select, else None."""
    if result.applied is not None:
        return ("applied", result.applied)
    if result.answer is not None:
        return result.relation.rows
    return None


def digest(answer) -> object:
    """A compact, comparable form of a materialized answer.

    Row collections become the hash of their set of tuples (compared
    only within one process, so hash randomization is harmless).
    """
    if answer is None or (isinstance(answer, tuple) and answer[:1] == ("applied",)):
        return answer
    return hash(frozenset(tuple(row) for row in answer))


N_DEPARTURES = 4096
N_ARRIVALS = 64
N_CITIES = 64
DEAL_CITIES = 16
HOTELS_PER_CITY = 4
DEALS_PER_CITY = 16
MAX_PRICE = 250
HOT_KEYS = 24
WINDOW = 250
SEED_SCRIPT = "Trip <- select * from Flights choice of Dep;"

READ_HOTELS = "select Name, Price from Hotels where City = ? and Price >= ?;"
HOT_SPLIT = "select possible Dep from Trip where Arr = ?;"
COLD_SPLIT_POSSIBLE = "select possible Arr from Trip where Dep = ?;"
COLD_SPLIT_CERTAIN = "select certain Arr from Trip where Arr != ? and Arr != ?;"
DEAL_UPDATE = "update Deals set Price = ? where Name = ?;"
DEAL_INSERT = "insert into Deals values (?, ?, ?);"
TRIP_UPDATE = "update Trip set Arr = ? where Dep = ? and Arr = ?;"


def service_inputs(seed: int) -> dict[str, Relation]:
    """``Flights`` (2^12 departures), ``Hotels`` (read only) and the
    written side table ``Deals``."""
    return {
        "Flights": datagen.flights(N_DEPARTURES, N_ARRIVALS, 3, seed=seed),
        "Hotels": datagen.hotels(N_CITIES, HOTELS_PER_CITY, seed=seed),
        "Deals": datagen.hotels(DEAL_CITIES, DEALS_PER_CITY, seed=seed + 1),
    }


def seed_session(seed: int, session: ISQLSession) -> ISQLSession:
    for name, relation in service_inputs(seed).items():
        session.register(name, relation)
    session.declare_key("Deals", ("Name",))
    session.run(SEED_SCRIPT)
    return session


class Service:
    """``service_hot`` / ``service_cold`` over one pool of 2 connections.

    Reads select from ``Hotels``, which no op writes; split reads close
    over ``Trip``; writes go to ``Deals`` and, in ``service_hot``, once
    per window to ``Trip``. Each window of :data:`WINDOW` ops has the
    composition in :data:`WINDOWS`, shuffled per window from the seed.
    The window's ``Trip`` write opens it, so the split reads it
    invalidates come at a fixed period.
    """

    #: Ops per kind in one window.
    WINDOWS = {
        "service_hot": {
            "trip_update": 1, "hotels_read": 155, "trip_possible": 70,
            "deal_update": 13, "deal_insert": 6, "deal_update_aborted": 5,
        },
        "service_cold": {
            "hotels_read": 230, "trip_possible": 5, "trip_certain": 3,
            "deal_update": 9, "deal_insert": 3,
        },
    }

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.hot = name == "service_hot"
        self.seed = seed
        self.pool: SessionPool | None = None
        self._held = None

    def setup(self) -> None:
        """Seed state, open the pool, and warm both connections up."""
        self.close()
        session = seed_session(self.seed, ISQLSession(backend="inline"))
        inputs = service_inputs(self.seed)
        self.base_rows = sum(len(relation) for relation in inputs.values())
        self.trip_rows = sorted(
            row for row in inputs["Flights"].rows if row[1] != "A0"
        )
        self.pool = SessionPool(session, size=2, autocommit=True)
        self._held = self.pool.acquire()
        rng = random.Random(self.seed)
        self.hot_reads = [
            (rng.randrange(N_CITIES), rng.randrange(MAX_PRICE)) for _ in range(HOT_KEYS)
        ]
        self.hot_splits = rng.sample(range(1, N_ARRIVALS), HOT_KEYS)
        # Warm-up: reads only, so the timed ops start from the seeded
        # state. The hot workload walks its whole hot set (every cache
        # tier then holds it); the cold one runs reads of every kind.
        if self.hot:
            warm = [self._op("hotels_read", rng, key) for key in self.hot_reads]
            warm += [self._op("trip_possible", rng, arr) for arr in self.hot_splits]
        else:
            warm_rng = random.Random(self.seed + 1)
            warm = [
                self._op(kind, warm_rng)
                for kind in ("hotels_read", "trip_possible", "trip_certain") * 10
            ]
        for op in warm:
            self.execute(op)

    def _op(self, kind: str, rng: random.Random, key=None) -> Op:
        if kind == "hotels_read":
            if key is None:
                key = rng.choice(self.hot_reads) if self.hot else (
                    rng.randrange(N_CITIES), rng.randrange(MAX_PRICE)
                )
            city, price = key
            return Op("read", kind, READ_HOTELS, (f"A{city}", price), reads=("Hotels",))
        if kind == "trip_possible":
            if self.hot:
                arr = key if key is not None else rng.choice(self.hot_splits)
                return Op("split", kind, HOT_SPLIT, (f"A{arr}",), reads=("Trip",))
            return Op("split", kind, COLD_SPLIT_POSSIBLE,
                      (f"D{rng.randrange(N_DEPARTURES)}",), reads=("Trip",))
        if kind == "trip_certain":
            return Op("split", kind, COLD_SPLIT_CERTAIN,
                      (f"A{rng.randrange(N_ARRIVALS)}", f"A{rng.randrange(N_ARRIVALS)}"),
                      reads=("Trip",))
        if kind == "trip_update":
            dep, arr = rng.choice(self.trip_rows)
            return Op("write", kind, TRIP_UPDATE,
                      (f"A{rng.randrange(1, N_ARRIVALS)}", dep, arr), writes="Trip")
        # Updates and inserts both name a generated deal, so the table
        # keeps its size: an insert at another price violates the key
        # and is discarded (wasted work); at the same price it changes
        # nothing.
        deal = f"H{rng.randrange(DEAL_CITIES)}.{rng.randrange(DEALS_PER_CITY)}"
        price = 50 + 10 * rng.randrange(20)
        if kind == "deal_insert":
            return Op("write", kind, DEAL_INSERT,
                      (deal, f"A{rng.randrange(DEAL_CITIES)}", price), writes="Deals")
        return Op("write", kind, DEAL_UPDATE, (price, deal), writes="Deals",
                  abort=kind == "deal_update_aborted")

    def ops(self) -> Iterator[Op]:
        rng = random.Random(self.seed + 2)
        window = self.WINDOWS[self.name]
        kinds = [kind for kind, count in window.items() if kind != "trip_update"
                 for _ in range(count)]
        while True:
            order = list(kinds)
            rng.shuffle(order)
            if "trip_update" in window:
                order.insert(0, "trip_update")
            ops = [self._op(kind, rng) for kind in order]
            ops[-1] = replace(ops[-1], window_end=True)
            yield from ops

    def execute(self, op: Op):
        """Check out, execute, fetch, check in; (answer, disposition).

        The disposition is ``hit``/``miss`` from the shared result memo's
        counters when the op consulted it, else the cursor's own report
        (plan cache hit or miss for writes).
        """
        pool = self.pool
        memo = self._held.session.backend.cache.memo
        hits, misses = memo.hits, memo.misses
        connection = pool.acquire()
        try:
            if op.abort:
                connection.autocommit = False
            cursor = connection.execute(op.sql, op.params)
            if op.cls == "write":
                answer = ("applied", cursor.applied)
            else:
                answer = cursor.fetchall()
            if op.abort:
                connection.rollback()
                connection.autocommit = True
        finally:
            pool.release(self._held)
            self._held = connection
        if memo.hits > hits:
            return answer, "hit"
        if memo.misses > misses:
            return answer, "miss"
        return answer, cursor.cache

    def space(self) -> tuple[float, float, float]:
        """(rows per base row, representation rows, worlds) of the latest state."""
        connection = self._held
        connection.pin_snapshot()  # syncs to the latest published state
        connection.unpin_snapshot()
        representation = connection.session.backend.representation
        rows = representation.size()
        return rows / self.base_rows, float(rows), float(representation.world_count())

    def cache_counters(self) -> dict[str, list[int]]:
        cache = self._held.session.backend.cache
        return {
            tier: [info.hits, info.misses, info.invalidations]
            for tier, info in (
                (tier, getattr(cache, tier).info()) for tier in ("parses", "plans", "memo")
            )
        }

    def close(self) -> None:
        if self.pool is not None:
            self.pool.release(self._held)
            self.pool.close()
            self.pool = None
            self._held = None


WORKLOAD_NAMES = tuple(Service.WINDOWS)


def make(name: str, seed: int) -> Service:
    if name not in Service.WINDOWS:
        raise ValueError(f"unknown workload {name!r}")
    return Service(name, seed)
