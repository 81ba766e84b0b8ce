"""Phase accounting is per thread.

``ISQLSession.run`` installs a phase collector for every statement, and
pooled sessions run statements on several threads at once. A collector
installed on one thread must be invisible to every other: a thread that
installed nothing sees no collector, and its ``phase()`` brackets write
nowhere — least of all into another thread's dict.
"""

from __future__ import annotations

import threading

from repro.backend.instrument import active_collector, collect_phases, phase
from repro.isql import ISQLSession
from repro.relational import Relation


def test_collector_is_invisible_to_other_threads():
    inside = threading.Event()
    done = threading.Event()
    seen: dict[str, object] = {}

    def thread_b() -> None:
        inside.wait(timeout=10)
        seen["collector"] = active_collector()
        with phase("execute"):
            pass
        done.set()

    worker = threading.Thread(target=thread_b)
    worker.start()
    with collect_phases() as collector_a:
        inside.set()
        assert done.wait(timeout=10)
        assert active_collector() is collector_a
    worker.join(timeout=10)
    assert seen["collector"] is None
    assert collector_a == {}
    assert active_collector() is None


def test_each_thread_keeps_its_own_collector():
    barrier = threading.Barrier(2, timeout=10)
    collected: dict[str, dict[str, float]] = {}

    def work(name: str) -> None:
        with collect_phases() as mine:
            barrier.wait()  # both collectors installed at once
            with phase(name):
                pass
            barrier.wait()
            collected[name] = dict(mine)

    threads = [threading.Thread(target=work, args=(n,)) for n in ("a", "b")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert set(collected["a"]) == {"a"}
    assert set(collected["b"]) == {"b"}
    assert active_collector() is None


def test_statements_on_two_threads_report_their_own_phases():
    """Per-statement phases stay non-empty and unshared across threads,
    and no collector is left installed afterwards."""
    barrier = threading.Barrier(2, timeout=10)
    phases: dict[int, list] = {}
    leaked: dict[int, object] = {}

    def work(index: int) -> None:
        session = ISQLSession(backend="inline")
        session.register("T", Relation(("K",), [(index,)]))
        barrier.wait()
        results = []
        for _ in range(20):
            results.extend(session.run("select possible K from T;"))
        phases[index] = [result.phases for result in results]
        leaked[index] = active_collector()

    threads = [threading.Thread(target=work, args=(i,)) for i in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert all(phases[index] for index in (0, 1))
    assert all(timings for index in (0, 1) for timings in phases[index])
    ids = [id(timings) for index in (0, 1) for timings in phases[index]]
    assert len(ids) == len(set(ids))
    assert leaked == {0: None, 1: None}
    assert active_collector() is None
