"""Benchmark entry point: one workload, one seed, one closed-loop run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload service_hot --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json

One process, one driver thread, closed loop: each op is issued only
after the previous one returned. Ops come in windows of fixed
composition. Every timing is scaled by the host's speed, measured with
a fixed probe between every few ops (see :func:`speed_probe`).
``--trace 0`` reports the end-to-end metrics;
``--trace 1`` then replays the first quarter of the same op sequence
four times on fresh set-ups — plain, traced, traced, plain, the traced
passes with spans around every layer entry point, the first of them
tracing its set-up too — and reports the per-layer metrics plus the
tracing overhead (traced op time over plain op time). Every op's answer
is checked against an independent replay (see ``verify.py``) after the
timed loop. The last line of standard output is the result as one JSON
object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
#: Set-ups timed before the timed loop (the last one is used) and during
#: it, one after the first window past each 22nd of the run (thrown
#: away, outside every block's time). ``setup_s`` is the median of them
#: all, each scaled by the probes nearest to it; 24 make it steady.
SETUP_BEFORE = 3
SETUP_DURING = 21
#: ``peak_rss_mb`` is read at the end of this window (before any set-up
#: in the loop), so it does not grow with the op count.
RSS_WINDOW = 10
#: Ops between two host speed probes, and the probe time (ms) of the
#: nominal host every timing is scaled to (see :func:`speed_probe`).
PROBE_BLOCK = 20
PROBE_NOMINAL_MS = 0.35
#: Probes on each side of a block whose median gives its scale.
PROBE_SPAN = 4
HOST_REF_LOOPS = 200_000
CLASSES = ("read", "split", "write")


def host_ref_ms() -> float:
    """Median of 3 timings of a fixed pure-Python loop (host drift probe).

    The loop does arithmetic and probes a dict far larger than the CPU
    caches in a scattered order, so it slows down both when the core is
    shared and when the memory system is.
    """
    table = dict.fromkeys(range(HOST_REF_LOOPS))
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(HOST_REF_LOOPS):
            acc += i * i % 7
            if (i * 7919) % HOST_REF_LOOPS in table:
                acc += 1
        times.append((time.perf_counter() - start) * 1000)
    return median(times)


#: The two sides of the speed probe's hash join (37 join keys).
PROBE_LEFT = [(i % 64, f"c{i % 37}", i) for i in range(300)]
PROBE_RIGHT = [(f"c{i % 37}", i % 11) for i in range(300)]


def speed_probe() -> float:
    """Milliseconds a fixed pure-Python hash join takes right now.

    This host runs the same work at speeds up to 1.4-1.9x apart, on
    both vCPUs at once, switching every few seconds and sometimes
    staying in one state for a whole run; CPU time moves with wall
    time. The probe does the kind of work the program's relational
    operators do (build a dict index, probe it, make result tuples,
    hash them into a frozenset) without any of its code, so a program
    change does not move it. A probe runs after every ``PROBE_BLOCK``
    ops, and each op's latency is multiplied by ``PROBE_NOMINAL_MS``
    over the median probe near its block (see
    :meth:`Record.scale_blocks`): the timings read as on a host where
    the probe takes ``PROBE_NOMINAL_MS``.
    """
    start = time.perf_counter()
    index: dict = {}
    for row in PROBE_RIGHT:
        index.setdefault(row[0], []).append(row)
    out = []
    for key, name, value in PROBE_LEFT:
        for match in index.get(name, ()):
            out.append((key, value, match[1]))
    frozenset(out)
    return (time.perf_counter() - start) * 1000


def percentile(values: list[float], p: float) -> float:
    """The linearly interpolated *p* quantile (p a multiple of 0.1)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return quantiles(values, n=10, method="inclusive")[round(p * 10) - 1]


class Record:
    """What one pass observed, op by op."""

    def __init__(self) -> None:
        self.ops: list = []
        self.seconds: list[float] = []
        #: Per op, its block's factor from measured to nominal-host time
        #: (see :meth:`scale_blocks`).
        self.scales: list[float] = []
        self.answers: list = []
        self.dispositions: list[str] = []
        self.errors: list[str | None] = []
        #: Seconds since the loop started, at the end of each op.
        self.stamps: list[float] = []
        #: The end op of each window.
        self.windows: list[int] = []
        #: (ops, seconds, scale) per block of ops between two speed
        #: probes; the seconds include the window's garbage collection.
        self.blocks: list[tuple[int, float, float]] = []
        #: Speed probe times (ms): one before the first block and one
        #: after each block.
        self.probes: list[float] = []
        self.elapsed = 0.0
        #: Process peak RSS at the end of window ``RSS_WINDOW``.
        self.peak_rss_mb = 0.0
        #: (seconds, number of probes taken before it) of each set-up
        #: run inside the loop.
        self.setups: list[tuple[float, int]] = []

    def probe_scale(self, at: int) -> float:
        """The factor to nominal-host time of work done between probe
        ``at - 1`` and probe *at*: from the median of the ``PROBE_SPAN``
        probes on each side (fewer at the ends), so one interrupted
        probe moves nothing."""
        near = self.probes[max(0, at - PROBE_SPAN):at + PROBE_SPAN]
        return PROBE_NOMINAL_MS / median(near)

    def scale_blocks(self) -> None:
        """Give each block, and its ops, its factor to nominal-host time."""
        self.scales = []
        for j, (ops, seconds, _) in enumerate(self.blocks):
            scale = self.probe_scale(j + 1)
            self.blocks[j] = (ops, seconds, scale)
            self.scales.extend([scale] * ops)


def run_loop(workload, seconds: float, limit: int | None = None, tracer=None,
              plant_wrong: int | None = None, factory=None) -> Record:
    """Run the op stream until *seconds* pass at a window end, or *limit* ops.

    GC policy: automatic collection is off for the loop; the last op of
    each window is followed by ``gc.collect()``, outside its latency but
    inside its block's time. A speed probe runs after every
    ``PROBE_BLOCK`` ops and at every window end, outside every op's
    latency and every block's time. With a workload *factory*, a
    throwaway set-up runs after the first window past each
    ``SETUP_DURING + 1``-th of *seconds*, outside every block.
    """
    from workloads import digest

    record = Record()
    stream = workload.ops()
    gc.disable()
    try:
        marks = [seconds * k / (SETUP_DURING + 1) for k in range(1, SETUP_DURING + 1)]
        record.probes.append(speed_probe())
        start = block_start = time.perf_counter()
        block_first = 0
        for op in stream:
            if limit is not None and len(record.ops) >= limit:
                break
            index = len(record.ops)
            root = tracer.begin_op(index) if tracer is not None else None
            error = None
            begin = time.perf_counter()
            try:
                answer, disposition = workload.execute(op)
            except Exception as exc:  # a failed op counts against success
                answer, disposition = None, "error"
                error = f"{type(exc).__name__}: {exc}"
            took = time.perf_counter() - begin
            if root is not None:
                tracer.end_op(root)
            answer = digest(answer)
            if index == plant_wrong:
                answer = ("planted wrong answer", answer)
            record.ops.append(op)
            record.seconds.append(took)
            record.answers.append(answer)
            record.dispositions.append(disposition)
            record.errors.append(error)
            record.stamps.append(time.perf_counter() - start)
            if op.window_end:
                gc.collect()
            if not op.window_end and index + 1 - block_first < PROBE_BLOCK:
                continue
            now = time.perf_counter()
            record.probes.append(speed_probe())
            record.blocks.append((index + 1 - block_first, now - block_start, 0.0))
            block_first = index + 1
            if op.window_end:
                record.windows.append(index + 1)
                if len(record.windows) == RSS_WINDOW:
                    record.peak_rss_mb = peak_rss_mb()
                if factory is not None and marks and now - start >= marks[0]:
                    del marks[0]
                    if not record.peak_rss_mb:
                        record.peak_rss_mb = peak_rss_mb()
                    spare, setup_seconds = setup_once(factory)
                    spare.close()
                    del spare
                    gc.collect()
                    record.setups.append((setup_seconds, len(record.probes)))
                if limit is None and now - start >= seconds:
                    break
            block_start = time.perf_counter()
        record.elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    if len(record.windows) < RSS_WINDOW:
        record.peak_rss_mb = peak_rss_mb()
    record.scale_blocks()
    return record


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup_once(factory, tracer=None) -> tuple[object, float]:
    """One timed set-up, with automatic collection off; with a *tracer*,
    traced under its own root span."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        root = tracer.begin_setup() if tracer is not None else None
        workload = factory()
        workload.setup()
        if root is not None:
            tracer.end_op(root)
        return workload, time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def timed_setup(factory, repeats: int, tracer=None) -> tuple[object, list[float]]:
    """Set the workload up *repeats* times; keep the last; all timings."""
    times = []
    workload = None
    for _ in range(repeats):
        if workload is not None:
            workload.close()
        gc.collect()
        workload, took = setup_once(factory, tracer)
        times.append(took)
    gc.collect()
    gc.freeze()
    return workload, times


def verify(workload, record: Record) -> list[bool]:
    from verify import verify_service

    verdicts = verify_service(workload.seed, record.ops, record.answers)
    return [ok and error is None for ok, error in zip(verdicts, record.errors)]


def class_latencies(record: Record, cls: str,
                    scaled: bool = True) -> list[tuple[float, str, str]]:
    """(ms, disposition, kind) of the *cls* ops, sorted; *scaled* to the
    nominal host (see :func:`speed_probe`) or as measured."""
    return sorted(
        (
            record.seconds[i] * 1000 * (record.scales[i] if scaled else 1.0),
            record.dispositions[i],
            record.ops[i].kind,
        )
        for i in range(len(record.scales))
        if record.ops[i].cls == cls
    )


def mode_report(record: Record) -> list[str]:
    """Hit/miss share of each class and of the samples near each percentile.

    The faster cache mode fills the bottom of a class's sorted samples,
    so the hit/miss boundary sits at that mode's share. A percentile
    within 5 points of it is flagged: a small shift in the mix moves it
    between modes. The samples within 5 points of each percentile are
    listed by mode and op kind.
    """
    lines = []
    for cls in CLASSES:
        samples = class_latencies(record, cls)
        if not samples:
            continue
        hit_ms = [ms for ms, mode, _ in samples if mode == "hit"]
        miss_ms = [ms for ms, mode, _ in samples if mode != "hit"]
        share = len(hit_ms) / len(samples)
        boundary = share
        if hit_ms and miss_ms and median(hit_ms) > median(miss_ms):
            boundary = 1 - share
        lines.append(
            f"  {cls}: n={len(samples)} hit={share:.1%} miss={1 - share:.1%} "
            f"boundary at {boundary:.1%}"
        )
        by_kind: dict[str, list[float]] = {}
        for ms, _, kind in samples:
            by_kind.setdefault(kind, []).append(ms)
        lines.append("    kinds (n, median ms): " + ", ".join(
            f"{kind} {len(values)} {median(values):.3g}"
            for kind, values in sorted(by_kind.items(), key=lambda kv: median(kv[1]))
        ))
        for label, p in (("p50", 0.5), ("p90", 0.9)):
            low = max(0, int((p - 0.05) * len(samples)))
            high = min(len(samples), int((p + 0.05) * len(samples)) + 1)
            window = samples[low:high]
            kinds: dict[str, int] = {}
            for _, _, kind in window:
                kinds[kind] = kinds.get(kind, 0) + 1
            flag = (
                "  FLAG: within 5 points of the hit/miss mode boundary"
                if hit_ms and miss_ms and abs(p - boundary) < 0.05 else ""
            )
            mix = ", ".join(f"{kind}={count}" for kind, count in sorted(kinds.items()))
            lines.append(
                f"    {label}={percentile([s for s, _, _ in samples], p):.3f} ms "
                f"window hit={sum(1 for _, m, _ in window if m == 'hit')}/{len(window)} "
                f"kinds[{mix}]{flag}"
            )
    return lines


def timings(record: Record, scaled: bool = True) -> dict[str, float]:
    """Throughput and each class's p50/p90 over the whole run, *scaled*
    to the nominal host or as measured."""
    values = {
        "throughput_ops_s": sum(ops for ops, _, _ in record.blocks) / sum(
            seconds * (scale if scaled else 1.0) for _, seconds, scale in record.blocks
        ),
    }
    for cls in CLASSES:
        latencies = [ms for ms, _, _ in class_latencies(record, cls, scaled)]
        values[f"{cls}_p50_ms"] = percentile(latencies, 0.5)
        values[f"{cls}_p90_ms"] = percentile(latencies, 0.9)
    return values


def end_to_end(record: Record, verdicts: list[bool],
               setups: list[tuple[float, int]], space_ratio: float) -> dict:
    from spec import END_TO_END

    values = {
        "setup_s": median(
            seconds * record.probe_scale(at) for seconds, at in setups
        ),
        "success_ratio": sum(verdicts) / len(verdicts),
        "peak_rss_mb": record.peak_rss_mb,
        "space_ratio": space_ratio,
        **timings(record),
    }
    return {
        name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END
    }


def per_layer(summary: dict, counters_before: dict, counters_after: dict,
              space: tuple, overhead: float, ops: int) -> dict:
    from spec import PER_LAYER

    layers = summary["layers"]
    counts = summary["counts"]
    inclusive = summary["inclusive"]

    def self_ms(layer: str) -> float:
        return layers[layer]["self_ms_median"]

    def share(*names: str) -> float:
        return sum(layers[name]["share"] for name in names)

    def inclusive_ms(layer: str) -> float:
        values = inclusive.get(layer, [])
        return median(values) * 1000 if values else 0.0

    def mean(values: list) -> float:
        return sum(values) / len(values) if values else 0.0

    def tier(name: str) -> tuple[int, int, int]:
        before = counters_before.get(name, [0, 0, 0])
        after = counters_after.get(name, [0, 0, 0])
        return tuple(a - b for a, b in zip(after, before))

    def hit_ratio(name: str) -> float:
        hits, misses, _ = tier(name)
        return hits / (hits + misses) if hits + misses else 0.0

    applied = counts.get("dml", [])
    setup_self = summary["setup_self"]
    # Ingest runs at set-up (register) and in any op that registers.
    ingest = setup_self.get("ingest", []) + summary["self_times"]["ingest"]
    residual = summary["residual"]
    total = summary["op_seconds"]
    _, rows, worlds = space
    values = {
        "parser.self_ms": self_ms("parser"),
        "parser.share": share("parser"),
        "compile.self_ms": self_ms("compile"),
        "compile.share": share("compile"),
        "rewriter.self_ms": self_ms("rewriter"),
        "rewriter.share": share("rewriter"),
        "rewriter.steps": mean(counts.get("rewriter", [])),
        "cache.parse_hit_ratio": hit_ratio("parses"),
        "cache.plan_hit_ratio": hit_ratio("plans"),
        "cache.memo_hit_ratio": hit_ratio("memo"),
        "cache.evictions_per_op": sum(
            tier(name)[2] for name in ("parses", "plans", "memo")
        ) / ops,
        "physical.self_ms": self_ms("physical"),
        "physical.share": share("physical"),
        "physical.rows_out": mean(counts.get("physical", [])),
        "representation.ingest_ms": median(ingest) * 1000 if ingest else 0.0,
        "representation.setup_share": (
            sum(setup_self.get("ingest", [])) / summary["setup_seconds"]
            if summary["setup_seconds"] else 0.0
        ),
        "representation.rows": rows,
        "representation.worlds": worlds,
        "dml.self_ms": self_ms("dml"),
        "dml.share": share("dml"),
        "dml.applied_ratio": (
            sum(a for a, _ in applied) / sum(n for _, n in applied) if applied else 0.0
        ),
        "decode.self_ms": self_ms("decode"),
        "decode.share": share("decode"),
        "decode.rows": mean(counts.get("decode", [])),
        "dbapi.self_ms": self_ms("dbapi"),
        "dbapi.share": share("dbapi", "bind"),
        "dbapi.bind_ms": inclusive_ms("bind"),
        "snapshots.sync_ms": inclusive_ms("sync"),
        "snapshots.syncs_per_op": summary["restores_under_sync"] / ops,
        "snapshots.publish_ms": inclusive_ms("publish"),
        "snapshots.lock_wait_ms": inclusive_ms("lock_wait"),
        "snapshots.share": share("sync", "restore", "publish", "lock_wait", "rollback"),
        "pool.acquire_ms": inclusive_ms("pool"),
        "pool.share": share("pool", "pool_release"),
        "session.rollback_ms": inclusive_ms("rollback"),
        "session.residual_ms": median(residual) * 1000 if residual else 0.0,
        "session.residual_share": sum(residual) / total if total else 0.0,
        "trace.overhead_ratio": overhead,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}


def layer_table(summary: dict) -> list[str]:
    total = summary["op_seconds"]
    lines = [f"  {'layer':<13}{'calls':>9}{'self_s':>10}{'share':>8}{'med_ms':>10}"]
    for layer, info in summary["layers"].items():
        if info["calls"]:
            lines.append(
                f"  {layer:<13}{info['calls']:>9}{info['self_seconds']:>10.3f}"
                f"{info['share']:>8.1%}{info['self_ms_median']:>10.4f}"
            )
    residual = sum(summary["residual"])
    lines.append(
        f"  {'residual':<13}{summary['ops']:>9}{residual:>10.3f}"
        f"{(residual / total if total else 0):>8.1%}"
    )
    accounted = sum(info["self_seconds"] for info in summary["layers"].values()) + residual
    lines.append(
        f"  layers + residual = {accounted:.4f} s of {total:.4f} s op time "
        f"({(accounted / total if total else 0):.2%})"
    )
    setup = summary["setup_seconds"]
    lines.append(f"  traced set-up {setup:.4f} s, self time: " + ", ".join(
        f"{layer} {sum(times):.4f} s ({sum(times) / setup:.1%})"
        for layer, times in summary["setup_self"].items()
    ))
    return lines


def main(argv: list[str] | None = None, plant_wrong: int | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json at the repository root and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))
    # Library defaults: the kernel is whatever the library resolves
    # without the process-wide override (recorded in the output).
    os.environ.pop("REPRO_KERNEL", None)

    import spec
    import workloads

    if args.write_spec:
        print(spec.write_benchmark_json(ROOT))
        return {}
    if args.workload not in workloads.WORKLOAD_NAMES:
        parser.error(f"--workload must be one of {workloads.WORKLOAD_NAMES}")
    seconds = spec.RUN_SECONDS if args.seconds is None else args.seconds
    from repro.relational.columnar import resolve_kernel

    host_before = host_ref_ms()

    def factory():
        return workloads.make(args.workload, args.seed)

    workload, setup_times = timed_setup(factory, SETUP_BEFORE)
    counters_before = workload.cache_counters()
    record = run_loop(workload, seconds, plant_wrong=plant_wrong, factory=factory)
    # The set-ups before the loop are scaled by the loop's first probes.
    setups = [(seconds, 0) for seconds in setup_times] + record.setups
    counters_after = workload.cache_counters()
    space = workload.space()
    plain_workload = workload
    traced = None
    if args.trace:
        # Four more passes over the same ops — the first pass's sequence
        # up to the first window end past a quarter of its time — each on a
        # fresh set-up, in the order plain, traced, traced, plain. Traced
        # over plain op time is the tracing overhead: the ABBA order
        # cancels a steady host drift, and no pass pays the first pass's
        # process warm-up. The first traced pass gives the per-layer
        # metrics and the span file.
        from tracing import Tracer, summarize

        prefix = next(
            end for end in record.windows
            if record.stamps[end - 1] >= seconds / 4 or end == len(record.ops)
        )

        def replay(tracer=None, trace_setup=False):
            nonlocal plain_workload
            plain_workload.close()
            gc.unfreeze()
            gc.collect()
            if tracer is not None:
                tracer.install()
            try:
                plain_workload, _ = timed_setup(
                    factory, 1, tracer if trace_setup else None
                )
                before = plain_workload.cache_counters()
                again = run_loop(plain_workload, seconds, limit=prefix, tracer=tracer)
            finally:
                if tracer is not None:
                    tracer.remove()
            return again, before

        untraced, _ = replay()
        tracer = Tracer()
        traced, counters_before = replay(tracer, trace_setup=True)
        counters_after = plain_workload.cache_counters()
        space = plain_workload.space()
        summary = summarize(tracer)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
        traced_again, _ = replay(Tracer())
        untraced_again, _ = replay()
        replays = (untraced, traced, traced_again, untraced_again)
    verify_start = time.perf_counter()
    verdicts = verify(plain_workload, record)
    verify_seconds = time.perf_counter() - verify_start
    if traced is not None:
        # Every replay must answer exactly as the first pass did.
        for index in range(len(traced.ops)):
            verdicts[index] = verdicts[index] and all(
                again.answers[index] == record.answers[index]
                and again.errors[index] is None
                for again in replays
            )
    plain_workload.close()
    host_after = host_ref_ms()

    failed = verdicts.count(False)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"kernel {resolve_kernel(None)} python {sys.version.split()[0]}")
    print(spec.describe())
    print("setup runs (s as measured/scaled): " + ", ".join(
        f"{seconds:.3f}/{seconds * record.probe_scale(at):.3f}" for seconds, at in setups
    ))
    scales = sorted(scale for _, _, scale in record.blocks)
    print(f"ops {len(record.ops)} in {record.elapsed:.2f} s: "
          f"{sum(record.seconds):.2f} s in ops; {len(record.windows)} windows of "
          f"{workloads.WINDOW} ops, {len(record.blocks)} probe blocks; "
          f"host scale min {scales[0]:.3f} median {median(scales):.3f} "
          f"max {scales[-1]:.3f}")
    print("as measured, not scaled (not reported): " + ", ".join(
        f"{name} {value:.5g}" for name, value in timings(record, scaled=False).items()
    ))
    print("mode report (scaled):")
    for line in mode_report(record):
        print(line)
    for i in range(len(record.ops)):
        if not verdicts[i]:
            print(f"FAILED op {i} {record.ops[i].kind}: {record.errors[i] or 'wrong answer'}")
            break
    if traced is not None:
        def op_seconds(again: Record) -> float:
            return sum(map(float.__mul__, again.seconds, again.scales))

        overhead = (op_seconds(traced) + op_seconds(traced_again)) / (
            op_seconds(untraced) + op_seconds(untraced_again)
        )
        print(f"replays of {len(traced.ops)} of {len(record.ops)} ops, scaled op "
              f"time (plain, traced, traced, plain): "
              + ", ".join(f"{op_seconds(again):.3f} s" for again in replays)
              + f"; overhead x{overhead:.3f}")
        print("layer self time (traced pass):")
        for line in layer_table(summary):
            print(line)
        metrics = per_layer(summary, counters_before, counters_after, space,
                            overhead, len(traced.ops))
    else:
        metrics = end_to_end(record, verdicts, setups, space[0])
    diagnostics = {
        "host_ref_ms": {"before": host_before, "after": host_after},
        "probe_ms_median": median(record.probes),
        "verify_s": verify_seconds,
        "attempted_by_class": {
            cls: sum(1 for op in record.ops if op.cls == cls)
            for cls in CLASSES
        },
    }
    print("diagnostics " + json.dumps(diagnostics))
    result = {
        "correct": failed == 0,
        "attempted": len(record.ops),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
