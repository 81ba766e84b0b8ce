"""What the benchmark measures: workloads, metrics, bounds and the layer map.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-spec``) and holds exactly the keys
its format allows. What the format has no key for — the GC policy, the
layer → metric → end-to-end map — lives here and is printed by every
run.
"""

from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 30

WORKLOADS = (
    (
        "service_hot",
        "DBAPI pool of 2 over a 2^12-world trip state; reads from a hot set "
        "that fits every cache tier, 10% autocommit writes: memo, plan "
        "cache, snapshot sync and publish, physical on memo misses",
    ),
    (
        "service_cold",
        "same state and surface, bindings uniform over >=4096 keys so every "
        "cache tier misses; 5% writes to a table no read touches: parser, "
        "compile, rewriter and physical on every op",
    ),
)

#: (name, unit, better, bound). ``bound`` is the share of the parent's
#: median by which the metric may worsen, set from the spreads that
#: ``perfbench/steady.py`` measured (see README.md). Timings and set-up
#: time are scaled to a nominal host speed (see ``run.speed_probe``);
#: they get the largest bound allowed, since the scaling cancels most,
#: not all, of this host's 1.4-1.9x swings in speed. Counts and sizes
#: do not follow the host and get tighter bounds.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("throughput_ops_s", "1/s", "higher", 0.25),
    ("read_p50_ms", "ms", "lower", 0.25),
    ("read_p90_ms", "ms", "lower", 0.25),
    ("split_p50_ms", "ms", "lower", 0.25),
    ("split_p90_ms", "ms", "lower", 0.25),
    ("write_p50_ms", "ms", "lower", 0.25),
    ("write_p90_ms", "ms", "lower", 0.25),
    ("success_ratio", "ratio", "higher", 0.001),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("space_ratio", "ratio", "lower", 0.05),
)

#: (name, unit, better). Per-call medians for ``*_ms``; ``*.share`` is
#: the layer's self time over all op time, and the shares (parser,
#: compile, rewriter, physical, dml, decode, dbapi, snapshots, pool,
#: residual) sum to 1. Ingest (``InlineBackend.register``) runs at
#: set-up: ``representation.setup_share`` is its self time over one
#: traced set-up's time.
PER_LAYER = (
    ("parser.self_ms", "ms", "lower"),
    ("parser.share", "ratio", "lower"),
    ("compile.self_ms", "ms", "lower"),
    ("compile.share", "ratio", "lower"),
    ("rewriter.self_ms", "ms", "lower"),
    ("rewriter.share", "ratio", "lower"),
    ("rewriter.steps", "count", "lower"),
    ("cache.parse_hit_ratio", "ratio", "higher"),
    ("cache.plan_hit_ratio", "ratio", "higher"),
    ("cache.memo_hit_ratio", "ratio", "higher"),
    ("cache.evictions_per_op", "1/op", "lower"),
    ("physical.self_ms", "ms", "lower"),
    ("physical.share", "ratio", "lower"),
    ("physical.rows_out", "count", "lower"),
    ("representation.ingest_ms", "ms", "lower"),
    ("representation.setup_share", "ratio", "lower"),
    ("representation.rows", "count", "lower"),
    ("representation.worlds", "count", "higher"),
    ("dml.self_ms", "ms", "lower"),
    ("dml.share", "ratio", "lower"),
    ("dml.applied_ratio", "ratio", "higher"),
    ("decode.self_ms", "ms", "lower"),
    ("decode.share", "ratio", "lower"),
    ("decode.rows", "count", "lower"),
    ("dbapi.self_ms", "ms", "lower"),
    ("dbapi.share", "ratio", "lower"),
    ("dbapi.bind_ms", "ms", "lower"),
    ("snapshots.sync_ms", "ms", "lower"),
    ("snapshots.syncs_per_op", "1/op", "lower"),
    ("snapshots.publish_ms", "ms", "lower"),
    ("snapshots.lock_wait_ms", "ms", "lower"),
    ("snapshots.share", "ratio", "lower"),
    ("pool.acquire_ms", "ms", "lower"),
    ("pool.share", "ratio", "lower"),
    ("session.rollback_ms", "ms", "lower"),
    ("session.residual_ms", "ms", "lower"),
    ("session.residual_share", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

#: Which end-to-end metric each layer metric should move, and where.
LAYER_MAP = (
    (
        ("parser.self_ms", "compile.self_ms", "rewriter.self_ms",
         "rewriter.steps", "cache.parse_hit_ratio", "cache.plan_hit_ratio"),
        ("read_p50_ms", "throughput_ops_s"),
        "service_cold (service_hot skips them on cache hits)",
    ),
    (
        ("cache.memo_hit_ratio", "cache.evictions_per_op",
         "session.residual_ms"),
        ("read_p50_ms", "read_p90_ms", "throughput_ops_s"),
        "service_hot",
    ),
    (
        ("physical.self_ms", "physical.rows_out"),
        ("split_p50_ms", "split_p90_ms", "throughput_ops_s"),
        "service_cold; memo misses (split_p90_ms) on service_hot",
    ),
    (
        ("representation.ingest_ms", "representation.setup_share"),
        ("setup_s",),
        "service_hot, service_cold",
    ),
    (
        ("dml.self_ms", "dml.applied_ratio"),
        ("write_p50_ms", "write_p90_ms"),
        "service_hot, service_cold",
    ),
    (
        ("decode.self_ms", "decode.rows"),
        ("split_p50_ms", "read_p50_ms"),
        "service_hot, service_cold",
    ),
    (
        ("representation.rows", "representation.worlds"),
        ("space_ratio", "peak_rss_mb"),
        "service_hot, service_cold",
    ),
    (
        ("dbapi.bind_ms", "snapshots.sync_ms", "snapshots.syncs_per_op",
         "snapshots.publish_ms", "snapshots.lock_wait_ms", "pool.acquire_ms",
         "session.rollback_ms"),
        ("write_p50_ms", "write_p90_ms", "read_p50_ms"),
        "service_hot",
    ),
)

GC_POLICY = (
    "automatic collection is off in every timed set-up and in the timed "
    "loop; gc.collect() runs after each set-up (then gc.freeze() before the "
    "loop) and after the last op of every 250-op window, outside every op's "
    "latency, inside the throughput's time"
)

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document: exactly the keys of its format."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


def write_benchmark_json(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    return path


def describe() -> str:
    """The layer map and GC policy as printable text."""
    lines = [f"gc policy: {GC_POLICY}", "layer map (layer metric -> moves -> on):"]
    for layer_metrics, moves, where in LAYER_MAP:
        lines.append(
            f"  {', '.join(layer_metrics)} -> {', '.join(moves)} -> {where}"
        )
    return "\n".join(lines)
