"""What the benchmark measures.

BENCHMARK.json at the repository root is the single source of the
workload list, the metric names, units and bounds, and the run length.
This module reads it and adds only the per-workload run settings that
BENCHMARK.json has no place for.
"""

import json
from pathlib import Path

MANIFEST_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

with open(MANIFEST_PATH) as _manifest_file:
    MANIFEST = json.load(_manifest_file)

RUN_SECONDS = MANIFEST["run_seconds"]
# End-to-end metrics, reported by every workload with tracing off.
END_TO_END = MANIFEST["end_to_end"]
# Per-layer metrics, reported by every workload with tracing on. A layer
# the workload leaves idle reports 0.
PER_LAYER = MANIFEST["per_layer"]

# Run settings per workload. busy_threads counts the threads that can
# be runnable at once; a run refuses to start when it exceeds nproc.
WORKLOAD_SETTINGS = {
    "tpch_files": {
        "busy_threads": 3,  # 2 workers + 1 writer thread
        # Highest ladder percentile with >= 10 iterations beyond it at
        # ~45 iterations per run.
        "tail_percentile": 75,
        "op": "one GenerateToDirectory iteration",
    },
    "tpch_ingest": {
        "busy_threads": 1,
        "tail_percentile": 99,
        "op": "one SQL primary-key point lookup",
    },
    "serve_onthefly": {
        "busy_threads": 4,  # 2 client threads + 2 connection threads
        # p95, not p99: ~65 requests beyond it instead of ~13 at ~1300
        # requests per run, so the tail repeats between runs.
        "tail_percentile": 95,
        "op": "one range or stream request, send to trailer",
    },
}

WORKLOADS = [dict(w, **WORKLOAD_SETTINGS[w["name"]])
             for w in MANIFEST["workloads"]]

# Percentiles the tail rule chooses from (highest with >= 10 samples
# beyond it).
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9, 99.99)
TAIL_MIN_BEYOND = 10

TABLES = ("region", "nation", "supplier", "part", "partsupp", "customer",
          "orders", "lineitem")
ENGINE_PHASES = ("row_generation", "formatting", "sink_wait", "sink_write",
                 "writer_write", "writer_idle")
TRACE_LAYERS = ("bench", "core", "minidb", "serve")


def workload(name):
    for w in WORKLOADS:
        if w["name"] == name:
            return w
    raise KeyError(name)
