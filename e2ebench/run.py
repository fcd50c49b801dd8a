#!/usr/bin/env python3
"""End-to-end benchmark of DBSynth++ (generator, MiniDB, serve daemon).

    python3 e2ebench/run.py --workload tpch_files --seed 1 --trace 0

Builds the harness from the checkout's sources on first use (into
.bench_build/), runs one workload in one harness process, checks its
outputs, prints every metric with its unit and the run's fingerprint, and
ends with one JSON line {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Exit code 0 only when every output check passed. See e2ebench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
import stats  # noqa: E402

BUILD_DIR = ROOT / ".bench_build"
GOLDEN = ROOT / "tests" / "integration" / "golden" / "tpch_sf0.01.digests"
BUILD_TYPE = "RelWithDebInfo"
# A run must end within 180 s once the harness is built.
HARNESS_TIMEOUT_S = 170


def fail(message, code=2):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(code)


def build_harness():
    """Configures (once) and builds the harness; returns its path."""
    cmake_dir = BUILD_DIR / "cmake"
    log_path = BUILD_DIR / "build.log"
    BUILD_DIR.mkdir(exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (cmake_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE] + generator)
    steps.append(["cmake", "--build", str(cmake_dir), "--target",
                  "e2ebench_harness", "-j", jobs])
    # Compiler temporaries stay inside the checkout too.
    tmp_dir = BUILD_DIR / "tmp"
    tmp_dir.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp_dir))
    with open(log_path, "a") as log:
        for step in steps:
            done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                  env=env)
            if done.returncode != 0:
                with open(log_path) as text:
                    sys.stderr.write("".join(text.readlines()[-40:]))
                fail("build failed: " + " ".join(step), 3)
    return cmake_dir / "e2ebench_harness"


def filesystem_type(path):
    """Type of the filesystem holding `path`, from /proc/mounts."""
    path = os.path.realpath(path)
    best, best_type = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = path == mount or path.startswith(
                    mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, best_type = mount, fields[2]
    except OSError:
        pass
    return best_type


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    measured when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_harness(harness, workload, seed, seconds, trace, work_dir, raw_path):
    command = [str(harness), "--workload", workload["name"],
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--work-dir", str(work_dir),
               "--out", str(raw_path), "--golden", str(GOLDEN)]
    harness_process = subprocess.Popen(command)
    try:
        code = harness_process.wait(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness timed out after %d s" % HARNESS_TIMEOUT_S, 4)
    finally:
        # Also reached on SIGTERM (see main): never leave the harness behind.
        if harness_process.poll() is None:
            harness_process.kill()
            harness_process.wait()
    if code != 0:
        fail("harness exited with %d" % code, 4)
    with open(raw_path) as raw:
        return json.load(raw)


def median(values):
    return stats.quartiles(values)[1]


def end_to_end(workload, raw):
    """({metric: value}, {metric: samples behind it}, diagnostic lines)."""
    series, scalars = raw["series"], raw["scalars"]
    name = workload["name"]
    tail_p = workload["tail_percentile"]
    if name == "serve_onthefly":
        ops_ms = series["op_ms"]
        rates = [scalars["rows"] / scalars["elapsed_s"]]
        rows_per_s = rates[0]
        space_amp = scalars["wire_bytes"] / scalars["payload_bytes"]
    else:
        iterations = series["iteration_s" if name == "tpch_files"
                            else "load_iteration_s"]
        rows = scalars["rows_per_iteration"]
        ops_ms = ([s * 1e3 for s in iterations] if name == "tpch_files"
                  else series["op_ms"])
        rates = [rows / s for s in iterations]
        # All rows over all iteration time: on a host whose speed flips
        # between levels this repeats better than the median or the
        # fastest iteration (see README, "Host noise").
        rows_per_s = rows * len(iterations) / sum(iterations)
        space_amp = scalars["disk_bytes"] / scalars["csv_bytes"]
    values = {
        "rows_per_s": rows_per_s,
        "op_p50_ms": median(ops_ms),
        "op_tail_ms": stats.percentile(ops_ms, tail_p),
        "space_amp": space_amp,
        "peak_rss_mb": median(series["peak_rss_mb"]),
        "setup_s": median(series["setup_s"]),
    }
    samples = {"rows_per_s": rates, "op_p50_ms": ops_ms,
               "op_tail_ms": ops_ms, "peak_rss_mb": series["peak_rss_mb"],
               "setup_s": series["setup_s"]}
    beyond = stats.samples_beyond(len(ops_ms), tail_p)
    rule = stats.tail_rule(len(ops_ms), spec.TAIL_LADDER, spec.TAIL_MIN_BEYOND)
    notes = [
        "op = %s; n=%d" % (workload["op"], len(ops_ms)),
        "op_tail_ms is p%g (fixed for this workload; %d samples beyond it; "
        "the >=%d-beyond rule on this run's n picks p%s)"
        % (tail_p, beyond, spec.TAIL_MIN_BEYOND, rule),
    ]
    if beyond < spec.TAIL_MIN_BEYOND:
        notes.append("WARNING: fewer than %d samples beyond p%g"
                     % (spec.TAIL_MIN_BEYOND, tail_p))
    if name != "serve_onthefly":
        s = stats.summary(rates)
        notes.append("rows_per_s is over all %d iterations; per-iteration "
                     "median %.6g (quartiles %.6g .. %.6g), best-of %.6g"
                     % (s["n"], s["median"], s["q1"], s["q3"],
                        stats.best_of(rates, "higher")))
    else:
        notes.append("closed loop, %d client connections; ttfb_p50_ms %.6g "
                     "ms (send to first payload frame)"
                     % (scalars["clients"], median(series["ttfb_ms"])))
    notes.append("peak_rss_mb is the median of per-%s peaks; whole-process "
                 "peak %.6g MiB" % ("segment" if name == "serve_onthefly"
                                    else "iteration",
                                    scalars["process_peak_rss_mb"]))
    return values, samples, notes


def per_layer(workload, raw):
    """{metric: value} for every per-layer metric; idle layers report 0."""
    series, scalars = raw["series"], raw["scalars"]
    name = workload["name"]
    values = {m["name"]: 0.0 for m in spec.PER_LAYER}
    values["core.session.create_ms"] = median(
        series["probe.session_create_ms"])
    for table in spec.TABLES:
        values["core.cursor.ns_per_row." + table] = min(
            series["probe.cursor_ns_per_row." + table])
        values["core.output.format_ns_per_row." + table] = min(
            series["probe.format_ns_per_row." + table])
    if name == "tpch_files":
        rows = scalars["rows_per_iteration"]
        null_rate = rows / median(series["null_iteration_s"])
        values["core.engine.null_rows_per_s"] = null_rate
        values["core.engine.sink_share"] = \
            1 - rows / median(series["iteration_s"]) / null_rate
        for phase in spec.ENGINE_PHASES:
            values["core.engine.phase.%s_s" % phase] = median(
                series["engine.phase." + phase])
        overhead = median(series["iteration_s"]) / median(
            series["traced.iteration_s"])
        values["trace.overhead_share"] = 1 - overhead
    elif name == "tpch_ingest":
        values["minidb.ingest.load_s"] = median(series["load_s"])
        values["minidb.ingest.checkpoint_s"] = median(series["checkpoint_s"])
        values["minidb.ingest.generate_s"] = min(series["generate_s"])
        values["minidb.storage.bytes_on_disk"] = scalars["disk_bytes"]
        for counter in ("hits", "misses", "evictions", "writebacks"):
            values["minidb.pool." + counter] = median(
                series["pool." + counter])
        values["minidb.sql.point_p50_us"] = median(series["op_ms"]) * 1e3
        overhead = median(series["load_iteration_s"]) / median(
            series["traced.load_iteration_s"])
        values["trace.overhead_share"] = 1 - overhead
    else:
        values["serve.ttfb_p50_ms"] = median(series["ttfb_ms"])
        values["serve.transfer_p50_ms"] = median(series["transfer_ms"])
        values["serve.local_render_p50_ms"] = median(
            series["local_render_ms"])
        values["serve.overhead_share"] = 1 - sum(
            series["local_render_ms"]) / sum(series["sample_op_ms"])
        values["serve.bytes_per_row"] = scalars["wire_bytes"] / scalars["rows"]
        values["serve.jobs_rejected"] = scalars["counter.jobs_rejected"]
        values["serve.requests_malformed"] = \
            scalars["counter.requests_malformed"]
        traced = series["traced.op_ms"]
        untraced = series["op_ms"]
        values["trace.overhead_share"] = 1 - (
            sum(untraced) / len(untraced)) / (sum(traced) / len(traced))
    spans = raw["spans"]
    values["trace.span_count"] = len(spans)
    for layer, share in stats.self_share_by_layer(
            spans, spec.TRACE_LAYERS).items():
        values["trace.self_share." + layer] = share
    return values


def main(argv):
    # Turn SIGTERM into SystemExit so the cleanup in run_harness and the
    # work-directory removal below run.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "CMakeLists.txt").exists() or not GOLDEN.exists():
        fail("no DBSynth++ sources next to %s; run from a full checkout"
             % HERE.name)
    workload = spec.workload(args.workload)
    nproc = os.cpu_count() or 1
    if workload["busy_threads"] > nproc:
        fail("%s needs %d busy threads but nproc is %d; refusing to run"
             % (workload["name"], workload["busy_threads"], nproc))

    harness = build_harness()
    work_dir = BUILD_DIR / "work" / ("%s-%d" % (workload["name"], os.getpid()))
    results_dir = BUILD_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    raw_path = results_dir / ("%s-seed%d-trace%d.raw.json"
                              % (workload["name"], args.seed, args.trace))
    fs_type = filesystem_type(work_dir.parent)
    started = time.time()
    try:
        raw = run_harness(harness, workload, args.seed, args.seconds,
                         args.trace, work_dir, raw_path)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    info = raw["info"]
    fingerprint = {
        "workload": workload["name"], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": nproc, "affinity_cpus": len(os.sched_getaffinity(0)),
        "simd_dispatch": info["simd_dispatch"],
        "numa_nodes": info["numa_nodes"], "numa_mode": info["numa_mode"],
        "output_dir_fs": fs_type, "data_dir_fs": fs_type,
        "work_dir": str(work_dir.relative_to(ROOT)),
        "commit": commit(), "source_digest": source_digest(),
        "build_type": info["build_type"],
        "busy_threads": workload["busy_threads"],
        "harness_wall_s": round(time.time() - started, 3),
    }
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    for check in raw["checks"]:
        if not check["ok"]:
            print("CHECK FAILED %s: %s" % (check["name"], check["detail"]))
    passed = sum(1 for c in raw["checks"] if c["ok"])
    print("checks %d/%d passed" % (passed, len(raw["checks"])))
    attempted, failed = raw["attempted"], raw["failed"]
    print("error_rate %.6g (%d failed of %d attempted)"
          % (failed / attempted if attempted else 1.0, failed, attempted))

    try:
        if args.trace:
            values = per_layer(workload, raw)
        else:
            values, samples, notes = end_to_end(workload, raw)
    except (KeyError, ValueError, ZeroDivisionError) as error:
        fail("no complete measurements to report (%r)" % error, 1)
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec.PER_LAYER}
        for name in units:
            print("%-40s %.6g %s" % (name, values[name], units[name]))
        record = {"fingerprint": fingerprint, "metrics": values}
        with open(raw_path.with_suffix("").with_suffix(".spans.json"),
                  "w") as out:
            json.dump(raw["spans"], out)
    else:
        units = {m["name"]: m["unit"] for m in spec.END_TO_END}
        for note in notes:
            print(note)
        record = {"fingerprint": fingerprint, "metrics": values,
                  "samples": {k: stats.summary(v)
                              for k, v in samples.items()}}
        for name in units:
            line = "%-14s %.6g %s" % (name, values[name], units[name])
            if name in samples:
                s = record["samples"][name]
                line += "  (n=%d median %.6g q1 %.6g q3 %.6g)" % (
                    s["n"], s["median"], s["q1"], s["q3"])
            print(line)
    with open(raw_path.with_suffix("").with_suffix(".record.json"),
              "w") as out:
        json.dump(record, out, indent=1, sort_keys=True)

    correct = failed == 0 and passed == len(raw["checks"])
    line = stats.result_line(correct, attempted, failed,
                             {n: (values[n], units[n]) for n in units})
    problems = stats.check_result_line(line, units)
    if problems:
        fail("malformed result line: " + "; ".join(problems), 1)
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
