#!/usr/bin/env python3
"""Steadiness check: reruns one workload with different seeds and reports
each end-to-end metric's spread against its bound in BENCHMARK.json.

    python3 e2ebench/steadiness.py --workload tpch_files --runs 10 [--sets 2]

Spread is the distance between the first and third quartile of the runs'
values (statistics.quantiles, n=4) as a share of their median. The check
fails when any metric's spread exceeds its bound, when any run fails its
output checks, or, with --sets 2, when the second set's median is worse
than the first's by more than the bound.
"""

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
import stats  # noqa: E402


def run_once(workload, seed, seconds):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    process = subprocess.Popen(command, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True,
                               cwd=HERE.parent)
    try:
        stdout, stderr = process.communicate()
    finally:
        # SIGTERM lets run.py stop its harness; SIGKILL would orphan it.
        if process.poll() is None:
            process.terminate()
            process.wait()
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        sys.stderr.write(stdout[-2000:] + stderr[-2000:])
        return None
    return json.loads(lines[-1])


def evaluate(sets):
    """Rows of (metric, per-set summaries, spread verdicts, drift) and
    the overall pass flag."""
    ok = True
    rows = []
    for metric in spec.END_TO_END:
        name, bound = metric["name"], metric["bound"]
        summaries = []
        for values in sets:
            q1, median, q3 = stats.quartiles(values[name])
            spread = stats.spread(values[name])
            verdict = spread <= bound
            ok = ok and verdict
            summaries.append((median, q1, q3, spread, verdict))
        drift = None
        if len(sets) == 2:
            drift = stats.worse_by(summaries[0][0], summaries[1][0],
                                   metric["better"])
            ok = ok and drift <= bound
        rows.append((name, bound, summaries, drift))
    return rows, ok


def main(argv):
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec.WORKLOADS])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    args = parser.parse_args(argv)

    sets = []
    seed = args.first_seed
    for _ in range(args.sets):
        values = {m["name"]: [] for m in spec.END_TO_END}
        for _ in range(args.runs):
            line = run_once(args.workload, seed, args.seconds)
            if line is None or not line["correct"]:
                print("run with seed %d failed" % seed)
                return 1
            for name in values:
                values[name].append(line["metrics"][name]["value"])
            print("seed %d: %s" % (seed, " ".join(
                "%s=%.6g" % (n, v[-1]) for n, v in values.items())),
                flush=True)
            seed += 1
        sets.append(values)

    rows, ok = evaluate(sets)
    for name, bound, summaries, drift in rows:
        parts = []
        for median, q1, q3, spread, verdict in summaries:
            parts.append("median %.6g q1 %.6g q3 %.6g spread %.4f%s" % (
                median, q1, q3, spread, "" if verdict else " OVER"))
        line = "%-12s bound %.2f | %s" % (name, bound, " | ".join(parts))
        if drift is not None:
            line += " | drift %+.4f%s" % (drift,
                                         " OVER" if drift > bound else "")
        print(line)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
