#!/usr/bin/env python3
"""Campaign benchmark of the mcs library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/campaign_bench (Release, into .bench_build/perfbench) from
the source tree it sits in, runs one workload for S seconds, and prints
human-readable report lines followed by one JSON result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 its
per-layer metrics. wall_s is the median over the run's timed passes, and
setup_s the median over blocks of set-up repetitions, each divided by the
slowdown of a fixed, library-independent reference timed right around it
(campaign_bench.cpp, "Host-speed references"), so the slow phases of a
shared host cancel out; the unscaled times are printed and recorded. The
traced run writes its spans as Chrome trace-event JSON
(.bench_out/<workload>-<seed>.trace.json, opens in Perfetto); the per-layer
self times are computed here from that same file.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
WORKLOADS = ("fig3_campaign", "knee_search", "model_campaign")
LAYERS = ("topology", "sim", "model", "exp", "util")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no mcs source tree around {HERE.name}/ (expected "
             "CMakeLists.txt and src/ in its parent directory)")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "campaign_bench", "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail(f"build step failed: {' '.join(cmd)}")
    return BUILD / "campaign_bench"


def layer_self_times(span_file):
    """Self time per layer over the replay's spans: each span's duration
    minus the part of its interval that its child spans cover. A span's
    layer is the first dot-separated part of its name."""
    events = [e for e in json.loads(Path(span_file).read_text())["traceEvents"]
              if e["ph"] == "X"]
    children = {}
    for e in events:
        children.setdefault(e["args"]["parent"], []).append(e)
    root = next(e for e in events if e["name"] == "replay")
    totals = dict.fromkeys(LAYERS, 0.0)
    stack = [root]
    while stack:
        span = stack.pop()
        kids = children.get(span["args"]["id"], [])
        stack.extend(kids)
        covered, reach = 0.0, span["ts"]
        for kid in sorted(kids, key=lambda k: k["ts"]):
            start = max(kid["ts"], reach)
            end = min(kid["ts"] + kid["dur"], span["ts"] + span["dur"])
            if end > start:
                covered += end - start
                reach = end
        layer = span["name"].split(".")[0]
        if layer in totals:
            totals[layer] += (span["dur"] - covered) * 1e-6
    return totals


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=20060814)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.is_file():
        fail("BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_file.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build()
    OUT.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(OUT)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"campaign_bench exceeded {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"campaign_bench exited with code {done.returncode}")
    report = json.loads(done.stdout.strip().splitlines()[-1])

    metrics = dict(report["metrics"])
    span_file = report["span_file"]
    if span_file:
        for layer, seconds in layer_self_times(span_file).items():
            metrics[f"{layer}.self_s"] = {"value": seconds, "unit": "s"}

    prov = report["provenance"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{report['passes']} timed passes, host seconds {report['pass_s']}, "
          f"reference slowdowns {report['slowdown']}, "
          f"unscaled set-up seconds {report['setup_host_s']}")
    print("provenance " + json.dumps(prov))
    if not prov["release_build"]:
        print(f"WARNING: non-Release build "
              f"({prov['manifest']['build_type'] or 'no build type'})")
    print("identity " + json.dumps(report["identity"]))
    if span_file:
        print(f"spans {span_file}")
    if report["failures"]:
        print("FAILED checks " + json.dumps(report["failures"]))

    selected = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            fail(f"metric {m['name']} was not measured")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']}: unit {got['unit']} != {m['unit']}")
        if got["value"] is None:
            fail(f"metric {m['name']} is not a finite number")
        selected[m["name"]] = got
        print(f"  {m['name']:<34} {got['value']:>16.6g} {got['unit']}")

    result = {"correct": report["correct"], "attempted": report["attempted"],
              "failed": report["failed"], "metrics": selected}
    record = OUT / f"{args.workload}-{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**report, "metrics": metrics,
                                  "result": result}, indent=1) + "\n")
    print(f"record {record}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
