#!/usr/bin/env python3
"""Performance history of the campaign benchmark (bench/history/).

    bench_history.py RECORD [RECORD ...] [--add LABEL]

A RECORD is a result file that perfbench/run.py writes to .bench_out/
(<workload>-<seed>-trace<0|1>.json); several RECORDs are runs of one
workload and mode, normally one per seed. The script compares them with
the newest label of the same workload and mode in the history (every
entry carrying that label). For every metric BENCHMARK.json lists for
the mode (end-to-end for trace 0, per-layer for trace 1) it prints the
median of each side, the relative change of the medians and a verdict,
and it says whether the rows (rows_sha256) are the same on the seeds
both sides ran. The verdict is
"better" or "worse" only when each side has at least MIN_RUNS records
and the two sides' ranges do not overlap. Otherwise it is "few runs" or
"spread" (the ranges overlap): one record per side cannot tell a change
from run-to-run noise, which reaches 30-55% in some per-layer metrics.
With --add LABEL it then stores each RECORD as the next entry,
NNNN-<workload>-trace<T>-<LABEL>.json.

Compare records measured on one host only: the numbers are wall-clock.
"""

import argparse
import json
import os
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HISTORY = ROOT / "bench" / "history"
ENTRY = re.compile(r"^(\d{4})-(.+)-trace([01])-(.+)\.json$")
MIN_RUNS = 3


def latest_label(workload, trace):
    """The history entries that carry the newest label of one workload and
    mode, oldest first."""
    found = []
    for path in HISTORY.glob("*.json"):
        m = ENTRY.match(path.name)
        if m and m.group(2) == workload and int(m.group(3)) == trace:
            found.append((int(m.group(1)), m.group(4), path))
    if not found:
        return []
    label = max(found)[1]
    return [path for _, lab, path in sorted(found) if lab == label]


def verdict(old, new, better):
    """Relative change of the medians in percent, and its verdict."""
    old_mid, new_mid = statistics.median(old), statistics.median(new)
    if old_mid == new_mid:
        return "0.0%", "same"
    pct = (f"{100.0 * (new_mid - old_mid) / abs(old_mid):+.1f}%"
           if old_mid != 0 else "n/a")
    if min(len(old), len(new)) < MIN_RUNS:
        return pct, "few runs"
    if not (max(old) < min(new) or max(new) < min(old)):
        return pct, "spread"
    improved = new_mid < old_mid if better == "lower" else new_mid > old_mid
    return pct, "better" if improved else "worse"


def compare(records, previous, metric_specs):
    old_records = [json.loads(path.read_text()) for path in previous]
    print(f"{records[0]['workload']} trace {records[0]['trace']}: "
          f"{', '.join(p.name for p in previous)} -> {len(records)} new "
          f"record(s); medians")
    # The rows depend on the seed: compare them seed by seed.
    rows_old = {r["provenance"]["seed"]: r["identity"].get("rows_sha256")
                for r in old_records}
    rows_new = {r["provenance"]["seed"]: r["identity"].get("rows_sha256")
                for r in records}
    seeds = sorted(rows_old.keys() & rows_new.keys())
    same = all(rows_old[seed] == rows_new[seed] for seed in seeds)
    print(f"  rows_sha256 {'same' if same else 'DIFFERENT'} on seeds "
          f"{seeds}" if seeds else "  rows_sha256 not compared: no common seed")
    for spec in metric_specs:
        name = spec["name"]
        old = [r["metrics"][name]["value"] for r in old_records
               if name in r["metrics"]]
        new = [r["metrics"][name]["value"] for r in records
               if name in r["metrics"]]
        if len(old) != len(old_records) or len(new) != len(records):
            continue
        pct, word = verdict(old, new, spec["better"])
        print(f"  {name:<34} {statistics.median(old):>12.6g} -> "
              f"{statistics.median(new):>12.6g} {spec['unit']:<6}"
              f" {pct:>8} {word}")


def add(record, label):
    numbers = [int(m.group(1)) for m in
               (ENTRY.match(p.name) for p in HISTORY.glob("*.json")) if m]
    number = max(numbers, default=0) + 1
    path = HISTORY / (f"{number:04d}-{record['workload']}-"
                      f"trace{record['trace']}-{label}.json")
    stored = dict(record)
    # The span file path is local to the host that ran the benchmark.
    if stored.get("span_file"):
        stored["span_file"] = os.path.basename(stored["span_file"])
    path.write_text(json.dumps(stored, indent=1) + "\n")
    print(f"added {path.relative_to(ROOT)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("records", type=Path, nargs="+", metavar="RECORD")
    parser.add_argument("--add", metavar="LABEL",
                        help="store each RECORD as the next history entry")
    args = parser.parse_args()
    if args.add is not None and not re.fullmatch(r"[\w.-]+", args.add):
        sys.exit("bench_history.py: LABEL may hold only letters, digits, "
                 "'_', '.' and '-'")

    records = [json.loads(path.read_text()) for path in args.records]
    workload, trace = records[0]["workload"], records[0]["trace"]
    if any((r["workload"], r["trace"]) != (workload, trace) for r in records):
        sys.exit("bench_history.py: the RECORDs mix workloads or modes")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_specs = spec["per_layer"] if trace else spec["end_to_end"]

    previous = latest_label(workload, trace)
    if previous:
        compare(records, previous, metric_specs)
    else:
        print(f"no history entry for {workload} trace {trace} yet")
    if args.add is not None:
        HISTORY.mkdir(parents=True, exist_ok=True)
        for record in records:
            add(record, args.add)


if __name__ == "__main__":
    main()
