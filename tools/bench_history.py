#!/usr/bin/env python3
"""Performance history of the campaign benchmark (bench/history/).

    bench_history.py RECORD [--add LABEL]

RECORD is a result file that perfbench/run.py writes to .bench_out/
(<workload>-<seed>-trace<0|1>.json). The script prints every metric
BENCHMARK.json lists for RECORD's mode (end-to-end for trace 0, per-layer
for trace 1) beside the last history entry of the same workload and mode,
with the relative change and whether it is better or worse, and says
whether the rows (rows_sha256) are the same. With --add LABEL it then
stores RECORD as the next entry, NNNN-<workload>-trace<T>-<LABEL>.json.

Compare records measured on one host only: the numbers are wall-clock.
"""

import argparse
import json
import os
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HISTORY = ROOT / "bench" / "history"
ENTRY = re.compile(r"^(\d{4})-(.+)-trace([01])-(.+)\.json$")


def entries(workload, trace):
    """History files of one workload and mode, oldest first."""
    found = []
    for path in HISTORY.glob("*.json"):
        m = ENTRY.match(path.name)
        if m and m.group(2) == workload and int(m.group(3)) == trace:
            found.append((int(m.group(1)), path))
    return [path for _, path in sorted(found)]


def change(old, new, better):
    """Relative change in percent, and its verdict."""
    if old == new:
        return "0.0%", "same"
    if old == 0:
        return "n/a", "new"
    pct = 100.0 * (new - old) / abs(old)
    improved = new < old if better == "lower" else new > old
    return f"{pct:+.1f}%", "better" if improved else "worse"


def compare(record, last, metric_specs):
    print(f"{record['workload']} trace {record['trace']}: "
          f"{last.name} -> new record")
    last_record = json.loads(last.read_text())
    old_metrics = last_record["metrics"]
    rows_old = last_record["identity"].get("rows_sha256")
    rows_new = record["identity"].get("rows_sha256")
    print(f"  rows_sha256 {'same' if rows_old == rows_new else 'DIFFERENT'}"
          f" ({rows_new})")
    for spec in metric_specs:
        name = spec["name"]
        if name not in record["metrics"] or name not in old_metrics:
            continue
        old = old_metrics[name]["value"]
        new = record["metrics"][name]["value"]
        pct, verdict = change(old, new, spec["better"])
        print(f"  {name:<34} {old:>12.6g} -> {new:>12.6g} {spec['unit']:<6}"
              f" {pct:>8} {verdict}")


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
    parser.add_argument("record", type=Path)
    parser.add_argument("--add", metavar="LABEL",
                        help="store RECORD as the next history entry")
    args = parser.parse_args()
    if args.add is not None and not re.fullmatch(r"[\w.-]+", args.add):
        sys.exit("bench_history.py: LABEL may hold only letters, digits, "
                 "'_', '.' and '-'")

    record = json.loads(args.record.read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_specs = spec["per_layer"] if record["trace"] else spec["end_to_end"]

    previous = entries(record["workload"], record["trace"])
    if previous:
        compare(record, previous[-1], metric_specs)
    else:
        print(f"no history entry for {record['workload']} trace "
              f"{record['trace']} yet")
    if args.add is not None:
        HISTORY.mkdir(parents=True, exist_ok=True)
        add(record, args.add)


if __name__ == "__main__":
    main()
