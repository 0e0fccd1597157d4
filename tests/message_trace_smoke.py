#!/usr/bin/env python3
"""Smoke test of message_trace: run it for both Table 1 organizations,
parse every leg's per-hop header and tail times and the zero-load
latency, and check them.

    python3 tests/message_trace_smoke.py path/to/message_trace

message_trace evaluates the single-flit buffer drain recurrence with its
own loop, independent of the simulator's kernels, so its latencies are
pinned here as an oracle of that recurrence.
"""

import re
import subprocess
import sys

# Zero-load latency of node 0 -> the last node, as printed (%.3f).
PINNED = {"a": 45.708, "b": 48.840}


def parse(text):
    """The legs as lists of {column: value} hop rows, each leg with the
    channel count its title announces, and the printed latency."""
    legs = []
    columns = None
    latency = None
    for line in text.splitlines():
        title = re.search(r"\((.*), (\d+) channels\)$", line)
        if title:
            legs.append({"channels": int(title.group(2)), "hops": []})
            columns = None
        elif line.startswith("|"):
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if columns is None:
                columns = cells
            elif not all(set(c) == {"-"} for c in cells):
                legs[-1]["hops"].append(dict(zip(columns, cells)))
        elif line.startswith("zero-load end-to-end latency:"):
            latency = float(line.split(":")[1].split()[0])
    return legs, latency


def main():
    failures = []
    for org, pinned in PINNED.items():
        run = subprocess.run([sys.argv[1], f"--org={org}"],
                             stdout=subprocess.PIPE, text=True, check=True)
        legs, latency = parse(run.stdout)

        def fail(what):
            failures.append(f"org_{org}: {what}")

        if len(legs) != 3:
            fail(f"{len(legs)} legs, want 3 (an external message)")
        clock = 0.0
        for number, leg in enumerate(legs, 1):
            hops = leg["hops"]
            if len(hops) != leg["channels"]:
                fail(f"leg {number}: {len(hops)} hop rows, title says "
                     f"{leg['channels']}")
            for hop in hops:
                header = float(hop["header done"])
                tail = float(hop["tail done"])
                if tail < header:
                    fail(f"leg {number} hop {hop['hop']}: tail {tail} "
                         f"before header {header}")
                if header <= clock:
                    fail(f"leg {number} hop {hop['hop']}: header {header} "
                         f"not after {clock}")
                clock = header
            # The next leg starts when this one's tail is out.
            clock = float(hops[-1]["tail done"]) if hops else clock
        if latency != clock:
            fail(f"latency {latency} is not the last tail time {clock}")
        if latency != pinned:
            fail(f"latency {latency}, pinned {pinned}")

    for failure in failures:
        print(f"message_trace_smoke: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
