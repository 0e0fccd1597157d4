#!/usr/bin/env python3
"""Smoke test of bench_table1: run it, parse both organizations' Table 1
printouts and check the numbers the paper's Table 1 fixes.

    python3 tests/bench_table1_smoke.py path/to/bench_table1
"""

import re
import subprocess
import sys


def parse(text):
    """One dict per printed organization: the header's key=value integers
    (N, C, m), the check line's integers under their first word (sum,
    switches) and the table as a list of {column: float} rows."""
    orgs = []
    columns = None
    for line in text.splitlines():
        if line.startswith("=== "):
            orgs.append({"rows": []})
            columns = None
        elif line.startswith("N="):
            for key, value in re.findall(r"(\w+)=(\d+)", line):
                orgs[-1][key] = int(value)
        elif line.startswith("|"):
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if columns is None:
                columns = cells
            elif not all(set(c) == {"-"} for c in cells):
                orgs[-1]["rows"].append(dict(zip(columns, map(float, cells))))
        elif line.startswith("check:"):
            for item in line[len("check:"):].split(";"):
                name, value = item.rsplit("=", 1)
                orgs[-1][name.split()[0]] = int(value)
    return orgs


def main():
    run = subprocess.run([sys.argv[1]], stdout=subprocess.PIPE, text=True,
                         check=True)
    org_a, org_b = parse(run.stdout)
    failures = []

    def expect(what, got, want):
        if got != want:
            failures.append(f"{what}: got {got}, want {want}")

    for name, org, n, c, switches in (("org_a", org_a, 1120, 32, 1060),
                                      ("org_b", org_b, 544, 16, 2116)):
        expect(f"{name} N", org["N"], n)
        expect(f"{name} C", org["C"], c)
        expect(f"{name} sum N_i", org["sum"], n)
        expect(f"{name} switches", org["switches"], switches)
        # The table's rows group every cluster: counts and sizes add up.
        expect(f"{name} clusters",
               sum(r["clusters"] for r in org["rows"]), c)
        expect(f"{name} nodes",
               sum(r["clusters"] * r["N_i (Eq.1)"] for r in org["rows"]), n)
    expect("org_a P_o", [r["P_o (Eq.13)"] for r in org_a["rows"]],
           [0.9937, 0.9723, 0.8865])

    for failure in failures:
        print(f"bench_table1_smoke: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
