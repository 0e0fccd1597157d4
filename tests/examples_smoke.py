#!/usr/bin/env python3
"""Smoke tests of the example binaries: run one at its defaults, parse
its printout and check the facts it demonstrates.

    python3 tests/examples_smoke.py quickstart path/to/quickstart
    python3 tests/examples_smoke.py saturation_study path/to/saturation_study
    python3 tests/examples_smoke.py design_space path/to/design_space
"""

import math
import re
import subprocess
import sys


def tables(text):
    """Every printed table as a list of {column: cell} rows."""
    out = []
    columns = None
    for line in text.splitlines():
        if not line.startswith("|"):
            columns = None
            continue
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if columns is None:
            columns = cells
            out.append([])
        elif not all(set(c) == {"-"} for c in cells):
            out[-1].append(dict(zip(columns, cells)))
    return out


def check_quickstart(text, fail):
    """Both models stable, the simulation steady and within 15% of the
    refined model at the default load."""
    models = dict(re.findall(r"^  (paper-literal|refined) model *: *(.*)$",
                             text, re.M))
    if set(models) != {"paper-literal", "refined"}:
        fail(f"model lines not found: {models}")
        return
    unstable = [f"{name} {value}" for name, value in models.items()
                if "saturated" in value or not math.isfinite(float(value))]
    if unstable:
        fail(f"models not stable at the default load: {unstable}")
        return
    sim = re.search(r"^Simulation: +([\d.]+) \+/- ([\d.]+)", text, re.M)
    if not sim:
        fail("simulation saturated or not printed")
        return
    refined = float(models["refined"])
    measured = float(sim.group(1))
    if abs(measured - refined) > 0.15 * refined:
        fail(f"sim {measured} not within 15% of refined {refined}")


def check_saturation_study(text, fail):
    """The sweep over M: bound x M is one constant over the five rows, and
    the refined knee sits below the flow bound in every row."""
    sweep = [t for t in tables(text) if t and "bound x M" in t[0]]
    if len(sweep) != 1 or len(sweep[0]) != 5:
        fail(f"want one 5-row message-length table, got {sweep}")
        return
    rows = sweep[0]
    products = {row["bound x M"] for row in rows}
    if len(products) != 1:
        fail(f"bound x M not constant: {sorted(products)}")
    for row in rows:
        bound = float(row["flow-model bound"])
        knee = float(row["refined-model knee"])
        if not 0.0 < knee < bound:
            fail(f"M={row['M (flits)']}: knee {knee} not in (0, bound "
                 f"{bound})")


def check_design_space(text, fail):
    """Every candidate organization has a positive knee and adds up to the
    target machine size."""
    target = re.search(r"Design space for N = (\d+) nodes", text)
    found = tables(text)
    if not target or len(found) != 1 or not found[0]:
        fail("design table not found")
        return
    for row in found[0]:
        label = f"m={row['m']} cluster={row['cluster']}"
        knee = float(row["knee lambda*"])
        if not (math.isfinite(knee) and knee > 0.0):
            fail(f"{label}: knee {knee}")
        nodes = int(row["cluster"].split()[0]) * int(row["clusters"])
        if nodes != int(target.group(1)):
            fail(f"{label}: {nodes} nodes, want {target.group(1)}")


CHECKS = {
    "quickstart": check_quickstart,
    "saturation_study": check_saturation_study,
    "design_space": check_design_space,
}


def main():
    name, binary = sys.argv[1], sys.argv[2]
    run = subprocess.run([binary], stdout=subprocess.PIPE, text=True,
                         check=True)
    failures = []
    CHECKS[name](run.stdout, failures.append)
    for failure in failures:
        print(f"{name}_smoke: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
