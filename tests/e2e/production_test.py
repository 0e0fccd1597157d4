#!/usr/bin/env python3
"""Black-box end-to-end harness for the production sweep service.

Drives the *built* mcs_sweep / mcs_perf binaries exactly the
way a campaign script would — through argv, files and exit codes, with no
linkage against the library — and checks the service contracts that unit
tests cannot see from inside the process:

  * exit-code discipline (0 ok, 1 runtime error, 2 usage error),
  * the printed summary metrics (grid rows, restored rows, sim runs,
    saturation-search simulations included),
  * CSV/JSON output validity,
  * malformed-input rejection (bad scenario file, removed options,
    typo'd flags with closest-match suggestions),
  * the --progress heartbeat's final N/N line on stderr,
  * warm-cache re-runs executing zero simulations with identical bytes,
  * SIGKILL mid-run followed by --resume completing identically,
  * SIGKILL mid-run followed by a rerun from the same --cache completing
    identically,
  * one SIGKILL point read back through the journal alone and through
    the cache alone, and the two restored counts compared,
  * fig3_m32's overloaded rows stopped by the latency-drift test and its
    rows below the knee steady, read from the parsed JSON rows,
  * a deliberate hang caught by the harness wall-clock timeout, the
    moral equivalent of a deadlock detector for the whole binary.

Usage:  production_test.py [--build-dir=PATH] [--report=PATH] [--keep]

Exit status is the number of failed tests (0 = all green). A JSON report
(name, status, seconds, detail per test) is written for CI artifact
upload regardless of outcome.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

SCENARIO = "smoke"           # 4 grid rows, 8 sim runs, well under a second
DEFAULT_TIMEOUT = 120        # generous per-command ceiling (seconds)
HANG_TIMEOUT = 10            # deliberate-hang detection window (seconds)

RESULTS = []                 # [{name, status, seconds, detail}]


class Failure(Exception):
    pass


def check(cond, detail):
    if not cond:
        raise Failure(detail)


class Harness:
    def __init__(self, build_dir, workdir):
        self.build_dir = os.path.abspath(build_dir)
        self.workdir = workdir
        for tool in ("mcs_sweep", "mcs_perf"):
            path = os.path.join(self.build_dir, tool)
            if not os.path.isfile(path) or not os.access(path, os.X_OK):
                sys.exit(f"error: missing binary {path}; build first")

    def path(self, *parts):
        return os.path.join(self.workdir, *parts)

    def run(self, tool, *args, timeout=DEFAULT_TIMEOUT, expect=0):
        """Run a built binary; returns CompletedProcess. expect=None skips
        the exit-code check."""
        cmd = [os.path.join(self.build_dir, tool)] + list(args)
        proc = subprocess.run(cmd, cwd=self.workdir, capture_output=True,
                              text=True, timeout=timeout)
        if expect is not None:
            check(proc.returncode == expect,
                  f"{' '.join(cmd)}: exit {proc.returncode}, wanted {expect}"
                  f"\nstdout: {proc.stdout[-500:]}"
                  f"\nstderr: {proc.stderr[-500:]}")
        return proc

    def read(self, name):
        with open(self.path(name), "rb") as f:
            return f.read()

    def summary_metrics(self, stdout):
        """Parse the mcs_sweep summary line:
        '<name>: R grid rows (C restored from cache/journal), S sim runs
        on T threads in W s (P saturated...)'."""
        for line in stdout.splitlines():
            if " grid rows (" in line and " sim runs " in line:
                head, rest = line.split(" grid rows (", 1)
                rows = int(head.rsplit(":", 1)[1])
                restored = int(rest.split(" restored", 1)[0])
                sim_runs = int(rest.split("), ", 1)[1].split(" sim runs")[0])
                return {"rows": rows, "restored": restored,
                        "sim_runs": sim_runs}
        raise Failure(f"no summary line in stdout:\n{stdout}")


# --------------------------------------------------------------- tests --

def test_smoke_run_and_outputs(h):
    """Plain run: exit 0, summary metrics, valid CSV and JSON."""
    proc = h.run("mcs_sweep", SCENARIO, "--quiet", "--threads=2",
                 "--csv=ref.csv", "--json=ref.json", "--stable-json")
    m = h.summary_metrics(proc.stdout)
    check(m["rows"] == 4, f"expected 4 grid rows, got {m}")
    check(m["restored"] == 0, f"cold run restored rows: {m}")
    check(m["sim_runs"] == 8, f"expected 8 sim runs (4 rows x 2 reps): {m}")

    csv = h.read("ref.csv").decode()
    lines = csv.strip().splitlines()
    check(len(lines) == 5, f"CSV should be header + 4 rows, got {len(lines)}")
    check(lines[0].startswith("system,"), f"unexpected CSV header {lines[0]}")

    doc = json.loads(h.read("ref.json"))
    check(doc["name"] == SCENARIO, f"JSON name {doc.get('name')}")
    check(len(doc["rows"]) == 4, "JSON row count")
    for key in ("threads", "wall_seconds", "manifest"):
        check(key not in doc, f"--stable-json must omit volatile key {key}")
    return "4 rows, 8 sim runs, CSV+stable JSON valid"


def test_usage_errors(h):
    """Exit-code discipline on bad invocations."""
    proc = h.run("mcs_sweep", expect=2)
    check("usage:" in proc.stderr, "no usage text without a scenario")

    proc = h.run("mcs_sweep", "no_such_scenario_xyz", expect=1)
    check("--list" in proc.stderr,
          f"unknown scenario should point at --list: {proc.stderr}")

    proc = h.run("mcs_sweep", SCENARIO, "--resume", expect=1)
    check("--resume" in proc.stderr,
          f"--resume without --checkpoint must be rejected: {proc.stderr}")

    # The removed parallel single-run flag must fail loudly, not silently
    # run the serial simulator.
    proc = h.run("mcs_sweep", SCENARIO, "--parallel-run=2", expect=2)
    check("unknown option '--parallel-run'" in proc.stderr,
          f"removed --parallel-run must be an unknown flag: {proc.stderr}")

    # Likewise the removed multi-host shard flag: never a silent full run.
    proc = h.run("mcs_sweep", SCENARIO, "--shard=0/2", expect=2)
    check("unknown option '--shard'" in proc.stderr,
          f"removed --shard must be an unknown flag: {proc.stderr}")

    # Removed front ends: the system is described only by the scenario
    # file, the heartbeat needs no log level, and mcs_perf measures
    # throughput only (the flight recorder lives in mcs_sweep).
    for tool, args, flag in (
            ("mcs_sweep", (SCENARIO, "--icn2-degree=5"), "--icn2-degree"),
            ("mcs_sweep", (SCENARIO, "--log-level=info"), "--log-level"),
            ("mcs_perf", ("--explain",), "--explain")):
        proc = h.run(tool, *args, expect=2)
        check(f"unknown option '{flag}'" in proc.stderr,
              f"removed {tool} {flag} must be an unknown flag: "
              f"{proc.stderr}")

    # An integer the field cannot hold fails; 2^32 + 1 once wrapped to 1.
    proc = h.run("mcs_sweep", SCENARIO, "--replications=4294967297",
                 expect=1)
    check("--replications" in proc.stderr and "out of range" in proc.stderr,
          f"out-of-range --replications must be rejected: {proc.stderr}")
    return "usage and option errors rejected with the right exit codes"


def test_progress_heartbeat(h):
    """--progress alone prints the heartbeat on stderr, ending with the
    final N/N line; stdout carries no heartbeat."""
    proc = h.run("mcs_sweep", SCENARIO, "--quiet", "--progress",
                 "--threads=2")
    beats = [line for line in proc.stderr.splitlines()
             if line.startswith(f"sweep {SCENARIO}: ")]
    check(beats, f"no heartbeat on stderr: {proc.stderr!r}")
    last = beats[-1].split(": ", 1)[1].split(" tasks ", 1)
    done, total = last[0].split("/")
    check(done == total and last[1].startswith("(100%)"),
          f"last heartbeat is not the final N/N line: {beats[-1]!r}")
    check("tasks (" not in proc.stdout, "heartbeat leaked to stdout")
    return f"{len(beats)} heartbeat line(s), last {beats[-1]!r}"


def test_typo_suggestions(h):
    """Regression: a typo'd flag must fail fast with a suggestion, not run
    a subtly different experiment."""
    proc = h.run("mcs_sweep", SCENARIO, "--find-saturaton", expect=2)
    check("find-saturaton" in proc.stderr and
          "find-saturation" in proc.stderr,
          f"no closest-match suggestion: {proc.stderr}")

    proc = h.run("mcs_perf", "--basline=x.json", expect=2)
    check("baseline" in proc.stderr,
          f"mcs_perf typo not suggested: {proc.stderr}")
    return "typo'd flags exit 2 with closest-match suggestions"


def test_malformed_scenario_rejected(h):
    """A broken scenario file must produce a diagnostic and exit 1."""
    bad = h.path("broken.ini")
    with open(bad, "w") as f:
        f.write("[sweep]\nname = broken\nloads = not_a_number\n")
    proc = h.run("mcs_sweep", bad, expect=1)
    check(proc.stderr.strip(), "no diagnostic for a malformed scenario")

    with open(bad, "w") as f:
        f.write("[sweep]\nname = broken\nbogus_key = 1\nloads = 1e-3\n")
    proc = h.run("mcs_sweep", bad, expect=1)
    check("bogus_key" in proc.stderr,
          f"unknown scenario key not named: {proc.stderr}")
    return "malformed scenario files exit 1 with diagnostics"


def test_warm_cache_zero_sims(h):
    """Second run against a warm cache: zero simulations, identical CSV."""
    cache = h.path("cache")
    h.run("mcs_sweep", SCENARIO, "--quiet", "--threads=2",
          f"--cache={cache}")
    proc = h.run("mcs_sweep", SCENARIO, "--quiet", "--threads=2",
                 f"--cache={cache}", "--csv=warm.csv")
    m = h.summary_metrics(proc.stdout)
    check(m["restored"] == 4, f"warm run should restore all 4 rows: {m}")
    check(m["sim_runs"] == 0, f"warm run must execute zero sims: {m}")
    check(h.read("warm.csv") == h.read("ref.csv"),
          "warm-cache CSV differs from the cold run")

    # A changed evaluation flag must miss the cache, not serve stale rows.
    proc = h.run("mcs_sweep", SCENARIO, "--quiet", "--threads=2",
                 f"--cache={cache}", "--measured=3000")
    m = h.summary_metrics(proc.stdout)
    check(m["restored"] == 0 and m["sim_runs"] == 8,
          f"changed --measured must invalidate the cache: {m}")
    return "warm cache: 4/4 restored, 0 sim runs, bytes identical"


def test_kill_and_resume(h):
    """SIGKILL a checkpointed run mid-flight, then --resume: the finished
    campaign must be byte-identical to an uninterrupted one. A mid-kill
    journal may carry an unsorted append segment and even a torn trailing
    line — --resume must swallow both, and the journal it leaves behind
    must match the uninterrupted run's byte for byte (the finalize
    compaction makes finished journals scheduling-independent)."""
    journal = h.path("resume.journal")
    if os.path.exists(journal):
        os.remove(journal)
    # Reference for these exact flags (longer phases slow the victim down
    # enough to catch it between checkpoint appends).
    flags = ["--measured=400000", "--warmup=500", "--threads=1"]
    h.run("mcs_sweep", SCENARIO, "--quiet", *flags, "--csv=resume_ref.csv",
          "--checkpoint=resume_ref.journal")

    cmd = [os.path.join(h.build_dir, "mcs_sweep"), SCENARIO, "--quiet",
           f"--checkpoint={journal}"] + flags
    victim = subprocess.Popen(cmd, cwd=h.workdir,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
    killed_midway = False
    deadline = time.monotonic() + DEFAULT_TIMEOUT
    while time.monotonic() < deadline and victim.poll() is None:
        if os.path.exists(journal):
            with open(journal) as f:
                rows = sum(1 for line in f if line.startswith("row "))
            if rows >= 1:
                victim.send_signal(signal.SIGKILL)
                killed_midway = True
                break
        time.sleep(0.005)
    victim.wait(timeout=DEFAULT_TIMEOUT)

    proc = h.run("mcs_sweep", SCENARIO, "--quiet", *flags,
                 f"--checkpoint={journal}", "--resume",
                 "--csv=resumed.csv")
    m = h.summary_metrics(proc.stdout)
    check(h.read("resumed.csv") == h.read("resume_ref.csv"),
          "resumed campaign differs from the uninterrupted run")
    check(h.read("resume.journal") == h.read("resume_ref.journal"),
          "finalized journal differs from the uninterrupted run's — "
          "completed journals must be byte-identical regardless of "
          "interruption or task scheduling")
    how = (f"killed with {m['restored']} rows checkpointed"
           if killed_midway else
           "victim finished before the kill window (machine too fast)")
    return f"resume and journal byte-identical; {how}"


def test_kill_and_cache(h):
    """SIGKILL a --cache run once its segment holds a complete row, then
    rerun with the same --cache: the rerun restores the rows that landed,
    computes the rest, and its CSV is byte-identical to an uninterrupted
    run. A kill mid-append can leave a torn last line in the segment; the
    reader drops it and no writer appends behind it, so a third run
    restores every row."""
    cache = h.path("kill_cache")
    shutil.rmtree(cache, ignore_errors=True)
    # Same flags as test_kill_and_resume: long enough phases to land the
    # kill between two rows.
    flags = ["--measured=400000", "--warmup=500", "--threads=1"]
    h.run("mcs_sweep", SCENARIO, "--quiet", *flags, "--csv=cache_ref.csv")

    def complete_lines():
        if not os.path.isdir(cache):
            return 0
        lines = 0
        for name in os.listdir(cache):
            if name.endswith(".pack"):
                with open(os.path.join(cache, name), "rb") as f:
                    lines += f.read().count(b"\n")
        return lines

    cmd = [os.path.join(h.build_dir, "mcs_sweep"), SCENARIO, "--quiet",
           f"--cache={cache}"] + flags
    victim = subprocess.Popen(cmd, cwd=h.workdir,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
    killed_midway = False
    deadline = time.monotonic() + DEFAULT_TIMEOUT
    while time.monotonic() < deadline and victim.poll() is None:
        if complete_lines() >= 1:
            victim.send_signal(signal.SIGKILL)
            killed_midway = True
            break
        time.sleep(0.005)
    victim.wait(timeout=DEFAULT_TIMEOUT)

    proc = h.run("mcs_sweep", SCENARIO, "--quiet", *flags,
                 f"--cache={cache}", "--csv=cached.csv")
    m = h.summary_metrics(proc.stdout)
    check(h.read("cached.csv") == h.read("cache_ref.csv"),
          "campaign rerun from a killed run's cache differs from the "
          "uninterrupted run")
    if killed_midway:
        check(m["restored"] >= 1,
              f"rerun restored nothing from the killed run's cache: {m}")

    proc = h.run("mcs_sweep", SCENARIO, "--quiet", *flags,
                 f"--cache={cache}", "--csv=cached_warm.csv")
    warm = h.summary_metrics(proc.stdout)
    check(warm["restored"] == 4 and warm["sim_runs"] == 0,
          f"third run should restore all 4 rows: {warm}")
    check(h.read("cached_warm.csv") == h.read("cache_ref.csv"),
          "warm CSV differs from the uninterrupted run")
    how = (f"killed with {m['restored']} rows cached"
           if killed_midway else
           "victim finished before the kill window (machine too fast)")
    return f"rerun and warm run byte-identical; {how}"


def test_search_sim_runs_counted(h):
    """A saturation search's simulations count as sim runs: the summary
    line and the JSON sim_tasks agree, and the grid's replications add on
    top of the same searches."""
    flags = ["--find-saturation", "--quiet", "--threads=2"]
    proc = h.run("mcs_sweep", SCENARIO, "--no-sim", *flags,
                 "--json=search.json")
    searched = h.summary_metrics(proc.stdout)["sim_runs"]
    doc = json.loads(h.read("search.json"))
    check(searched == doc["sim_tasks"],
          f"printed {searched} sim runs, JSON sim_tasks {doc['sim_tasks']}")
    check(searched > 0, f"search-only run printed {searched} sim runs")

    proc = h.run("mcs_sweep", SCENARIO, *flags)
    both = h.summary_metrics(proc.stdout)["sim_runs"]
    check(both == searched + 8,
          f"grid + search printed {both} sim runs, wanted {searched} + 8")
    return f"{searched} search sim runs printed and in JSON; {both} with grid"


def test_kill_cache_vs_journal(h):
    """SIGKILL one run that writes both --cache and --checkpoint once the
    cache holds a complete row, then restore copies of that state twice:
    through the journal alone (--checkpoint --resume) and through the
    cache alone. Both must restore rows, and the cache at most one fewer
    than the journal: a finished row is written to the journal first and
    to the cache second, so one row can sit between the two writes."""
    cache = h.path("both_cache")
    journal = h.path("both.journal")
    shutil.rmtree(cache, ignore_errors=True)
    if os.path.exists(journal):
        os.remove(journal)
    # Same phases as test_kill_and_resume: long enough to land the kill
    # between two rows.
    flags = ["--measured=400000", "--warmup=500", "--threads=1"]

    def cache_lines():
        if not os.path.isdir(cache):
            return 0
        lines = 0
        for name in os.listdir(cache):
            if name.endswith(".pack"):
                with open(os.path.join(cache, name), "rb") as f:
                    lines += f.read().count(b"\n")
        return lines

    cmd = [os.path.join(h.build_dir, "mcs_sweep"), SCENARIO, "--quiet",
           f"--cache={cache}", f"--checkpoint={journal}"] + flags
    victim = subprocess.Popen(cmd, cwd=h.workdir,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
    killed_midway = False
    deadline = time.monotonic() + DEFAULT_TIMEOUT
    while time.monotonic() < deadline and victim.poll() is None:
        if cache_lines() >= 1:
            victim.send_signal(signal.SIGKILL)
            killed_midway = True
            break
        time.sleep(0.005)
    victim.wait(timeout=DEFAULT_TIMEOUT)
    if not killed_midway:
        return "victim finished before the kill window (machine too fast)"

    # Each rerun gets its own copy of the killed state, so neither
    # restores from rows the other wrote.
    shutil.copyfile(journal, h.path("both_copy.journal"))
    shutil.copytree(cache, h.path("both_copy_cache"))
    proc = h.run("mcs_sweep", SCENARIO, "--quiet", *flags,
                 "--checkpoint=both_copy.journal", "--resume")
    from_journal = h.summary_metrics(proc.stdout)["restored"]
    proc = h.run("mcs_sweep", SCENARIO, "--quiet", *flags,
                 "--cache=both_copy_cache")
    from_cache = h.summary_metrics(proc.stdout)["restored"]
    check(from_journal >= 1 and from_cache >= 1,
          f"journal restored {from_journal}, cache {from_cache}: "
          "both must restore the rows that landed")
    check(from_cache >= from_journal - 1,
          f"cache restored {from_cache} rows, journal {from_journal}: "
          "the cache may trail the journal by one row at most")
    return (f"journal restored {from_journal} row(s), cache "
            f"{from_cache}")


def test_hang_caught_by_timeout(h):
    """A pathological invocation that runs far beyond its budget must be
    caught by the harness wall-clock ceiling — the black-box equivalent
    of a deadlock detector."""
    cmd = [os.path.join(h.build_dir, "mcs_sweep"), SCENARIO, "--quiet",
           "--threads=1", "--measured=2000000000", "--warmup=200"]
    try:
        subprocess.run(cmd, cwd=h.workdir, capture_output=True,
                       timeout=HANG_TIMEOUT)
        raise Failure("a 2e9-event run finished inside the hang window; "
                      "the timeout guard is not being exercised")
    except subprocess.TimeoutExpired:
        return f"hang detected and killed after {HANG_TIMEOUT}s"


def test_perf_smoke_contract(h):
    """mcs_perf --smoke: exit 0, a report with manifest + measurements."""
    proc = h.run("mcs_perf", "--smoke", "--repeats=1",
                 "--out=perf_e2e.json", timeout=DEFAULT_TIMEOUT)
    doc = json.loads(h.read("perf_e2e.json"))
    check(doc.get("scenarios"), "perf report has no scenario measurements")
    check("manifest" in doc, "perf report has no manifest")
    check("events" in proc.stdout, "perf table not printed")
    for s in doc["scenarios"]:
        check(sum(s["events_by_kind"]) == s["events"],
              f"{s['id']}: pops by kind {s['events_by_kind']} do not sum "
              f"to {s['events']} events")
    return f"{len(doc['scenarios'])} perf scenarios measured"


def test_fig3_drift_verdicts(h):
    """fig3_m32 past the knee: every overloaded row is stopped by the
    latency-drift test; every row below it completes with a latency.
    Asserts on the parsed --json rows, not on the rendered table."""
    h.run("mcs_sweep", "fig3_m32", "--threads=2", "--quiet",
          "--json=fig3.json", "--stable-json")
    rows = json.loads(h.read("fig3.json"))["rows"]
    check(len(rows) == 24, f"expected 24 fig3_m32 rows, got {len(rows)}")
    # Per L_m: (first overloaded load, last steady load) on the grid.
    bounds = {256: (2.5e-4, 1.5e-4), 512: (1.5e-4, 1e-4)}
    eps = 1e-9
    drift = steady = 0
    for row in rows:
        label = f"L_m={row['flit_bytes']} lambda={row['lambda']:g}"
        overloaded, last_steady = bounds[row["flit_bytes"]]
        if row["lambda"] >= overloaded * (1 - eps):
            check(row["sim_state"] == 1 and
                  row.get("saturation_causes") == "drift",
                  f"{label}: wanted saturated[drift], got state "
                  f"{row['sim_state']} causes "
                  f"{row.get('saturation_causes')!r}")
            drift += 1
        elif row["lambda"] <= last_steady * (1 + eps):
            latency = row.get("sim_latency")
            finite = (isinstance(latency, (int, float)) and
                      math.isfinite(latency) and latency > 0)
            check(row["sim_state"] == 0 and finite,
                  f"{label}: wanted a steady row, got state "
                  f"{row['sim_state']} latency {latency!r}")
            steady += 1
    check(drift == 14 and steady == 9,
          f"expected 14 drift and 9 steady rows, got {drift} and {steady}")
    return f"{drift} rows saturated[drift], {steady} steady rows"


TESTS = [
    test_smoke_run_and_outputs,
    test_fig3_drift_verdicts,
    test_usage_errors,
    test_progress_heartbeat,
    test_typo_suggestions,
    test_malformed_scenario_rejected,
    test_warm_cache_zero_sims,
    test_kill_and_resume,
    test_kill_and_cache,
    test_kill_cache_vs_journal,
    test_search_sim_runs_counted,
    test_hang_caught_by_timeout,
    test_perf_smoke_contract,
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    here = os.path.dirname(os.path.abspath(__file__))
    parser.add_argument("--build-dir",
                        default=os.path.join(here, "..", "..", "build"),
                        help="directory holding the built mcs_* binaries")
    parser.add_argument("--report", default="e2e_report.json",
                        help="JSON report path (written regardless)")
    parser.add_argument("--keep", action="store_true",
                        help="keep the scratch directory for debugging")
    args = parser.parse_args()

    workdir = tempfile.mkdtemp(prefix="mcs_e2e_")
    h = Harness(args.build_dir, workdir)
    print(f"binaries: {h.build_dir}\nscratch:  {workdir}\n")

    failed = 0
    for test in TESTS:
        name = test.__name__
        start = time.monotonic()
        try:
            detail = test(h)
            status = "PASS"
        except Failure as e:
            status, detail, failed = "FAIL", str(e), failed + 1
        except subprocess.TimeoutExpired as e:
            status, detail, failed = "FAIL", f"timeout: {e}", failed + 1
        seconds = time.monotonic() - start
        RESULTS.append({"name": name, "status": status,
                        "seconds": round(seconds, 3), "detail": detail})
        print(f"[{status}] {name} ({seconds:.2f}s)")
        if status == "FAIL":
            print(f"       {detail}")
        elif detail:
            print(f"       {detail}")

    report = {
        "suite": "production_e2e",
        "build_dir": h.build_dir,
        "passed": len(TESTS) - failed,
        "failed": failed,
        "results": RESULTS,
    }
    with open(args.report, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(f"\n{report['passed']}/{len(TESTS)} passed; report: {args.report}")

    if args.keep:
        print(f"scratch kept: {workdir}")
    else:
        shutil.rmtree(workdir, ignore_errors=True)
    return failed


if __name__ == "__main__":
    sys.exit(main())
