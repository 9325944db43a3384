"""Self-test of the output checks.

Runs a few items, checks that their outputs pass, then corrupts one value
in a copy of an output and checks that the copy fails.  Run it with
`python3 bench/run.py --self-test`; it exits 1 if a check passes a
corrupted copy or fails a clean one.
"""

from __future__ import annotations

import csv
import json
import os
import shutil

import checks
import workloads
from run import WORK, Runner


def _edit_csv(path, pick, col, change):
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    row = pick(rows[1:]) + 1
    rows[row][col] = repr(change(float(rows[row][col])))
    with path.open("w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def _edit_json(path, change):
    payload = json.loads(path.read_text())
    change(payload)
    path.write_text(json.dumps(payload))


def _middle(rows):
    return len(rows) // 2


def _first_session_end(item):
    plan = item.parameters["plan"]
    end = plan["session_starts"][0] + plan["session_duration"]
    return lambda rows: min(range(len(rows)), key=lambda i: abs(float(rows[i][0]) - end))


def _shift_eigenvalue(payload):
    payload["equilibria"][1]["eigenvalues"][0]["real"] += 1e-6


def cases():
    """(workload, item, file, description, corrupt(path))."""
    simulate = {item.name: item for item in workloads.simulate_round(0, 0)}
    course = simulate["course-16"]
    return [
        ("plan", workloads.WARMUP["plan"], "ocp_indirect.csv",
         "one interval's intensity moved by 0.05",
         lambda p: _edit_csv(p, lambda rows: 5 * 4, 3, lambda v: v + 0.05 if v < 0.9 else v - 0.05)),
        ("cohort", workloads.WARMUP["cohort"], "dose_report.csv",
         "one interval dose scaled by 1.001",
         lambda p: _edit_csv(p, lambda rows: 3, 5, lambda v: v * 1.001)),
        ("simulate", simulate["takeover-early"], "competition.csv",
         "one healthy count moved by 100 cells",
         lambda p: _edit_csv(p, _middle, 1, lambda v: v + 100.0)),
        ("simulate", simulate["equilibria"], "equilibria.json",
         "one eigenvalue moved by 1e-6 per day",
         lambda p: _edit_json(p, _shift_eigenvalue)),
        ("simulate", course, "fractionated.csv",
         "one post-session cancer count scaled by 1 + 1e-9",
         lambda p: _edit_csv(p, _first_session_end(course), 2, lambda v: v * (1.0 + 1e-9))),
    ]


def main(program) -> int:
    workdir = WORK / f"selftest-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    runner = Runner(program, 0, workdir)
    ok = True
    try:
        for workload, item, name, what, corrupt in cases():
            runner.run_item(item, traced=False)
            outdir = runner.records[-1].outdir
            clean = checks.check_item(item.kind, item.parameters, outdir)
            bad_dir = outdir.with_name("corrupted")
            shutil.copytree(outdir, bad_dir)
            corrupt(bad_dir / name)
            caught = checks.check_item(item.kind, item.parameters, bad_dir)
            passed = not clean and bool(caught)
            ok &= passed
            print(f"{workload:8s} {item.name:15s} {name}: {what}: "
                  f"{'caught' if caught else 'NOT CAUGHT'}"
                  + (f" ({caught[0]})" if caught else "")
                  + (f"; clean copy failed: {clean}" if clean else ""))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1
