"""Benchmark of the oncocontrol command-line workloads.

    python3 bench/run.py --workload plan --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --self-test

One process drives one workload through oncocontrol.cli.run_scenario, one
item after another (a closed loop with a single client), for --seconds
seconds of whole rounds.  Each item is timed against a fixed pure-Python
reference loop run just before and just after it, so its cost is reported
in ref (reference-loop times), which cancels most of the machine's drift.
After the timed loop every output is checked by bench/checks.py.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced copies of each round, prints the per-layer metrics of the
traced copies and writes their spans to bench/results/.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

The program is imported from src/ of this checkout, never from elsewhere;
without it the benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
RESULTS = BENCH / "results"

SETUP_STARTS = 5
SETUP_TIMEOUT_S = 60
REF_STEPS = 10000
SAMPLE_EVERY_S = 0.5
WINDOW_S = 1.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_kref": "1/kref",
    "item_p50_ref": "ref",
    "peak_rss_mb": "MB",
}


def import_program():
    """Put this checkout's src/ first on the path and import the program."""
    if not (SRC / "oncocontrol" / "cli.py").is_file():
        sys.exit(f"bench: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import oncocontrol.cli

    if Path(oncocontrol.__file__).resolve().parent != (SRC / "oncocontrol").resolve():
        sys.exit(f"bench: oncocontrol was imported from {oncocontrol.__file__}")
    return oncocontrol


def ref_loop() -> float:
    """Seconds taken by a fixed piece of pure-Python float work.

    RK4 on the logistic equation: the same kind of interpreted scalar
    arithmetic as the program's rollouts, so both slow down together when
    the machine does.
    """
    start = time.perf_counter()
    x, step = 0.01, 0.002
    for _ in range(REF_STEPS):
        k1 = x * (1.0 - x)
        x2 = x + 0.5 * step * k1
        k2 = x2 * (1.0 - x2)
        x3 = x + 0.5 * step * k2
        k3 = x3 * (1.0 - x3)
        x4 = x + step * k3
        k4 = x4 * (1.0 - x4)
        x += (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return time.perf_counter() - start


class RefClock:
    """Machine speed in reference-loop times, sampled around and during items.

    The reference loop runs just before and just after each item and, every
    SAMPLE_EVERY_S seconds during it, from a SIGALRM handler on the same
    thread; the handler's time is left out of the item's wall time.  An
    item's cost in ref is its wall time over the median of the samples
    taken from WINDOW_S before it starts to WINDOW_S after it ends.  One
    sample can differ from the next by a third, and samples at the edges
    alone miss the drift inside a ten-second item.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []    # (taken at, seconds)
        self._paused = 0.0
        self.sample()

    def sample(self) -> float:
        """Take one sample; return the time it took, overhead included."""
        start = time.perf_counter()
        self.samples.append((start, ref_loop()))
        return time.perf_counter() - start

    def _tick(self, signum, frame) -> None:
        self._paused += self.sample()

    def time(self, fn):
        """Run fn(); return its result, start, end and wall seconds."""
        self._paused = 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            end = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
        self.sample()
        return result, start, end, end - start - self._paused

    def ref_around(self, start: float, end: float) -> float:
        return statistics.median(
            seconds for taken, seconds in self.samples
            if start - WINDOW_S <= taken <= end + WINDOW_S
        )


@dataclass
class Record:
    """One executed item."""

    item: object
    outdir: Path
    traced: bool
    start: float
    end: float
    wall: float
    status: str                 # "ok", "failed" (the known fault) or "wrong"
    problems: list[str] = field(default_factory=list)
    cost_ref: float = 0.0


class Runner:
    def __init__(self, program, seed: int, workdir: Path, tracer=None):
        self.program = program
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.records: list[Record] = []
        self.clock = RefClock()

    def _execute(self, config_path: Path, traced: bool):
        """Exit code as the command line would give it, and the exception."""
        cli = self.program.cli
        errors = self.program.errors
        try:
            cfg = cli.load_config(config_path)
            if traced:
                with self.tracer.span("cli.run_scenario"):
                    result = cli.run_scenario(cfg)
            else:
                result = cli.run_scenario(cfg)
            return result.exit_code, None
        except errors.ConfigError as exc:
            return 1, exc
        except (errors.NumericalError, OverflowError) as exc:
            return 2, exc
        except Exception as exc:  # a traceback at the command line
            return None, exc

    def run_item(self, item, traced: bool) -> None:
        index = len(self.records)
        item_dir = self.workdir / f"{index:04d}-{item.name}"
        outdir = item_dir / "out"
        item_dir.mkdir(parents=True)
        config_path = item_dir / "config.json"
        config_path.write_text(json.dumps(item.config(self.seed, str(outdir))))
        if traced:
            self.tracer.item = index
            self.tracer.items_traced += 1
        (code, exc), start, end, wall = self.clock.time(
            lambda: self._execute(config_path, traced)
        )
        status, problems = classify(item, code, exc, outdir)
        self.records.append(Record(item, outdir, traced, start, end, wall, status, problems))

    def run(self, rounds, seconds: float, traced_copies: bool) -> None:
        """Whole rounds; stop once another would end over half a round late."""
        start = time.perf_counter()
        index = 0
        while True:
            for item in rounds(self.seed, index):
                self.run_item(item, False)
            if traced_copies:
                with self.tracer.installed():
                    for item in rounds(self.seed, index):
                        self.run_item(item, True)
            index += 1
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / index >= seconds:
                break
        for rec in self.records:
            rec.cost_ref = rec.wall / self.clock.ref_around(rec.start, rec.end)


def classify(item, code, exc, outdir: Path) -> tuple[str, list[str]]:
    """Status of an item from its exit code, before its outputs are checked."""
    if item.expect == "ok":
        if code == 0:
            return "ok", []
        return "wrong", [f"{item.name}: exit code {code}: {type(exc).__name__}: {exc}"]
    # the stiff-tissue patient must end in a NumericalError with no NaN on
    # disk; today the RK4 rollouts fill with NaN, the CSVs are written and
    # write_json raises ValueError (a traceback, exit code 1)
    if code == 2:
        return "ok", []
    nan_csv = any(
        "nan" in p.read_text() for p in outdir.glob("ocp_*.csv")
    ) if outdir.is_dir() else False
    if code is None and isinstance(exc, ValueError) and "JSON compliant" in str(exc) and nan_csv:
        return "failed", []
    return "wrong", [f"{item.name}: exit code {code}: {type(exc).__name__}: {exc}"]


def measure_setup(workdir: Path, warmup) -> tuple[float, list[str], Path]:
    """Median wall time of fresh `python -m oncocontrol` runs of a small item."""
    setup_dir = workdir / "setup"
    setup_dir.mkdir(parents=True)
    config_path = setup_dir / "config.json"
    config_path.write_text(json.dumps(warmup.config(0, str(setup_dir / "out0"))))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times, problems = [], []
    for k in range(SETUP_STARTS):
        cmd = [sys.executable, "-m", "oncocontrol", warmup.kind,
               "--config", str(config_path), "--out", str(setup_dir / f"out{k}")]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            problems.append(f"set-up run exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return statistics.median(times), problems, setup_dir / "out0"


def check_records(records: list[Record]) -> None:
    import checks

    for rec in records:
        if rec.status != "ok":
            continue
        if rec.item.expect == "ok":
            rec.problems = [f"{rec.item.name}: {p}" for p in
                            checks.check_item(rec.item.kind, rec.item.parameters, rec.outdir)]
        elif rec.outdir.is_dir():
            rec.problems = [f"{rec.item.name}: {p}" for p in checks.nonfinite_files(rec.outdir)]
        if rec.problems:
            rec.status = "wrong"


def end_to_end(records: list[Record], setup_s: float, peak_rss_mb: float) -> dict:
    done = [r.cost_ref for r in records if r.status != "failed"]
    return {
        "setup_s": setup_s,
        "items_per_kref": 1000.0 * len(done) / sum(r.cost_ref for r in records),
        "item_p50_ref": statistics.median(done),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(runner: Runner) -> dict:
    plain = [r for r in runner.records if not r.traced]
    traced = [r for r in runner.records if r.traced]
    metrics = runner.tracer.per_item()
    metrics["bench.ref_loop_s"] = statistics.median(s for _, s in runner.clock.samples)
    metrics["bench.wall_items_per_s"] = (
        sum(r.status != "failed" for r in plain) / sum(r.wall for r in plain)
    )
    metrics["bench.trace_overhead"] = (
        sum(r.cost_ref for r in traced) / sum(r.cost_ref for r in plain)
    )
    return metrics


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> int:
    program = import_program()
    workdir = WORK / f"{workload}-{seed}-{int(trace)}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        problems: list[str] = []
        setup_s = 0.0
        if not trace:
            setup_s, problems, warm_out = measure_setup(workdir, workloads.WARMUP[workload])
        tracer = tracing.Tracer() if trace else None
        runner = Runner(program, seed, workdir, tracer)
        runner.run(workloads.ROUNDS[workload], seconds, traced_copies=trace)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        check_records(runner.records)
        if not trace and not problems:
            import checks

            warm = workloads.WARMUP[workload]
            problems += checks.check_item(warm.kind, warm.parameters, warm_out)
        records = runner.records
        for rec in records:
            problems += rec.problems

        if trace:
            units = tracing.PER_LAYER_UNITS
            metrics = per_layer(runner)
            metrics = {name: metrics[name] for name in units}
            tracer.write(RESULTS / f"trace-{workload}-seed{seed}.json")
        else:
            metrics = end_to_end(records, setup_s, peak_rss_mb)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(r.status == "failed" for r in records)
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(f"workload {workload}, seed {seed}, trace {int(trace)}: "
          f"{len(records)} items attempted, {failed} failed, "
          f"{'correct' if not problems else 'INCORRECT'}")
    for name, value in metrics.items():
        print(f"  {name:46s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="corrupt one output per workload and see the checks fail")
    args = parser.parse_args(argv)
    if args.self_test:
        import selftest

        return selftest.main(import_program())
    if args.workload is None:
        parser.error("--workload is required")
    return benchmark(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
