"""The nilbound benchmark: one closed-loop client calling the CLI in-process.

    python3 perfbench/run.py --workload {bound,decompose,solve} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
`src/`. One client calls `nilbound.cli.main(argv)` with stdout captured and
sends the next case only after the previous one returns. No input repeats
within a run. Every output is checked (see checker.py); for the default
seed stdout must also match the goldens recorded under goldens/.

--trace 0 measures the end-to-end metrics for S seconds. --trace 1 is the
separate traced run: it runs a fixed set of cases once untraced and once
with spans around every public function listed in tracing.py, and reports
the per-layer metrics. Metric names, units and directions are declared in
BENCHMARK.json at the checkout root. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

`--record-goldens` re-records the golden stdout digests of the default seed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
GOLDENS = HERE / "goldens"

import checker  # noqa: E402  (benchmark-local modules, next to this file)
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("bound", "decompose", "solve")
DEFAULT_SEED = 0
SETUP_REPEATS = 11
# Cases in one pass over the grid (or shape cycle); set-up generates one pass.
PASS_CASES = {
    "bound": 2 * len(workloads.BOUND_GRID),
    "decompose": 2 * len(workloads.DECOMPOSE_GRID),
    "solve": 2 * len(workloads.SOLVE_SHAPES),
}
# The traced run's fixed case set, in whole passes: 10-15 s untraced at the baseline.
TRACE_CASES = {"bound": 78, "decompose": 100, "solve": 1500}
# Golden digests cover the first cases of the default seed: on `bound` and
# `decompose` at least twice what a 35 s run reaches at the baseline, on
# `solve` the first 100 passes, about two thirds of such a run.
GOLDEN_CASES = {"bound": 600, "decompose": 600, "solve": 3000}
# Class names per workload: (light, heavy).
CLASSES = {"bound": ("plain", "rebased"), "decompose": ("plain", "rebased"), "solve": ("light", "heavy")}


class BenchmarkError(Exception):
    """The benchmark itself cannot run; no result line is printed."""


def import_program():
    """Fresh import of the program from this checkout's src/."""
    if not (SRC / "nilbound" / "__init__.py").is_file():
        raise BenchmarkError(f"no program at {SRC / 'nilbound'}")
    for name in [m for m in sys.modules if m == "nilbound" or m.startswith("nilbound.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import nilbound.cli
    import nilbound.families

    if Path(nilbound.cli.__file__).resolve().parent != (SRC / "nilbound").resolve():
        raise BenchmarkError(f"imported nilbound from {nilbound.cli.__file__}, not from {SRC}")
    return nilbound.cli, nilbound.families


def setup(workload: str, seed: int, count: int, tracer=None):
    """Import the program and generate the first `count` cases; returns seconds taken.

    With a tracer, family generation is traced while the cases are made.
    """
    start = time.perf_counter()
    cli, families = import_program()
    if tracer is not None:
        tracer.install_all({"families.make_family"})
    workdir = WORK / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    source = workloads.CaseSource(workload, seed, workdir, families.make_family)
    source.ensure(count)
    if tracer is not None:
        tracer.uninstall()
    return time.perf_counter() - start, cli, source


def run_case(cli, case):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(case.argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed case, not a benchmark error
            rc = f"exception {exc!r}"
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - start


def digest(workload: str, stdout: str) -> str:
    """Digest of the stdout the goldens cover.

    On `solve` the `nodes_explored` line is left out: it counts the solver's
    search, which pruning is meant to shrink, and is not part of the result.
    Every other byte of stdout is covered.
    """
    if workload == "solve":
        stdout = "".join(
            line for line in stdout.splitlines(keepends=True) if not line.lstrip().startswith('"nodes_explored":')
        )
    return hashlib.sha256(stdout.encode()).hexdigest()[:16]


class Verifier:
    """Checks each case's output; keeps plain summaries for their rebased twins."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.twins: dict[int, dict] = {}
        self.goldens: list[str] = []
        path = GOLDENS / f"{workload}.json"
        if seed == DEFAULT_SEED and path.is_file():
            self.goldens = json.loads(path.read_text())["sha256_16"]
        self.self_checked = False

    def failures(self, case, rc, stdout: str) -> list[str]:
        twin = None
        if self.workload != "solve" and case.index % 2 == 1:
            twin = self.twins.pop(case.index - 1, None)
        fails, summary = checker.check(self.workload, case, rc, stdout, twin)
        if summary is not None and case.index % 2 == 0:
            self.twins[case.index] = summary
        if case.index < len(self.goldens) and digest(self.workload, stdout) != self.goldens[case.index]:
            fails.append("stdout differs from the golden")
        if not fails and not self.self_checked:
            self._self_check(case, stdout)
        return fails

    def _self_check(self, case, stdout: str) -> None:
        """A corrupted copy of a correct output must be counted as a failure."""
        bad = checker.corrupt(self.workload, stdout)
        fails, _ = checker.check(self.workload, case, 0, bad, None)
        if not fails:
            raise BenchmarkError("checker accepted a corrupted output")
        if case.index < len(self.goldens) and digest(self.workload, bad) == self.goldens[case.index]:
            raise BenchmarkError("golden check accepted a corrupted output")
        self.self_checked = True


def run_loop(cli, source, verifier, indices, deadline=None, tracer=None, release=False):
    """Closed loop over `indices`; returns one (class, seconds, failed) per case run.

    With `release`, each case is dropped once run, so memory does not grow
    with the number of cases a run gets through.
    """
    records = []
    failed = 0
    for i in indices:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        case = source[i]
        if tracer is not None:
            tracer.case_id = i
        rc, out, err, dt = run_case(cli, case)
        fails = verifier.failures(case, rc, out)
        if fails:
            failed += 1
            if failed <= 5:
                print(f"case {i} ({' '.join(case.argv)}): {'; '.join(fails)} {err.strip()[:200]}", file=sys.stderr)
        records.append((case.cls, dt, bool(fails)))
        if release:
            source.release(i)
    return records


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def whole_passes(workload: str, records):
    """The records of the passes a run finished.

    Every pass holds the same grid members (or shapes) in the same numbers,
    so statistics over whole passes do not depend on where the deadline cut
    the last one. A run too short for one pass keeps every record.
    """
    size = PASS_CASES[workload]
    return records[: len(records) // size * size] or records


def throughput(records) -> float:
    """Correct cases per second of busy time."""
    busy = sum(dt for _, dt, _ in records)
    return len([r for r in records if not r[2]]) / busy if busy else 0.0


def end_to_end(workload: str, records, setup_times: list[float]) -> dict:
    """Throughputs are medians over whole passes; latencies pool the whole passes.

    A median over passes lets a slow phase of the machine that covers a few
    passes shift the throughput less than a mean over the run would.
    """
    records = whole_passes(workload, records)
    size = PASS_CASES[workload]
    passes = [records[i : i + size] for i in range(0, len(records), size)]
    times = sorted(dt for _, dt, _ in records)
    light, heavy = CLASSES[workload]
    metrics = {
        "cases_per_s": statistics.median(throughput(ps) for ps in passes),
        "case_s.p50": statistics.median(times),
        "case_s.p90": percentile(times, 0.9),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for label, cls in (("light", light), ("heavy", heavy)):
        metrics[f"cases_per_s.{label}"] = statistics.median(
            throughput([r for r in ps if r[0] == cls]) for ps in passes
        )
    return metrics


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "nilbound").rglob("*.py")))


def per_layer(tracer, traced_busy: float, untraced_busy: float) -> dict:
    m = {}
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = tracer.layer_self_s(layer)
        m[f"{layer}.calls"] = sum(v for k, v in tracer.calls.items() if k.split(".")[0] == layer)
    for name, _, _ in tracing.TRACED:
        m[f"{name}.calls"] = tracer.calls.get(name, 0)
        m[f"{name}.self_s"] = tracer.self_s.get(name, 0.0)
        m[f"{name}.total_s"] = tracer.total_s.get(name, 0.0)
    m.update(tracer.counters)
    sums = m["bounds.solve_exact.sums_tried"]
    m["bounds.solve_exact.hit_ratio"] = m["bounds.solve_exact.calls"] / sums if sums else 0.0
    m["trace.overhead_ratio"] = traced_busy / untraced_busy
    m["trace.case_s"] = traced_busy
    m["src.lines"] = src_lines()
    return m


def record_goldens(workload: str) -> None:
    _, cli, source = setup(workload, DEFAULT_SEED, PASS_CASES[workload])
    verifier = Verifier(workload, seed=-1)  # no seed has goldens: nothing to compare against yet
    digests = []
    for i in range(GOLDEN_CASES[workload]):
        case = source[i]
        rc, out, err, _ = run_case(cli, case)
        fails = verifier.failures(case, rc, out)
        if fails:
            raise BenchmarkError(f"case {i} fails its checks, not recording: {fails}")
        digests.append(digest(workload, out))
    GOLDENS.mkdir(exist_ok=True)
    path = GOLDENS / f"{workload}.json"
    path.write_text(json.dumps({"seed": DEFAULT_SEED, "sha256_16": digests}, indent=0) + "\n")
    shutil.rmtree(source.workdir, ignore_errors=True)
    print(f"recorded {len(digests)} digests in {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-goldens", action="store_true")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.record_goldens:
        record_goldens(args.workload)
        return 0
    verifier = Verifier(args.workload, args.seed)
    light, heavy = CLASSES[args.workload]

    if args.trace:
        tracer = tracing.Tracer()
        _, cli, source = setup(args.workload, args.seed, TRACE_CASES[args.workload], tracer)
        indices = range(TRACE_CASES[args.workload])
        untraced = run_loop(cli, source, verifier, indices)
        tracer.install_all(set(n for n, _, _ in tracing.TRACED) - {"families.make_family"})
        traced = run_loop(cli, source, verifier, indices, tracer=tracer)
        tracer.uninstall()
        tracer.dump(WORK / f"trace-{args.workload}-seed{args.seed}.json.gz")
        records = untraced + traced
        values = per_layer(tracer, sum(r[1] for r in traced), sum(r[1] for r in untraced))
        declared = spec["per_layer"]
    else:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            seconds, cli, source = setup(args.workload, args.seed, PASS_CASES[args.workload])
            setup_times.append(seconds)
        deadline = time.perf_counter() + args.seconds
        records = run_loop(cli, source, verifier, itertools.count(), deadline=deadline, release=True)
        values = end_to_end(args.workload, records, setup_times)
        declared = spec["end_to_end"]
    shutil.rmtree(source.workdir, ignore_errors=True)

    failed = sum(1 for r in records if r[2])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  classes light={light} heavy={heavy}")
    timed = records if args.trace else whole_passes(args.workload, records)
    beyond_p90 = len(timed) - math.ceil(0.9 * len(timed))
    print(f"  cases {len(records)}  failed {failed}  fail_ratio {failed / len(records):.6g}")
    print(f"  timed samples {len(timed)} in whole passes of {PASS_CASES[args.workload]} ({beyond_p90} beyond p90)")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
