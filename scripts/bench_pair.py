"""Paired benchmark runs of this checkout against another revision.

    python3 scripts/bench_pair.py REV --workloads bound,decompose \
        --seeds 101-110 [--seconds 35] --out BENCH_<n>.json

REV is exported with `git archive` into a temporary directory, and this
checkout is copied next to it: its tracked files and its untracked files that
are not ignored, as they are in the working tree. Both are removed again at
the end, so each side runs from a fresh tree, and the repository gains no
worktree. For each workload and seed,
`perfbench/run.py --workload W --seed S --seconds T --trace 0` runs once in
each tree, one after the other; the tree that goes first alternates from
pair to pair, so a slow phase of the machine hits both sides alike. Each
tree runs its own `perfbench/` on its own `src/`.

The output file records, per workload and for every end-to-end metric that
BENCHMARK.json declares, each side's values, median and quartiles, and in
how many pairs this checkout ("head") did better than REV ("base"), ties
counting for neither; next to them each side's `src/` line count and
whether every run was correct. The script only reads `perfbench/` and
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def copy_checkout(dest: Path) -> None:
    """Copy this checkout's tracked files, and its untracked files that are not ignored, into dest."""
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        if name and (ROOT / name).is_file():  # a tracked file deleted in the working tree is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def export_revision(rev: str, dest: Path) -> None:
    """Write the files of rev into dest."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)


def parse_seeds(text: str) -> list[int]:
    """"3", "1,4,9" or "101-110" (inclusive); a range that is empty or reversed, or a seed
    given twice, is refused, since each seed must make exactly one pair."""
    seeds = []
    for part in text.split(","):
        lo, dash, hi = part.partition("-")
        try:
            first = int(lo)
            last = int(hi) if dash else first
        except ValueError:
            raise argparse.ArgumentTypeError(f"{part!r} in {text!r} is not a seed or a range of seeds") from None
        if last < first:
            raise argparse.ArgumentTypeError(f"the range {part!r} in {text!r} is reversed")
        seeds.extend(range(first, last + 1))
    if len(set(seeds)) != len(seeds):
        raise argparse.ArgumentTypeError(f"{text!r} names a seed twice")
    return seeds


def src_lines(tree: Path) -> int:
    """Lines of the program, counted as perfbench counts `src.lines`."""
    return sum(len(p.read_text().splitlines()) for p in sorted((tree / "src" / "nilbound").rglob("*.py")))


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object (the last stdout line) of one perfbench run in tree."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = ["perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run([sys.executable, *argv], cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench in {tree} failed on seed {seed}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def compare(metrics: list[dict], base: list[dict], head: list[dict]) -> dict:
    out = {}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        b = [r["metrics"][name]["value"] for r in base]
        h = [r["metrics"][name]["value"] for r in head]
        wins = sum((y > x) if higher else (y < x) for x, y in zip(b, h))
        out[name] = {"unit": m["unit"], "better": m["better"], "base": summary(b), "head": summary(h), "head_wins": wins}
    return out


def parse_workloads(text: str) -> list[str]:
    workloads = text.split(",")
    if not set(workloads) <= {"bound", "decompose", "solve"}:
        raise argparse.ArgumentTypeError(f"unknown workload in {text!r}")
    return workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the revision to compare against, e.g. HEAD~1")
    parser.add_argument("--workloads", required=True, type=parse_workloads, help='e.g. "bound" or "bound,solve"')
    parser.add_argument("--seeds", required=True, type=parse_seeds, help='e.g. "101-110" or "3,5"')
    parser.add_argument("--seconds", type=float, help="length of each run; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--out", required=True, type=Path, help="the BENCH_<n>.json to write")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    base_rev = git("rev-parse", args.rev)
    head = {"rev": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain", "--", "src", "perfbench"))}
    with tempfile.TemporaryDirectory() as tmp:
        tree, head_tree = Path(tmp) / "base", Path(tmp) / "head"
        copy_checkout(head_tree)
        export_revision(base_rev, tree)
        runs = {w: {"base": [], "head": []} for w in args.workloads}
        order = [("base", tree), ("head", head_tree)]
        for i, (workload, seed) in enumerate((w, s) for w in args.workloads for s in args.seeds):
            for side, path in order if i % 2 == 0 else order[::-1]:
                runs[workload][side].append(run_bench(path, workload, seed, seconds))
                print(f"{workload} seed {seed} {side}: failed {runs[workload][side][-1]['failed']}", file=sys.stderr)
        lines = {"base": src_lines(tree), "head": src_lines(head_tree)}

    record = {
        "seeds": args.seeds,
        "seconds": seconds,
        "pairs": len(args.seeds),
        "base": {"rev": base_rev, "src.lines": lines["base"]},
        "head": {**head, "src.lines": lines["head"]},
        "workloads": {
            w: {
                "correct": {side: all(r["correct"] for r in rs) for side, rs in sides.items()},
                "failed": {side: sum(r["failed"] for r in rs) for side, rs in sides.items()},
                "metrics": compare(spec["end_to_end"], sides["base"], sides["head"]),
            }
            for w, sides in runs.items()
        },
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for w, entry in record["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{w:<10} {name:<18} base {m['base']['median']:>10.4g}  head {m['head']['median']:>10.4g}  "
                  f"head wins {m['head_wins']}/{record['pairs']}")
    print(f"src.lines  base {lines['base']}  head {lines['head']}")
    return 0 if all(all(e["correct"].values()) for e in record["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
