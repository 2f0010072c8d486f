#!/usr/bin/env python3
"""Run the benchmark of two trees in alternation and compare their
end-to-end metrics, or record one tree's metrics in BENCH_<N>.json.

    python3 scripts/ab.py PARENT [--pairs N] [--workload W] [--seconds S]
    python3 scripts/ab.py PARENT --setup [--pairs N]
    python3 scripts/ab.py --record N [--pairs K] [--seconds S]

PARENT is a git revision.  Its tree is extracted with `git archive` into a
temporary directory, and the change, the files of this checkout's working
tree that git tracks or would track, is copied into a sibling one, so that
the two sides differ in their files alone.  Pair i
runs each tree's own `perfbench/run.py --workload W --seed i`, with
`--seconds S` only when S is given, so the run length is the benchmark's own
unless asked otherwise.  The parent runs first on odd pairs and the change
first on even ones, so a drift
of the machine's speed falls on both sides alike.  For every workload and
end-to-end metric of BENCHMARK.json it prints each pair's two values, then
each side's median and quartiles, the ratio of the medians, the number of
pairs in which the change is lower, and whether the change's median is past
the metric's bound from the parent's.  A/A, the tree against itself, is
`PARENT=$(git stash create)` on a modified tree or `HEAD` on a clean one.

`--setup` runs ``python -X importtime -c "import qca2.cli"`` in each tree in
the same alternation instead, and compares qca2's own self time, the sum of
the self times of qca2's modules: the part of `setup_s` that a change to
`src/` can move.  Its bound is setup_s's, and numpy's import, which it
leaves out, is most of setup_s.

`--record N` runs a copy of this tree alone K times, at seeds 1 to K, over
every workload and writes BENCH_<N>.json at the repository root: the medians
and quartiles of every end-to-end metric, the seeds, the `--seconds` given
(null for the benchmark's own), nproc, numpy and Python versions, the commit the working tree stands on, and `tree`, the git tree id
of the files measured.  BENCH_<N>.json itself is left out of the copy and of
`tree`, so on a commit that adds nothing else `tree` equals the tree id of
that commit with BENCH_<N>.json removed from it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def parse_run(stdout: str) -> dict:
    """{workload: {"failed": n, "attempted": n, "metrics": {name: value}}} from
    the output of `perfbench/run.py`: each workload's block ends in a JSON line,
    and the line before it starts with the workload's name."""
    results, previous = {}, ""
    for line in stdout.splitlines():
        if line.startswith("{"):
            final = json.loads(line)
            results[previous.split()[0]] = {
                "failed": final["failed"], "attempted": final["attempted"],
                "metrics": {name: m["value"] for name, m in final["metrics"].items()}}
        previous = line
    return results


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), interpolated between the
    values themselves."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> list[dict]:
    """One row per workload and end-to-end metric of `pairs`, a list of
    (parent run, change run) as `parse_run` returns them."""
    rows = []
    for workload in pairs[0][0]:
        for metric in end_to_end:
            name = metric["name"]
            parent = [p[workload]["metrics"][name] for p, _ in pairs]
            change = [c[workload]["metrics"][name] for _, c in pairs]
            p_q, c_q = quartiles(parent), quartiles(change)
            ratio = c_q[1] / p_q[1]
            worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
            rows.append({
                "workload": workload, "metric": name,
                "parent": parent, "change": change, "parent_quartiles": p_q,
                "change_quartiles": c_q, "ratio": ratio,
                "lower": sum(c < p for p, c in zip(parent, change)),
                "bound": metric["bound"], "past_bound": worse > metric["bound"],
                "failed": (sum(p[workload]["failed"] for p, _ in pairs),
                           sum(c[workload]["failed"] for _, c in pairs)),
            })
    return rows


def format_rows(rows: list[dict]) -> str:
    lines = []
    for row in rows:
        values = "  ".join(f"{p:.4f}/{c:.4f}" for p, c in zip(row["parent"], row["change"]))
        lines.append(f"{row['workload']} {row['metric']} pairs parent/change: {values}")
    lines.append(f"{'workload':<8} {'metric':<12} {'parent median [q1, q3]':<28} "
                 f"{'change median [q1, q3]':<28} {'ratio':>6} {'lower':>6}  past bound")
    for row in rows:
        (p1, pm, p3), (c1, cm, c3) = row["parent_quartiles"], row["change_quartiles"]
        parent, change = f"{pm:.4f} [{p1:.4f}, {p3:.4f}]", f"{cm:.4f} [{c1:.4f}, {c3:.4f}]"
        lower = f"{row['lower']}/{len(row['parent'])}"
        lines.append(
            f"{row['workload']:<8} {row['metric']:<12} {parent:<28} {change:<28} "
            f"{row['ratio']:>6.3f} {lower:>6}  {'YES' if row['past_bound'] else 'no'} "
            f"(bound {row['bound']:.0%}; failed {row['failed'][0]}/{row['failed'][1]})")
    return "\n".join(lines)


def parse_importtime(stderr: str) -> float:
    """Seconds of qca2's own self time in the stderr of ``python -X
    importtime``: its lines read ``import time: <self us> | <cumulative us>
    | <indent><module>``."""
    total = 0
    for line in stderr.splitlines():
        fields = line.split("|")
        if (line.startswith("import time:") and len(fields) == 3
                and fields[2].strip().partition(".")[0] == "qca2"):
            total += int(fields[0].removeprefix("import time:"))
    return total / 1e6


def run_setup(tree: Path) -> dict:
    """qca2's self time when `tree`'s qca2.cli is imported in a fresh
    interpreter, as `parse_run` gives a workload's metrics."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qca2.cli"],
                          cwd=tree, env={**env, "PYTHONPATH": str(tree / "src")},
                          capture_output=True, text=True, check=True)
    return {"import": {"failed": 0, "attempted": 1,
                       "metrics": {"qca2_self_s": parse_importtime(proc.stderr)}}}


def run_bench(tree: Path, workload: str, seed: int, seconds: int | None) -> dict:
    """Run `tree`'s own benchmark once and parse its output."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    length = [] if seconds is None else ["--seconds", str(seconds)]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         *length], cwd=tree, env=env, capture_output=True, text=True, check=True)
    return parse_run(proc.stdout)


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def worktree_files() -> list[str]:
    """The working tree's files, tracked or untracked but not ignored."""
    names = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    return [n for n in names if n and (ROOT / n).is_file()]  # a deleted tracked file is listed


def copy_worktree(dest: Path, names: list[str]) -> Path:
    for name in names:
        (dest / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(ROOT / name, dest / name)
    return dest


def tree_id(names: list[str]) -> str:
    """The git tree id of the working tree's `names`, built in a scratch index."""
    with tempfile.TemporaryDirectory(prefix="ab-index-") as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        subprocess.run(["git", "update-index", "--add", "-z", "--stdin"], cwd=ROOT, env=env,
                       input="\0".join(names), text=True, check=True)
        return subprocess.run(["git", "write-tree"], cwd=ROOT, env=env, capture_output=True,
                              text=True, check=True).stdout.strip()


def ab(parent: str, pairs: int, run) -> list[tuple[dict, dict]]:
    """(parent, change) results of `run(tree, seed)` for each pair, the
    parent's tree run first on odd pairs."""
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        archive = Path(tmp) / "parent.tar"
        subprocess.run(["git", "archive", "-o", str(archive), parent], cwd=ROOT, check=True)
        with tarfile.open(archive) as tar:
            tar.extractall(Path(tmp) / "parent", filter="data")
        trees = {"parent": Path(tmp) / "parent",
                 "change": copy_worktree(Path(tmp) / "change", worktree_files())}
        results = []
        for seed in range(1, pairs + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            result = {side: run(trees[side], seed) for side in order}
            results.append((result["parent"], result["change"]))
            print(f"pair {seed} done ({order[0]} first)", file=sys.stderr, flush=True)
    return results


def record(number: int, runs: int, seconds: int | None) -> Path:
    path = ROOT / f"BENCH_{number}.json"
    names = [n for n in worktree_files() if n != path.name]
    seeds = list(range(1, runs + 1))
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        copy, tree = copy_worktree(Path(tmp) / "change", names), tree_id(names)
        results = [run_bench(copy, "all", seed, seconds) for seed in seeds]
    metrics = {}
    for workload in results[0]:
        for name in results[0][workload]["metrics"]:
            q1, median, q3 = quartiles([r[workload]["metrics"][name] for r in results])
            metrics[f"{workload}.{name}"] = {"median": median, "q1": q1, "q3": q3}
    path.write_text(json.dumps({
        "metrics": metrics, "seeds": seeds, "seconds": seconds,
        "failed": sum(r[w]["failed"] for r in results for w in r),
        "nproc": len(os.sched_getaffinity(0)), "numpy": np.__version__,
        "python": platform.python_version(), "commit": _git("rev-parse", "HEAD"),
        "tree": tree,
    }, indent=2) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?", help="git revision of the parent tree")
    parser.add_argument("--pairs", type=int, default=10,
                        help="pairs of runs, or runs with --record")
    parser.add_argument("--workload", help="a workload of perfbench/run.py, or all (default)")
    parser.add_argument("--seconds", type=int,
                        help="passed on to perfbench/run.py, whose own default holds otherwise")
    parser.add_argument("--record", type=int, metavar="N", help="write BENCH_N.json")
    parser.add_argument("--setup", action="store_true",
                        help="compare qca2's self time in `python -X importtime`")
    args = parser.parse_args(argv)
    if (args.parent is None) == (args.record is None):
        parser.error("give either PARENT or --record N")
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    if args.setup:
        if args.record is not None or args.workload is not None or args.seconds is not None:
            parser.error("--setup runs no workload; only PARENT and --pairs go with it")
        bound = next(m["bound"] for m in end_to_end if m["name"] == "setup_s")
        results = ab(args.parent, args.pairs, lambda tree, seed: run_setup(tree))
        print(format_rows(compare(results, [
            {"name": "qca2_self_s", "unit": "s", "better": "lower", "bound": bound}])))
    elif args.record is not None:
        if args.workload is not None:
            parser.error("--record runs every workload; --workload does not go with it")
        print(record(args.record, args.pairs, args.seconds))
    else:
        workload = args.workload or "all"
        results = ab(args.parent, args.pairs,
                     lambda tree, seed: run_bench(tree, workload, seed, args.seconds))
        print(format_rows(compare(results, end_to_end)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
