"""Benchmark of the qca2 CLI: runs the workloads and reports their metrics.

Run from the repository root:

    python3 perfbench/run.py --workload presets --seed 1 --seconds 20 --trace 0

For each workload it generates config files from the seed, runs the
workload's calls of ``qca2.cli.main`` in a child process of its own (one
workload at a time), checks every call's output against a reference, and
prints each metric with its unit.  The last line of stdout is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics, or with ``--trace 1`` the per-layer metrics of a traced pass over
every workload.  ``--workload all`` runs each workload in turn and prints one
such block per workload.  ``--print-config`` prints the generated configs and
calls, so a run can be reproduced by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from checker import check_command
from child import MIN_TIMED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in THREAD_VARS:
        env[var] = str(threads)
    return env


def measure_setup(env: dict[str, str]) -> float:
    """Median wall time for a fresh interpreter to import qca2.cli."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # No timeout: with one, the wait polls in sleeps of up to 50 ms.
        subprocess.run([sys.executable, "-c", "import qca2.cli"], env=env, cwd=ROOT,
                       check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_workload(name: str, args, env: dict[str, str], run_dir: Path) -> dict:
    """Run one workload in a child process and check every call it made."""
    workload = workloads.build(name, args.seed)
    warmup = workload.warmup()
    # Before the child runs: this raises if the seed broke the workload.
    timed = (workload, workloads.expectations(workload))
    warm = (warmup, workloads.expectations(warmup))
    config_dir = run_dir / "configs"
    config_dir.mkdir(parents=True)
    for config in workload.configs + warmup.configs:
        (config_dir / config.name).write_text(config.text())
    spec = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "src": str(SRC), "config_dir": str(config_dir),
        "work_dir": str(run_dir), "result": str(run_dir / "result.json"),
        "trace_file": str(SCRATCH / "traces" / f"{name}-seed{args.seed}.json"),
    }
    (run_dir / "spec.json").write_text(json.dumps(spec))
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(run_dir / "spec.json")],
                          env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{name}: child exited {proc.returncode}\n{proc.stderr}")
    result = json.loads((run_dir / "result.json").read_text())

    plans = [warm] + [timed] * (len(result["reps"]) - 1)
    failed = count_failures(result["reps"], plans, run_dir, traced=bool(args.trace))
    attempted = sum(len(calls) for calls in result["reps"])
    result.update(workload=workload, attempted=attempted, failed=failed)
    return result


def count_failures(reps: list[list[dict]], plans: list[tuple], run_dir: Path,
                   traced: bool) -> int:
    """Check every call of every repetition and return how many failed.

    Repetition k ran the calls of ``plans[k] = (workload, expectations)``
    and left its outputs in ``run_dir/rep<k>``; repetition 0 is the warm-up.
    A timed call whose outputs are byte-identical to an earlier timed call
    that passed the full check passes too.  In a traced run the traced
    repetition (2) must also match the untraced one (1) byte for byte.
    """
    failed = 0
    first: dict[int, tuple] = {}  # outputs of each call in repetition 1
    passed: dict[int, tuple] = {}  # outputs of each timed call that passed
    for k, calls in enumerate(reps):
        workload, expected = plans[k]
        out_dir = run_dir / f"rep{k}"
        for i, (cmd, call) in enumerate(zip(workload.commands, calls)):
            stdout = (out_dir / f"{i}.stdout").read_text()
            outcome = (call["code"], _output_bytes(cmd, stdout, out_dir))
            if k >= 1 and passed.get(i) == outcome:
                problems = []
            else:
                problems = check_command(cmd, expected[i], call["code"], stdout, out_dir)
            if k == 1:
                first[i] = outcome
            if traced and k >= 2 and outcome != first[i]:
                problems.append("traced output differs from the untraced repetition")
            if problems:
                failed += 1
                print(f"FAIL {workload.name} rep {k} {cmd.kind}: {'; '.join(problems)}"
                      f"{' | ' + call['stderr'].strip() if call['stderr'] else ''}",
                      file=sys.stderr)
            elif k >= 1:
                passed.setdefault(i, outcome)
        shutil.rmtree(out_dir)
    return failed


def _output_bytes(cmd, stdout: str, out_dir: Path) -> bytes:
    files = [path.read_bytes() for path in cmd.outputs(out_dir).values() if path.is_file()]
    return b"\0".join([stdout.encode()] + files)


def manifest() -> dict:
    """BENCHMARK.json: the names, units and bounds of every metric."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def report_timed(result: dict, setup_s: float, end_to_end: list[dict]) -> dict:
    """Print a workload's end-to-end metrics; return them by name."""
    name, workload = result["workload"].name, result["workload"]
    timed = result["reps"][1:]
    print(f"{name} timed_reps {len(timed)} (after 1 warm-up)")
    print(f"{name} peak_rss_mb_after_each_rep "
          f"{' '.join(f'{kb / 1024:.1f}' for kb in result['peak_kb'])} MB")
    commands_s = 0.0
    for i, cmd in enumerate(workload.commands):
        walls = [rep[i]["wall"] for rep in timed]
        median = statistics.median(walls)
        commands_s += median
        print(f"{name} {cmd.metric} {median:.6f} s (median of {' '.join(f'{w:.3f}' for w in walls)})")
    values = {
        "commands_s": commands_s,
        # After the warm-up and three timed repetitions, so it measures the
        # same work however many repetitions fit in the time budget.
        "peak_rss_mb": result["peak_kb"][MIN_TIMED - 1] / 1024.0,
        "setup_s": setup_s,
    }
    for metric in end_to_end:
        print(f"{name} {metric['name']} {values[metric['name']]:.6f} {metric['unit']}")
    fail_ratio = result["failed"] / result["attempted"]
    print(f"{name} fail_ratio {fail_ratio:g} ratio "
          f"({result['failed']} of {result['attempted']} calls)")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in end_to_end}


def report_traced(results: list[dict], per_layer: list[dict]) -> dict:
    """Print each call's traced wall time against its spans' self times;
    return every per-layer metric by name.

    A per-layer name is ``<workload>.<command metric>.<layer metric>``.
    """
    found: dict[str, float] = {}
    for result in results:
        workload = result["workload"]
        untraced, traced = result["reps"][1], result["reps"][2]
        for cmd, plain, call, layers in zip(workload.commands, untraced, traced,
                                            result["layers"]):
            print(f"{workload.name} {cmd.metric} untraced_wall {plain['wall']:.6f} s "
                  f"traced_wall {call['wall']:.6f} s "
                  f"overhead {call['wall'] - plain['wall']:+.6f} s "
                  f"root_span {call['root_s']:.6f} s self_sum {call['self_sum_s']:.6f} s "
                  f"bookkeeping {layers['perfbench.trace.s']:.6f} s")
            for layer, value in layers.items():
                found[f"{workload.name}.{cmd.metric}.{layer}"] = value
    return {m["name"]: {"value": found[m["name"]], "unit": m["unit"]} for m in per_layer}


def final_line(results: list[dict], values: dict) -> str:
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": values})


def print_configs(name: str, seed: int) -> None:
    workload = workloads.build(name, seed)
    for config in workload.configs:
        print(f"# {name} seed {seed}: {config.name}\n{config.text()}")
    for cmd in workload.commands:
        print("qca2 " + " ".join(cmd.argv(Path("CONFIG_DIR"), Path("OUT_DIR"))))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20,
                        help="timed repetitions of a workload go on until this many "
                             "seconds have passed, and number at least 3")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one traced pass over every workload, per-layer metrics")
    parser.add_argument("--print-config", action="store_true")
    args = parser.parse_args(argv)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)

    if args.print_config:
        for name in names:
            print_configs(name, args.seed)
        return 0
    if not (SRC / "qca2" / "cli.py").is_file():
        print(f"error: no qca2 sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    print(f"seed {args.seed} nproc {nproc} numpy {np.__version__} "
          f"blas_threads {nproc} trace {args.trace}")
    run_dir = SCRATCH / f"run-{os.getpid()}"
    try:
        if args.trace:
            results = []
            for name in workloads.NAMES:
                results.append(run_workload(name, args, env, run_dir / name))
            print(final_line(results, report_traced(results, manifest()["per_layer"])))
            return 0
        for name in names:
            setup_s = measure_setup(env)
            result = run_workload(name, args, env, run_dir / name)
            print(final_line([result], report_timed(result, setup_s, manifest()["end_to_end"])))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
