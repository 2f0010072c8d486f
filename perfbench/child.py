"""Runs one workload's CLI calls in a process of its own and times them.

Usage: python3 child.py SPEC_JSON

The spec names the workload, seed, seconds, trace flag and directories.
The process imports qca2.cli once, runs one warm-up repetition of the
workload's calls on small inputs (discarded), then either timed
repetitions until the spec's seconds have passed, at least three of them,
or one untraced and one traced repetition.  Each call
goes through ``qca2.cli.main(argv)`` with stdout captured, and is timed from
the call to its return.  Outputs are left on disk for the parent to check.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracing import Tracer, layer_metrics, self_times

MIN_TIMED = 3


def peak_rss_kb() -> int:
    """High-water resident set of this process's own memory (VmHWM).

    Not ru_maxrss: Linux carries the parent's high-water mark into it across
    exec, so a child started by a large parent would report the parent's.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_call(argv: list[str]) -> tuple[int, float, str, str]:
    """(exit code, wall seconds, stdout, stderr) of one qca2.cli.main call.

    An exception escaping main() is reported as exit code -1 with its
    traceback as stderr, so the checker counts the call as failed.
    """
    from qca2 import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = -1
            err.write(traceback.format_exc())
        wall = time.perf_counter() - start
    return code, wall, out.getvalue(), err.getvalue()


def run_repetition(workload, config_dir: Path, out_dir: Path) -> list[dict]:
    """Run every call of the workload once, saving stdout next to the outputs."""
    out_dir.mkdir(parents=True, exist_ok=True)
    calls = []
    for i, cmd in enumerate(workload.commands):
        code, wall, stdout, stderr = run_call(cmd.argv(config_dir, out_dir))
        (out_dir / f"{i}.stdout").write_text(stdout)
        calls.append({"code": code, "wall": wall, "stderr": stderr})
    return calls


def run_traced(workload, config_dir: Path, out_dir: Path) -> tuple[list[dict], list]:
    """One repetition under the tracer: the calls, and each call's spans."""
    tracer = Tracer()
    with tracer.installed():
        calls = run_repetition(workload, config_dir, out_dir)
    roots = [i for i, span in enumerate(tracer.spans) if span.parent < 0]
    bounds = roots + [len(tracer.spans)]
    per_call = []
    for lo, hi in zip(bounds, bounds[1:]):
        spans = tracer.spans[lo:hi]
        for span in spans:
            span.parent = span.parent - lo if span.parent >= 0 else -1
        per_call.append(spans)
    return calls, per_call


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["src"]).resolve()
    import qca2.cli  # noqa: F401  (import cost is setup_s, not a call's time)

    if Path(qca2.__file__).resolve().parent.parent != src:
        print(f"qca2 imported from {qca2.__file__}, not {src}", file=sys.stderr)
        return 2
    workload = workloads.build(spec["workload"], spec["seed"])
    config_dir, work_dir = Path(spec["config_dir"]), Path(spec["work_dir"])

    reps = [run_repetition(workload.warmup(), config_dir, work_dir / "rep0")]
    peak_kb = []
    layers = []

    def timed_repetition():
        reps.append(run_repetition(workload, config_dir, work_dir / f"rep{len(reps)}"))
        peak_kb.append(peak_rss_kb())

    if spec["trace"]:
        # An untraced repetition right before the traced one: the difference
        # between the two is the tracing overhead.
        timed_repetition()
        calls, per_call = run_traced(workload, config_dir, work_dir / f"rep{len(reps)}")
        reps.append(calls)
        for call, spans in zip(calls, per_call):
            call["root_s"] = spans[0].end - spans[0].start
            call["self_sum_s"] = sum(self_times(spans))
            layers.append(layer_metrics(spans))
        trace_file = Path(spec["trace_file"])
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        trace_file.write_text(json.dumps([
            [[s.name, s.start, s.end, s.parent, s.attrs] for s in spans]
            for spans in per_call
        ]))
    else:
        start = time.perf_counter()
        while len(reps) <= MIN_TIMED or time.perf_counter() - start < spec["seconds"]:
            timed_repetition()
    Path(spec["result"]).write_text(json.dumps(
        {"reps": reps, "layers": layers, "peak_kb": peak_kb}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
