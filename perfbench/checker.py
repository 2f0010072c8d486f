"""Checks the output of every CLI call against the workload's expectations.

Each check returns a list of problems; an empty list means the output is
correct.  Any problem counts the call as failed.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from workloads import PERIOD_TOL, Command, PeriodExpectation

ATOL = 1e-12


def pgm_pixels(p: np.ndarray) -> np.ndarray:
    """qca2's documented PGM mapping: 255*(1-p) rounded half away from zero."""
    return np.clip(np.floor(255.0 * (1.0 - p) + 0.5), 0, 255).astype(np.int64)


def check_csv(text: str, ref: np.ndarray) -> list[str]:
    from qca2.io_formats import read_csv

    n_rows, n_cols = ref.shape
    header = "state," + ",".join(f"t{t}" for t in range(n_cols))
    if not text.startswith(header + "\n"):
        return ["csv header differs"]
    got = read_csv(text)
    if got.shape != ref.shape:
        return [f"csv shape {got.shape}, expected {ref.shape}"]
    dev = float(np.max(np.abs(got - ref)))
    return [] if dev <= ATOL else [f"csv deviates from the reference by {dev:.3e}"]


def check_pgm(data: bytes, ref: np.ndarray) -> list[str]:
    n_rows, n_cols = ref.shape
    lines = data.decode("ascii").split("\n")
    if lines[:3] != ["P2", f"{n_cols} {n_rows}", "255"]:
        return [f"pgm header {lines[:3]}"]
    rows = lines[3:-1]
    if len(rows) != n_rows or lines[-1] != "":
        return [f"pgm has {len(rows)} rows, expected {n_rows}"]
    if any(row.count(" ") != n_cols - 1 for row in rows):
        return [f"pgm rows do not all hold {n_cols} pixels"]
    got = np.fromstring(" ".join(rows), dtype=np.int64, sep=" ")
    if got.size != ref.size:
        return ["pgm pixels are not all integers"]
    got = got.reshape(ref.shape)
    # A probability within ATOL of the reference may round to either side
    # of a half-integer boundary, so allow the pixels of both ends.
    lo, hi = pgm_pixels(ref + ATOL), pgm_pixels(ref - ATOL)
    bad = int(np.count_nonzero((got < lo) | (got > hi)))
    return [] if bad == 0 else [f"{bad} pgm pixels differ from the reference"]


def _format(x: float) -> str:
    return np.format_float_positional(x, unique=True, trim="-")


def check_period(stdout: str, exp: PeriodExpectation) -> list[str]:
    """Every key=value line must match exactly, except max_deviation, a
    rounding residue that must be within ATOL of the reference's and no
    larger than the tolerance."""
    found = exp.period is not None
    want = [
        f"found={'true' if found else 'false'}",
        f"period={exp.period or 0}",
        None,
        f"tolerance={_format(PERIOD_TOL)}",
        f"columns_examined={exp.columns}",
    ]
    got = stdout.split("\n")
    if len(got) != len(want) + 1 or got[-1] != "":
        return [f"period printed {len(got) - 1} lines, expected {len(want)}"]
    problems = [f"period line {g!r}, expected {w!r}"
                for g, w in zip(got, want) if w is not None and g != w]
    key, _, value = got[2].partition("=")
    if key != "max_deviation":
        problems.append(f"period line {got[2]!r}, expected max_deviation=...")
    elif not found:
        if value != "nan":
            problems.append(f"max_deviation={value}, expected nan")
    else:
        try:
            dev = float(value)
        except ValueError:
            dev = math.nan
        if not (abs(dev - exp.deviation) <= ATOL and dev <= PERIOD_TOL):
            problems.append(f"max_deviation={value}, reference {exp.deviation!r}")
    return problems


CHECK_NAMES = ("rule-unitary", "interaction-permutation", "translation-covariance")


def check_report(stdout: str, cyclic: bool) -> list[str]:
    names = CHECK_NAMES if cyclic else CHECK_NAMES[:2]
    lines = stdout.split("\n")
    if lines[-1] != "" or len(lines) != len(names) + 1:
        return [f"check printed {len(lines) - 1} lines, expected {len(names)}"]
    return [f"check line {line!r} is not a pass for {name}"
            for line, name in zip(lines, names)
            if not line.startswith(f"{name}: pass (")]


def check_operator(text: str, op: np.ndarray) -> list[str]:
    rows = text.split("\n")
    if rows[-1] != "" or len(rows) != op.shape[0] + 1:
        return [f"matrix has {len(rows) - 1} rows, expected {op.shape[0]}"]
    try:
        got = np.array(
            [[complex(z.replace("i", "j")) for z in row.split(",")] for row in rows[:-1]]
        )
    except ValueError:
        return ["matrix entries are ragged or not complex numbers"]
    if got.shape != op.shape:
        return [f"matrix shape {got.shape}, expected {op.shape}"]
    problems = []
    unitary_dev = float(np.max(np.abs(got.conj().T @ got - np.eye(op.shape[0]))))
    if unitary_dev > ATOL:
        problems.append(f"matrix is not unitary: deviation {unitary_dev:.3e}")
    dev = float(np.max(np.abs(got - op)))
    if dev > ATOL:
        problems.append(f"matrix deviates from the dense oracle by {dev:.3e}")
    return problems


def check_command(cmd: Command, expected, exit_code: int, stdout: str,
                  out_dir: Path) -> list[str]:
    """Problems with one call's exit code, stdout and output files."""
    want_code = 1 if cmd.kind == "period" and expected.period is None else 0
    problems = [] if exit_code == want_code else [
        f"exit code {exit_code}, expected {want_code}"
    ]
    if cmd.kind == "simulate":
        if stdout:
            problems.append("simulate wrote to stdout although output files were given")
        files = cmd.outputs(out_dir)
        if not all(path.is_file() for path in files.values()):
            return problems + ["an output file is missing"]
        problems += check_csv(files["csv"].read_text(), expected)
        problems += check_pgm(files["pgm"].read_bytes(), expected)
    elif cmd.kind == "period":
        problems += check_period(stdout, expected)
    elif cmd.kind == "check":
        problems += check_report(stdout, cmd.config.boundary == "cyclic")
    else:
        problems += check_operator(stdout, expected)
    return problems
