"""Command-line front end.

Subcommands:

* ``simulate <config> [--out-csv P] [--out-pgm P]`` -- run the configured
  evolution; CSV goes to stdout when no output path is given.
* ``script <file> [--out-csv P] [--out-pgm P]`` -- run an explicit gate
  script.
* ``period <config> [--horizon N] [--tol X]`` -- search the first N
  probability columns for a period, without holding them, and report it as
  key=value lines.  When every lag misses in the first half of the
  columns, the rest are never drawn, and a norm drift there is not
  reported.
* ``check <config>`` -- checks of the update ``simulate`` runs: a unitary
  cell matrix, an interaction gather that permutes and keeps s-bits, and
  translation covariance for cyclic boundaries.
* ``matrix <config>`` -- dump the dense full-update operator (at most 5
  cells) as CSV.

Exit codes: 0 success, 1 failed check or period not found, 2 bad input
(config, script, flag or output path, a closed stdout included), a run whose
probability matrix, states and writers' blocks in flight, or a period search
or check whose states and working vectors, would not fit in physical memory,
an allocation that was refused, or a state whose norm drifted.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Generator

from . import analysis, io_formats, rules
from .gates import MAX_DENSE_QUBITS
from .rules import BoundaryCondition, NormDriftError

MAX_DENSE_CELLS = MAX_DENSE_QUBITS // 2  # two qubits per cell


def _load(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise io_formats.ConfigError(f"cannot read {path}: {exc}") from None


def _write_stdout(text: str) -> None:
    """Write `text` to stdout and flush it; a closed stdout is an unwritable
    output path."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        raise io_formats.ConfigError(f"cannot write output: {exc}") from None


def _write_blocks(blocks: Generator, path: str | None = None) -> None:
    """Write each block of a writer's stream as it comes: its bytes to the
    file at `path`, or its text to stdout when `path` is None.  A failed
    write stops the stream, and its helper thread with it."""
    try:
        if path is None:
            for block in blocks:
                _write_stdout(str(block, "ascii"))
            return
        with open(path, "wb") as file:
            for block in blocks:
                file.write(block)
    except OSError as exc:
        raise io_formats.ConfigError(f"cannot write output: {exc}") from None
    finally:
        blocks.close()


def _write_outputs(matrix, args) -> None:
    """Stream the PGM and then the CSV to their files, or the CSV to stdout
    when no output path is given."""
    if args.out_pgm:
        _write_blocks(io_formats.pgm_blocks(matrix), args.out_pgm)
    if args.out_csv or not args.out_pgm:
        _write_blocks(io_formats.csv_blocks(matrix), args.out_csv)


def _cmd_simulate(args) -> int:
    config = io_formats.parse_config(_load(args.config))
    _write_outputs(rules.evolve(config), args)
    return 0


def _cmd_script(args) -> int:
    n_qubits, initial, script = io_formats.parse_script(_load(args.script))
    _write_outputs(rules.run_gate_script(n_qubits, initial, script), args)
    return 0


def _cmd_period(args) -> int:
    config = io_formats.parse_config(_load(args.config))
    if args.horizon < 1:
        raise io_formats.ConfigError("horizon must be at least 1 column")
    if not args.tol > 0:
        raise io_formats.ConfigError(f"tolerance must be positive, got {args.tol}")
    report = analysis.search_period(config, args.horizon, args.tol)
    _write_stdout(io_formats.format_period_report(report))
    return 0 if report.found else 1


def _cmd_check(args) -> int:
    config = io_formats.parse_config(_load(args.config))
    rules.check_fits(analysis.check_bytes(config), "states and working vectors")
    reports = [analysis.check_rule_unitary(config), analysis.check_interaction(config)]
    if config.boundary is BoundaryCondition.CYCLIC:
        reports.append(analysis.check_translation(config))
    _write_stdout("".join(
        f"{report.name}: {'pass' if report.passed else 'FAIL'} (worst deviation "
        f"{report.worst_deviation:.3e}; {report.details})\n"
        for report in reports
    ))
    return 0 if all(report.passed for report in reports) else 1


def _cmd_matrix(args) -> int:
    config = io_formats.parse_config(_load(args.config))
    if config.n_cells > MAX_DENSE_CELLS:
        raise io_formats.ConfigError("matrix needs the dense operator; "
                                     f"at most {MAX_DENSE_CELLS} cells")
    _write_blocks(io_formats.operator_blocks(rules.build_dense_rule(config)))
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """Raises ConfigError on a bad flag or argument instead of printing its
    usage and exiting; subparsers inherit the class."""

    def error(self, message: str):
        raise io_formats.ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="qca2",
        description="Simulate 1-D quantum cellular automata with two qubits per cell.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a configured evolution")
    p.add_argument("config")
    p.add_argument("--out-csv")
    p.add_argument("--out-pgm")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("script", help="run an explicit gate script")
    p.add_argument("script")
    p.add_argument("--out-csv")
    p.add_argument("--out-pgm")
    p.set_defaults(func=_cmd_script)

    p = sub.add_parser("period", help="detect the probability-pattern period")
    p.add_argument("config")
    p.add_argument("--horizon", type=int, default=4096, help="columns to record")
    p.add_argument("--tol", type=float, default=analysis.DEFAULT_PERIOD_TOL)
    p.set_defaults(func=_cmd_period)

    p = sub.add_parser("check", help="check the cell unitary, interaction and symmetry")
    p.add_argument("config")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("matrix", help="dump the dense rule operator as CSV")
    p.add_argument("config")
    p.set_defaults(func=_cmd_matrix)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (io_formats.ConfigError, NormDriftError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation was refused'}",
              file=sys.stderr)
        return 2


def entry() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except OSError:
        # A reader closed stdout: point it at /dev/null, so that the
        # interpreter's final flush drops what is left without a message.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry()
