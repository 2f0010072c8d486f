"""Command-line front end.

Subcommands:

* ``simulate <config> [--out-csv P] [--out-pgm P]`` -- run the configured
  evolution; CSV goes to stdout when no output path is given.
* ``script <file> [--out-csv P] [--out-pgm P]`` -- run an explicit gate
  script.
* ``period <config> [--horizon N] [--tol X]`` -- evolve until N columns are
  recorded and report the detected period as key=value lines.
* ``check <config>`` -- unitarity and interaction-permutation checks, plus
  translation covariance for cyclic boundaries.
* ``matrix <config>`` -- dump the dense full-update operator as CSV.

Exit codes: 0 success, 1 failed check or period not found, 2 bad input
(config, script, flag or output path) or a state whose norm drifted.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import analysis, io_formats, rules
from .gates import MAX_DENSE_QUBITS
from .register import NormDriftError
from .rules import BoundaryCondition, RecordMode

MAX_DENSE_CELLS = MAX_DENSE_QUBITS // 2  # two qubits per cell


def _load(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise io_formats.ConfigError(f"cannot read {path}: {exc}") from None


def _write_outputs(matrix, args) -> None:
    csv_text = io_formats.write_csv(matrix)
    try:
        if args.out_csv:
            Path(args.out_csv).write_text(csv_text)
        if args.out_pgm:
            Path(args.out_pgm).write_bytes(io_formats.render_pgm(matrix))
    except OSError as exc:
        raise io_formats.ConfigError(f"cannot write output: {exc}") from None
    if not args.out_csv and not args.out_pgm:
        sys.stdout.write(csv_text)


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
    cols_per_step = 2 if config.record is RecordMode.PER_PHASE else 1
    n_steps = -(-(args.horizon - 1) // cols_per_step)  # ceil division
    config = dataclasses.replace(config, n_steps=n_steps)
    matrix = rules.evolve(config)[:, : args.horizon]
    report = analysis.detect_period(matrix, args.tol)
    sys.stdout.write(io_formats.format_period_report(report))
    return 0 if report.found else 1


def _cmd_check(args) -> int:
    config = io_formats.parse_config(_load(args.config))
    if config.n_cells > MAX_DENSE_CELLS:
        raise io_formats.ConfigError(
            f"check needs the dense operator; at most {MAX_DENSE_CELLS} cells"
        )
    reports = [
        analysis.check_rule_unitary(config),
        analysis.check_interaction(config),
    ]
    if config.boundary is BoundaryCondition.CYCLIC:
        reports.append(analysis.check_translation(config))
    ok = True
    for report in reports:
        status = "pass" if report.passed else "FAIL"
        sys.stdout.write(
            f"{report.name}: {status} (worst deviation "
            f"{report.worst_deviation:.3e}; {report.details})\n"
        )
        ok = ok and report.passed
    return 0 if ok else 1


def _cmd_matrix(args) -> int:
    config = io_formats.parse_config(_load(args.config))
    if config.n_cells > MAX_DENSE_CELLS:
        raise io_formats.ConfigError(
            f"dense operator limited to {MAX_DENSE_CELLS} cells"
        )
    sys.stdout.write(io_formats.write_operator_csv(rules.build_dense_rule(config)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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

    p = sub.add_parser("check", help="run structural property checks")
    p.add_argument("config")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("matrix", help="dump the dense rule operator as CSV")
    p.add_argument("config")
    p.set_defaults(func=_cmd_matrix)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (io_formats.ConfigError, NormDriftError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
