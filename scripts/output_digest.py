#!/usr/bin/env python3
"""Print one SHA-256 per kind of qca2 output over a grid of configs, so that
the outputs of two checkouts can be compared byte for byte.

The grid is 1..--max-cells cells x every rule x every boundary x four
evaluations: identity, h_both, h_s_then_cn and a complex custom matrix.
Each config runs 12 steps from a fixed initial state, recording per phase
when the cell count is even and per step otherwise.  For every config the
CLI runs in process: `simulate` (CSV file, PGM file, and CSV on stdout),
`period --horizon 64`, `check` and `matrix`; `matrix` stops at 5 cells,
and so does the grid.  `script` runs the bundled fig2 script once.  A
kind's digest covers the config, exit code, stdout and stderr of each of
its runs in grid order, so one changed byte changes its line.

    PYTHONPATH=src python scripts/output_digest.py [--max-cells N]
"""

import argparse
import cmath
import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

from qca2.cli import main

HERE = Path(__file__).resolve().parent

KINDS = ("simulate.csv", "simulate.pgm", "simulate.stdout", "period", "check", "matrix",
         "script")
RULES = ("right", "left", "both")
BOUNDARIES = ("const0", "const1", "cyclic")


def complex_custom() -> str:
    """The entries of D1·(H⊗H)·D2, D1 and D2 diagonal phases: a unitary
    with complex, non-dyadic entries, written as a custom eval."""
    signs = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
    entries = [cmath.exp(0.3j * (r + 1) + 0.7j * c * c) * signs[r][c] / 2
               for r in range(4) for c in range(4)]
    # repr round-trips each part exactly: "(0.5+0.25j)" -> "0.5+0.25i".
    return "custom:" + ",".join(repr(z).strip("()").replace("j", "i") for z in entries)


def grid(max_cells: int):
    """(name, config text) of every config of the grid."""
    evals = ("identity", "h_both", "h_s_then_cn", complex_custom())
    for cells in range(1, max_cells + 1):
        for rule in RULES:
            for boundary in BOUNDARIES:
                for k, evaluation in enumerate(evals):
                    name = f"{cells}-{rule}-{boundary}-{evaluation if k < 3 else 'custom'}"
                    yield name, (
                        f"cells={cells}\nrule={rule}\nboundary={boundary}\n"
                        f"eval={evaluation}\nsteps=12\ninitial={(7 * cells + 3) % 4**cells}\n"
                        f"record={'phase' if cells % 2 == 0 else 'step'}\n"
                    )


def run(argv: list[str]) -> tuple[int, bytes]:
    """Exit code, and stdout and stderr, of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, f"{out.getvalue()}\0{err.getvalue()}".encode()


def digests(max_cells: int) -> dict[str, str]:
    hashes = {kind: hashlib.sha256() for kind in KINDS}

    def add(kind: str, name: str, code: int, data: bytes) -> None:
        hashes[kind].update(f"{name}\0{code}\0{len(data)}\0".encode() + data)

    with tempfile.TemporaryDirectory() as tmp:
        conf, csv, pgm = (Path(tmp) / f for f in ("run.conf", "run.csv", "run.pgm"))
        for name, text in grid(max_cells):
            conf.write_text(text)
            for path in (csv, pgm):
                path.unlink(missing_ok=True)
            code, _ = run(["simulate", str(conf), "--out-csv", str(csv), "--out-pgm", str(pgm)])
            for kind, path in (("simulate.csv", csv), ("simulate.pgm", pgm)):
                add(kind, name, code, path.read_bytes() if path.exists() else b"")
            add("simulate.stdout", name, *run(["simulate", str(conf)]))
            add("period", name, *run(["period", str(conf), "--horizon", "64"]))
            add("check", name, *run(["check", str(conf)]))
            add("matrix", name, *run(["matrix", str(conf)]))
    add("script", "fig2", *run(["script", str(HERE / "fig2.qscript")]))
    return {kind: h.hexdigest() for kind, h in hashes.items()}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-cells", type=int, default=5,
                        help="largest cell count of the grid, at most 5 (default 5)")
    args = parser.parse_args(argv)
    if not 1 <= args.max_cells <= 5:
        parser.error("--max-cells must be in 1..5: `matrix` stops at 5 cells")
    return args


if __name__ == "__main__":
    for kind, digest in digests(parse_args().max_cells).items():
        print(f"{kind:<16} {digest}")
