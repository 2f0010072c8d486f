"""`src/` holds what the CLI runs: every function defined in `src/qca2`,
nested functions and comprehensions included, is called by a fixed set of
in-process CLI calls, except the names on ALLOWLIST and the functions
nested in them.  A function added to `src/` that the CLI never reaches
fails the test, and so does an allowlist entry that the CLI starts to
reach or that no longer exists."""

import contextlib
import importlib.util
import inspect
import io
import os
import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

import qca2
from qca2 import analysis, cli, gates, io_formats, rules

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(qca2.__file__).resolve().parent

# Each name the CLI never calls, and what keeps it in `src/`.
ALLOWLIST = {
    "gates.apply_gate": "perfbench/tracing.py target (rules.apply_gate)",
    "gates.compose_dense": "perfbench/tracing.py target (rules.compose_dense)",
    "gates.embed_gate": "perfbench/tracing.py target",
    "analysis.detect_period": "perfbench/tracing.py target",
    "io_formats.write_csv": "perfbench/tracing.py target",
    "io_formats.render_pgm": "perfbench/tracing.py target",
    "io_formats.write_operator_csv": "perfbench/tracing.py target",
    "io_formats.read_csv": "perfbench/checker.py import",
    "gates.LocalUnitary.__hash__": "hashable configs",
    "gates.LocalUnitary.__eq__": "configs and gates compare by value",
}

_COMPREHENSIONS = {"<genexpr>", "<listcomp>", "<setcomp>", "<dictcomp>"}


def _functions(code: CodeType, module: str, at_import: bool = True):
    """(name, first line) of every function compiled from `code`, nested
    ones included.  A comprehension in a module or class body runs at
    import, before any call is profiled, and is left out."""
    for const in code.co_consts:
        if isinstance(const, CodeType):
            function = bool(const.co_flags & inspect.CO_OPTIMIZED)  # not a class body
            if function and not (at_import and const.co_name in _COMPREHENSIONS):
                yield f"{module}.{const.co_qualname}", const.co_firstlineno
            yield from _functions(const, module, at_import and not function)


def _defined() -> set[tuple[str, int]]:
    found = set()
    for path in SRC.glob("*.py"):
        found.update(_functions(compile(path.read_text(), str(path), "exec"), path.stem))
    return found


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traffic(tmp_path: Path, monkeypatch) -> None:
    """The CLI calls whose functions count as reached."""
    _load_script("output_digest").digests(2)
    assert _load_script("run_figures").run(tmp_path / "figures") == 0
    conf = tmp_path / "run.conf"
    # 4,096 rows of 42 columns: three CSV and three PGM blocks.
    conf.write_text("cells=6\nrule=both\nboundary=cyclic\neval=h_both\nsteps=40\ninitial=5\n")
    out = ["--out-csv", str(tmp_path / "run.csv"), "--out-pgm", str(tmp_path / "run.pgm")]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["simulate", str(conf), *out]) == 0
        # At minus its initial state after 12 updates, with period 12.
        conf.write_text("cells=2\nrule=right\nboundary=const1\neval=h_both\nsteps=0\ninitial=10\n")
        assert cli.main(["period", str(conf), "--horizon", "65"]) == 0
        assert cli.main(["period", str(conf), "--horizon", "two"]) == 2
        conf.write_text("cells=2\nrule=sideways\nsteps=1\ninitial=0\n")
        assert cli.main(["simulate", str(conf)]) == 2
        conf.write_text("cells=2\nrule=right\nsteps=1\ninitial=0\n")
        monkeypatch.setattr(sys, "argv", ["qca2", "check", str(conf)])
        with pytest.raises(SystemExit) as done:
            cli.entry()
    assert done.value.code == 0


def test_src_holds_what_the_cli_runs(monkeypatch, tmp_path):
    # Two CPUs, so that the writers' helper thread runs on any machine.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    # Cached functions run again, as in a fresh process.
    for module in (analysis, cli, gates, io_formats, rules):
        for function in vars(module).values():
            if hasattr(function, "cache_clear"):
                function.cache_clear()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        _traffic(tmp_path, monkeypatch)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    reached = {(f"{Path(code.co_filename).stem}.{code.co_qualname}", code.co_firstlineno)
               for code in called if Path(code.co_filename).resolve().parent == SRC}
    never = {name for name, _ in _defined() - reached}
    # A function nested in one on the allowlist is covered by its entry.
    assert {name for name in never
            if not any(name.startswith(f"{kept}.<locals>.") for kept in ALLOWLIST)} \
        == set(ALLOWLIST)
