"""Smoke tests of the helper scripts in scripts/."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
GOLDEN = ROOT / "tests" / "golden"


def test_run_figures_reproduces_the_goldens(tmp_path):
    spec = importlib.util.spec_from_file_location("run_figures", SCRIPTS / "run_figures.py")
    run_figures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_figures)
    assert run_figures.run(tmp_path) == 0
    for name in ("fig2.csv", "fig2.pgm", "fig3.csv", "fig3.pgm"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_period_sweep_runs():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "period_sweep.py"), "--max-cells", "2", "--horizon", "64"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr


def test_output_digest_prints_one_digest_per_kind():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "output_digest.py"), "--max-cells", "2"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    lines = [line.split() for line in result.stdout.splitlines()]
    assert [kind for kind, _ in lines] == ["simulate.csv", "simulate.pgm", "simulate.stdout",
                                          "period", "check", "matrix", "script"]
    assert all(len(digest) == 64 and int(digest, 16) >= 0 for _, digest in lines)
