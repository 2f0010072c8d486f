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


# The period column of `period_sweep.py --max-cells 3 --horizon 64`, by rule
# and evaluation, for 1, 2 and 3 cells.
SWEEP_PERIODS_3_CELLS = {
    ("right", "h_both"): ["2", "2", "2"], ("right", "h_s_then_cn"): ["8", "8", "8"],
    ("left", "h_both"): ["2", "6", "6"], ("left", "h_s_then_cn"): ["8", "8", "8"],
    ("both", "h_both"): ["2", "2", "2"], ("both", "h_s_then_cn"): ["8", "8", "24"],
}


def test_period_sweep_runs():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "period_sweep.py"), "--max-cells", "3", "--horizon", "64"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    periods = {}
    for line in result.stdout.splitlines()[1:]:
        rule, evaluation, _, period, _ = line.split()
        periods.setdefault((rule, evaluation), []).append(period)
    assert periods == SWEEP_PERIODS_3_CELLS


# `output_digest.py --max-cells 2`: any changed byte of any output changes one.
DIGESTS_2_CELLS = {
    "simulate.csv": "e27812662253e7194bbaa7ca3c7ecf6f26dbc35bc18f4b93421401ad2360b9f2",
    "simulate.pgm": "95284f092601ca4aa39deeea7def28145d51f828326140b447a1d7a21dc2befe",
    "simulate.stdout": "d1e9717527c359eeba8ca2e49fb6b99d6aa74f7d91e534c88921a5a7fc6790af",
    "period": "8b1a4067f3328987394018415f56c5033eb1f186f7544e9165aeb29f26c47991",
    "check": "6242ce2d2da4fc6be6042c79520a0d7a8b52463ae9c6721af740ce1a22299da2",
    "matrix": "38f4976675e4213c163705d1cea76eeb62017437cf09c4c383e61bc25ad8e9ec",
    "script": "e3c06156fd92f58d660c95342ba9d2bc128f3fdce884dcfc69287dbd42399d88",
}


def test_output_digest_prints_one_digest_per_kind():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "output_digest.py"), "--max-cells", "2"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    lines = [tuple(line.split()) for line in result.stdout.splitlines()]
    assert lines == [*DIGESTS_2_CELLS.items()]
