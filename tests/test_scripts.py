"""Smoke tests of the helper scripts in scripts/."""

import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

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


def test_update_timing_times_both_updates_at_3_cells():
    spec = importlib.util.spec_from_file_location("update_timing", SCRIPTS / "update_timing.py")
    update_timing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(update_timing)
    began = time.perf_counter()
    for dtype in (np.float64, np.complex128):
        dense, basis, script = update_timing.update_times(3, dtype)
        assert 0 < dense < 1 and 0 < basis < 1 and 0 < script < 1
    assert time.perf_counter() - began < 1


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
# "tiled" runs 6 to 8 cells whatever --max-cells is.
DIGESTS_2_CELLS = {
    "simulate.csv": "e27812662253e7194bbaa7ca3c7ecf6f26dbc35bc18f4b93421401ad2360b9f2",
    "simulate.pgm": "95284f092601ca4aa39deeea7def28145d51f828326140b447a1d7a21dc2befe",
    "simulate.stdout": "d1e9717527c359eeba8ca2e49fb6b99d6aa74f7d91e534c88921a5a7fc6790af",
    "period": "8b1a4067f3328987394018415f56c5033eb1f186f7544e9165aeb29f26c47991",
    "check": "6242ce2d2da4fc6be6042c79520a0d7a8b52463ae9c6721af740ce1a22299da2",
    "matrix": "38f4976675e4213c163705d1cea76eeb62017437cf09c4c383e61bc25ad8e9ec",
    "script": "e3c06156fd92f58d660c95342ba9d2bc128f3fdce884dcfc69287dbd42399d88",
    "tiled": "4c54ab41f9d8b6384a66994597876b3465f2271de8d54edb69ce5c103ac409f8",
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


def _bench_output(**workloads) -> str:
    """Canned `perfbench/run.py` output: per workload, a block that ends in
    its fail ratio line and its JSON line."""
    lines = ["seed 1 nproc 2 numpy 2.4.6 blas_threads 2 trace 0"]
    for name, (commands_s, peak_rss_mb, setup_s, failed) in workloads.items():
        metrics = {"commands_s": {"value": commands_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
                   "setup_s": {"value": setup_s, "unit": "s"}}
        lines += [f"{name} commands_s {commands_s:.6f} s",
                  f"{name} fail_ratio {failed / 10:g} ratio ({failed} of 10 calls)",
                  json.dumps({"correct": not failed, "attempted": 10, "failed": failed,
                              "metrics": metrics})]
    return "\n".join(lines) + "\n"


# Four canned pairs of two workloads: the statistics of `ab.py`, each side's
# quartiles, the ratio of the medians, the pairs the change is lower in and
# the bound, without running the benchmark.
def test_ab_statistics_on_canned_result_lines():
    spec = importlib.util.spec_from_file_location("ab", SCRIPTS / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    parent_wide, change_wide = [0.10, 0.12, 0.14, 0.20], [0.13, 0.15, 0.16, 0.19]
    pairs = [(ab.parse_run(_bench_output(presets=(0.2, 70.0, 0.15, 0), wide=(p, 80.0, 0.15, 0))),
              ab.parse_run(_bench_output(presets=(0.2, 77.5, 0.12, 1), wide=(c, 80.0, 0.16, 0))))
             for p, c in zip(parent_wide, change_wide)]
    assert pairs[0][0]["wide"] == {"failed": 0, "attempted": 10, "metrics": {
        "commands_s": 0.10, "peak_rss_mb": 80.0, "setup_s": 0.15}}
    end_to_end = [{"name": "commands_s", "unit": "s", "better": "lower", "bound": 0.25},
                  {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
                  {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    rows = {(row["workload"], row["metric"]): row for row in ab.compare(pairs, end_to_end)}
    assert len(rows) == 6
    wide = rows["wide", "commands_s"]
    assert wide["parent"] == parent_wide and wide["change"] == change_wide
    assert wide["parent_quartiles"] == pytest.approx((0.115, 0.13, 0.155))
    assert wide["change_quartiles"] == pytest.approx((0.145, 0.155, 0.1675))
    assert wide["ratio"] == pytest.approx(0.155 / 0.13)
    assert wide["lower"] == 1 and not wide["past_bound"]
    # +10.7% against a 10% bound; equal values are not lower.
    rss = rows["presets", "peak_rss_mb"]
    assert rss["ratio"] == pytest.approx(77.5 / 70) and rss["past_bound"]
    assert rss["lower"] == 0 and rss["failed"] == (0, 4)
    assert rows["presets", "setup_s"]["lower"] == 4
    assert rows["wide", "setup_s"]["lower"] == 0
    assert "YES" in ab.format_rows([rss]) and "4/4" in ab.format_rows(
        [rows["presets", "setup_s"]])
    assert ab.quartiles([3.0]) == (3.0, 3.0, 3.0)


# Canned `python -X importtime` lines: qca2's own self time is the sum over
# qca2 and its modules, at any depth, and nothing else: not numpy's, not a
# module whose name merely starts with "qca2", not the header.
def test_ab_setup_sums_qca2_self_time_from_importtime_lines():
    spec = importlib.util.spec_from_file_location("ab", SCRIPTS / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      1200 |       1200 |     numpy.core",
        "import time:       219 |        219 |   qca2",
        "import time:      9340 |       9340 |       qca2.gates",
        "import time:       500 |        500 |   qca2x",
        "import time:      6802 |      16142 |     qca2.rules",
        "a warning | with | bars",
        "import time:      2582 |     169172 | qca2.cli",
    ])
    assert ab.parse_importtime(stderr) == pytest.approx((219 + 9340 + 6802 + 2582) / 1e6)
    assert ab.parse_importtime("") == 0


# `--record` runs every workload, so a `--workload` beside it is refused
# rather than ignored; so is a PARENT.  `--setup` runs no workload.
@pytest.mark.parametrize("argv", [["--record", "31", "--workload", "wide"],
                                  ["HEAD", "--record", "31"], [],
                                  ["HEAD", "--setup", "--workload", "wide"],
                                  ["HEAD", "--setup", "--seconds", "1"]])
def test_ab_refuses_options_that_do_not_go_together(argv, capsys):
    spec = importlib.util.spec_from_file_location("ab", SCRIPTS / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    with pytest.raises(SystemExit) as exit_:
        ab.main(argv)
    assert exit_.value.code == 2 and "error:" in capsys.readouterr().err
