"""Tests of the benchmark itself: checker, failure count, reference, tracing.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checker
import child
import reference
import run
import workloads
from tracing import Span, layer_metrics, self_times

from qca2 import io_formats, rules

ROOT = Path(__file__).resolve().parent.parent


def _qca2_matrix(config: workloads.Config) -> np.ndarray:
    return rules.evolve(io_formats.parse_config(config.text()))


def _small(kind="simulate", cells=3, rule="both", boundary="cyclic", eval_name="h_both",
           initial=5, steps=6, horizon=0):
    config = workloads._config("small.conf", cells, rule, boundary, eval_name, initial, steps)
    return workloads.Command(kind, config, horizon)


# --- checker ---------------------------------------------------------------


def test_checker_accepts_then_rejects_csv_moved_by_1e9():
    cmd = _small()
    matrix = _qca2_matrix(cmd.config)
    assert checker.check_csv(io_formats.write_csv(matrix), matrix) == []
    moved = matrix.copy()
    moved[3, 2] += 1e-9
    assert checker.check_csv(io_formats.write_csv(moved), matrix) != []


def test_checker_rejects_pgm_with_one_pixel_changed():
    matrix = _qca2_matrix(_small().config)
    pgm = io_formats.render_pgm(matrix)
    assert checker.check_pgm(pgm, matrix) == []
    lines = pgm.decode().split("\n")
    row = lines[4].split(" ")
    row[0] = str((int(row[0]) + 7) % 256)
    lines[4] = " ".join(row)
    assert checker.check_pgm("\n".join(lines).encode(), matrix) != []


def test_checker_rejects_wrong_period_line():
    exp = workloads.PeriodExpectation(period=6, deviation=1.5e-14, columns=16)
    good = ("found=true\nperiod=6\nmax_deviation=0.000000000000015\n"
            "tolerance=0.000000001\ncolumns_examined=16\n")
    assert checker.check_period(good, exp) == []
    for wrong in (good.replace("period=6", "period=3"),
                  good.replace("found=true", "found=false"),
                  good.replace("columns_examined=16", "columns_examined=15"),
                  good.replace("max_deviation=0.000000000000015", "max_deviation=0.01")):
        assert checker.check_period(wrong, exp) != []
    none = workloads.PeriodExpectation(period=None, deviation=float("nan"), columns=2048)
    missing = ("found=false\nperiod=0\nmax_deviation=nan\n"
               "tolerance=0.000000001\ncolumns_examined=2048\n")
    assert checker.check_period(missing, none) == []
    assert checker.check_period(missing.replace("nan", "0"), none) != []


def test_checker_rejects_failed_check_line_and_non_unitary_matrix():
    ok = ("rule-unitary: pass (x)\ninteraction-permutation: pass (x)\n"
          "translation-covariance: pass (x)\n")
    assert checker.check_report(ok, cyclic=True) == []
    assert checker.check_report(ok.replace("pass (x)\ntrans", "FAIL (x)\ntrans"), True) != []
    op = np.eye(4, dtype=complex)
    text = io_formats.write_operator_csv(op)
    assert checker.check_operator(text, op) == []
    assert checker.check_operator(text.replace("1+0i", "1.0000001+0i", 1), op) != []


def test_exit_code_is_checked():
    cmd = _small(kind="check")
    ok = "rule-unitary: pass (x)\ninteraction-permutation: pass (x)\ntranslation-covariance: pass (x)\n"
    assert checker.check_command(cmd, None, 0, ok, Path(".")) == []
    assert checker.check_command(cmd, None, 1, ok, Path(".")) != []


def test_wrong_output_repeated_is_counted_every_time(tmp_path):
    cmd = _small(kind="check")
    workload = workloads.Workload("small", (cmd.config,), (cmd,))
    ok = ("rule-unitary: pass (x)\ninteraction-permutation: pass (x)\n"
          "translation-covariance: pass (x)\n")
    wrong = ok.replace("pass (x)\ntrans", "FAIL (x)\ntrans")
    reps = []
    for k, stdout in enumerate([ok, wrong, wrong, wrong]):
        (tmp_path / f"rep{k}").mkdir()
        (tmp_path / f"rep{k}" / "0.stdout").write_text(stdout)
        reps.append([{"code": 0, "wall": 1.0, "stderr": ""}])
    plans = [(workload, [None])] * len(reps)
    assert run.count_failures(reps, plans, tmp_path, traced=False) == 3


# --- reference -------------------------------------------------------------


@pytest.mark.parametrize("rule", ["right", "left", "both"])
@pytest.mark.parametrize("boundary", ["const0", "const1", "cyclic"])
def test_rule_text_reference_matches_qca2(rule, boundary):
    for cells in (1, 2, 3, 4):
        for eval_name in ("identity", "h_both", "h_s_then_cn"):
            cmd = _small(cells=cells, rule=rule, boundary=boundary, eval_name=eval_name,
                         initial=(7 * cells + 3) % 4**cells)
            c = cmd.config
            ref = reference.evolve(cells, rule, boundary, c.unitary, c.initial, c.steps)
            assert np.max(np.abs(ref - _qca2_matrix(c))) <= 1e-12


def test_custom_unitary_round_trips_through_config_text():
    config = workloads.build("custom", 3).configs[0]
    parsed = io_formats.parse_config(config.text())
    assert np.array_equal(parsed.evaluation.matrix, config.unitary)


# --- workloads -------------------------------------------------------------


def test_same_seed_same_inputs_other_seed_other_inputs():
    for name in workloads.NAMES:
        a, b, c = (workloads.build(name, s) for s in (4, 4, 5))
        assert [x.text() for x in a.configs] == [x.text() for x in b.configs]
        assert [x.text() for x in a.configs] != [x.text() for x in c.configs]


@pytest.mark.parametrize("seed", [1, 2])
def test_other_seeds_keep_each_workload_character(seed):
    # expectations() raises if custom finds a period or wide finds none.
    for name in ("custom", "wide"):
        exp = workloads.expectations(workloads.build(name, seed))
        period = exp[0]
        assert period.period == (6 if name == "wide" else None)


def test_wide_refuses_the_one_index_with_another_period():
    workload = workloads.build("wide", 1)
    config = replace(workload.configs[0], initial=0)
    broken = replace(workload, configs=(config,), commands=(
        workloads.Command("period", config, horizon=16),))
    with pytest.raises(ValueError, match="period 2"):
        workloads.expectations(broken)


def test_presets_seeds_share_one_probability_multiset():
    values = []
    for seed in (1, 2, 3):
        config = workloads.build("presets", seed).configs[0]
        ref = reference.evolve(8, "both", "const0", config.unitary, config.initial, 40)
        values.append(np.sort(ref.reshape(-1)))
    assert np.array_equal(values[0], values[1]) and np.array_equal(values[0], values[2])


# --- tracing ---------------------------------------------------------------


def test_self_times_on_hand_built_nested_spans():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a.x", 1.5, 2.0, 1),
        Span("a.y", 2.5, 3.5, 1),
        Span("b", 5.0, 9.0, 0),
        Span("b.x", 5.0, 9.0, 4),
    ]
    assert self_times(spans) == pytest.approx([3.0, 1.5, 0.5, 1.0, 0.0, 4.0])
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_traced_run_leaves_stdout_and_files_byte_identical(tmp_path):
    for name in workloads.NAMES:
        workload = workloads.build(name, 7).warmup()
        for config in workload.configs:
            (tmp_path / config.name).write_text(config.text())
        plain = child.run_repetition(workload, tmp_path, tmp_path / f"{name}-plain")
        traced, per_call = child.run_traced(workload, tmp_path, tmp_path / f"{name}-traced")
        assert [c["code"] for c in plain] == [c["code"] for c in traced]
        plain_files = sorted(p.name for p in (tmp_path / f"{name}-plain").iterdir())
        assert plain_files == sorted(p.name for p in (tmp_path / f"{name}-traced").iterdir())
        for file in plain_files:
            assert ((tmp_path / f"{name}-plain" / file).read_bytes()
                    == (tmp_path / f"{name}-traced" / file).read_bytes())
        assert len(per_call) == len(workload.commands)
        for spans in per_call:
            assert spans[0].name == "cli.main"
            assert sum(self_times(spans)) == pytest.approx(spans[0].end - spans[0].start)
    # The tracer puts every wrapped attribute back.
    assert rules.evolve.__module__ == "qca2.rules"


# --- manifest --------------------------------------------------------------


def test_every_per_layer_metric_names_a_layer_of_a_call():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = layer_metrics([Span("cli.main", 0.0, 1.0, -1)])
    calls = {(name, cmd.metric) for name in workloads.NAMES
             for cmd in workloads.build(name, 0).commands}
    for metric in manifest["per_layer"]:
        workload, command, layer = metric["name"].split(".", 2)
        assert (workload, command) in calls and layer in layers, metric["name"]
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.NAMES)
