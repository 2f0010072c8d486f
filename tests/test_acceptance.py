"""End-to-end acceptance suite.

Each test enforces one release criterion at its stated tolerance and prints
a one-line verdict; run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qca2.analysis import check_interaction, check_translation, detect_period
from qca2.cli import main
from qca2.gates import LocalUnitary
from qca2.io_formats import parse_config, parse_script
from qca2.rules import (
    BoundaryCondition,
    H_BOTH_EVAL,
    H_S_THEN_CN_EVAL,
    IDENTITY_EVAL,
    NeighborhoodRule,
    QcaConfig,
    RecordMode,
    basis_state,
    build_dense_rule,
    compile_rule,
    evolve,
    run_gate_script,
)

from helpers import random_unitary, step

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
GOLDEN = ROOT / "tests" / "golden"

SWEEP = list(itertools.product(
    list(NeighborhoodRule),
    list(BoundaryCondition),
    [1, 2, 3, 4],
    [IDENTITY_EVAL, H_BOTH_EVAL, H_S_THEN_CN_EVAL],
))

FIG3 = QcaConfig(3, NeighborhoodRule.RIGHT, BoundaryCondition.CONST_ZERO,
                 H_S_THEN_CN_EVAL, initial_index=32)
FIG4B = QcaConfig(4, NeighborhoodRule.BOTH, BoundaryCondition.CONST_ZERO,
                  H_BOTH_EVAL, initial_index=128)

# Pattern period of the three-cell run above (const0 boundary, per-step
# recording), frozen from the dense-operator oracle.
FIG3_PERIOD = 8


def _ok(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_01_fig2_script_reproduction():
    n_qubits, initial, script = parse_script((SCRIPTS / "fig2.qscript").read_text())
    t0 = time.perf_counter()
    matrix = run_gate_script(n_qubits, initial, script)
    elapsed = time.perf_counter() - t0
    expected = np.array([[0, 0.5, 0.5], [0, 0, 0], [1, 0.5, 0], [0, 0, 0.5]])
    error = float(np.max(np.abs(matrix - expected)))
    assert error <= 1e-12
    assert elapsed < 0.010
    _ok(1, f"two-qubit walkthrough, max error {error:.2e}, {elapsed * 1e3:.2f} ms")


def test_02_unitarity_sweep():
    t0 = time.perf_counter()
    worst = 0.0
    for rule, boundary, n, evaluation in SWEEP:
        cfg = QcaConfig(n, rule, boundary, evaluation)
        op = build_dense_rule(cfg)
        dev = float(np.max(np.abs(op.conj().T @ op - np.eye(op.shape[0]))))
        assert dev <= 1e-12, (rule, boundary, n, evaluation.kind, dev)
        worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _ok(2, f"{len(SWEEP)} configs unitary, worst deviation {worst:.2e}, {elapsed:.1f} s")


def test_03_interaction_phase_contract():
    for rule, boundary, n, evaluation in SWEEP:
        cfg = QcaConfig(n, rule, boundary, evaluation)
        report = check_interaction(cfg)
        assert report.passed, (rule, boundary, n, report)
    _ok(3, f"{len(SWEEP)} interaction operators are s-bit-preserving permutations")


def test_04_oracle_equivalence_random_configs():
    rng = np.random.default_rng(44301)
    rules = list(NeighborhoodRule)
    boundaries = list(BoundaryCondition)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        evaluation = [
            IDENTITY_EVAL, H_BOTH_EVAL, H_S_THEN_CN_EVAL,
            LocalUnitary((0, 1), random_unitary(rng, 4)),
        ][int(rng.integers(0, 4))]
        cfg = QcaConfig(
            n_cells=n,
            rule=rules[int(rng.integers(0, 3))],
            boundary=boundaries[int(rng.integers(0, 3))],
            evaluation=evaluation,
            initial_index=int(rng.integers(0, 4**n)),
        )
        dense = build_dense_rule(cfg)
        rule = compile_rule(cfg)
        fast = basis_state(2 * n, cfg.initial_index)
        exact = fast.copy()
        for _ in range(10):
            fast = step(fast, rule)
            exact = dense @ exact
            dev = float(np.max(np.abs(fast - exact)))
            assert dev <= 1e-12, (cfg, dev)
            worst = max(worst, dev)
    _ok(4, f"100 random configs x 10 steps, worst state deviation {worst:.2e}")


def test_05_norm_conservation_long_run():
    rule = compile_rule(FIG4B)
    state = basis_state(8, 128)
    for _ in range(10_000):
        state = step(state, rule)
    drift = abs(float(np.vdot(state, state).real) - 1.0)
    assert drift <= 1e-9
    _ok(5, f"10,000 steps at 4 cells, squared-norm drift {drift:.2e}")


def test_06_translation_covariance():
    worst = 0.0
    for n in (2, 3, 4):
        for rule in NeighborhoodRule:
            cfg = QcaConfig(n, rule, BoundaryCondition.CYCLIC, H_BOTH_EVAL,
                            initial_index=2)
            report = check_translation(cfg)
            assert report.passed and report.worst_deviation <= 1e-12, report
            worst = max(worst, report.worst_deviation)
    _ok(6, f"cyclic shifts commute with evolution, worst deviation {worst:.2e}")


def test_07_periodicity_fig3_and_fig4b():
    horizon = 4096
    # Gate path.
    matrix = evolve(replace(FIG3, n_steps=horizon - 1))
    gate_report = detect_period(matrix, tol=1e-9)
    assert gate_report.found and gate_report.period == FIG3_PERIOD, gate_report
    # Dense-operator oracle.
    dense = build_dense_rule(FIG3)
    v = basis_state(6, 32)
    cols = [np.abs(v) ** 2]
    for _ in range(horizon - 1):
        v = dense @ v
        cols.append(np.abs(v) ** 2)
    oracle_report = detect_period(np.column_stack(cols), tol=1e-9)
    assert oracle_report.found and oracle_report.period == FIG3_PERIOD

    # Two-control rule: report whatever both paths agree on.
    m4 = evolve(replace(FIG4B, n_steps=horizon - 1))
    rep4 = detect_period(m4, tol=1e-6)
    dense4 = build_dense_rule(FIG4B)
    v = basis_state(8, 128)
    cols = [np.abs(v) ** 2]
    for _ in range(horizon - 1):
        v = dense4 @ v
        cols.append(np.abs(v) ** 2)
    rep4_oracle = detect_period(np.column_stack(cols), tol=1e-6)
    assert rep4.found == rep4_oracle.found
    assert rep4.period == rep4_oracle.period
    _ok(7, f"three-cell period {gate_report.period} (gate path = dense oracle); "
           f"two-control rule reports period {rep4.period}")


def test_08_golden_files(tmp_path):
    outputs = {}
    for run in ("a", "b"):
        d = tmp_path / run
        d.mkdir()
        assert main(["script", str(SCRIPTS / "fig2.qscript"),
                     "--out-csv", str(d / "fig2.csv"),
                     "--out-pgm", str(d / "fig2.pgm")]) == 0
        assert main(["simulate", str(SCRIPTS / "fig3.conf"),
                     "--out-csv", str(d / "fig3.csv"),
                     "--out-pgm", str(d / "fig3.pgm")]) == 0
        outputs[run] = {
            name: (d / name).read_bytes()
            for name in ("fig2.csv", "fig2.pgm", "fig3.csv", "fig3.pgm")
        }
    for name, blob in outputs["a"].items():
        assert blob == outputs["b"][name], f"{name} differs between runs"
        assert blob == (GOLDEN / name).read_bytes(), f"{name} differs from golden"
    _ok(8, "CSV and PGM outputs byte-identical across runs and to goldens")


def test_09_performance():
    rule4 = compile_rule(FIG4B)
    state = basis_state(8, 128)
    t0 = time.perf_counter()
    for _ in range(1000):
        state = step(state, rule4)
    t_small = time.perf_counter() - t0
    assert t_small < 1.0

    big = QcaConfig(10, NeighborhoodRule.RIGHT, BoundaryCondition.CONST_ZERO,
                    H_BOTH_EVAL, initial_index=1)
    rule10 = compile_rule(big)
    state = basis_state(20, 1)
    t0 = time.perf_counter()
    for _ in range(100):
        state = step(state, rule10)
    t_big = time.perf_counter() - t0
    assert t_big < 60.0
    assert abs(float(np.vdot(state, state).real) - 1.0) <= 1e-9
    _ok(9, f"4 cells x 1000 steps in {t_small:.2f} s; "
           f"10 cells x 100 steps in {t_big:.1f} s")
