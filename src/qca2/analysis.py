"""Structural checks and period detection for probability patterns."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .rules import (
    BoundaryCondition,
    QcaConfig,
    build_dense_interaction,
    build_dense_rule,
    evolve,
)

DEFAULT_PERIOD_TOL = 1e-9


@dataclass(frozen=True)
class PeriodReport:
    """Result of searching a probability matrix for a repeating column pattern.

    A period p is only reported as found when the matrix holds at least
    2p+1 columns, i.e. the pattern was observed to repeat at least twice.
    """

    found: bool
    period: int | None
    max_deviation: float
    tolerance: float
    columns_examined: int


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    worst_deviation: float
    details: str = ""


def check_unitary(op: np.ndarray, tol: float = 1e-12) -> CheckReport:
    """Max-norm distance of op†·op from the identity."""
    d = op.shape[0]
    deviation = float(np.max(np.abs(op.conj().T @ op - np.eye(d))))
    return CheckReport(
        name="unitary",
        passed=deviation <= tol,
        worst_deviation=deviation,
        details=f"dimension {d}, tolerance {tol:g}",
    )


def check_interaction(config: QcaConfig) -> CheckReport:
    """Verify the dense interaction operator is a 0/1 permutation whose
    basis images keep every s-bit unchanged."""
    op = build_dense_interaction(config)
    dim = op.shape[0]
    entry_dev = float(np.max(np.minimum(np.abs(op), np.abs(op - 1.0))))
    row_ones = np.abs(np.abs(op).sum(axis=0) - 1.0).max()
    col_ones = np.abs(np.abs(op).sum(axis=1) - 1.0).max()
    perm_dev = max(entry_dev, float(row_ones), float(col_ones))

    s_mask = sum(1 << config.layout.s_bit(j) for j in range(config.n_cells))
    images = np.argmax(np.abs(op), axis=0)
    kept = (images & s_mask) == (np.arange(dim) & s_mask)
    violations = dim - int(np.count_nonzero(kept))
    deviation = perm_dev + violations
    return CheckReport(
        name="interaction-permutation",
        passed=perm_dev == 0.0 and violations == 0,
        worst_deviation=deviation,
        details=f"{violations} s-bit violations over {dim} basis states",
    )


def detect_period(matrix: np.ndarray, tol: float = DEFAULT_PERIOD_TOL) -> PeriodReport:
    """Smallest p such that every column pair (t, t+p) agrees within `tol`
    in max norm, confirmed over at least two full repetitions.

    Each lag is scanned one column pair at a time and abandoned at the first
    pair that misses, so no temporary is larger than one column.
    """
    if matrix.ndim != 2 or matrix.shape[1] < 1:
        raise ValueError("probability matrix must have at least one column")
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    n_cols = matrix.shape[1]
    for p in range(1, (n_cols - 1) // 2 + 1):
        deviation = 0.0
        for t in range(n_cols - p):
            d = float(np.max(np.abs(matrix[:, t] - matrix[:, t + p])))
            if not d <= tol:  # a nan misses too
                break
            deviation = max(deviation, d)
        else:
            return PeriodReport(
                found=True,
                period=p,
                max_deviation=deviation,
                tolerance=tol,
                columns_examined=n_cols,
            )
    return PeriodReport(
        found=False,
        period=None,
        max_deviation=float("nan"),
        tolerance=tol,
        columns_examined=n_cols,
    )


def cell_shift_permutation(n_cells: int) -> np.ndarray:
    """Basis-index permutation moving every cell's qubit pair up one cell
    (modulo the cell count): a 2-bit left rotation of the index."""
    k = np.arange(4**n_cells, dtype=np.int64)
    return ((k << 2) | (k >> (2 * n_cells - 2))) & (4**n_cells - 1)


def check_translation(config: QcaConfig, steps: int = 20) -> CheckReport:
    """Under a cyclic boundary, evolving a cell-shifted initial state must
    equal the cell-shifted evolution of the original initial state."""
    if config.boundary is not BoundaryCondition.CYCLIC:
        raise ValueError("translation covariance is defined for cyclic boundaries only")
    perm = cell_shift_permutation(config.n_cells)
    base = replace(config, n_steps=steps)
    shifted = replace(base, initial_index=int(perm[config.initial_index]))
    # Row perm[k] of the shifted run corresponds to row k of the base run.
    deviation = float(np.max(np.abs(evolve(shifted)[perm, :] - evolve(base))))
    return CheckReport(
        name="translation-covariance",
        passed=deviation <= 1e-12,
        worst_deviation=deviation,
        details=f"{steps} steps, {config.n_cells} cells",
    )


def check_rule_unitary(config: QcaConfig, tol: float = 1e-12) -> CheckReport:
    return replace(check_unitary(build_dense_rule(config), tol), name="rule-unitary")
