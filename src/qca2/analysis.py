"""Structural checks and period detection for probability patterns."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .gates import UNITARY_TOL, unitary_deviation
from .rules import (
    BoundaryCondition,
    QcaConfig,
    build_dense_rule,
    evolve,
    interaction_images,
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


def check_unitary(op: np.ndarray, tol: float = UNITARY_TOL) -> CheckReport:
    """Max-norm distance of op†·op from the identity."""
    deviation = unitary_deviation(op)
    return CheckReport(
        name="unitary",
        passed=deviation <= tol,
        worst_deviation=deviation,
        details=f"dimension {op.shape[0]}, tolerance {tol:g}",
    )


def check_interaction(config: QcaConfig) -> CheckReport:
    """Verify the interaction maps the basis indices one to one and keeps
    every s-bit of each: its deviation is the largest miscount of how often
    an index is hit, plus the number of indices whose s-bits move."""
    images = interaction_images(config)
    dim = images.size
    perm_dev = float(np.abs(np.bincount(images, minlength=dim) - 1).max())
    s_mask = sum(1 << config.layout.s_bit(j) for j in range(config.n_cells))
    violations = int(np.count_nonzero((images ^ np.arange(dim)) & s_mask))
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
    pair that misses; every difference goes to one reused column buffer.
    Columns are read fastest from an F-contiguous matrix, as `evolve` makes.
    """
    if matrix.ndim != 2 or matrix.shape[1] < 1:
        raise ValueError("probability matrix must have at least one column")
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    n_cols = matrix.shape[1]
    diff = np.empty(matrix.shape[0])
    for p in range(1, (n_cols - 1) // 2 + 1):
        deviation = 0.0
        for t in range(n_cols - p):
            np.subtract(matrix[:, t], matrix[:, t + p], out=diff)
            d = float(np.max(np.abs(diff, out=diff)))
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


def check_rule_unitary(config: QcaConfig) -> CheckReport:
    return replace(check_unitary(build_dense_rule(config)), name="rule-unitary")
